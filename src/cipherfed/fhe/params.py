"""Encryption parameter set and its NTT contexts.

SECURITY NOTE: the default parameters are sized for correctness
demonstrations and reproducible tests, not for audited security levels.
Do not use this implementation to protect real data.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import cached_property

from ..errors import ParameterError
from .nttmath import StackedNtt, find_ntt_primes, is_prime, prime_column

DEFAULT_SCALE_BITS = 40
# the ring degrees N that parameters, and so artifacts, may have: powers
# of two up to the largest ring in the HE security standard's tables
RING_DEGREES = frozenset(1 << k for k in range(10, 16))
MAX_RING_DEGREE = max(RING_DEGREES)
RING_DEGREE_RULE = f"power-of-two N >= 1024 and <= {MAX_RING_DEGREE}"


@dataclass(frozen=True)
class EncryptionParams:
    """Ring degree, RNS modulus chain, and encoding scale.

    The chain is ordered: index 0 is the base prime that survives to the
    last level, the final entry is the first prime dropped by rescale.
    """

    ring_degree: int
    modulus_chain: tuple[int, ...]
    scale: float = float(1 << DEFAULT_SCALE_BITS)

    def __post_init__(self):
        n = self.ring_degree
        if n not in RING_DEGREES:
            raise ParameterError(f"ring_degree must be a power of two from "
                                 f"1024 to {MAX_RING_DEGREE}, got {n}")
        chain = tuple(int(q) for q in self.modulus_chain)
        object.__setattr__(self, "modulus_chain", chain)
        if len(chain) < 2:
            raise ParameterError("modulus_chain needs at least 2 primes "
                                 "(one rescale level)")
        if len(set(chain)) != len(chain):
            raise ParameterError("modulus_chain primes must be distinct")
        for q in chain:
            if q >= 1 << 62:
                raise ParameterError(
                    f"modulus {q} is not below 2^62, the word-size limit")
            if not is_prime(q):
                raise ParameterError(f"modulus {q} is not prime")
            if q % (2 * n) != 1:
                raise ParameterError(
                    f"prime {q} is not 1 mod 2N={2 * n}; NTT unavailable")
        if not self.scale > 0:
            raise ParameterError("scale must be positive")
        if self.scale != 2.0 ** round(math.log2(self.scale)):
            raise ParameterError("scale must be a power of two")
        if self.scale >= min(chain):
            raise ParameterError(
                f"scale {self.scale} must be below the smallest chain prime")

    @property
    def slot_count(self) -> int:
        return self.ring_degree // 2

    @property
    def max_level(self) -> int:
        return len(self.modulus_chain) - 1

    @property
    def seeded_bits(self) -> int:
        """k of Q = 2^k, one bit below q0 (60 at the defaults): the
        modulus of the seeded uploads and aggregates, which run no NTT."""
        return self.modulus_chain[0].bit_length() - 1

    @property
    def ntt(self) -> StackedNtt:
        """NTT context over every prime of the chain."""
        return self.stacked_ntt(tuple(range(len(self.modulus_chain))))

    def _cached(self, key, build):
        cache = self.__dict__.setdefault("_cache", {})
        return cache[key] if key in cache else cache.setdefault(key, build())

    def stacked_ntt(self, prime_indices: tuple[int, ...]) -> StackedNtt:
        """NTT context for these chain primes, built on first use: a run
        over q0 alone builds no other prime's tables."""
        return self._cached(("ntt", prime_indices), lambda: StackedNtt(
            self.primes(prime_indices), self.ring_degree))

    def q_column(self, prime_indices: tuple[int, ...]):
        """These chain primes as a read-only (rows, 1) uint64 column."""
        return self._cached(("q", prime_indices),
                            lambda: prime_column(self.primes(prime_indices)))

    def primes(self, prime_indices: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(self.modulus_chain[i] for i in prime_indices)

    @cached_property
    def digest(self) -> bytes:
        """8-byte parameter fingerprint used by the wire formats."""
        h = hashlib.sha256()
        h.update(self.ring_degree.to_bytes(4, "little"))
        for q in self.modulus_chain:
            h.update(q.to_bytes(8, "little"))
        h.update(int(self.scale).to_bytes(16, "little"))
        return h.digest()[:8]

    @cached_property
    def rot_group(self) -> list[int]:
        """Slot-to-root exponent map: slot j reads the evaluation at
        zeta^(5^j mod 2N); see encoding.py for why the order stays."""
        two_n = 2 * self.ring_degree
        out = []
        g = 1
        for _ in range(self.slot_count):
            out.append(g)
            g = g * 5 % two_n
        return out


def basis_rows(basis: tuple[int, ...], sub: tuple[int, ...]) -> slice:
    """Where the primes of `sub`, a run of `basis`, sit among its rows:
    a slice, which views them."""
    start = basis.index(sub[0])
    if basis[start:start + len(sub)] != sub:
        raise ParameterError(f"basis {sub} is not a run of {basis}")
    return slice(start, start + len(sub))


def default_params(ring_degree: int = 4096,
                   scale_bits: int = DEFAULT_SCALE_BITS,
                   chain_bits: tuple[int, ...] = (60, 40, 40)) -> EncryptionParams:
    """Standard parameter set: N=4096, a 60-bit base prime and two
    ~40-bit rescale primes, scale 2^40."""
    two_n = 2 * ring_degree
    chain: list[int] = []
    for bits in chain_bits:
        chain.append(find_ntt_primes(bits, 1, two_n, skip=tuple(chain))[0])
    return EncryptionParams(ring_degree=ring_degree,
                            modulus_chain=tuple(chain),
                            scale=float(1 << scale_bits))
