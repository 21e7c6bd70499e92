"""RNS polynomials over Z_q[X]/(X^N + 1).

A RingPoly holds one uint64 residue row per active prime; leading axes
make it a batch of polynomials on one basis. The active basis is
described by indices into the modulus chain, so level drops and key
material share one representation. Values are immutable by convention:
operations return new polynomials.

A ShoupPoly is a fixed multiplier (a key or a plaintext): an
NTT-domain polynomial with its Shoup tables. RingPoly.mul_fixed takes
one, in word arithmetic; no multiply uses object dtype.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from ..errors import DomainError, ParameterError, ShapeError
from .nttmath import addmod, shoup_constant, shoup_mul, submod
from .params import EncryptionParams, basis_rows

GAUSSIAN_STDDEV = 3.2

COEFF = "coeff"
NTT = "ntt"


@dataclass(frozen=True)
class RingPoly:
    params: EncryptionParams
    prime_indices: tuple[int, ...]
    residues: np.ndarray  # (..., len(prime_indices), ring_degree), uint64
    domain_tag: str

    def __post_init__(self):
        if self.residues.shape[-2:] != (len(self.prime_indices),
                                        self.params.ring_degree):
            raise ParameterError("residue matrix shape does not match basis")
        if self.domain_tag not in (COEFF, NTT):
            raise DomainError(f"unknown domain tag {self.domain_tag!r}")

    @property
    def primes(self) -> tuple[int, ...]:
        return self.params.primes(self.prime_indices)

    @property
    def batch_shape(self) -> tuple[int, ...]:
        return self.residues.shape[:-2]

    @property
    def q_column(self) -> np.ndarray:
        """The basis primes as a read-only (rows, 1) column for
        broadcasting."""
        return self.params.q_column(self.prime_indices)

    def _check_compatible(self, other: "RingPoly", broadcast=False) -> None:
        """Same basis, domain and batch shape (batches must not broadcast);
        with `broadcast`, a single `other` may meet a whole batch."""
        if self.params is not other.params and self.params != other.params:
            raise ParameterError("polynomials from different parameter sets")
        if self.prime_indices != other.prime_indices:
            raise DomainError("active prime sets differ")
        if self.domain_tag != other.domain_tag:
            raise DomainError(
                f"domain mismatch: {self.domain_tag} vs {other.domain_tag}")
        if (self.batch_shape != other.batch_shape
                and not (broadcast and other.batch_shape == ())):
            raise ShapeError(f"batch shapes differ: {self.batch_shape} vs "
                             f"{other.batch_shape}")

    def _like(self, residues: np.ndarray) -> "RingPoly":
        return RingPoly(self.params, self.prime_indices, residues,
                        self.domain_tag)

    def add(self, other: "RingPoly") -> "RingPoly":
        self._check_compatible(other)
        return self._like(addmod(self.residues, other.residues, self.q_column))

    def neg(self) -> "RingPoly":
        return self._like(submod(0, self.residues, self.q_column))

    def mul_fixed(self, fixed: "ShoupPoly") -> "RingPoly":
        """Pointwise product with a fixed multiplier whose basis holds
        this one's primes; a single multiplier broadcasts over a batch."""
        if self.domain_tag != NTT:
            raise DomainError("fixed multiply requires NTT domain")
        rows = basis_rows(fixed.poly.prime_indices, self.prime_indices)
        return self._like(shoup_mul(
            self.residues, fixed.poly.residues[..., rows, :],
            tuple(h[..., rows, :] for h in fixed.shoup), self.q_column))


@dataclass(frozen=True)
class ShoupPoly:
    """NTT-domain polynomial with the Shoup constants of its residues, so
    that it multiplies other residues without big-int arithmetic."""
    poly: RingPoly
    shoup: tuple[np.ndarray, np.ndarray]  # 32-bit halves, as shoup_constant

    @classmethod
    def wrap(cls, poly: RingPoly) -> "ShoupPoly":
        if poly.domain_tag != NTT:
            raise DomainError("Shoup tables require NTT domain")
        return cls(poly, shoup_constant(poly.residues, poly.q_column))


def ntt_forward(p: RingPoly) -> RingPoly:
    """Coefficient domain -> NTT (evaluation) domain."""
    if p.domain_tag != COEFF:
        raise DomainError("ntt_forward expects a coefficient-domain polynomial")
    ctx = p.params.stacked_ntt(p.prime_indices)
    return RingPoly(p.params, p.prime_indices, ctx.forward(p.residues), NTT)


def ntt_inverse(p: RingPoly) -> RingPoly:
    """NTT domain -> coefficient domain."""
    if p.domain_tag != NTT:
        raise DomainError("ntt_inverse expects an NTT-domain polynomial")
    ctx = p.params.stacked_ntt(p.prime_indices)
    return RingPoly(p.params, p.prime_indices, ctx.inverse(p.residues), COEFF)


def from_signed_coeffs(values: np.ndarray, params: EncryptionParams,
                       prime_indices: tuple[int, ...]) -> RingPoly:
    """Build a coefficient-domain polynomial from signed int64
    coefficients, shaped (..., ring_degree)."""
    q = params.q_column(prime_indices).view(np.int64)
    res = np.mod(values[..., None, :], q).view(np.uint64)
    return RingPoly(params, prime_indices, res, COEFF)


def centered(residues: np.ndarray, q: int) -> np.ndarray:
    """Residues below q as int64 representatives in (-q/2, q/2]."""
    v = residues.astype(np.int64)
    return np.where(v > q // 2, v - q, v)


def sample_ternary(params: EncryptionParams, prime_indices: tuple[int, ...],
                   rng: np.random.Generator) -> RingPoly:
    v = rng.integers(-1, 2, params.ring_degree).astype(np.int64)
    return from_signed_coeffs(v, params, prime_indices)


def sample_gaussian(params: EncryptionParams, prime_indices: tuple[int, ...],
                    rng: np.random.Generator) -> RingPoly:
    v = np.round(rng.normal(0.0, GAUSSIAN_STDDEV, params.ring_degree)
                 ).astype(np.int64)
    return from_signed_coeffs(v, params, prime_indices)


def expand_seed(seed: bytes, q: int, n: int) -> np.ndarray:
    """The n residues below q that `seed` expands to: its SHAKE-128
    stream read as 8-byte little-endian words, each masked to q's bit
    length and kept if below q, the first n kept in order (see
    docs/protocol.md). The stream is read far enough for n with a wide
    margin, and further in the rare case that is short."""
    bits = q.bit_length()
    mask, q64 = np.uint64((1 << bits) - 1), np.uint64(q)
    words = n * (1 << bits) // q + n // 8 + 64
    while True:
        w = np.frombuffer(hashlib.shake_128(seed).digest(8 * words),
                          dtype="<u8") & mask
        kept = w[w < q64]
        if kept.size >= n:
            return kept[:n].astype(np.uint64)
        words *= 2
