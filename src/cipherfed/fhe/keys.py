"""Key generation: secret/public pair and Galois rotation keys.

Key-switching uses per-prime digit decomposition with one auxiliary
prime P: the key for digit i encrypts P * T_i * phi(s), where T_i is the
CRT selector of chain prime i. Switching then costs one inner product
over the digits followed by an exact divide-by-P, keeping the added
noise around (max_prime / P) * fresh-noise.

Keys are poly.ShoupPolys, and keygen multiplies through their tables too.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ParameterError, RotationKeyError
from .params import EncryptionParams
from .poly import (ShoupPoly, ntt_forward, sample_gaussian, sample_ternary,
                   sample_uniform)


@dataclass(frozen=True)
class GaloisKey:
    """Key-switching key for one rotation step: one (b, a) pair per
    decomposition digit, all over the extended basis (chain + P)."""
    step: int
    ks_b: tuple[ShoupPoly, ...]
    ks_a: tuple[ShoupPoly, ...]


@dataclass(frozen=True)
class PublicMaterial:
    """Everything the aggregation server is allowed to hold: parameters,
    the encryption key, and rotation keys. No decryption capability."""
    params: EncryptionParams
    pk0: ShoupPoly
    pk1: ShoupPoly
    galois_keys: dict[int, GaloisKey] = field(default_factory=dict)

    def galois_key(self, step: int) -> GaloisKey:
        try:
            return self.galois_keys[step]
        except KeyError:
            raise RotationKeyError(
                f"no Galois key for rotation step {step}") from None


@dataclass(frozen=True)
class KeyMaterial:
    """Full key set: public material plus the ternary secret key."""
    public: PublicMaterial
    secret_key: ShoupPoly  # NTT domain, extended basis

    @property
    def params(self) -> EncryptionParams:
        return self.public.params

    @property
    def galois_keys(self) -> dict[int, GaloisKey]:
        return self.public.galois_keys


def public_part(keys: KeyMaterial | PublicMaterial) -> PublicMaterial:
    """The public half of a key set; public material is its own."""
    return keys.public if isinstance(keys, KeyMaterial) else keys


def _crt_selector_times_p(params: EncryptionParams, digit: int) -> int:
    """P * T_digit where T_digit is 1 mod q_digit and 0 mod other chain
    primes (an integer; callers reduce it per basis prime)."""
    big_q = 1
    for q in params.modulus_chain:
        big_q *= q
    qi = params.modulus_chain[digit]
    hat = big_q // qi
    return params.key_switch_prime * hat * pow(hat, qi - 2, qi)


def keygen(params: EncryptionParams, rotation_steps=(),
           rng_seed: int = 0) -> KeyMaterial:
    """Generate secret, public, and Galois keys, deterministically in
    the seed."""
    steps = sorted(set(int(s) for s in rotation_steps))
    for s in steps:
        if not 1 <= s < params.slot_count:
            raise ParameterError(
                f"rotation step {s} outside [1, {params.slot_count})")
    rng = np.random.default_rng(np.random.SeedSequence([rng_seed, 0xC1F]))
    n_chain = len(params.modulus_chain)
    full = tuple(range(n_chain + 1))   # chain primes + key-switch prime
    chain = tuple(range(n_chain))

    s_coeff = sample_ternary(params, full, rng)
    secret = ShoupPoly.wrap(ntt_forward(s_coeff))

    # public key over the chain basis: pk0 = -(a*s) + e, pk1 = a
    a = ntt_forward(sample_uniform(params, chain, rng))
    e = ntt_forward(sample_gaussian(params, chain, rng))
    pk0 = ShoupPoly.wrap(a.mul_fixed(secret).neg().add(e))

    galois: dict[int, GaloisKey] = {}
    two_n = 2 * params.ring_degree
    for step in steps:
        g = pow(5, step, two_n)
        phi_s = ntt_forward(s_coeff.automorphism(g))
        ks_b = []
        ks_a = []
        for digit in range(n_chain):
            a_i = ntt_forward(sample_uniform(params, full, rng))
            e_i = ntt_forward(sample_gaussian(params, full, rng))
            body = phi_s.mul_fixed(ShoupPoly.constant(
                _crt_selector_times_p(params, digit), params, full))
            b_i = a_i.mul_fixed(secret).neg().add(e_i).add(body)
            ks_b.append(ShoupPoly.wrap(b_i))
            ks_a.append(ShoupPoly.wrap(a_i))
        galois[step] = GaloisKey(step=step, ks_b=tuple(ks_b), ks_a=tuple(ks_a))

    pub = PublicMaterial(params=params, pk0=pk0, pk1=ShoupPoly.wrap(a),
                         galois_keys=galois)
    return KeyMaterial(public=pub, secret_key=secret)
