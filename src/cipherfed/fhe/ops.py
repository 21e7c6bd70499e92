"""Homomorphic operations: encrypt, decrypt, addition, plaintext
multiplication, rescaling, and slot rotation.

Ciphertexts are (c0, c1) pairs in the NTT domain. Only the operations the
encrypted weighted-average pipeline needs are provided; there is no
ciphertext-ciphertext multiplication and no bootstrapping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import AlignmentError, DomainError, LevelError, ParameterError
from .encoding import Plaintext
from .keys import KeyMaterial, PublicMaterial, ShoupPoly
from .nttmath import shoup_constant, shoup_mul, submod
from .params import EncryptionParams, basis_rows
from .poly import (NTT, RingPoly, from_signed_coeffs, ntt_forward,
                   ntt_inverse, sample_gaussian, sample_ternary)

SCALE_MATCH_RTOL = 2.0 ** -30


@dataclass(frozen=True)
class Ciphertext:
    c0: RingPoly
    c1: RingPoly
    scale: float
    level: int

    def __post_init__(self):
        if self.c0.domain_tag != self.c1.domain_tag:
            raise DomainError("ciphertext halves in different domains")
        if self.c0.prime_indices != self.c1.prime_indices:
            raise AlignmentError("ciphertext halves on different bases")
        if len(self.c0.prime_indices) != self.level + 1:
            raise LevelError("active prime count does not match level")

    @property
    def params(self) -> EncryptionParams:
        return self.c0.params


def _public_part(keys) -> PublicMaterial:
    return keys.public if isinstance(keys, KeyMaterial) else keys


def _mul_fixed(p: RingPoly, fixed: ShoupPoly) -> RingPoly:
    """Pointwise product of an NTT-domain polynomial with the rows of a
    fixed (Shoup-precomputed) polynomial for p's basis."""
    rows = basis_rows(fixed.poly.prime_indices, p.prime_indices)
    return p.mul_fixed(fixed.poly.residues[rows],
                       tuple(h[rows] for h in fixed.shoup))


def encrypt(pt: Plaintext, keys, rng_seed: int = 0) -> Ciphertext:
    """Public-key encryption; deterministic in rng_seed."""
    pub = _public_part(keys)
    params = pub.params
    if pt.poly.params != params:
        raise ParameterError("plaintext was encoded under different parameters")
    basis = tuple(range(pt.level + 1))
    rng = np.random.default_rng(np.random.SeedSequence([rng_seed, 0xE2C]))
    v = ntt_forward(sample_ternary(params, basis, rng))
    e0 = ntt_forward(sample_gaussian(params, basis, rng))
    e1 = ntt_forward(sample_gaussian(params, basis, rng))
    c0 = _mul_fixed(v, pub.pk0).add(e0).add(pt.poly)
    c1 = _mul_fixed(v, pub.pk1).add(e1)
    return Ciphertext(c0=c0, c1=c1, scale=pt.scale, level=pt.level)


def decrypt(ct: Ciphertext, keys: KeyMaterial) -> Plaintext:
    """c0 + c1*s at the ciphertext's level and scale."""
    if not isinstance(keys, KeyMaterial):
        raise ParameterError("decryption requires full key material")
    if keys.params != ct.params:
        raise ParameterError("ciphertext and keys use different parameters")
    m = ct.c0.add(_mul_fixed(ct.c1, keys.secret_key))
    return Plaintext(poly=m, scale=ct.scale, level=ct.level)


def add_ct(a: Ciphertext, b: Ciphertext) -> Ciphertext:
    if a.level != b.level:
        raise AlignmentError(f"level mismatch: {a.level} vs {b.level}")
    if abs(a.scale - b.scale) > SCALE_MATCH_RTOL * a.scale:
        raise AlignmentError(f"scale mismatch: {a.scale} vs {b.scale}")
    return Ciphertext(c0=a.c0.add(b.c0), c1=a.c1.add(b.c1),
                      scale=a.scale, level=a.level)


def mul_plain(ct: Ciphertext, pt: Plaintext) -> Ciphertext:
    """Slotwise ciphertext * plaintext through the plaintext's Shoup
    table; scales multiply. Follow with rescale() to bring the scale back
    down."""
    if ct.level != pt.level:
        raise AlignmentError(f"level mismatch: {ct.level} vs {pt.level}")
    ct.c0._check_compatible(pt.poly)
    if pt.poly.domain_tag != NTT:
        raise DomainError("pointwise product requires NTT domain")
    w, w_shoup = pt.shoup
    return Ciphertext(c0=ct.c0.mul_fixed(w, w_shoup),
                      c1=ct.c1.mul_fixed(w, w_shoup),
                      scale=ct.scale * pt.scale, level=ct.level)


def _div_round_drop(p: RingPoly, drop_index: int) -> RingPoly:
    """Exact rounded division by the basis prime at drop_index; that
    prime leaves the basis. Input and output are NTT-domain."""
    params = p.params
    q_drop = params.primes[drop_index]
    pos = p.prime_indices.index(drop_index)
    dropped = params.stacked_ntt((drop_index,)).inverse(
        p.residues[pos:pos + 1])[0].astype(np.int64)
    dropped = np.where(dropped > q_drop // 2, dropped - q_drop, dropped)

    keep = p.prime_indices[:pos] + p.prime_indices[pos + 1:]
    corr = ntt_forward(from_signed_coeffs(dropped, params, keep))
    q = corr.q_column
    inv = np.array([pow(q_drop, -1, qj) for qj in corr.primes],
                   dtype=np.uint64)[:, None]
    diff = submod(np.delete(p.residues, pos, axis=0), corr.residues, q)
    return RingPoly(params, keep, shoup_mul(diff, inv, shoup_constant(inv, q),
                                            q), NTT)


def rescale(ct: Ciphertext) -> Ciphertext:
    """Drop the top chain prime: level decreases by one and the scale is
    divided by exactly that prime."""
    if ct.level < 1:
        raise LevelError("cannot rescale at level 0: modulus chain exhausted")
    drop = ct.level
    q_drop = ct.params.modulus_chain[drop]
    return Ciphertext(c0=_div_round_drop(ct.c0, drop),
                      c1=_div_round_drop(ct.c1, drop),
                      scale=ct.scale / q_drop, level=ct.level - 1)


def rotate(ct: Ciphertext, step: int, keys) -> Ciphertext:
    """Cyclic left shift of the slot vector by `step`.

    Requires the Galois key for the reduced step; step 0 is the identity
    and needs no key.
    """
    pub = _public_part(keys)
    params = ct.params
    step = int(step) % params.slot_count
    if step == 0:
        return ct
    gkey = pub.galois_key(step)

    two_n = 2 * params.ring_degree
    g = pow(5, step, two_n)
    c0_auto = ntt_inverse(ct.c0).automorphism(g)
    c1_auto = ntt_inverse(ct.c1).automorphism(g)

    active = ct.c0.prime_indices
    special = len(params.modulus_chain)
    ext = active + (special,)

    acc_b = None
    acc_a = None
    for digit_pos, digit_idx in enumerate(active):
        qi = params.primes[digit_idx]
        d = c1_auto.residues[digit_pos].astype(np.int64)
        d = np.where(d > qi // 2, d - qi, d)
        d_ext = ntt_forward(from_signed_coeffs(d, params, ext))
        term_b = _mul_fixed(d_ext, gkey.ks_b[digit_idx])
        term_a = _mul_fixed(d_ext, gkey.ks_a[digit_idx])
        acc_b = term_b if acc_b is None else acc_b.add(term_b)
        acc_a = term_a if acc_a is None else acc_a.add(term_a)

    ks0 = _div_round_drop(acc_b, special)
    ks1 = _div_round_drop(acc_a, special)
    c0 = ntt_forward(c0_auto).add(ks0)
    return Ciphertext(c0=c0, c1=ks1, scale=ct.scale, level=ct.level)
