"""Homomorphic operations: encrypt, decrypt, addition, plaintext
multiplication, rescaling, and slot rotation.

Ciphertexts are (c0, c1) pairs in the NTT domain; residues shaped
(chunks, rows, N) make a batch with one level and one scale. Only the
operations the encrypted weighted-average pipeline needs are provided;
there is no ciphertext-ciphertext multiplication and no bootstrapping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import (AlignmentError, DomainError, LevelError,
                      ParameterError, ShapeError)
from .encoding import Plaintext
from .keys import KeyMaterial, public_part
from .nttmath import shoup_constant, shoup_mul, submod
from .params import EncryptionParams
from .poly import (COEFF, NTT, RingPoly, from_signed_coeffs, ntt_forward,
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

    def __len__(self) -> int:
        if not self.c0.batch_shape:
            raise ShapeError("a single ciphertext is not a batch of chunks")
        return self.c0.batch_shape[0]

    def __getitem__(self, i) -> "Ciphertext":
        """Chunk i of a batch (a slice gives a sub-batch), as a view."""
        len(self)  # a single ciphertext has no chunks
        return Ciphertext(self.c0._like(self.c0.residues[i]),
                          self.c1._like(self.c1.residues[i]), self.scale,
                          self.level)


def encrypt(pt: Plaintext, keys, rng_seed=0) -> Ciphertext:
    """Public-key encryption, deterministic in rng_seed: one int per
    chunk of a batch, each seeding its chunk's noise as it would alone."""
    pub = public_part(keys)
    params = pub.params
    if pt.poly.params != params:
        raise ParameterError("plaintext was encoded under different parameters")
    seeds = np.asarray(rng_seed, dtype=object)
    if seeds.shape != pt.poly.batch_shape:
        raise ShapeError(f"one seed per chunk needed, got {seeds.shape}")
    basis, shape = tuple(range(pt.level + 1)), pt.poly.residues.shape
    rngs = [np.random.default_rng(np.random.SeedSequence([int(s), 0xE2C]))
            for s in seeds.flat]
    # v, e0 and e1 over the whole batch; each chunk's generator draws
    # them in that order, as for a single ciphertext
    v, e0, e1 = (ntt_forward(RingPoly(params, basis, np.reshape(
        [sample(params, basis, rng).residues for rng in rngs], shape), COEFF))
        for sample in (sample_ternary, sample_gaussian, sample_gaussian))
    c0 = v.mul_fixed(pub.pk0).add(e0).add(pt.poly)
    c1 = v.mul_fixed(pub.pk1).add(e1)
    return Ciphertext(c0=c0, c1=c1, scale=pt.scale, level=pt.level)


def decrypt(ct: Ciphertext, keys: KeyMaterial) -> Plaintext:
    """c0 + c1*s at the ciphertext's level and scale."""
    if not isinstance(keys, KeyMaterial):
        raise ParameterError("decryption requires full key material")
    if keys.params != ct.params:
        raise ParameterError("ciphertext and keys use different parameters")
    m = ct.c0.add(ct.c1.mul_fixed(keys.secret_key))
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
    ct.c0._check_compatible(pt.poly, broadcast=True)
    return Ciphertext(c0=ct.c0.mul_fixed(pt.shoup),
                      c1=ct.c1.mul_fixed(pt.shoup),
                      scale=ct.scale * pt.scale, level=ct.level)


def _div_round_drop(p: RingPoly, drop_index: int) -> RingPoly:
    """Exact rounded division by the basis prime at drop_index; that
    prime leaves the basis. Input and output are NTT-domain."""
    params = p.params
    q_drop = params.primes[drop_index]
    pos = p.prime_indices.index(drop_index)
    dropped = params.stacked_ntt((drop_index,)).inverse(
        p.residues[..., pos:pos + 1, :])[..., 0, :].astype(np.int64)
    dropped = np.where(dropped > q_drop // 2, dropped - q_drop, dropped)

    keep = p.prime_indices[:pos] + p.prime_indices[pos + 1:]
    corr = ntt_forward(from_signed_coeffs(dropped, params, keep))
    q = corr.q_column
    inv = np.array([pow(q_drop, -1, qj) for qj in corr.primes],
                   dtype=np.uint64)[:, None]
    diff = submod(np.delete(p.residues, pos, axis=-2), corr.residues, q)
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
    pub = public_part(keys)
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
        d = c1_auto.residues[..., digit_pos, :].astype(np.int64)
        d = np.where(d > qi // 2, d - qi, d)
        d_ext = ntt_forward(from_signed_coeffs(d, params, ext))
        term_b = d_ext.mul_fixed(gkey.ks_b[digit_idx])
        term_a = d_ext.mul_fixed(gkey.ks_a[digit_idx])
        acc_b = term_b if acc_b is None else acc_b.add(term_b)
        acc_a = term_a if acc_a is None else acc_a.add(term_a)

    ks0 = _div_round_drop(acc_b, special)
    ks1 = _div_round_drop(acc_a, special)
    c0 = ntt_forward(c0_auto).add(ks0)
    return Ciphertext(c0=c0, c1=ks1, scale=ct.scale, level=ct.level)
