"""Homomorphic operations: encrypt, decrypt, addition, plaintext
multiplication and rescaling.

Ciphertexts are (c0, c1) pairs in the NTT domain; residues shaped
(chunks, rows, N) make a batch with one level and one scale. Only the
operations the encrypted weighted-average pipeline needs are provided;
there is no ciphertext-ciphertext multiplication and no bootstrapping.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from ..errors import (AlignmentError, DomainError, LevelError,
                      ParameterError, ShapeError)
from .encoding import Plaintext
from .keys import KeyMaterial, public_part
from .nttmath import shoup_constant, shoup_mul, submod
from .params import EncryptionParams
from .poly import (COEFF, NTT, RingPoly, expand_seed, from_signed_coeffs,
                   ntt_forward, sample_gaussian, sample_ternary)

SCALE_MATCH_RTOL = 2.0 ** -30
SEED_BYTES = 32
# hashed with a chunk's seed int into the 32-byte seed of its c1; the tag
# predates `CKV4` and keeps its bytes, so the seeds do too
_SEED_TAG = b"cipherfed CKV3 c1"


@dataclass(frozen=True)
class Ciphertext:
    c0: RingPoly
    c1: RingPoly
    scale: float
    level: int
    # a level-0 batch from encrypt_symmetric or the `CKV4` reader: chunk
    # i's c1 is expanded from seeds[i], 32 bytes
    seeds: tuple[bytes, ...] | None = None

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
        """Chunk i of a batch (a slice gives a sub-batch), as a view
        without the seeds."""
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


def expand_c1(seeds, params: EncryptionParams) -> RingPoly:
    """The level-0 NTT-domain batch whose chunk i is expanded from
    seeds[i]: the c1 of a seeded ciphertext."""
    q0, n = params.modulus_chain[0], params.ring_degree
    return RingPoly(params, (0,), np.stack(
        [expand_seed(s, q0, n) for s in seeds])[:, None, :], NTT)


def encrypt_symmetric(pt: Plaintext, keys: KeyMaterial,
                      rng_seed) -> Ciphertext:
    """Seeded secret-key encryption of a coefficient-domain level-0
    batch (encode_coeffs), deterministic in rng_seed: one int per chunk.

    Chunk i's 32-byte seed is SHA-256 of a tag and its int; c1 = a is
    expanded from that seed, and c0 = -a*s + NTT(m + e). The error e goes
    into the coefficients, so a chunk takes one 1-row NTT. e is drawn
    from a generator seeded by the int itself, which never goes on the
    wire. This is the compressed symmetric ciphertext of SEAL's
    Encryptor::encrypt_symmetric.
    """
    if not isinstance(keys, KeyMaterial):
        raise ParameterError("secret-key encryption requires full key "
                             "material")
    params, poly = keys.params, pt.poly
    if poly.params != params:
        raise ParameterError("plaintext was encoded under different parameters")
    if pt.level != 0 or poly.domain_tag != COEFF:
        raise DomainError("seeded encryption takes a level-0 "
                          "coefficient-domain plaintext")
    ints = np.asarray(rng_seed, dtype=object)
    if ints.ndim != 1 or ints.shape != poly.batch_shape:
        raise ShapeError(f"one seed per chunk of a batch needed, got "
                         f"{ints.shape}")
    seeds = tuple(hashlib.sha256(_SEED_TAG + int(s).to_bytes(8, "little"))
                  .digest() for s in ints)
    e = np.reshape([sample_gaussian(params, (0,), np.random.default_rng(
        np.random.SeedSequence([int(s), 0x5EC]))).residues for s in ints],
        poly.residues.shape)
    a = expand_c1(seeds, params)
    c0 = a.mul_fixed(keys.secret_key).neg().add(
        ntt_forward(poly.add(poly._like(e))))
    return Ciphertext(c0=c0, c1=a, scale=pt.scale, level=0, seeds=seeds)


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
    q_drop = params.modulus_chain[drop_index]
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
