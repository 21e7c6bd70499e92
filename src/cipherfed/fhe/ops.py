"""Homomorphic operations: encrypt, decrypt, addition, plaintext
multiplication and rescaling.

Ciphertexts are (c0, c1) pairs in the NTT domain; residues shaped
(chunks, rows, N) make a batch with one level and one scale. A
SeededBatch is the federation's level-0 upload or aggregate: the
coefficients of c0 that carry values, and seeds in place of c1, all in
the coefficient domain mod Q = 2^k, where sums wrap in u64 words, the
products by s are exact float64 FFTs (fftmath) and no NTT runs. Only
the operations the encrypted weighted-average pipeline needs are
provided; there is no ciphertext-ciphertext multiplication and no
bootstrapping.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from ..errors import (AlignmentError, DomainError, LevelError,
                      ParameterError, ShapeError)
from .encoding import Plaintext
from .keys import KeyMaterial
from .nttmath import shoup_constant, shoup_mul, submod
from .params import EncryptionParams
from .poly import (COEFF, GAUSSIAN_STDDEV, NTT, RingPoly, ShoupPoly,
                   centered, expand_seed, from_signed_coeffs, ntt_forward,
                   sample_gaussian, sample_ternary)

SCALE_MATCH_RTOL = 2.0 ** -30
SEED_BYTES = 32
# a seeded upload's error is its rounded normal clipped at 6 deviations,
# as SEAL's clipped normal sampler draws it: |e| <= 19 is a bound, not a
# tail
ERROR_CLIP = 19
# hashed with a chunk's seed int into the 32-byte seed of its c1; the tag
# predates every seeded layout since `CKV4` and keeps its bytes, so the
# seeds do too
_SEED_TAG = b"cipherfed CKV3 c1"


def check_level(rows: int, level: int) -> None:
    """LevelError unless a ciphertext at `level` has level + 1 rows."""
    if rows != level + 1:
        raise LevelError("active prime count does not match level")


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
        check_level(len(self.c0.prime_indices), self.level)

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


@dataclass(frozen=True)
class SeededBatch:
    """A level-0 seeded upload of P coefficients in c = ceil(P / N)
    chunks, or the sum of K such uploads.

    c0 holds the first P coefficients of sum_k c0_k mod Q = 2^k in the
    coefficient domain: coefficient j*N + i is coefficient i of chunk j,
    and each chunk's coefficients past P are dropped. c1 = sum_k a_k mod
    Q never travels: chunk j of a_k is expanded from seeds[k * c + j].
    `a`, when given, is that c1 already in memory, as encryption and an
    aggregate of such uploads hold it; otherwise `c1` expands the seeds.
    `counts` are the sample counts of the K clients, one each, which a
    GLOBAL carries; a federation upload holds its client's n_k * w_k at
    scale * n_k, so that the sum needs no weights. `quantization` is the
    federation's QuantizationSpec of the values it holds, which
    encrypt_model records and aggregate and the readers of the wire
    carry, or None; decrypt_and_load and the wire's rounding read it.
    """
    params: EncryptionParams
    c0: np.ndarray  # (P,) uint64 below Q
    scale: float
    seeds: tuple[bytes, ...]
    counts: tuple[int, ...]
    a: RingPoly | None = None
    quantization: object = None

    level = 0

    def __post_init__(self):
        if self.c0.ndim != 1 or self.c0.size < 1:
            raise ShapeError("a seeded batch holds a vector of at least "
                             "one coefficient")
        if not self.counts or len(self.seeds) != len(self.counts) * len(self):
            raise ShapeError("a seeded batch needs one seed per client "
                             "and chunk, and one count per client")

    def __len__(self) -> int:
        return -(-self.c0.size // self.params.ring_degree)

    @property
    def c1(self) -> RingPoly:
        if self.a is not None:
            return self.a
        return seeded_c1(self.seeds, len(self), self.params)

    def __getitem__(self, i) -> Ciphertext:
        """Chunk i (a slice gives a sub-batch) as an NTT-domain
        Ciphertext under q0 of c0, its dropped coefficients 0, and c1: a
        view of this batch's level and size, which no longer decrypts
        under q0, since the batch's words are mod Q."""
        n = self.params.ring_degree
        c0 = np.zeros((len(self), 1, n), dtype=np.uint64)
        c0.reshape(-1)[:self.c0.size] = self.c0
        c0, c1 = (ntt_forward(p) for p in
                  (RingPoly(self.params, (0,), c0, COEFF), self.c1))
        return Ciphertext(c0, c1, self.scale, 0)[i]


def encrypt(pt: Plaintext, keys, rng_seed=0) -> Ciphertext:
    """Public-key encryption, deterministic in rng_seed: one int per
    chunk of a batch, each seeding its chunk's noise as it would alone."""
    pub = keys.public if isinstance(keys, KeyMaterial) else keys
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


def seeded_sum(stack: np.ndarray, params: EncryptionParams) -> np.ndarray:
    """stack.sum(0) mod Q = 2^k: one u64 sum, which wraps mod 2^64."""
    return (stack.sum(axis=0, dtype=np.uint64)
            & np.uint64((1 << params.seeded_bits) - 1))


def seeded_c1(seeds, chunks: int, params: EncryptionParams) -> RingPoly:
    """The level-0 coefficient-domain c1 of a seeded batch of `chunks`
    chunks: sum_k a_k mod Q, where chunk j of a_k is expanded from
    seeds[k * chunks + j]. With one client's seeds that is its upload's
    c1; with every client's it is, word for word, the sum that
    server.aggregate forms from the uploads' a_k."""
    n = params.ring_degree
    a = np.stack([expand_seed(s, 1 << params.seeded_bits, n) for s in seeds])
    return RingPoly(params, (0,), seeded_sum(a.reshape(-1, chunks, 1, n),
                                             params), COEFF)


def encrypt_symmetric(pt: Plaintext, keys: KeyMaterial, rng_seed,
                      count: int) -> SeededBatch:
    """Seeded secret-key encryption of the first `count` coefficients of
    a coefficient-domain level-0 batch (encode_coeffs), deterministic in
    rng_seed: one int per chunk, for the ceil(count / N) chunks.

    Chunk i's 32-byte seed is SHA-256 of a tag, the keys' nonce and its
    int; c1 = a is expanded from that seed into the coefficient domain,
    and c0 = m + e - a*s mod Q, a*s one exact FFT product a chunk
    (keys.times_secret), of which the first `count` coefficients are
    kept. The error e, rounded normals clipped to |e| <= ERROR_CLIP, is
    drawn from a generator seeded by the int itself and the nonce, which
    never go on the wire. Keys loaded from files hold a nonce new to
    each run, so two runs under one key and one run seed share no a and
    no e; keys drawn from a seed hold none, and their seeds stay those
    of the seed alone.
    This is the compressed symmetric ciphertext of SEAL's
    Encryptor::encrypt_symmetric, cut to the coefficients that carry
    values: coefficient i of c0 with c1 is an LWE ciphertext of m_i + e_i
    under s (the sample extraction of TFHE), so the dropped ones reveal
    nothing.
    """
    params, poly = pt.poly.params, pt.poly
    _check_keys(keys, params)
    if pt.level != 0 or poly.domain_tag != COEFF:
        raise DomainError("seeded encryption takes a level-0 "
                          "coefficient-domain plaintext")
    ints = np.asarray(rng_seed, dtype=object)
    if ints.ndim != 1 or ints.shape != poly.batch_shape:
        raise ShapeError(f"one seed per chunk of a batch needed, got "
                         f"{ints.shape}")
    n = params.ring_degree
    if not 0 < count or -(-count // n) != ints.size:
        raise ShapeError(f"{count} coefficients do not fill the batch's "
                         f"{ints.size} chunks of {n}")
    nonce = keys.nonce
    seeds = tuple(hashlib.sha256(_SEED_TAG + nonce + int(s).to_bytes(
        8, "little")).digest() for s in ints)
    salt = [int.from_bytes(nonce, "little")] if nonce else []
    # chunk j keeps min(N, count - j*N) coefficients, and its error is
    # that many rounded normals: the prefix of the N its generator draws
    # for a whole chunk, so the kept ones are the same
    e = np.concatenate([np.random.default_rng(np.random.SeedSequence(
        [int(s), 0x5EC, *salt])).normal(0.0, GAUSSIAN_STDDEV,
                                        min(n, count - j * n))
        for j, s in enumerate(ints)])
    e = np.clip(np.round(e), -ERROR_CLIP, ERROR_CLIP).astype(np.int64)
    # m + e in two's complement, whose u64 words are m + e mod Q too
    m_e = centered(poly.residues.reshape(-1)[:count], poly.primes[0]) + e
    a = seeded_c1(seeds, ints.size, params)
    a_s = keys.times_secret(a.residues).reshape(-1)[:count]
    c0 = (m_e.view(np.uint64) - a_s) & np.uint64((1 << params.seeded_bits)
                                                   - 1)
    return SeededBatch(params, c0, pt.scale, seeds, (1,), a=a)


def _check_keys(keys, params: EncryptionParams) -> None:
    if not isinstance(keys, KeyMaterial):
        raise ParameterError("secret-key operations need full key material")
    if keys.params != params:
        raise ParameterError("keys and operand use different parameters")


def decrypt_coeffs(batch: SeededBatch, keys: KeyMaterial,
                   bits: int | None = None) -> np.ndarray:
    """The P coefficients of c0 + c1*s mod 2^b, b = `bits` (k of Q by
    default), centred as exact int64: the first P coefficients of c1*s,
    one exact FFT product a chunk (keys.times_secret), plus c0. A GLOBAL
    read from the wire holds c0 mod 2^b alone (client.global_bits)."""
    _check_keys(keys, batch.params)
    drop = 64 - (batch.params.seeded_bits if bits is None else bits)
    c1s = keys.times_secret(batch.c1.residues).reshape(-1)[:batch.c0.size]
    # the low b bits moved to the top, then shifted back with their sign
    return (((batch.c0 + c1s) << np.uint64(drop)).view(np.int64)
            >> np.int64(drop))


def decrypt(ct: Ciphertext, keys: KeyMaterial) -> Plaintext:
    """c0 + c1*s at the ciphertext's level and scale."""
    _check_keys(keys, ct.params)
    m = ct.c0.add(ct.c1.mul_fixed(keys.secret_rows(ct.c1.prime_indices)))
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
    table, built once for both halves; scales multiply. Follow with
    rescale() to bring the scale back down."""
    if ct.level != pt.level:
        raise AlignmentError(f"level mismatch: {ct.level} vs {pt.level}")
    ct.c0._check_compatible(pt.poly, broadcast=True)
    fixed = ShoupPoly.wrap(pt.poly)
    return Ciphertext(c0=ct.c0.mul_fixed(fixed), c1=ct.c1.mul_fixed(fixed),
                      scale=ct.scale * pt.scale, level=ct.level)


def _div_round_drop(p: RingPoly, drop_index: int) -> RingPoly:
    """Exact rounded division by the basis prime at drop_index; that
    prime leaves the basis. Input and output are NTT-domain."""
    params = p.params
    q_drop = params.modulus_chain[drop_index]
    pos = p.prime_indices.index(drop_index)
    dropped = centered(params.stacked_ntt((drop_index,)).inverse(
        p.residues[..., pos:pos + 1, :])[..., 0, :], q_drop)

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
