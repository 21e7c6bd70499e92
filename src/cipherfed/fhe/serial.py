"""Binary serialization for ciphertexts, keys, and weight vectors.

All integers little-endian. Every artifact starts with a 4-byte magic and
the 8-byte parameter digest, so a reader can reject material from a
different parameter set before touching the payload. Polynomials are
stored in the NTT domain. See docs/protocol.md for the exact layouts.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from ..errors import FormatError, ParameterError
from .keys import KeyMaterial, PublicMaterial
from .ops import SEED_BYTES, Ciphertext, expand_c1
from .params import EncryptionParams
from .poly import NTT, RingPoly, ShoupPoly, ntt_inverse

MAGIC_CIPHERTEXT = b"CKV2"
MAGIC_SEEDED = b"CKV4"
# the slot-packed upload that `CKV4` replaced: named, so that a reader
# can say what it found, but never read
MAGIC_SLOT_SEEDED = b"CKV3"
MAGIC_SECRET_KEY = b"CKS2"
MAGIC_PUBLIC_KEY = b"CKP1"
MAGIC_FLOAT_VECTOR = b"CKF1"

MAGIC_KINDS = {MAGIC_CIPHERTEXT: "ciphertext",
               MAGIC_SEEDED: "seeded ciphertext",
               MAGIC_SLOT_SEEDED: "slot-packed seeded ciphertext (CKV3, no "
                                  "longer read)",
               MAGIC_SECRET_KEY: "secret key", MAGIC_PUBLIC_KEY: "public key",
               MAGIC_FLOAT_VECTOR: "float vector"}

# pk0 + pk1*s of a matching key pair is the key noise e, whose
# coefficients stay within a few standard deviations (3.2) of 0; for a
# secret key that belongs to another public key they sit near q/2
KEY_NOISE_BOUND = 1 << 10


class Reader:
    """Bounds-checked cursor over one encoded object. Every decoder reads
    through it and finishes with `end()`, so a short input and unread
    trailing bytes both raise `error`."""

    def __init__(self, data: bytes, what: str, error=FormatError):
        self.data = data
        self.what = what
        self.error = error
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise self.error(f"malformed {self.what}: truncated at "
                             f"{len(self.data)} bytes, needs {self.pos + n}")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack("<" + fmt, self.take(struct.calcsize("<" + fmt)))

    def end(self) -> None:
        if self.pos != len(self.data):
            raise self.error(f"malformed {self.what}: "
                             f"{len(self.data) - self.pos} trailing bytes")


def _open(data: bytes, magic: bytes, params: EncryptionParams) -> Reader:
    """A Reader past the magic and the parameter digest of `data`."""
    r = Reader(data, MAGIC_KINDS[magic])
    got = r.take(4)
    if got != magic:
        kind = MAGIC_KINDS.get(got)
        if kind is not None:
            raise FormatError(
                f"expected {MAGIC_KINDS[magic]} but found {kind} artifact")
        raise FormatError(f"unknown magic bytes {got!r}")
    if r.take(8) != params.digest:
        raise ParameterError("artifact was produced under different "
                             "encryption parameters (digest mismatch)")
    return r


def _poly_bytes(p: RingPoly) -> bytes:
    rows = [struct.pack("<B", len(p.prime_indices))]
    rows.append(np.ascontiguousarray(p.residues, dtype="<u8").tobytes())
    return b"".join(rows)


def _read_poly(r: Reader, params: EncryptionParams, rows: range,
               batch: tuple[int, ...] = ()) -> RingPoly:
    """A polynomial, or a batch of `batch` polynomials, over the first
    `count` basis primes, `count` in `rows`, each residue below its
    row's prime."""
    (count,) = r.unpack("B")
    if count not in rows:
        raise FormatError(f"poly has {count} primes, expected "
                          f"{rows.start} to {rows.stop - 1}")
    basis = tuple(range(count))
    shape = (*batch, count, params.ring_degree)
    raw = r.take(math.prod(shape) * 8)
    res = np.frombuffer(raw, dtype="<u8").reshape(shape)
    if (res >= params.stacked_ntt(basis).q).any():
        raise FormatError("poly residue not below its prime")
    return RingPoly(params, basis, np.ascontiguousarray(res, dtype=np.uint64),
                    NTT)


def _read_key(r: Reader, params: EncryptionParams) -> ShoupPoly:
    """A key polynomial, which has one row per chain prime."""
    rows = len(params.modulus_chain)
    return ShoupPoly.wrap(_read_poly(r, params, range(rows, rows + 1)))


def _header(ct: Ciphertext, magic: bytes, chunks: int) -> bytes:
    return magic + ct.params.digest + struct.pack("<BdH", ct.level, ct.scale,
                                                  chunks)


def _read_header(r: Reader) -> tuple[int, float, int]:
    """Level, scale and chunk count of a `CKV2` or `CKV4` batch."""
    level, scale, chunks = r.unpack("BdH")
    if not 0.0 < scale < math.inf:
        raise FormatError(f"ciphertext scale {scale} is not finite and "
                          "positive")
    if chunks < 1:
        raise FormatError(f"{r.what} batch has no chunks")
    return level, scale, chunks


def serialize_ciphertext(ct: Ciphertext) -> bytes:
    """One `CKV2` batch; a ciphertext without a batch axis is a batch of
    one chunk."""
    return b"".join([_header(ct, MAGIC_CIPHERTEXT,
                             math.prod(ct.c0.batch_shape)),
                     _poly_bytes(ct.c0), _poly_bytes(ct.c1)])


def deserialize_ciphertext(data: bytes, params: EncryptionParams) -> Ciphertext:
    """A `CKV2` artifact as a batch of at least one chunk."""
    r = _open(data, MAGIC_CIPHERTEXT, params)
    level, scale, chunks = _read_header(r)
    rows = range(1, len(params.modulus_chain) + 1)
    c0, c1 = (_read_poly(r, params, rows, (chunks,)) for _ in range(2))
    r.end()
    return Ciphertext(c0=c0, c1=c1, scale=scale, level=level)


def serialize_seeded(ct: Ciphertext) -> bytes:
    """One `CKV4` batch, an encrypt_symmetric output of coefficient-packed
    chunks: the `CKV2` header, each chunk's seed, then c0; c1 is left for
    the reader to expand."""
    if ct.seeds is None:
        raise FormatError("only a seeded ciphertext is written as CKV4")
    return b"".join([_header(ct, MAGIC_SEEDED, len(ct.seeds)), *ct.seeds,
                     _poly_bytes(ct.c0)])


def deserialize_seeded(data: bytes, params: EncryptionParams) -> Ciphertext:
    """A `CKV4` artifact as a level-0 batch, its c1 re-expanded from the
    seeds. A `CKV3` upload is refused by its magic."""
    r = _open(data, MAGIC_SEEDED, params)
    level, scale, chunks = _read_header(r)
    seeds = tuple(r.take(SEED_BYTES) for _ in range(chunks))
    c0 = _read_poly(r, params, range(1, 2), (chunks,))
    r.end()
    return Ciphertext(c0=c0, c1=expand_c1(seeds, params), scale=scale,
                      level=level, seeds=seeds)


def serialize_secret_key(keys: KeyMaterial) -> bytes:
    return b"".join([MAGIC_SECRET_KEY, keys.params.digest,
                     _poly_bytes(keys.secret_key.poly)])


def serialize_public_key(pub: PublicMaterial) -> bytes:
    return b"".join([MAGIC_PUBLIC_KEY, pub.params.digest,
                     _poly_bytes(pub.pk0.poly), _poly_bytes(pub.pk1.poly)])


def serialize_galois_keys(pub: PublicMaterial) -> bytes:
    """An empty `CKG1` key set, which nothing reads. Only perfbench's
    `key_bytes` calls it; it goes with ROADMAP item 1."""
    return b"CKG1" + pub.params.digest + struct.pack("<H", 0)


def deserialize_public_material(public_data: bytes,
                                params: EncryptionParams) -> PublicMaterial:
    r = _open(public_data, MAGIC_PUBLIC_KEY, params)
    pk0, pk1 = (_read_key(r, params) for _ in range(2))
    r.end()
    return PublicMaterial(params=params, pk0=pk0, pk1=pk1)


def deserialize_key_material(secret_data: bytes, public_data: bytes,
                             params: EncryptionParams) -> KeyMaterial:
    """A secret key and the public key it belongs to; a pair whose public
    key does not decrypt to small noise under the secret is rejected."""
    r = _open(secret_data, MAGIC_SECRET_KEY, params)
    secret = _read_key(r, params)
    r.end()
    pub = deserialize_public_material(public_data, params)
    e = ntt_inverse(pub.pk0.poly.add(pub.pk1.poly.mul_fixed(secret)))
    if (np.minimum(e.residues, e.q_column - e.residues)
            > KEY_NOISE_BOUND).any():
        raise FormatError("secret key does not belong to the public key")
    return KeyMaterial(public=pub, secret_key=secret)


def serialize_float_vector(values: np.ndarray) -> bytes:
    v = np.ascontiguousarray(values, dtype="<f8").ravel()
    return b"".join([MAGIC_FLOAT_VECTOR, struct.pack("<I", v.size), v.tobytes()])


def deserialize_float_vector(data: bytes) -> np.ndarray:
    r = Reader(data, "float vector")
    if r.take(4) != MAGIC_FLOAT_VECTOR:
        raise FormatError("not a float vector artifact")
    (count,) = r.unpack("I")
    raw = r.take(count * 8)
    r.end()
    values = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    if not np.isfinite(values).all():
        raise FormatError("float vector holds a non-finite value")
    return values
