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
from .keys import GaloisKey, KeyMaterial, PublicMaterial
from .ops import Ciphertext
from .params import EncryptionParams
from .poly import NTT, RingPoly, ShoupPoly

MAGIC_CIPHERTEXT = b"CKV2"
MAGIC_SECRET_KEY = b"CKS1"
MAGIC_PUBLIC_KEY = b"CKP1"
MAGIC_GALOIS_KEYS = b"CKG1"
MAGIC_FLOAT_VECTOR = b"CKF1"

_MAGICS = {MAGIC_CIPHERTEXT: "ciphertext", MAGIC_SECRET_KEY: "secret key",
           MAGIC_PUBLIC_KEY: "public key", MAGIC_GALOIS_KEYS: "galois keys",
           MAGIC_FLOAT_VECTOR: "float vector"}


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
    r = Reader(data, _MAGICS[magic])
    got = r.take(4)
    if got != magic:
        kind = _MAGICS.get(got)
        if kind is not None:
            raise FormatError(
                f"expected {_MAGICS[magic]} but found {kind} artifact")
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


def _read_key(r: Reader, params: EncryptionParams, rows: int) -> ShoupPoly:
    return ShoupPoly.wrap(_read_poly(r, params, range(rows, rows + 1)))


def serialize_ciphertext(ct: Ciphertext) -> bytes:
    """One `CKV2` batch; a ciphertext without a batch axis is a batch of
    one chunk."""
    chunks = math.prod(ct.c0.batch_shape)
    return b"".join([MAGIC_CIPHERTEXT, ct.params.digest,
                     struct.pack("<BdH", ct.level, ct.scale, chunks),
                     _poly_bytes(ct.c0), _poly_bytes(ct.c1)])


def deserialize_ciphertext(data: bytes, params: EncryptionParams) -> Ciphertext:
    """A `CKV2` artifact as a batch of at least one chunk."""
    r = _open(data, MAGIC_CIPHERTEXT, params)
    level, scale, chunks = r.unpack("BdH")
    if not 0.0 < scale < math.inf:
        raise FormatError(f"ciphertext scale {scale} is not finite and "
                          "positive")
    if chunks < 1:
        raise FormatError("ciphertext batch has no chunks")
    rows = range(1, len(params.modulus_chain) + 1)
    c0, c1 = (_read_poly(r, params, rows, (chunks,)) for _ in range(2))
    r.end()
    return Ciphertext(c0=c0, c1=c1, scale=scale, level=level)


def serialize_secret_key(keys: KeyMaterial) -> bytes:
    return b"".join([MAGIC_SECRET_KEY, keys.params.digest,
                     _poly_bytes(keys.secret_key.poly)])


def serialize_public_key(pub: PublicMaterial) -> bytes:
    return b"".join([MAGIC_PUBLIC_KEY, pub.params.digest,
                     _poly_bytes(pub.pk0.poly), _poly_bytes(pub.pk1.poly)])


def serialize_galois_keys(pub: PublicMaterial) -> bytes:
    out = [MAGIC_GALOIS_KEYS, pub.params.digest,
           struct.pack("<H", len(pub.galois_keys))]
    for step in sorted(pub.galois_keys):
        gk = pub.galois_keys[step]
        out.append(struct.pack("<HB", step, len(gk.ks_b)))
        for b, a in zip(gk.ks_b, gk.ks_a):
            out.append(_poly_bytes(b.poly))
            out.append(_poly_bytes(a.poly))
    return b"".join(out)


def deserialize_public_material(public_data: bytes, params: EncryptionParams,
                                galois_data: bytes | None = None) -> PublicMaterial:
    n_chain = len(params.modulus_chain)
    r = _open(public_data, MAGIC_PUBLIC_KEY, params)
    pk0, pk1 = (_read_key(r, params, n_chain) for _ in range(2))
    r.end()
    galois: dict[int, GaloisKey] = {}
    if galois_data is not None:
        g = _open(galois_data, MAGIC_GALOIS_KEYS, params)
        (count,) = g.unpack("H")
        for _ in range(count):
            step, digits = g.unpack("HB")
            if not 1 <= step < params.slot_count or step in galois:
                raise FormatError(f"galois key step {step} is out of range "
                                  "or repeated")
            if digits != n_chain:
                raise FormatError(f"galois key has {digits} digits, the "
                                  f"chain needs {n_chain}")
            polys = [_read_key(g, params, n_chain + 1)
                     for _ in range(2 * digits)]
            galois[step] = GaloisKey(step=step, ks_b=tuple(polys[0::2]),
                                     ks_a=tuple(polys[1::2]))
        g.end()
    return PublicMaterial(params=params, pk0=pk0, pk1=pk1, galois_keys=galois)


def deserialize_key_material(secret_data: bytes, public_data: bytes,
                             params: EncryptionParams,
                             galois_data: bytes | None = None) -> KeyMaterial:
    r = _open(secret_data, MAGIC_SECRET_KEY, params)
    secret = _read_key(r, params, len(params.modulus_chain) + 1)
    r.end()
    pub = deserialize_public_material(public_data, params, galois_data)
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
