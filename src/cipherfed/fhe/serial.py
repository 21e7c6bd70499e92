"""Binary serialization for ciphertexts, keys, and weight vectors.

All integers little-endian. Every artifact starts with a 4-byte magic and
the 8-byte parameter digest, so a reader can reject material from a
different parameter set before touching the payload. Polynomials are
stored in the NTT domain, each residue row packed at its prime's bit
length; a seeded upload or aggregate carries only the first P
coefficients of its coefficient-domain c0, and seeds in place of its
coefficient-domain c1, in one c0 block for both: the coefficients
rounded to a multiple of 2^d (the bits u that an upload may drop, and
in an aggregate the low bits that decryption drops anyway), at the bits
that are left.
One codec, word shifts over u64, packs and unpacks every residue block
and the secret key's 2-bit codes. Every artifact that carries residues ends with the first
16 bytes of the SHA-256 of the bytes before it, checked before anything
past the parameter digest is read. See docs/protocol.md for the exact
layouts.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct

import numpy as np

from ..errors import FormatError, LevelError, ParameterError
from .keys import KeyMaterial, PublicMaterial, expand_a
from .ops import SEED_BYTES, Ciphertext, SeededBatch
from .params import RING_DEGREE_RULE, RING_DEGREES, EncryptionParams
from .poly import NTT, RingPoly, ShoupPoly, ntt_inverse

MAGIC_CIPHERTEXT = b"CKV6"
MAGIC_SEEDED = b"CKU4"
MAGIC_SEEDED_SUM = b"CKA4"
MAGIC_SECRET_KEY = b"CKS3"
MAGIC_PUBLIC_KEY = b"CKP3"
MAGIC_FLOAT_VECTOR = b"CKF1"
# the artifacts that carry residue blocks and end with a trailer
SEALED = (MAGIC_CIPHERTEXT, MAGIC_SEEDED, MAGIC_SEEDED_SUM, MAGIC_PUBLIC_KEY)
TRAILER_BYTES = 16
# the artifacts that the current ones replaced (docs/protocol.md,
# "Retired magics"), each with what it held and the current batch whose
# header it shares (None for a key file): named, so that a reader can
# say what it found, but never read
RETIRED = {b"CKV2": ("ciphertext", MAGIC_CIPHERTEXT),
           b"CKV3": ("slot-packed seeded ciphertext", MAGIC_SEEDED),
           b"CKV4": ("seeded ciphertext", MAGIC_SEEDED),
           b"CKV5": ("seeded aggregate", MAGIC_SEEDED_SUM),
           b"CKV7": ("full-ring seeded ciphertext", MAGIC_SEEDED),
           b"CKV8": ("full-ring seeded aggregate", MAGIC_SEEDED_SUM),
           b"CKA1": ("unrounded seeded aggregate", MAGIC_SEEDED_SUM),
           b"CKU1": ("one-row seeded ciphertext", MAGIC_SEEDED),
           b"CKU2": ("NTT-seeded ciphertext", MAGIC_SEEDED),
           b"CKA2": ("NTT-seeded aggregate", MAGIC_SEEDED_SUM),
           b"CKU3": ("unrounded seeded ciphertext", MAGIC_SEEDED),
           b"CKA3": ("sample-weighted seeded aggregate", MAGIC_SEEDED_SUM),
           b"CKS2": ("secret key", None), b"CKP1": ("public key", None),
           b"CKP2": ("public key", None)}
RETIRED_BATCHES = {m: shares for m, (_, shares) in RETIRED.items() if shares}
_REGENERATE = "; regenerate with `cipherfed keygen`"

MAGIC_KINDS = {MAGIC_CIPHERTEXT: "ciphertext",
               MAGIC_SEEDED: "seeded ciphertext",
               MAGIC_SEEDED_SUM: "seeded aggregate",
               MAGIC_SECRET_KEY: "secret key", MAGIC_PUBLIC_KEY: "public key",
               MAGIC_FLOAT_VECTOR: "float vector",
               **{m: f"{held} ({m.decode()}, no longer read"
                     f"{'' if shares else _REGENERATE})"
                  for m, (held, shares) in RETIRED.items()}}

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

    def rest_is(self, n: int) -> None:
        """Raise, as `take` or `end` would, unless exactly n bytes are
        left: a layout whose header fixes its size is checked whole
        before any of it is read."""
        extra = len(self.data) - self.pos - n
        if extra < 0:
            self.take(n)
        if extra > 0:
            raise self.error(f"malformed {self.what}: {extra} trailing bytes")


def _trailer(body: bytes) -> bytes:
    return hashlib.sha256(body).digest()[:TRAILER_BYTES]


def seal(body: bytes) -> bytes:
    """`body` and its integrity trailer."""
    return body + _trailer(body)


def unseal(r: Reader) -> None:
    """Check the trailer, the last TRAILER_BYTES of r's data, against
    the bytes before it, then leave it out of what r reads: a bit
    flipped anywhere raises before any field past r's position is
    parsed."""
    body = len(r.data) - TRAILER_BYTES
    if body < r.pos:
        r.take(TRAILER_BYTES)  # raises: no room for a trailer
    if _trailer(memoryview(r.data)[:body]) != r.data[body:]:
        raise r.error(f"malformed {r.what}: integrity trailer does not "
                      "match its bytes")
    r.data = r.data[:body]


def _open(data: bytes, magic: bytes, params: EncryptionParams) -> Reader:
    """A Reader past the magic and the parameter digest of `data`, with
    the trailer of a sealed artifact checked and set aside."""
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
    if magic in SEALED:
        unseal(r)
    return r


def _widths(params: EncryptionParams, count: int) -> bytes:
    """The bit lengths of the first `count` chain primes, a byte each."""
    return bytes(q.bit_length() for q in params.modulus_chain[:count])


def _bit_offsets(n: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The u64 word in which each of n fields `width` bits apart starts,
    and its bit offset in that word."""
    bit = np.arange(n, dtype=np.uint64) * np.uint64(width)
    return (bit >> np.uint64(6)).astype(np.intp), bit & np.uint64(63)


def _pack(values: np.ndarray, width: int) -> np.ndarray:
    """(m, n) values below 2^width as m rows of ceil(n * width / 8)
    bytes: bit t of value j is bit j * width + t of its row, least
    significant bit of the first byte first, and the pad bits past the
    last value are 0. Each value is shifted into the u64 word where it
    starts and, for the bits that spill over, the next one."""
    m, n = values.shape
    size = -(-n * width // 8)
    word, shift = _bit_offsets(n, width)
    # the first field of each word; fields start at most 64 bits apart,
    # so every word up to the last field's holds a start
    first = np.flatnonzero(np.diff(word, prepend=-1))
    out = np.zeros((m, size // 8 + 2), dtype="<u8")
    out[:, :first.size] = np.bitwise_or.reduceat(values << shift, first, 1)
    # x >> 64 is undefined, so shift twice
    spill = values >> (np.uint64(63) - shift) >> np.uint64(1)
    out[:, 1:first.size + 1] |= np.bitwise_or.reduceat(spill, first, 1)
    return out.view(np.uint8)[:, :size]


def _unpack(packed: np.ndarray, n: int, width: int) -> np.ndarray:
    """The (m, n) values that `_pack` wrote to m rows of bytes; raises
    FormatError unless every pad bit is 0."""
    m, size = packed.shape
    if n * width % 8 and (packed[:, -1] >> n * width % 8).any():
        raise FormatError("packed residues end in pad bits that are not 0")
    words = np.zeros((m, size // 8 + 2), dtype="<u8")
    words.view(np.uint8)[:, :size] = packed
    word, shift = _bit_offsets(n, width)
    high = words[:, word + 1] << (np.uint64(63) - shift) << np.uint64(1)
    return (words[:, word] >> shift | high) & np.uint64((1 << width) - 1)


def _poly_bytes(p: RingPoly) -> bytes:
    """The residue block of a polynomial, or of a batch of m of them,
    each of k rows of n residues: the row count, each row's width byte
    (its prime's bit length), then each polynomial's rows, row i at
    widths[i] bits, polynomial after polynomial."""
    res = p.residues.reshape(-1, *p.residues.shape[-2:])
    widths = _widths(p.params, len(p.prime_indices))
    rows = [_pack(res[:, i], b) for i, b in enumerate(widths)]
    return bytes([len(widths)]) + widths + np.concatenate(rows, 1).tobytes()


def _read_poly(r: Reader, params: EncryptionParams, rows: range,
               batch: tuple[int, ...] = ()) -> RingPoly:
    """An NTT-domain polynomial, or a batch of `batch` polynomials, over
    the first `count` basis primes, `count` in `rows`, each row packed at
    its prime's bit length and each residue below its row's prime."""
    n, m = params.ring_degree, math.prod(batch)
    (count,) = r.unpack("B")
    if count not in rows:
        raise FormatError(f"poly has {count} primes, expected "
                          f"{rows.start} to {rows.stop - 1}")
    widths, expected = r.take(count), _widths(params, count)
    if widths != expected:
        raise FormatError(f"poly rows packed at {list(widths)} bits, not "
                          f"their primes' {list(expected)}")
    sizes = [-(-n * b // 8) for b in widths]
    packed = np.frombuffer(r.take(m * sum(sizes)),
                           dtype=np.uint8).reshape(m, -1)
    res, at = np.empty((m, count, n), dtype=np.uint64), 0
    for i, (b, size) in enumerate(zip(widths, sizes)):
        res[:, i] = _unpack(packed[:, at:at + size], n, b)
        at += size
    if (res >= params.q_column(tuple(range(count)))).any():
        raise FormatError("poly residue not below its prime")
    return RingPoly(params, tuple(range(count)),
                    res.reshape(*batch, count, n), NTT)


def read_layout(r: Reader, magic: bytes,
                chunks: int = 1) -> tuple[bytes, int]:
    """The row widths and ring degree N of a `CKV6` or `CKP3`, read
    without parameters: r is past the trailer check and, in a batch,
    past the header that gave `chunks`. N comes from the first block's
    prime count and width bytes and the length left, and a `CKV6`'s c1
    block must repeat them. Raises FormatError unless N is one of
    RING_DEGREES and every width is 1 to 64 bits."""
    blocks, tail = (1, SEED_BYTES) if magic == MAGIC_PUBLIC_KEY else (2, 0)
    (count,) = r.unpack("B")
    widths = r.take(count)
    if not all(0 < b <= 64 for b in widths):
        raise FormatError(f"malformed {r.what}: row widths {list(widths)} "
                          "are not 1 to 64 bits")
    left = len(r.data) - r.pos - tail - (blocks - 1) * (1 + count)
    bits = blocks * chunks * sum(widths)
    n = left * 8 // bits if bits and left * 8 % bits == 0 else 0
    if n not in RING_DEGREES:
        raise FormatError(f"malformed {r.what}: {left} bytes of {blocks} x "
                          f"{chunks} polynomials with rows of "
                          f"{list(widths)} bits are not N of them for any "
                          f"{RING_DEGREE_RULE}")
    if blocks == 2:
        r.take(chunks * n * sum(widths) // 8)
        if r.take(1 + count) != bytes([count]) + widths:
            raise FormatError(f"malformed {r.what}: its blocks have "
                              "different rows")
    return widths, n


def read_seeded_layout(r: Reader, chunks: int,
                       counts: tuple[int, ...]) -> tuple[int, int, int]:
    """The width w, the low bits d dropped and the coefficient count P
    of a seeded upload or aggregate, read without parameters: r is past
    the trailer check and the header that gave `chunks` and `counts`. P
    is the count whose packed values fill the bytes left. Raises
    FormatError unless d + w <= 64, w >= 1, and `chunks` chunks of some
    N of RING_DEGREES hold P: (chunks - 1) * N < P <= chunks * N."""
    r.take(len(counts) * chunks * SEED_BYTES)
    dropped, width = r.unpack("BB")
    if not 0 < width <= 64 - dropped:
        raise FormatError(f"malformed {r.what}: its c0 drops {dropped} "
                          f"low bits at {width} bits a coefficient, "
                          "not 1 to 64 bits in all")
    left = len(r.data) - r.pos
    p = left * 8 // width
    if not (-(-p * width // 8) == left and any(
            (chunks - 1) * n < p <= chunks * n for n in RING_DEGREES)):
        raise FormatError(f"malformed {r.what}: {left} bytes of "
                          f"{width}-bit residues are not the P "
                          f"coefficients of {chunks} chunks for any "
                          f"{RING_DEGREE_RULE}")
    return width, dropped, p


def _header(ct: Ciphertext, magic: bytes, chunks: int) -> bytes:
    return magic + ct.params.digest + struct.pack("<BdH", ct.level, ct.scale,
                                                  chunks)


def _read_header(r: Reader, magic: bytes
                 ) -> tuple[int, float, int, tuple[int, ...]]:
    """Level, scale, chunk count and sample counts ((1,) but in an
    aggregate) of a batch, read whole, so a short one reads as
    truncated, then put to every check that needs no parameters (level
    0 unless `CKV6`). A retired batch's header is read as that of the
    batch it shares it with."""
    magic = RETIRED_BATCHES.get(magic, magic)
    level, scale, chunks = r.unpack("BdH")
    counts = (1,)
    if magic == MAGIC_SEEDED_SUM:
        (k,) = r.unpack("H")
        if k < 1:
            raise FormatError("seeded aggregate names no clients")
        counts = r.unpack(f"{k}Q")
        if 0 in counts:
            raise FormatError("seeded aggregate holds a sample count of 0")
    if not 0.0 < scale < math.inf:
        raise FormatError(f"ciphertext scale {scale} is not finite and "
                          "positive")
    if chunks < 1:
        raise FormatError(f"{r.what} batch has no chunks")
    if magic != MAGIC_CIPHERTEXT and level != 0:
        raise LevelError(f"{r.what} at level {level}; seeded batches are "
                         "at level 0")
    return level, scale, chunks, counts


def serialize_ciphertext(ct: Ciphertext) -> bytes:
    """One `CKV6` batch; a ciphertext without a batch axis is a batch of
    one chunk."""
    return seal(b"".join([_header(ct, MAGIC_CIPHERTEXT,
                                  math.prod(ct.c0.batch_shape)),
                          _poly_bytes(ct.c0), _poly_bytes(ct.c1)]))


def deserialize_ciphertext(data: bytes, params: EncryptionParams) -> Ciphertext:
    """A `CKV6` artifact as a batch of at least one chunk."""
    r = _open(data, MAGIC_CIPHERTEXT, params)
    level, scale, chunks, _ = _read_header(r, MAGIC_CIPHERTEXT)
    rows = range(1, len(params.modulus_chain) + 1)
    c0, c1 = (_read_poly(r, params, rows, (chunks,)) for _ in range(2))
    r.end()
    return Ciphertext(c0=c0, c1=c1, scale=scale, level=level)


def _rounding(q0: int, dropped: int) -> tuple[int, int, int]:
    """Half of 2^d (0 when d = 0), the largest y whose y * 2^d is below
    q0, and its bit length w = b0 - d, the width at which a c0 block
    packs each y."""
    top = (q0 - 1) >> dropped
    return (1 << dropped) >> 1, top, top.bit_length()


def _seeded_bytes(batch: SeededBatch, magic: bytes, head: bytes,
                  dropped: int) -> bytes:
    """The `CKV6` header, `head`, the seeds, the c0 block, and the
    trailer. The c0 block holds the P coefficients of c0 rounded to the
    nearest multiple of 2^d mod q0, d = `dropped`: d, the width w, and
    each y = (c0 + 2^(d-1)) >> d at w bits, or 0 where y * 2^d would
    reach q0. A batch read back from those bytes writes them again."""
    q0 = batch.params.modulus_chain[0]
    if not 0 <= dropped < q0.bit_length():
        raise FormatError(f"a c0 block drops 0 to {q0.bit_length() - 1} "
                          f"low bits, not {dropped}")
    half, top, width = _rounding(q0, dropped)
    y = (batch.c0 + np.uint64(half)) >> np.uint64(dropped)
    # a residue within 2^(d-1) of q0 rounds to q0, which is 0 mod q0
    y[y > np.uint64(top)] = 0
    return seal(b"".join([_header(batch, magic, len(batch)), head,
                          *batch.seeds, bytes([dropped, width]),
                          _pack(y[None], width).tobytes()]))


def serialize_seeded(batch: SeededBatch, dropped: int) -> bytes:
    """One `CKU4` upload, an encrypt_model output of one client: the
    header, each chunk's seed, then the c0 block of its P coefficients
    at d = `dropped`, the u of client.upload_bits; c1 is left to the
    seeds."""
    if not isinstance(batch, SeededBatch) or len(batch.counts) != 1:
        raise FormatError("only a seeded ciphertext of one upload is "
                          "written as CKU4")
    return _seeded_bytes(batch, MAGIC_SEEDED, b"", dropped)


def serialize_seeded_sum(batch: SeededBatch, dropped: int) -> bytes:
    """One `CKA4` aggregate, a sum of seeded uploads from
    server.aggregate: the header, the client count K, the K sample
    counts, each client's chunk seeds client after client, then the c0
    block of its P coefficients at d = `dropped`."""
    if not isinstance(batch, SeededBatch):
        raise FormatError("only a sum of seeded uploads is written as CKA4")
    k = len(batch.counts)
    return _seeded_bytes(batch, MAGIC_SEEDED_SUM,
                         struct.pack(f"<H{k}Q", k, *batch.counts), dropped)


def _read_rounded(r: Reader, q0: int, dropped: int, clients: int,
                  n: int) -> np.ndarray:
    """The n coefficients y * 2^d of a c0 block. Raises FormatError
    unless the block drops d = `dropped` bits at their width w, which
    the reader's run gives for `clients` clients, every y * 2^d is below
    q0, and every pad bit is 0."""
    _, top, width = _rounding(q0, dropped)
    got = r.unpack("BB")
    if got != (dropped, width):
        raise FormatError(f"{r.what} drops {got[0]} low bits of c0 at "
                          f"{got[1]} bits a coefficient; for {clients} "
                          f"clients this run drops {dropped} at {width}")
    y = _unpack(np.frombuffer(r.take(-(-n * width // 8)),
                              dtype=np.uint8)[None], n, width)[0]
    if (y > np.uint64(top)).any():
        raise FormatError(f"{r.what} holds a c0 value above {top}: times "
                          f"2^{dropped} it is not below q0")
    return y << np.uint64(dropped)


def _read_seeded(data: bytes, params: EncryptionParams, magic: bytes,
                 param_count: int, dropped, counts=None) -> SeededBatch:
    """A `CKU4` (one upload of the run's `counts`, (n_k,)) or a `CKA4`
    batch (the counts its header names) of `param_count` coefficients,
    its c0 block rounded by `dropped(K)` bits for its K clients. Every
    check runs before any field past the header is read: the scale,
    which must be the scale times the counts' total, a chunk count of
    ceil(param_count / N), which no other reader of a batch checks
    again, and the exact length that the counts, the chunks, P and the
    width give. No seed is expanded: c1 waits for the batch's first
    use."""
    r = _open(data, magic, params)
    level, scale, chunks, named = _read_header(r, magic)
    counts = named if counts is None else counts
    if scale != params.scale * sum(counts):
        raise FormatError(f"{r.what} scale {scale} is not the scale times "
                          f"its {sum(counts)} samples")
    fill = -(-param_count // params.ring_degree)
    if chunks != fill:
        raise FormatError(f"{r.what} holds {chunks} chunks; {param_count} "
                          f"parameters fill {fill}")
    q0, d = params.modulus_chain[0], dropped(len(counts))
    width = _rounding(q0, d)[2]
    # the seeds, then c0: d, the width and P values of y
    r.rest_is(len(counts) * chunks * SEED_BYTES + 2
              + -(-param_count * width // 8))
    seeds = tuple(r.take(SEED_BYTES) for _ in range(len(counts) * chunks))
    c0 = _read_rounded(r, q0, d, len(counts), param_count)
    r.end()
    return SeededBatch(params, c0, scale, seeds, counts)


def deserialize_seeded(data: bytes, params: EncryptionParams,
                       param_count: int, sample_count: int,
                       dropped: int) -> SeededBatch:
    """The `CKU4` upload of a client of `sample_count` samples, of
    `param_count` coefficients at scale * sample_count, whose c0 block
    drops the `dropped` low bits that the reader's run gives its
    uploads. A retired upload (`RETIRED`) is refused by its magic."""
    return _read_seeded(data, params, MAGIC_SEEDED, param_count,
                        lambda clients: dropped, (sample_count,))


def deserialize_seeded_sum(data: bytes, params: EncryptionParams,
                           param_count: int, dropped) -> SeededBatch:
    """A `CKA4` aggregate of `param_count` coefficients whose c0 must
    drop the `dropped(K)` low bits that the reader's run gives for the
    K clients of its counts. A retired aggregate (`RETIRED`) is refused
    by its magic."""
    return _read_seeded(data, params, MAGIC_SEEDED_SUM, param_count,
                        dropped)


def serialize_secret_key(keys: KeyMaterial) -> bytes:
    """`CKS3`: the ternary secret's N coefficients as 2-bit codes (0b00
    = 0, 0b01 = 1, 0b10 = -1; a reader refuses 0b11), packed by `_pack`,
    coefficient j at bits 2j and 2j + 1. A secret that is not ternary
    would fail the key-pair check on load."""
    codes = np.where(keys.secret < 0, 2, keys.secret).astype(np.uint64)
    return (MAGIC_SECRET_KEY + keys.params.digest
            + _pack(codes[None], 2).tobytes())


def serialize_public_key(pub: PublicMaterial) -> bytes:
    """`CKP3`: pk0, then the 32-byte seed that pk1 = a expands from."""
    return seal(b"".join([MAGIC_PUBLIC_KEY, pub.params.digest,
                          _poly_bytes(pub.pk0.poly), pub.seed]))


def serialize_galois_keys(pub: PublicMaterial) -> bytes:
    """An empty `CKG1` key set, which nothing reads. Only perfbench's
    `key_bytes` calls it; it goes with ROADMAP item 1."""
    return b"CKG1" + pub.params.digest + struct.pack("<H", 0)


def deserialize_public_material(public_data: bytes,
                                params: EncryptionParams) -> PublicMaterial:
    """A `CKP3` public key, read whole before a is expanded."""
    r = _open(public_data, MAGIC_PUBLIC_KEY, params)
    rows = len(params.modulus_chain)
    pk0 = ShoupPoly.wrap(_read_poly(r, params, range(rows, rows + 1)))
    seed = r.take(SEED_BYTES)
    r.end()
    return PublicMaterial(params, pk0, expand_a(seed, params), seed)


def deserialize_key_material(secret_data: bytes, public_data: bytes,
                             params: EncryptionParams) -> KeyMaterial:
    """A secret key and the public key it belongs to; a pair whose public
    key does not decrypt to small noise under the secret is rejected.
    The keys hold a nonce new to this load (`KeyMaterial.nonce`): two
    runs under the same key files draw no encryption seed twice."""
    r = _open(secret_data, MAGIC_SECRET_KEY, params)
    packed = np.frombuffer(r.take(params.ring_degree // 4), dtype=np.uint8)
    r.end()
    codes = _unpack(packed[None], params.ring_degree, 2)[0]
    if (codes == 3).any():
        raise FormatError("secret key holds coefficient code 0b11")
    pub = deserialize_public_material(public_data, params)
    keys = KeyMaterial(params, np.array([0, 1, -1])[codes], public=pub,
                       nonce=os.urandom(16))
    e = ntt_inverse(pub.pk0.poly.add(pub.pk1.poly.mul_fixed(
        keys.secret_key)))
    if (np.minimum(e.residues, e.q_column - e.residues)
            > KEY_NOISE_BOUND).any():
        raise FormatError("secret key does not belong to the public key")
    return keys


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
