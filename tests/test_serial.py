import hashlib
import struct

import numpy as np
import pytest
from conftest import (count_expansions, pack_rows, patched, resealed,
                      seeded_aggregate, with_field)
from hypothesis import given, settings
from hypothesis import strategies as st

from cipherfed.errors import FormatError, ParameterError
from cipherfed.fhe import decode, decrypt, encode, encrypt, keygen
from cipherfed.fhe.serial import (SEALED, TRAILER_BYTES,
                                  deserialize_ciphertext, seal,
                                  deserialize_float_vector,
                                  deserialize_key_material,
                                  deserialize_public_material,
                                  serialize_ciphertext, serialize_float_vector,
                                  serialize_public_key, serialize_secret_key)


def chain_widths(params, rows: int) -> bytes:
    """The bit lengths of the first `rows` chain primes, a byte each."""
    return bytes(q.bit_length() for q in params.modulus_chain[:rows])


def test_ciphertext_roundtrip_bitwise(small_params, small_keys, rng):
    v = rng.uniform(-1, 1, 64)
    ct = encrypt(encode(v, small_params), small_keys, 5)
    blob = serialize_ciphertext(ct)
    back = deserialize_ciphertext(blob, small_params)
    # a ciphertext without a batch axis reads back as a batch of one
    assert len(back) == 1
    assert np.array_equal(back.c0.residues[0], ct.c0.residues)
    assert np.array_equal(back.c1.residues[0], ct.c1.residues)
    assert back.scale == ct.scale and back.level == ct.level
    # serialization is bitwise stable
    assert serialize_ciphertext(back) == blob


def test_rescaled_ciphertext_roundtrip(small_params, small_keys):
    from cipherfed.fhe import encode_scalar, mul_plain, rescale
    ct = rescale(mul_plain(
        encrypt(encode([0.5, -0.5], small_params), small_keys, 1),
        encode_scalar(0.5, small_params)))
    back = deserialize_ciphertext(serialize_ciphertext(ct), small_params)
    assert back.scale == ct.scale  # non-integral scale survives exactly
    got = decode(decrypt(back, small_keys), 2)
    assert np.abs(got - [0.25, -0.25]).max() < 2.0 ** -15


def test_wrong_magic_rejected(small_params):
    with pytest.raises(FormatError, match="magic"):
        deserialize_ciphertext(b"XXXX" + b"\0" * 32, small_params)


def test_kind_mismatch_reported(small_params, small_keys):
    blob = serialize_secret_key(small_keys)
    with pytest.raises(FormatError, match="secret key"):
        deserialize_ciphertext(blob, small_params)


def test_digest_mismatch_rejected(small_params, small_keys, std_params):
    ct = encrypt(encode([1.0], small_params), small_keys, 0)
    blob = serialize_ciphertext(ct)
    with pytest.raises(ParameterError, match="digest"):
        deserialize_ciphertext(blob, std_params)


def test_truncated_artifact_rejected(small_params, small_keys):
    ct = encrypt(encode([1.0], small_params), small_keys, 0)
    blob = serialize_ciphertext(ct)
    with pytest.raises(FormatError, match="truncated"):
        deserialize_ciphertext(resealed(blob, lambda b: b[:40]),
                               small_params)
    # cut short without its trailer, it is refused by the trailer
    with pytest.raises(FormatError, match="integrity trailer"):
        deserialize_ciphertext(blob[:40], small_params)
    with pytest.raises(FormatError, match="truncated"):
        deserialize_ciphertext(blob[:20], small_params)


def test_key_material_roundtrip(small_params):
    keys = keygen(small_params, rng_seed=77)
    sec = serialize_secret_key(keys)
    pub = serialize_public_key(keys.public)
    back = deserialize_key_material(sec, pub, small_params)
    assert np.array_equal(back.secret_key.poly.residues,
                          keys.secret_key.poly.residues)
    # restored keys encrypt and decrypt like the originals
    v = np.array([1.0, 2.0, 3.0])
    got = decode(decrypt(encrypt(encode(v, small_params), back, 9), keys), 3)
    assert np.abs(got - v).max() < 1e-3
    # and re-serialize to identical bytes
    assert serialize_secret_key(back) == sec
    assert serialize_public_key(back.public) == pub
    # pk1 = a comes back from its seed, bitwise
    assert np.array_equal(back.public.pk1.poly.residues,
                          keys.public.pk1.poly.residues)
    # `CKS3`: magic, digest, 2 bits per coefficient; `CKP3`: magic,
    # digest, pk0's block (its rows at 61, 41 and 41 bits), the 32-byte
    # seed of a and the trailer
    n, rows = small_params.ring_degree, len(small_params.modulus_chain)
    assert len(sec) == 12 + n // 4
    assert chain_widths(small_params, rows) == bytes([61, 41, 41])
    assert len(pub) == 12 + 1 + rows + n * 143 // 8 + 32 + 16


def test_mismatched_key_pair_rejected(small_params):
    # a secret key from one seed and a public key from another decrypt
    # nothing, so the pair does not load
    one, two = (keygen(small_params, rng_seed=s) for s in (1, 2))
    with pytest.raises(FormatError, match="does not belong"):
        deserialize_key_material(serialize_secret_key(one),
                                 serialize_public_key(two.public),
                                 small_params)


def test_public_material_alone(small_params, small_keys):
    pub = deserialize_public_material(
        serialize_public_key(small_keys.public), small_params)
    assert not hasattr(pub, "secret_key")
    ct = encrypt(encode([0.5], small_params), pub, 3)
    got = decode(decrypt(ct, small_keys), 1)
    assert abs(got[0] - 0.5) < 2.0 ** -18


def test_float_vector_roundtrip(rng):
    v = rng.uniform(-10, 10, 257)
    back = deserialize_float_vector(serialize_float_vector(v))
    assert np.array_equal(back, v)


# --- hostile artifacts ------------------------------------------------------

def poly_bytes(residues, widths: bytes) -> bytes:
    """A residue block: the row count, a width byte per row, the rows."""
    return bytes([len(widths)]) + widths + pack_rows(residues, widths)


@pytest.fixture(scope="module")
def artifacts(small_params, small_keys):
    ct = encrypt(encode([0.5, -0.5], small_params), small_keys, 3)
    return {"ciphertext": serialize_ciphertext(ct),
            "public": serialize_public_key(small_keys.public),
            "secret": serialize_secret_key(small_keys),
            "vector": serialize_float_vector(np.arange(4.0))}


def load(kind, blob, params, artifacts):
    if kind == "ciphertext":
        return deserialize_ciphertext(blob, params)
    if kind == "public":
        return deserialize_public_material(blob, params)
    if kind == "secret":
        return deserialize_key_material(blob, artifacts["public"], params)
    return deserialize_float_vector(blob)


KINDS = ["ciphertext", "public", "secret", "vector"]


@pytest.mark.parametrize("kind", KINDS)
def test_trailing_bytes_rejected(kind, small_params, artifacts):
    load(kind, artifacts[kind], small_params, artifacts)
    with pytest.raises(FormatError, match="1 trailing bytes"):
        load(kind, resealed(artifacts[kind], lambda b: b + b"\x00"),
             small_params, artifacts)


# offset of the block's first width byte, and the row to patch
@pytest.mark.parametrize("kind,start,row", [
    ("ciphertext", 24, 0), ("ciphertext", 24, 2), ("public", 13, 1)])
def test_residue_at_its_prime_rejected(kind, start, row, small_params,
                                       artifacts):
    n, blob = small_params.ring_degree, artifacts[kind]
    widths = blob[start:start + 3]
    assert widths == chain_widths(small_params, 3)
    at = start + 3 + sum(n * b // 8 for b in widths[:row])
    blob = with_field(blob, at, 5, widths[row],
                      small_params.modulus_chain[row])
    with pytest.raises(FormatError, match="below its prime"):
        load(kind, blob, small_params, artifacts)


def key_blob(magic, params, *polys, head=b"") -> bytes:
    blob = magic + params.digest + head + b"".join(polys)
    return seal(blob)


@pytest.mark.parametrize("rows", [1, 2, 4])
def test_public_key_needs_chain_rows(rows, small_params):
    poly = poly_bytes(np.zeros((rows, small_params.ring_degree), np.uint64),
                      (chain_widths(small_params, 3) + b"\x29")[:rows])
    with pytest.raises(FormatError, match=f"poly has {rows} primes"):
        deserialize_public_material(
            key_blob(b"CKP3", small_params, poly, bytes(32)), small_params)


@pytest.mark.parametrize("kind,cut,refusal", [
    ("public", -1, "truncated"), ("public", -32, "truncated"),
    ("public", 1, "1 trailing bytes"), ("secret", -1, "truncated")])
def test_key_of_wrong_length_rejected(kind, cut, refusal, small_params,
                                      artifacts, monkeypatch):
    """A `CKP3` one byte or the whole seed short, or a byte long, and a
    `CKS3` a byte short, are refused before a is expanded."""
    from cipherfed.fhe import keys
    blob = resealed(artifacts[kind], lambda b: b[:cut] if cut < 0
                    else b + bytes(cut))
    monkeypatch.setattr(keys, "expand_seed",
                        lambda *a: pytest.fail("a expanded before the "
                                               "size check"))
    with pytest.raises(FormatError, match=refusal):
        load(kind, blob, small_params, artifacts)


@pytest.mark.parametrize("coefficient", [0, 1, 2, 3, 1021])
def test_secret_key_code_3_rejected(coefficient, small_params, artifacts):
    # coefficient j is bits 2*(j % 4) of byte j // 4 after the header
    blob = bytearray(artifacts["secret"])
    blob[12 + coefficient // 4] |= 3 << 2 * (coefficient % 4)
    with pytest.raises(FormatError, match="code 0b11"):
        deserialize_key_material(bytes(blob), artifacts["public"],
                                 small_params)


@pytest.mark.parametrize("kind,magic", [("secret", b"CKS2"),
                                        ("public", b"CKP1"),
                                        ("public", b"CKP2")])
def test_retired_key_formats_refused_by_name(kind, magic, small_params,
                                             artifacts):
    blob = magic + artifacts[kind][4:]
    with pytest.raises(FormatError, match=f"{magic.decode()}, no longer "
                                          "read; regenerate"):
        load(kind, blob, small_params, artifacts)


def test_ciphertext_beyond_chain_rejected(small_params, artifacts):
    poly = poly_bytes(np.zeros((4, small_params.ring_degree), np.uint64),
                      chain_widths(small_params, 3) + b"\x29")
    blob = key_blob(b"CKV6", small_params, poly, poly,
                    head=struct.pack("<BdH", 3, small_params.scale, 1))
    with pytest.raises(FormatError, match="poly has 4 primes"):
        deserialize_ciphertext(blob, small_params)


def test_ciphertext_without_chunks_rejected(small_params):
    # a header that announces no chunks, then two blocks of none
    empty = np.zeros((0, 3, small_params.ring_degree), np.uint64)
    blob = key_blob(b"CKV6", small_params,
                    poly_bytes(empty, chain_widths(small_params, 3)) * 2,
                    head=struct.pack("<BdH", 2, small_params.scale, 0))
    with pytest.raises(FormatError, match="no chunks"):
        deserialize_ciphertext(blob, small_params)


@pytest.mark.parametrize("chunks", [1, 2, 7])
def test_ciphertext_batch_roundtrip_bitwise(chunks, small_params, small_keys,
                                            rng):
    values = rng.uniform(-1, 1, (chunks, 16))
    ct = encrypt(encode(values, small_params), small_keys,
                 list(range(chunks)))
    blob = serialize_ciphertext(ct)
    back = deserialize_ciphertext(blob, small_params)
    assert len(back) == chunks
    assert np.array_equal(back.c0.residues, ct.c0.residues)
    assert np.array_equal(back.c1.residues, ct.c1.residues)
    assert serialize_ciphertext(back) == blob
    # one chunk alone, without a batch axis, reads back as a batch of one
    alone = deserialize_ciphertext(serialize_ciphertext(ct[chunks - 1]),
                                   small_params)
    assert len(alone) == 1
    assert np.array_equal(alone.c0.residues[0], ct.c0.residues[-1])


@pytest.mark.parametrize("scale", [float("nan"), -1.0, 0.0, float("inf")])
def test_ciphertext_scale_must_be_finite_positive(scale, small_params,
                                                  artifacts):
    blob = patched(artifacts["ciphertext"], "d", 13, scale)
    with pytest.raises(FormatError, match="finite and positive"):
        deserialize_ciphertext(blob, small_params)


# --- the seeded upload, `CKU4` ----------------------------------------------

def spec_expansion(seed: bytes, q: int, n: int, shake=None) -> list[int]:
    """The expansion as docs/protocol.md words it, one word at a time."""
    import hashlib
    shake = shake or hashlib.shake_128
    bits = q.bit_length()
    out, length = [], 0
    while len(out) < n:
        length += 1024
        stream = shake(seed).digest(8 * length)
        out = [w & ((1 << bits) - 1)
               for w in (int.from_bytes(stream[i:i + 8], "little")
                         for i in range(0, len(stream), 8))]
        out = [v for v in out if v < q]
    return out[:n]


def test_seed_expansion_follows_protocol(small_params):
    from cipherfed.fhe.poly import expand_seed
    for q in (small_params.modulus_chain[0], small_params.modulus_chain[1],
              (1 << 61) - 1):
        for seed in (bytes(32), bytes(range(32))):
            got = expand_seed(seed, q, 1024)
            assert got.dtype == np.uint64
            assert got.tolist() == spec_expansion(seed, q, 1024)
    # a modulus just above a power of two keeps about half of the words
    q = (1 << 40) + 1
    assert expand_seed(b"s" * 32, q, 5000).tolist() == spec_expansion(
        b"s" * 32, q, 5000)


def test_seed_expansion_reads_on_past_a_short_stream(monkeypatch,
                                                     small_params):
    """A stream whose first words are all rejected: the expansion reads
    further until it has n values, as the protocol says."""
    import hashlib

    from cipherfed.fhe import poly

    real = hashlib.shake_128

    class Shake:  # SHAKE-128 behind 4096 words that every prime rejects
        def __init__(self, seed):
            self.seed = seed

        def digest(self, size):
            return (b"\xff" * 8 * 4096 + real(self.seed).digest(size))[:size]

    monkeypatch.setattr(poly.hashlib, "shake_128", Shake)
    q = small_params.modulus_chain[0]
    got = poly.expand_seed(bytes(32), q, 1024)
    monkeypatch.undo()
    assert got.tolist() == spec_expansion(bytes(32), q, 1024, Shake)
    # the rejected words add nothing: the values are the real stream's
    assert got.tolist() == poly.expand_seed(bytes(32), q, 1024).tolist()


@pytest.mark.parametrize("chunks", [1, 2, 7])
def test_seeded_batch_roundtrip_bitwise(chunks, small_params, small_keys,
                                        rng):
    from cipherfed.fhe import decrypt_coeffs, encode_coeffs, encrypt_symmetric
    from cipherfed.fhe.serial import deserialize_seeded, serialize_seeded
    values = rng.uniform(-8, 8, (chunks, 16))
    count = (chunks - 1) * 1024 + 16  # the last chunk's first 16
    ct = encrypt_symmetric(encode_coeffs(values, small_params, level=0),
                           small_keys, list(range(10, 10 + chunks)), count)
    blob = serialize_seeded(ct, 19)
    # the header, the seeds, c0's d and width byte, its P coefficients
    # at 61 - 19 bits and the trailer
    assert len(blob) == 23 + 32 * chunks + 2 + -(-42 * count // 8) + 16
    back = deserialize_seeded(blob, small_params, count, 1, 19)
    assert back.seeds == ct.seeds and len(set(ct.seeds)) == chunks
    assert back.c0.size == count and not (back.c0 % 2 ** 19).any()
    # the reader's c1, expanded from the seeds on first use, is the
    # sender's
    assert back.a is None
    assert np.array_equal(back.c1.residues, ct.c1.residues)
    assert (back.level, back.scale) == (0, small_params.scale)
    assert serialize_seeded(back, 19) == blob
    got = decrypt_coeffs(back, small_keys) / small_params.scale
    # every chunk's first 16 coefficients, which P covers, within the
    # error and the rounding's 2^18
    idx = np.arange(chunks)[:, None] * 1024 + np.arange(16)
    assert np.abs(got[idx] - values).max() < 2.0 ** -21


def test_seeded_encryption_needs_secret_key_and_level_0(small_params,
                                                         small_keys):
    from cipherfed.errors import DomainError, ShapeError
    from cipherfed.fhe import encode_coeffs, encrypt_symmetric
    pt = encode_coeffs(np.ones((2, 4)), small_params, level=0)
    with pytest.raises(ParameterError, match="full key material"):
        encrypt_symmetric(pt, small_keys.public, [1, 2], 2048)
    with pytest.raises(ShapeError, match="one seed per chunk"):
        encrypt_symmetric(pt, small_keys, [1], 1024)
    for other in (encode(np.ones((2, 4)), small_params, level=0),
                  encode_coeffs(np.ones((2, 4)), small_params, level=1)):
        with pytest.raises(DomainError, match="level-0 coefficient"):
            encrypt_symmetric(other, small_keys, [1, 2], 2048)


def test_only_seeded_ciphertexts_are_written_as_ckv3(small_params,
                                                     small_keys):
    from cipherfed.fhe.serial import serialize_seeded
    ct = encrypt(encode(np.ones((1, 4)), small_params, level=0), small_keys,
                 [3])
    with pytest.raises(FormatError, match="only a seeded ciphertext"):
        serialize_seeded(ct, 0)


# --- the packed residue block and the trailer -------------------------------

@pytest.fixture(scope="module")
def chains():
    """The default chain (rows of 61, 41 and 41 bits) at three ring
    degrees, and a chain of 51, 34 and 28 bits."""
    from cipherfed.fhe import default_params
    out = {n: default_params(ring_degree=n) for n in (1024, 2048, 4096)}
    out["odd"] = default_params(1024, scale_bits=20, chain_bits=(50, 33, 27))
    return out


def random_batch(params, rows: int, chunks: int, seed: int):
    """A `CKV6` batch of random residues below each row's prime, with
    the extremes 0 and q - 1 in every row."""
    from cipherfed.fhe import Ciphertext
    from cipherfed.fhe.poly import NTT, RingPoly
    rng = np.random.default_rng(seed)
    q = np.array(params.modulus_chain[:rows], dtype=np.uint64)[:, None]
    halves = []
    for _ in range(2):
        res = rng.integers(0, q, (chunks, rows, params.ring_degree),
                           dtype=np.uint64)
        res[..., 0], res[..., -1] = 0, q[:, 0] - 1
        halves.append(RingPoly(params, tuple(range(rows)), res, NTT))
    return Ciphertext(*halves, scale=params.scale, level=rows - 1)


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from([1024, 2048, 4096, "odd"]),
       rows=st.integers(1, 3), chunks=st.integers(1, 7),
       seed=st.integers(0, 2 ** 32))
def test_packed_block_roundtrip(chains, name, rows, chunks, seed):
    """Every residue comes back from its row's width bits, and the
    rows are laid out bit for bit as docs/protocol.md words it."""
    params = chains[name]
    ct = random_batch(params, rows, chunks, seed)
    blob = serialize_ciphertext(ct)
    widths = chain_widths(params, rows)
    block = bytes([rows]) + widths + pack_rows(ct.c0.residues, widths)
    assert blob[23:23 + len(block)] == block
    assert len(blob) == 23 + 2 * len(block) + TRAILER_BYTES
    back = deserialize_ciphertext(blob, params)
    assert np.array_equal(back.c0.residues, ct.c0.residues)
    assert np.array_equal(back.c1.residues, ct.c1.residues)


def test_trailer_is_sha256_of_the_bytes_before_it(small_params, small_keys,
                                                   artifacts):
    from cipherfed.fhe import encode_coeffs, encrypt_symmetric
    from cipherfed.fhe.serial import serialize_seeded
    seeded = serialize_seeded(encrypt_symmetric(
        encode_coeffs(np.ones((2, 4)), small_params, level=0), small_keys,
        [1, 2], 2048), 19)
    for blob in (artifacts["ciphertext"], artifacts["public"], seeded):
        assert blob[:4] in SEALED
        assert blob[-16:] == hashlib.sha256(blob[:-16]).digest()[:16]


def upload_count(chunks: int) -> int:
    """P of the uploads below: all but the last 1,000 of their chunks'
    coefficients at N = 1,024."""
    return chunks * 1024 - 1000


# the low bits that the default spec's uploads drop, and the width of
# what is left of q0's 61 bits
UPLOAD_BITS, UPLOAD_WIDTH = 19, 42


@pytest.fixture(scope="module")
def uploads(small_params, small_keys):
    """`CKU4` uploads of 1, 2 and 7 chunks, of a client of 1 sample."""
    from cipherfed.fhe import encode_coeffs, encrypt_symmetric
    from cipherfed.fhe.serial import serialize_seeded
    return {c: serialize_seeded(encrypt_symmetric(encode_coeffs(
        np.linspace(-1, 1, 8 * c).reshape(c, 8), small_params, level=0),
        small_keys, list(range(c)), upload_count(c)), UPLOAD_BITS)
        for c in (1, 2, 7)}


def read_upload(blob, params):
    from cipherfed.fhe.serial import deserialize_seeded
    chunks = struct.unpack_from("<H", blob, 21)[0]
    return deserialize_seeded(blob, params, upload_count(chunks), 1,
                              UPLOAD_BITS)


def refused_before_expansion(blob, params, refusal):
    with pytest.MonkeyPatch.context() as patch:
        calls = count_expansions(patch)
        with pytest.raises(FormatError, match=refusal):
            read_upload(blob, params)
    assert calls == []


@settings(max_examples=40, deadline=None)
@given(chunks=st.sampled_from([1, 2, 7]), data=st.data())
def test_field_at_or_above_its_prime_refused(uploads, small_params, chunks,
                                             data):
    """A y above the top of the c0 block, (q0 - 1) >> 19 at u = 19, is
    refused."""
    top = (small_params.modulus_chain[0] - 1) >> UPLOAD_BITS
    field = data.draw(st.integers(0, upload_count(chunks) - 1))
    value = data.draw(st.integers(top + 1, (1 << UPLOAD_WIDTH) - 1))
    blob = with_field(uploads[chunks], 23 + 32 * chunks + 2, field,
                      UPLOAD_WIDTH, value)
    refused_before_expansion(blob, small_params,
                             rf"c0 value above {top}: times 2\^19 it is "
                             "not below q0")


@settings(max_examples=40, deadline=None)
@given(chunks=st.sampled_from([1, 2, 7]),
       width=st.integers(0, 255).filter(lambda w: w != UPLOAD_WIDTH))
def test_width_other_than_the_primes_refused(uploads, small_params, chunks,
                                             width):
    """A c0 block whose width byte is not the 42 bits that q0's 61 keep
    at u = 19 is refused, naming the (d, w) it found and the run's."""
    blob = patched(uploads[chunks], "B", 23 + 32 * chunks + 1, width)
    refused_before_expansion(blob, small_params,
                             f"drops 19 low bits of c0 at {width} bits a "
                             "coefficient; for 1 clients this run drops 19 "
                             "at 42")


@pytest.mark.parametrize("chunks", [1, 2, 7])
@pytest.mark.parametrize("dropped", [1, 23, 255])
def test_upload_dropping_bits_refused(uploads, small_params, chunks,
                                      dropped):
    """An upload drops the run's u bits: a `CKU4` whose d byte is not
    u = 19 is refused before any seed is expanded, by an error that
    names the d it found."""
    blob = patched(uploads[chunks], "B", 23 + 32 * chunks, dropped)
    refused_before_expansion(blob, small_params,
                             f"drops {dropped} low bits of c0 at 42 bits a "
                             "coefficient; for 1 clients this run drops 19 "
                             "at 42")


@pytest.mark.parametrize("chunks", [1, 2, 7])
@pytest.mark.parametrize("cut,refusal", [(-1, "truncated"),
                                         (1, "1 trailing bytes")])
def test_length_off_by_one_byte_refused(uploads, small_params, chunks, cut,
                                        refusal):
    blob = resealed(uploads[chunks], lambda b: b[:cut] if cut < 0
                    else b + bytes(cut))
    refused_before_expansion(blob, small_params, refusal)


@pytest.mark.parametrize("old", [b"CKV2", b"CKV3", b"CKV4", b"CKV5",
                                 b"CKV7", b"CKV8", b"CKA1", b"CKU1",
                                 b"CKU3", b"CKA3"])
def test_retired_batch_formats_refused_by_name(old, small_params, small_keys,
                                               artifacts, uploads):
    """A batch under a magic of the 64-bit layouts, the slot-packed
    `CKV3`, the full-ring `CKV7` and `CKV8`, the unrounded `CKA1` and
    `CKU3`, the one-row `CKU1` or the sample-weighted `CKA3` is refused
    by its reader, which names what it found."""
    from cipherfed.federation.transport import encode_global
    from cipherfed.fhe.serial import deserialize_seeded_sum
    upload = (uploads[1], read_upload)
    total = (encode_global(seeded_aggregate(small_keys, 1, (2, 3))),
             lambda b, p: deserialize_seeded_sum(b, p, 1024, lambda k: 23))
    blob, read = {
        b"CKV2": (artifacts["ciphertext"], deserialize_ciphertext),
        b"CKV3": upload, b"CKV4": upload, b"CKV7": upload, b"CKU1": upload,
        b"CKU3": upload, b"CKV5": total, b"CKV8": total, b"CKA1": total,
        b"CKA3": total}[old]
    with pytest.raises(FormatError, match=rf"but found .*\({old.decode()}, "
                                          r"no longer read\) artifact"):
        read(old + blob[4:], small_params)


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from([1024, 4096, "odd"]),
       count=st.integers(1, 3 * 1024), seed=st.integers(0, 2 ** 32))
def test_seeded_block_roundtrip(chains, name, count, seed):
    """The P coefficients of a seeded upload that drops u = 0 bits, as
    one does where the noise leaves no room to round, are a c0 block at
    d = 0: the byte 0, q0's width, then P residues at that width, bit for bit
    as docs/protocol.md words it: P need not be a multiple of 8, and the
    pad bits are 0. They come back as written, and a pad bit set is
    refused."""
    from cipherfed.fhe import SeededBatch
    from cipherfed.fhe.serial import deserialize_seeded, serialize_seeded
    params = chains[name]
    n, q0 = params.ring_degree, params.modulus_chain[0]
    rng = np.random.default_rng(seed)
    c0 = rng.integers(0, q0, count, dtype=np.uint64)
    c0[0], c0[-1] = q0 - 1, q0 - 1
    chunks = -(-count // n)
    batch = SeededBatch(params, c0, params.scale,
                        tuple(bytes([j]) * 32 for j in range(chunks)), (1,))
    blob = serialize_seeded(batch, 0)
    width = chain_widths(params, 1)
    block = bytes([0]) + width + pack_rows(c0[None], width)
    assert blob[23 + 32 * chunks:-TRAILER_BYTES] == block
    back = deserialize_seeded(blob, params, count, 1, 0)
    assert np.array_equal(back.c0, c0) and back.seeds == batch.seeds
    pad = -count * width[0] % 8
    if pad:
        set_pad = resealed(blob, lambda b: b[:-1] + bytes([b[-1] | 0x80]))
        with pytest.raises(FormatError, match="pad bits"):
            deserialize_seeded(set_pad, params, count, 1, 0)


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from([1024, 4096, "odd"]),
       count=st.integers(1, 3 * 1024), dropped=st.integers(0, 40),
       seed=st.integers(0, 2 ** 32))
def test_rounded_block_roundtrip(chains, name, count, dropped, seed):
    """A `CKA4` c0 block is d, the width w = b0 - d, then each y =
    (c0 + 2^(d-1)) >> d at w bits, as docs/protocol.md words it, y = 0
    where y * 2^d would reach q0. It reads back as y * 2^d, within
    2^(d-1) of c0 mod q0, and writes back to the same bytes; a y whose
    y * 2^d is not below q0 is refused."""
    from cipherfed.fhe import SeededBatch
    from cipherfed.fhe.serial import (deserialize_seeded_sum,
                                      serialize_seeded_sum)
    params = chains[name]
    n, q0 = params.ring_degree, params.modulus_chain[0]
    rng = np.random.default_rng(seed)
    c0 = rng.integers(0, q0, count, dtype=np.uint64)
    c0[0], c0[-1] = q0 - 1, 0
    chunks = -(-count // n)
    batch = SeededBatch(params, c0, params.scale * 3,
                        tuple(bytes([j]) * 32 for j in range(chunks)), (3,))
    blob = serialize_seeded_sum(batch, dropped)
    half = (1 << dropped) >> 1
    width = q0.bit_length() - dropped
    y = [(int(c) + half) >> dropped for c in c0]
    y = [v if v << dropped < q0 else 0 for v in y]
    at = 23 + 2 + 8 + 32 * chunks
    assert blob[at:-TRAILER_BYTES] == (bytes([dropped, width])
                                       + pack_rows([y], bytes([width])))
    back = deserialize_seeded_sum(blob, params, count, lambda total: dropped)
    assert back.c0.tolist() == [v << dropped for v in y]
    gap = (back.c0.astype(object) - c0.astype(object)) % q0
    assert all(g <= half or q0 - g <= half for g in gap)
    assert serialize_seeded_sum(back, dropped) == blob
    top = (q0 - 1) >> dropped
    if top + 1 < 1 << width:
        over = with_field(blob, at + 2, 0, width, top + 1)
        with pytest.raises(FormatError, match="not below q0"):
            deserialize_seeded_sum(over, params, count, lambda total: dropped)


# the length and sha256 of a `CKU4` upload of P coefficients, as the
# encryption that drew all N error coefficients of each chunk wrote it,
# and as an NTT product by s in place of the FFT one writes it too: its
# c0 block at d = 0 under the magic of the `CKU3` it replaced, as that
# sent it, whose lengths are those of the `CKU2` before it, and at the
# u = 19 that the default spec's uploads drop
UPLOAD_DIGESTS = {1: ((81, "2a921f68c097d8f7"), (79, "b56215d2f9165c87")),
                  27: ((279, "4b84d99e38c24b0e"),
                       (215, "4f676ac0b1d35412")),
                  4095: ((31298, "f5f6e6a6718c3859"),
                         (21572, "6219ad2cf588d9d3")),
                  4096: ((31305, "67659ff48958d4fb"),
                         (21577, "d0e056eba677cea0")),
                  4097: ((31345, "a263020d5a89cf88"),
                         (21615, "d7ddb53006e94e51")),
                  12309: ((94026, "9ee7dbaec65a5ed0"),
                          (64792, "924b916fedd17b5f"))}


@pytest.mark.parametrize("count", sorted(UPLOAD_DIGESTS))
def test_upload_bytes_pinned(std_keys, count):
    """encrypt_symmetric draws only the error coefficients it keeps, a
    prefix of each chunk's draw of N: its uploads stay byte for byte
    those of a whole draw, at partial and full chunks alike, and keys
    drawn from a seed fold no nonce into them. Rounded by u = 19 bits,
    each c0 value y is (c0 + 2^18) >> 19 of the unrounded one, or 0
    where y * 2^19 would reach q0."""
    from cipherfed.federation.client import derive_seed
    from cipherfed.fhe import encode_coeffs, encrypt_symmetric
    from cipherfed.fhe.serial import (deserialize_seeded, seal,
                                      serialize_seeded)
    params = std_keys.params
    n, q0 = params.ring_degree, params.modulus_chain[0]
    chunks = -(-count // n)
    x = np.zeros(chunks * n)
    x[:count] = np.round(np.linspace(-3, 3, count) * 2 ** 16) / 2 ** 16
    batch = encrypt_symmetric(encode_coeffs(x.reshape(chunks, n), params,
                                            level=0),
                              std_keys, [derive_seed(9, j)
                                         for j in range(chunks)], count)
    blobs = [serialize_seeded(batch, u) for u in (0, 19)]
    was = seal(b"CKU3" + blobs[0][4:-TRAILER_BYTES])
    assert [(len(b), hashlib.sha256(b).hexdigest()[:16])
            for b in (was, blobs[1])] == list(UPLOAD_DIGESTS[count])
    exact, rounded = (deserialize_seeded(b, params, count, 1, u).c0
                      for b, u in zip(blobs, (0, 19)))
    y = [(int(c) + 2 ** 18) >> 19 for c in exact]
    assert rounded.tolist() == [v << 19 if v << 19 < q0 else 0 for v in y]
