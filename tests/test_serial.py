import struct

import numpy as np
import pytest

from cipherfed.errors import FormatError, ParameterError
from cipherfed.fhe import decode, decrypt, encode, encrypt, keygen
from cipherfed.fhe.serial import (deserialize_ciphertext,
                                  deserialize_float_vector,
                                  deserialize_key_material,
                                  deserialize_public_material,
                                  serialize_ciphertext, serialize_float_vector,
                                  serialize_public_key, serialize_secret_key)


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
        deserialize_ciphertext(blob[:40], small_params)


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

def poly_bytes(residues) -> bytes:
    return struct.pack("<B", len(residues)) + np.asarray(
        residues, dtype="<u8").tobytes()


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
        load(kind, artifacts[kind] + b"\x00", small_params, artifacts)


# offset of the first residue, and the row to patch
@pytest.mark.parametrize("kind,start,row", [
    ("ciphertext", 24, 0), ("ciphertext", 24, 2), ("public", 13, 1),
    ("secret", 13, 2)])
def test_residue_at_its_prime_rejected(kind, start, row, small_params,
                                       artifacts):
    n = small_params.ring_degree
    blob = bytearray(artifacts[kind])
    struct.pack_into("<Q", blob, start + 8 * (row * n + 5),
                     small_params.modulus_chain[row])
    with pytest.raises(FormatError, match="below its prime"):
        load(kind, bytes(blob), small_params, artifacts)


def key_blob(magic, params, *polys, head=b"") -> bytes:
    return magic + params.digest + head + b"".join(polys)


@pytest.mark.parametrize("rows", [1, 2, 4])
def test_public_key_needs_chain_rows(rows, small_params):
    poly = poly_bytes(np.zeros((rows, small_params.ring_degree)))
    with pytest.raises(FormatError, match=f"poly has {rows} primes"):
        deserialize_public_material(
            key_blob(b"CKP1", small_params, poly, poly), small_params)


@pytest.mark.parametrize("rows", [1, 2, 4])
def test_secret_key_needs_chain_rows(rows, small_params, artifacts):
    poly = poly_bytes(np.zeros((rows, small_params.ring_degree)))
    with pytest.raises(FormatError, match=f"poly has {rows} primes"):
        deserialize_key_material(key_blob(b"CKS2", small_params, poly),
                                 artifacts["public"], small_params)


def test_ciphertext_beyond_chain_rejected(small_params, artifacts):
    poly = poly_bytes(np.zeros((4, small_params.ring_degree)))
    blob = key_blob(b"CKV2", small_params, poly, poly,
                    head=struct.pack("<BdH", 3, small_params.scale, 1))
    with pytest.raises(FormatError, match="poly has 4 primes"):
        deserialize_ciphertext(blob, small_params)


def test_ciphertext_without_chunks_rejected(small_params):
    # a header that announces no chunks, then two empty blocks
    blob = key_blob(b"CKV2", small_params, poly_bytes(np.zeros((3, 0))) * 2,
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
    blob = bytearray(artifacts["ciphertext"])
    struct.pack_into("<d", blob, 13, scale)
    with pytest.raises(FormatError, match="finite and positive"):
        deserialize_ciphertext(bytes(blob), small_params)


# --- the seeded upload, `CKV4` ----------------------------------------------

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
    from cipherfed.fhe import decode_coeffs, encode_coeffs, encrypt_symmetric
    from cipherfed.fhe.serial import deserialize_seeded, serialize_seeded
    values = rng.uniform(-8, 8, (chunks, 16))
    ct = encrypt_symmetric(encode_coeffs(values, small_params, level=0),
                           small_keys, list(range(10, 10 + chunks)))
    blob = serialize_seeded(ct)
    assert len(blob) == 23 + 32 * chunks + 1 + 8 * chunks * 1024
    back = deserialize_seeded(blob, small_params)
    assert back.seeds == ct.seeds and len(set(ct.seeds)) == chunks
    assert np.array_equal(back.c0.residues, ct.c0.residues)
    # the reader's c1, re-expanded from the seeds, is the sender's
    assert np.array_equal(back.c1.residues, ct.c1.residues)
    assert (back.level, back.scale) == (0, small_params.scale)
    assert serialize_seeded(back) == blob
    got = decode_coeffs(decrypt(back, small_keys), 16) / small_params.scale
    assert np.abs(got - values).max() < 2.0 ** -28


def test_seeded_encryption_needs_secret_key_and_level_0(small_params,
                                                         small_keys):
    from cipherfed.errors import DomainError, ShapeError
    from cipherfed.fhe import encode_coeffs, encrypt_symmetric
    pt = encode_coeffs(np.ones((2, 4)), small_params, level=0)
    with pytest.raises(ParameterError, match="full key material"):
        encrypt_symmetric(pt, small_keys.public, [1, 2])
    with pytest.raises(ShapeError, match="one seed per chunk"):
        encrypt_symmetric(pt, small_keys, [1])
    for other in (encode(np.ones((2, 4)), small_params, level=0),
                  encode_coeffs(np.ones((2, 4)), small_params, level=1)):
        with pytest.raises(DomainError, match="level-0 coefficient"):
            encrypt_symmetric(other, small_keys, [1, 2])


def test_only_seeded_ciphertexts_are_written_as_ckv3(small_params,
                                                     small_keys):
    from cipherfed.fhe.serial import serialize_seeded
    ct = encrypt(encode(np.ones((1, 4)), small_params, level=0), small_keys,
                 [3])
    with pytest.raises(FormatError, match="only a seeded ciphertext"):
        serialize_seeded(ct)
