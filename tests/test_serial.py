import struct

import numpy as np
import pytest

from cipherfed.errors import FormatError, ParameterError
from cipherfed.fhe import decode, decrypt, encode, encrypt, keygen, rotate
from cipherfed.fhe.serial import (deserialize_ciphertext,
                                  deserialize_float_vector,
                                  deserialize_key_material,
                                  deserialize_public_material, peek_kind,
                                  serialize_ciphertext, serialize_float_vector,
                                  serialize_galois_keys, serialize_public_key,
                                  serialize_secret_key)


def test_ciphertext_roundtrip_bitwise(small_params, small_keys, rng):
    v = rng.uniform(-1, 1, 64)
    ct = encrypt(encode(v, small_params), small_keys, 5)
    blob = serialize_ciphertext(ct)
    back = deserialize_ciphertext(blob, small_params)
    assert np.array_equal(back.c0.residues, ct.c0.residues)
    assert np.array_equal(back.c1.residues, ct.c1.residues)
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
    keys = keygen(small_params, rotation_steps=(1, 2), rng_seed=77)
    sec = serialize_secret_key(keys)
    pub = serialize_public_key(keys.public)
    gal = serialize_galois_keys(keys.public)
    back = deserialize_key_material(sec, pub, small_params, galois_data=gal)
    assert np.array_equal(back.secret_key.poly.residues,
                          keys.secret_key.poly.residues)
    assert sorted(back.galois_keys) == [1, 2]
    # restored keys decrypt and rotate like the originals
    v = np.zeros(small_params.slot_count)
    v[:3] = [1.0, 2.0, 3.0]
    ct = encrypt(encode(v, small_params), back, 9)
    got = decode(decrypt(rotate(ct, 2, back), back), small_params.slot_count)
    assert np.abs(got - np.roll(v, -2)).max() < 1e-3
    # and re-serialize to identical bytes
    assert serialize_secret_key(back) == sec
    assert serialize_public_key(back.public) == pub
    assert serialize_galois_keys(back.public) == gal


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


def test_peek_kind(small_params, small_keys):
    ct = encrypt(encode([1.0], small_params), small_keys, 0)
    assert peek_kind(serialize_ciphertext(ct)) == "ciphertext"
    assert peek_kind(serialize_secret_key(small_keys)) == "secret key"
    with pytest.raises(FormatError):
        peek_kind(b"ZZZZ")


# --- hostile artifacts ------------------------------------------------------

def poly_bytes(residues) -> bytes:
    return struct.pack("<B", len(residues)) + np.asarray(
        residues, dtype="<u8").tobytes()


@pytest.fixture(scope="module")
def rot_keys(small_params):
    return keygen(small_params, rotation_steps=(1,), rng_seed=77)


@pytest.fixture(scope="module")
def artifacts(small_params, rot_keys):
    ct = encrypt(encode([0.5, -0.5], small_params), rot_keys, 3)
    return {"ciphertext": serialize_ciphertext(ct),
            "public": serialize_public_key(rot_keys.public),
            "galois": serialize_galois_keys(rot_keys.public),
            "secret": serialize_secret_key(rot_keys),
            "vector": serialize_float_vector(np.arange(4.0))}


def load(kind, blob, params, artifacts):
    if kind == "ciphertext":
        return deserialize_ciphertext(blob, params)
    if kind == "public":
        return deserialize_public_material(blob, params)
    if kind == "galois":
        return deserialize_public_material(artifacts["public"], params, blob)
    if kind == "secret":
        return deserialize_key_material(blob, artifacts["public"], params)
    return deserialize_float_vector(blob)


KINDS = ["ciphertext", "public", "galois", "secret", "vector"]


@pytest.mark.parametrize("kind", KINDS)
def test_trailing_bytes_rejected(kind, small_params, artifacts):
    load(kind, artifacts[kind], small_params, artifacts)
    with pytest.raises(FormatError, match="1 trailing bytes"):
        load(kind, artifacts[kind] + b"\x00", small_params, artifacts)


# offset of the first residue, and the row to patch
@pytest.mark.parametrize("kind,start,row", [
    ("ciphertext", 22, 0), ("ciphertext", 22, 2), ("public", 13, 1),
    ("galois", 18, 3), ("secret", 13, 3)])
def test_residue_at_its_prime_rejected(kind, start, row, small_params,
                                       artifacts):
    n = small_params.ring_degree
    blob = bytearray(artifacts[kind])
    struct.pack_into("<Q", blob, start + 8 * (row * n + 5),
                     small_params.primes[row])
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


@pytest.mark.parametrize("rows", [1, 3])
def test_secret_key_needs_extended_rows(rows, small_params, artifacts):
    poly = poly_bytes(np.zeros((rows, small_params.ring_degree)))
    with pytest.raises(FormatError, match=f"poly has {rows} primes"):
        deserialize_key_material(key_blob(b"CKS1", small_params, poly),
                                 artifacts["public"], small_params)


def galois_blob(params, step, digits, rows) -> bytes:
    poly = poly_bytes(np.zeros((rows, params.ring_degree)))
    return key_blob(b"CKG1", params, poly * (2 * digits),
                    head=struct.pack("<HHB", 1, step, digits))


@pytest.mark.parametrize("step,digits,rows,match", [
    (1, 3, 3, "poly has 3 primes"),
    (1, 2, 4, "2 digits"),
    (1, 4, 4, "4 digits"),
    (0, 3, 4, "step 0"),
    (512, 3, 4, "step 512")], ids=["rows", "digits-2", "digits-4", "step-0",
                                  "step-slots"])
def test_galois_key_layout_checked(step, digits, rows, match, small_params,
                                   artifacts):
    with pytest.raises(FormatError, match=match):
        deserialize_public_material(artifacts["public"], small_params,
                                    galois_blob(small_params, step, digits,
                                                rows))


def test_galois_step_repeated_rejected(small_params, artifacts):
    one = artifacts["galois"][14:]  # the step entry after the count
    blob = key_blob(b"CKG1", small_params, one, one,
                    head=struct.pack("<H", 2))
    with pytest.raises(FormatError, match="repeated"):
        deserialize_public_material(artifacts["public"], small_params, blob)


def test_ciphertext_beyond_chain_rejected(small_params, artifacts):
    poly = poly_bytes(np.zeros((4, small_params.ring_degree)))
    blob = key_blob(b"CKV1", small_params, poly, poly,
                    head=struct.pack("<Bd", 3, small_params.scale))
    with pytest.raises(FormatError, match="poly has 4 primes"):
        deserialize_ciphertext(blob, small_params)


@pytest.mark.parametrize("scale", [float("nan"), -1.0, 0.0, float("inf")])
def test_ciphertext_scale_must_be_finite_positive(scale, small_params,
                                                  artifacts):
    blob = bytearray(artifacts["ciphertext"])
    struct.pack_into("<d", blob, 13, scale)
    with pytest.raises(FormatError, match="finite and positive"):
        deserialize_ciphertext(bytes(blob), small_params)
