import numpy as np
import pytest

from cipherfed.errors import AlignmentError, LevelError, ParameterError
from cipherfed.fhe import (add_ct, decode, decrypt, encode, encode_scalar,
                           encrypt, keygen, mul_plain, rescale)


def roundtrip(v, params, keys, seed=0):
    return decode(decrypt(encrypt(encode(v, params), keys, seed), keys),
                  len(v))


def test_encrypt_decrypt_zero(small_params, small_keys):
    got = roundtrip(np.zeros(64), small_params, small_keys)
    assert np.abs(got).max() < 2.0 ** -18


def test_encrypt_decrypt_random(small_params, small_keys, rng):
    v = rng.uniform(-1, 1, small_params.slot_count)
    got = roundtrip(v, small_params, small_keys, seed=3)
    assert np.abs(got - v).max() < 2.0 ** -18


def test_fresh_ciphertext_level_and_scale(small_params, small_keys):
    ct = encrypt(encode([0.5], small_params), small_keys, 0)
    assert ct.level == small_params.max_level
    assert ct.scale == small_params.scale


def test_distinct_seeds_distinct_ciphertexts(small_params, small_keys):
    pt = encode([0.25], small_params)
    a = encrypt(pt, small_keys, 1)
    b = encrypt(pt, small_keys, 2)
    assert not np.array_equal(a.c0.residues, b.c0.residues)
    va = decode(decrypt(a, small_keys), 1)
    vb = decode(decrypt(b, small_keys), 1)
    assert abs(va[0] - vb[0]) < 2.0 ** -17


def test_encrypt_deterministic_in_seed(small_params, small_keys):
    pt = encode([0.25], small_params)
    a = encrypt(pt, small_keys, 42)
    b = encrypt(pt, small_keys, 42)
    assert np.array_equal(a.c0.residues, b.c0.residues)
    assert np.array_equal(a.c1.residues, b.c1.residues)


def test_encrypt_works_with_public_material_only(small_params, small_keys):
    ct = encrypt(encode([0.5], small_params), small_keys.public, 0)
    got = decode(decrypt(ct, small_keys), 1)
    assert abs(got[0] - 0.5) < 2.0 ** -18


def test_decrypt_requires_full_keys(small_params, small_keys):
    ct = encrypt(encode([0.5], small_params), small_keys, 0)
    with pytest.raises(ParameterError):
        decrypt(ct, small_keys.public)


def test_wrong_secret_key_garbles(small_params, small_keys):
    other = keygen(small_params, rng_seed=999)
    v = np.full(32, 0.5)
    ct = encrypt(encode(v, small_params), small_keys, 0)
    got = decode(decrypt(ct, other), 32)
    # wrong key yields values far outside the noise bound
    assert np.abs(got - v).max() > 1.0


def test_additive_homomorphism_thousand_pairs(small_params, small_keys):
    rng = np.random.default_rng(7)
    slots = 64
    tol = 3 * 2.0 ** -18
    for trial in range(1000):
        x = rng.uniform(-1, 1, slots)
        y = rng.uniform(-1, 1, slots)
        cx = encrypt(encode(x, small_params), small_keys, 2 * trial)
        cy = encrypt(encode(y, small_params), small_keys, 2 * trial + 1)
        got = decode(decrypt(add_ct(cx, cy), small_keys), slots)
        assert np.abs(got - (x + y)).max() < tol


def test_add_identity(small_params, small_keys, rng):
    v = rng.uniform(-1, 1, 16)
    cv = encrypt(encode(v, small_params), small_keys, 0)
    cz = encrypt(encode(np.zeros(16), small_params), small_keys, 1)
    got = decode(decrypt(add_ct(cv, cz), small_keys), 16)
    assert np.abs(got - v).max() < 2.0 ** -17


def test_add_example_vectors(small_params, small_keys):
    ca = encrypt(encode([1.0, 2.0], small_params), small_keys, 0)
    cb = encrypt(encode([3.0, 4.0], small_params), small_keys, 1)
    got = decode(decrypt(add_ct(ca, cb), small_keys), 2)
    assert np.abs(got - [4.0, 6.0]).max() < 2.0 ** -17


def test_add_level_mismatch(small_params, small_keys):
    ca = encrypt(encode([1.0], small_params), small_keys, 0)
    cb = rescale(mul_plain(
        encrypt(encode([1.0], small_params), small_keys, 1),
        encode_scalar(1.0, small_params)))
    with pytest.raises(AlignmentError):
        add_ct(ca, cb)


def test_add_scale_mismatch(small_params, small_keys):
    ca = encrypt(encode([1.0], small_params), small_keys, 0)
    cb = encrypt(encode([1.0], small_params, scale=2.0 ** 41), small_keys, 1)
    with pytest.raises(AlignmentError):
        add_ct(ca, cb)


def test_mul_plain_identity(small_params, small_keys, rng):
    v = rng.uniform(-1, 1, 32)
    ct = encrypt(encode(v, small_params), small_keys, 0)
    got = decode(decrypt(rescale(mul_plain(ct, encode_scalar(1.0, small_params))),
                         small_keys), 32)
    assert np.abs(got - v).max() < 2.0 ** -15


def test_mul_plain_by_half(small_params, small_keys):
    ct = encrypt(encode([2.0, 4.0], small_params), small_keys, 0)
    got = decode(decrypt(rescale(mul_plain(ct, encode_scalar(0.5, small_params))),
                         small_keys), 2)
    assert np.abs(got - [1.0, 2.0]).max() < 2.0 ** -15


def test_mul_plain_by_zero(small_params, small_keys, rng):
    v = rng.uniform(-1, 1, 16)
    ct = encrypt(encode(v, small_params), small_keys, 0)
    got = decode(decrypt(mul_plain(ct, encode_scalar(0.0, small_params)),
                         small_keys), 16)
    assert np.abs(got).max() < 2.0 ** -15


def test_mul_plain_slotwise_vector(small_params, small_keys):
    ct = encrypt(encode([1.0, 2.0, 3.0], small_params), small_keys, 0)
    pt = encode([0.5, 0.25, -1.0], small_params)
    got = decode(decrypt(rescale(mul_plain(ct, pt)), small_keys), 3)
    assert np.abs(got - [0.5, 0.5, -3.0]).max() < 2.0 ** -15


def test_mul_plain_level_mismatch(small_params, small_keys):
    ct = rescale(mul_plain(
        encrypt(encode([1.0], small_params), small_keys, 0),
        encode_scalar(1.0, small_params)))
    pt_top = encode_scalar(1.0, small_params)
    with pytest.raises(AlignmentError):
        mul_plain(ct, pt_top)


def test_mul_plain_scales_multiply(small_params, small_keys):
    ct = encrypt(encode([1.0], small_params), small_keys, 0)
    pt = encode_scalar(1.0, small_params)
    prod = mul_plain(ct, pt)
    assert prod.scale == ct.scale * pt.scale


def test_rescale_scale_arithmetic(small_params, small_keys):
    ct = encrypt(encode([1.0], small_params), small_keys, 0)
    prod = mul_plain(ct, encode_scalar(1.0, small_params))
    dropped = small_params.modulus_chain[prod.level]
    out = rescale(prod)
    assert out.scale == prod.scale / dropped
    assert out.level == prod.level - 1


def test_rescale_exhausts_levels(small_params, small_keys):
    ct = encrypt(encode([1.0], small_params), small_keys, 0)
    for _ in range(small_params.max_level):
        ct = rescale(mul_plain(ct, encode_scalar(1.0, small_params,
                                                 level=ct.level)))
    assert ct.level == 0
    with pytest.raises(LevelError):
        rescale(ct)


def test_weighted_sum_linearity(small_params, small_keys, rng):
    # aggregation kernel: k <= 8 ciphertexts, convex weights
    slots = 128
    for k in (2, 5, 8):
        vecs = [rng.uniform(-1, 1, slots) for _ in range(k)]
        w = rng.uniform(0.1, 1.0, k)
        w = w / w.sum()
        acc = None
        for i, (vec, wi) in enumerate(zip(vecs, w)):
            ct = encrypt(encode(vec, small_params), small_keys, i)
            term = mul_plain(ct, encode_scalar(wi, small_params))
            acc = term if acc is None else add_ct(acc, term)
        got = decode(decrypt(rescale(acc), small_keys), slots)
        expect = sum(wi * vec for wi, vec in zip(w, vecs))
        assert np.abs(got - expect).max() < 1e-4


def test_params_mismatch_rejected(small_params, small_keys, std_params,
                                  std_keys):
    ct = encrypt(encode([1.0], small_params), small_keys, 0)
    with pytest.raises(ParameterError):
        decrypt(ct, std_keys)


@pytest.mark.parametrize("n,key_digest,ct_digest", [
    (1024, "db103db067600a1e", "37acf772f152a0c2"),
    (4096, "8a52d5d166d1b21c", "043b380a42e9bbcf")])
def test_integer_pipeline_bytes_pinned(n, key_digest, ct_digest):
    # keygen, scalar encoding, encrypt, mul_plain, add, rescale and
    # decrypt are exact integer arithmetic: no FFT encoding and no float
    # training, so these bytes are the same on every CPU
    from hashlib import sha256

    from cipherfed.fhe import default_params
    from cipherfed.fhe.serial import (serialize_ciphertext,
                                      serialize_public_key,
                                      serialize_secret_key)
    p = default_params(ring_degree=n)
    k = keygen(p, rng_seed=7)
    key_bytes = serialize_secret_key(k) + serialize_public_key(k.public)
    a = encrypt(encode_scalar(0.375, p), k, 11)
    b = encrypt(encode_scalar(-1.25, p), k, 12)
    s = rescale(add_ct(mul_plain(a, encode_scalar(0.25, p, level=2)),
                       mul_plain(b, encode_scalar(0.75, p, level=2))))
    ct_bytes = serialize_ciphertext(s) + decrypt(s, k).poly.residues.tobytes()
    assert sha256(key_bytes).hexdigest()[:16] == key_digest
    assert sha256(ct_bytes).hexdigest()[:16] == ct_digest
