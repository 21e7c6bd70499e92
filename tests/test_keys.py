import numpy as np

from cipherfed.fhe import decode, keygen
from cipherfed.fhe.encoding import Plaintext
from cipherfed.fhe.keys import KeyMaterial, PublicMaterial


def test_keygen_structure(small_params):
    keys = keygen(small_params, rng_seed=0)
    assert isinstance(keys, KeyMaterial)
    assert isinstance(keys.public, PublicMaterial)
    # every key covers the chain basis
    chain = tuple(range(len(small_params.modulus_chain)))
    for key in (keys.secret_key, keys.public.pk0, keys.public.pk1):
        assert key.poly.prime_indices == chain


def test_keygen_deterministic(small_params):
    a = keygen(small_params, rng_seed=123)
    b = keygen(small_params, rng_seed=123)
    assert np.array_equal(a.secret_key.poly.residues,
                          b.secret_key.poly.residues)
    assert np.array_equal(a.public.pk0.poly.residues,
                          b.public.pk0.poly.residues)


def test_keygen_seed_changes_keys(small_params):
    a = keygen(small_params, rng_seed=1)
    b = keygen(small_params, rng_seed=2)
    assert not np.array_equal(a.secret_key.poly.residues,
                              b.secret_key.poly.residues)


def test_public_key_is_encryption_of_zero(small_params, small_keys):
    # decrypting (pk0, pk1) as a ciphertext must give ~0 in every slot
    chain = tuple(range(len(small_params.modulus_chain)))
    pk0 = small_keys.public.pk0.poly
    pk1 = small_keys.public.pk1.poly
    m = pk0.add(pk1.mul_fixed(small_keys.secret_key))
    pt = Plaintext(poly=m, scale=small_params.scale,
                   level=len(chain) - 1)
    vals = decode(pt, small_params.slot_count)
    assert np.abs(vals).max() < 2.0 ** -18


def test_secret_is_ternary(small_params, small_keys):
    from cipherfed.fhe.poly import ntt_inverse
    coeffs = ntt_inverse(small_keys.secret_key.poly)
    q0 = small_params.modulus_chain[0]
    row = coeffs.residues[0].astype(np.int64)
    centered = np.where(row > q0 // 2, row - q0, row)
    assert set(np.unique(centered)).issubset({-1, 0, 1})
