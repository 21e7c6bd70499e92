import numpy as np
import pytest

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


@pytest.mark.parametrize("n,digest", [
    (1024, "106e8b66518eb6a4e8d8e014d8f10cca3fa98f1e226f1e6a858df09b714b0d24"),
    (4096, "5d644d55346f04ecf3346017601b6c0a6751faad76557a65225bebdfd71264b6")])
def test_secret_key_pinned(n, digest):
    """keygen draws s first, so carrying a as a seed left s as it was
    when a was drawn in full."""
    from hashlib import sha256

    from cipherfed.fhe import default_params
    keys = keygen(default_params(ring_degree=n), rng_seed=7)
    assert sha256(keys.secret_key.poly.residues).hexdigest() == digest


def test_public_a_rows_come_from_distinct_streams(small_params, monkeypatch):
    """Each prime's row of a is expanded from its own seed: one stream
    read under two primes would give correlated residues, far from
    uniform mod Q."""
    from hashlib import sha256

    from cipherfed.fhe import keys as K
    seen, expand = [], K.expand_seed
    monkeypatch.setattr(K, "expand_seed",
                        lambda s, q, n: seen.append((s, q)) or expand(s, q, n))
    keys = keygen(small_params, rng_seed=3)
    pub = keys.public  # built, and a expanded, on first read
    chain = small_params.modulus_chain
    assert [q for _, q in seen] == list(chain)
    assert len({s for s, _ in seen}) == len(chain)
    # row i's seed is SHA-256(tag || seed || u8 i), as docs/protocol.md says
    assert seen == [(sha256(b"cipherfed CKP2 a" + pub.seed
                            + bytes([i])).digest(), q)
                    for i, q in enumerate(chain)]
