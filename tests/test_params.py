import pytest

from cipherfed.errors import ParameterError
from cipherfed.fhe.nttmath import find_ntt_primes
from cipherfed.fhe.params import EncryptionParams, basis_rows, default_params


def test_default_params_shape():
    p = default_params()
    assert p.ring_degree == 4096
    assert p.slot_count == 2048
    assert len(p.modulus_chain) == 3
    assert p.scale == 2.0 ** 40
    for q in p.modulus_chain:
        assert q % 8192 == 1
    assert p.scale < min(p.modulus_chain)


def test_digest_stable_and_distinct():
    a = default_params()
    b = default_params()
    c = default_params(ring_degree=2048)
    assert a.digest == b.digest
    assert len(a.digest) == 8
    assert a.digest != c.digest


def test_default_primes_and_digest_pinned():
    # the digest goes on the wire; a change to the prime search moves it
    p = default_params()
    assert p.modulus_chain == (1152921504606904321, 1099511799809,
                               1099511922689)
    assert p.digest.hex() == "bdbd562be051e7f8"
    assert default_params(ring_degree=1024).digest.hex() == "8f6a7a451eb49811"


def test_rejects_non_power_of_two_degree():
    chain = find_ntt_primes(40, 2, 2048)
    with pytest.raises(ParameterError):
        EncryptionParams(ring_degree=1000, modulus_chain=tuple(chain))


def test_rejects_small_degree():
    """A degree below 1,024 is refused, and so is one above 32,768, the
    largest ring in the HE security standard's tables."""
    chain = tuple(find_ntt_primes(40, 2, 1024))
    for n in (512, 65536):
        with pytest.raises(ParameterError, match=f"1024 to 32768, got {n}"):
            EncryptionParams(ring_degree=n, modulus_chain=chain)


def test_rejects_short_chain():
    q = find_ntt_primes(40, 1, 2048)[0]
    with pytest.raises(ParameterError, match="2 primes"):
        EncryptionParams(ring_degree=1024, modulus_chain=(q,))


def test_rejects_composite_modulus():
    q = find_ntt_primes(40, 1, 2048)[0]
    composite = 2048 * 3 * 5 * 7 * 2 ** 20 + 1  # 1 mod 2048 but not prime
    assert composite % 2048 == 1
    with pytest.raises(ParameterError, match="not prime"):
        EncryptionParams(ring_degree=1024, modulus_chain=(q, composite))


def test_rejects_wrong_residue_class():
    good = find_ntt_primes(40, 1, 2048)[0]
    bad = find_ntt_primes(40, 1, 64)[0]
    if bad % 2048 == 1:
        pytest.skip("search found a 2N-friendly prime by accident")
    with pytest.raises(ParameterError, match="NTT"):
        EncryptionParams(ring_degree=1024, modulus_chain=(good, bad))


def test_rejects_prime_above_word_limit():
    # residue sums must stay below 2^64
    good = find_ntt_primes(40, 1, 2048)[0]
    big = find_ntt_primes(62, 1, 2048)[0]
    with pytest.raises(ParameterError, match="2\\^62"):
        EncryptionParams(ring_degree=1024, modulus_chain=(good, big))


def test_rejects_duplicate_primes():
    q = find_ntt_primes(40, 1, 2048)[0]
    with pytest.raises(ParameterError, match="distinct"):
        EncryptionParams(ring_degree=1024, modulus_chain=(q, q))


def test_rejects_scale_at_least_smallest_prime():
    chain = find_ntt_primes(40, 2, 2048)
    with pytest.raises(ParameterError, match="scale"):
        EncryptionParams(ring_degree=1024, modulus_chain=tuple(chain),
                         scale=2.0 ** 41)


def test_rejects_non_power_of_two_scale():
    chain = find_ntt_primes(40, 2, 2048)
    with pytest.raises(ParameterError, match="power of two"):
        EncryptionParams(ring_degree=1024, modulus_chain=tuple(chain),
                         scale=3.0 * 2 ** 30)


def test_rot_group_orbit_covers_half():
    p = default_params(ring_degree=1024)
    rot = p.rot_group
    assert len(rot) == p.slot_count
    assert len(set(rot)) == p.slot_count
    assert rot[0] == 1 and rot[1] == 5


def test_basis_rows_takes_runs_only():
    # a run of the basis is a slice of its rows; nothing reads any other
    # subset, and a slice could not hold one
    assert basis_rows((0, 1, 2), (1, 2)) == slice(1, 3)
    with pytest.raises(ParameterError, match="not a run"):
        basis_rows((0, 1, 2), (0, 2))
