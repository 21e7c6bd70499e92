from hashlib import sha256

import numpy as np
import pytest

from cipherfed.fhe import default_params
from cipherfed.fhe.nttmath import (StackedNtt, find_ntt_primes, is_prime,
                                   mulhi64, shoup_constant, shoup_mul)


def schoolbook_negacyclic(a, b, q, n):
    """O(n^2) reference product in Z_q[X]/(X^n + 1)."""
    res = [0] * n
    for i in range(n):
        for j in range(n):
            v = int(a[i]) * int(b[j])
            k = i + j
            if k >= n:
                res[k - n] = (res[k - n] - v) % q
            else:
                res[k] = (res[k] + v) % q
    return np.array(res, dtype=np.uint64)


class OnePrime:
    """Single-row transforms through a one-row StackedNtt."""

    def __init__(self, q, n):
        self.ctx = StackedNtt((q,), n)

    def forward(self, a):
        return self.ctx.forward(a[None])[0]

    def inverse(self, a):
        return self.ctx.inverse(a[None])[0]


def test_is_prime_known_values():
    assert is_prime(2) and is_prime(17) and is_prime(1099511799809)
    assert not is_prime(1) and not is_prime(561) and not is_prime(2 ** 40 + 1)


def test_find_ntt_primes_congruence():
    primes = find_ntt_primes(40, 3, 8192)
    assert len(set(primes)) == 3
    for q in primes:
        assert is_prime(q)
        assert q % 8192 == 1
        assert q > 2 ** 40


def test_mulhi64_matches_python():
    rng = np.random.default_rng(0)
    a = rng.integers(0, 2 ** 64, 1000, dtype=np.uint64)
    b = rng.integers(0, 2 ** 64, 1000, dtype=np.uint64)
    hi = mulhi64(a, b)
    for x, y, h in zip(a.tolist(), b.tolist(), hi.tolist()):
        assert (x * y) >> 64 == h


def test_shoup_mul_matches_python():
    q = find_ntt_primes(60, 1, 16)[0]
    rng = np.random.default_rng(1)
    a = rng.integers(0, q, 2000, dtype=np.uint64)
    w = int(rng.integers(0, q))
    ws = shoup_constant(w, q)
    r = shoup_mul(a, np.uint64(w), ws, np.uint64(q))
    expect = (a.astype(object) * w) % q
    assert np.array_equal(r.astype(object), expect)


@pytest.mark.parametrize("n", [8, 16])
def test_roundtrip_exact(n):
    q = find_ntt_primes(13, 1, 2 * n)[0]
    ntt = OnePrime(q, n)
    rng = np.random.default_rng(2)
    for _ in range(50):
        a = rng.integers(0, q, n).astype(np.uint64)
        assert np.array_equal(ntt.inverse(ntt.forward(a)), a)


def test_ntt_of_zero_is_zero():
    q = find_ntt_primes(13, 1, 16)[0]
    ntt = OnePrime(q, 8)
    z = np.zeros(8, dtype=np.uint64)
    assert np.array_equal(ntt.forward(z), z)
    assert np.array_equal(ntt.inverse(z), z)


@pytest.mark.parametrize("n", [8, 16])
def test_pointwise_equals_schoolbook(n):
    q = find_ntt_primes(13, 1, 2 * n)[0]
    ntt = OnePrime(q, n)
    rng = np.random.default_rng(3)
    for _ in range(100):
        a = rng.integers(0, q, n).astype(np.uint64)
        b = rng.integers(0, q, n).astype(np.uint64)
        prod_ntt = (ntt.forward(a).astype(object)
                    * ntt.forward(b).astype(object)) % q
        got = ntt.inverse(prod_ntt.astype(np.uint64))
        assert np.array_equal(got, schoolbook_negacyclic(a, b, q, n))


def test_stacked_matches_single():
    n = 64
    primes = find_ntt_primes(40, 3, 2 * n)
    singles = [OnePrime(q, n) for q in primes]
    stacked = StackedNtt(tuple(primes), n)
    rng = np.random.default_rng(4)
    mat = np.stack([rng.integers(0, q, n).astype(np.uint64) for q in primes])
    fwd = stacked.forward(mat)
    for i, ctx in enumerate(singles):
        assert np.array_equal(fwd[i], ctx.forward(mat[i]))
    assert np.array_equal(stacked.inverse(fwd), mat)


def test_rejects_non_ntt_prime():
    with pytest.raises(ValueError):
        StackedNtt((7919,), 8)  # prime, but 7919 % 16 != 1
    with pytest.raises(ValueError):
        StackedNtt((99,), 8)
    with pytest.raises(ValueError):
        StackedNtt((97,), 12)  # 24 divides 96, but 12 is no power of two


@pytest.mark.parametrize("n,digest", [(1024, "dbede8b7071ffe76"),
                                      (4096, "623197f50408dfbb")])
def test_default_tables_pinned(n, digest):
    # every table entry is exact modular arithmetic, so the tables of the
    # default primes are the same bytes however they are built
    t = default_params(ring_degree=n).ntt
    tables = b"".join(a.tobytes() for a in (t.q, t.psi, t.ipsi, t.n_inv))
    assert sha256(tables).hexdigest()[:16] == digest
