"""The exact FFT product by the ternary secret: equal, mod 2^60, to a
schoolbook product in Python integers and to the integer product that
NTTs over two chain primes give, at the smallest and largest ring
degrees, for any operand below 2^60, digits at the ends of their
balanced range and the extreme secrets, with its limb width from the
written bound and a run-time check that refuses an FFT less accurate
than that bound."""

import numpy as np
import pytest

from cipherfed.errors import DomainError
from cipherfed.fhe import (KeyMaterial, decrypt_coeffs, default_params,
                           encode_coeffs, encrypt_symmetric)
from cipherfed.fhe.fftmath import (ROUND_MARGIN, TernaryProduct,
                                   error_bound, limb_bits)
from cipherfed.fhe.params import MAX_RING_DEGREE
from cipherfed.fhe.poly import (ShoupPoly, from_signed_coeffs, ntt_forward,
                                ntt_inverse)

DEGREES = [1024, MAX_RING_DEGREE]


def operands(n: int, k: int):
    """Rows below 2^k: a random one, then one whose every balanced digit
    is -2^(B-1) and one whose every digit is 2^(B-1) - 1, for the limb
    width B at ring degree n; and the secrets: a random one, all +1 and
    all -1."""
    rng = np.random.default_rng(n)
    bits = limb_bits(n, k)
    x = np.stack([rng.integers(0, 1 << k, n, dtype=np.uint64),
                  *(np.full(n, from_digits(d, bits, k), dtype=np.uint64)
                    for d in (-(1 << bits - 1), (1 << bits - 1) - 1))])
    return x, (rng.integers(-1, 2, n), np.ones(n, dtype=np.int64),
               -np.ones(n, dtype=np.int64))


def ntt_product(x: np.ndarray, secret: np.ndarray, params) -> list:
    """x*s over the integers, mod 2^k: the NTT products mod q0 and q1,
    joined by the CRT. |x*s| <= N * 2^60 stays below q0 * q1 / 2, so
    the joined value, centred, is the integer product."""
    basis = (0, 1)
    s = ShoupPoly.wrap(ntt_forward(from_signed_coeffs(secret, params,
                                                      basis)))
    x = ntt_forward(from_signed_coeffs(x.astype(np.int64), params, basis))
    r0, r1 = (r.astype(object) for r in np.moveaxis(
        ntt_inverse(x.mul_fixed(s)).residues, -2, 0))
    q0, q1 = params.modulus_chain[:2]
    v = r0 + q0 * ((r1 - r0) * pow(q0, -1, q1) % q1)
    v = np.where(v > q0 * q1 // 2, v - q0 * q1, v)
    return (v % (1 << params.seeded_bits)).tolist()


@pytest.mark.parametrize("n", DEGREES)
def test_fft_product_equals_ntt_product(n):
    params = default_params(ring_degree=n)
    x, secrets = operands(n, params.seeded_bits)
    for secret in secrets:
        got = TernaryProduct(secret, params)(x)
        assert got.tolist() == ntt_product(x, secret, params)


def schoolbook_coefficient(x, secret, i: int, bits: int) -> int:
    """Coefficient i of x*s in Z[X]/(X^N + 1), mod 2^bits, summed in
    Python integers: sum_j x_j * s_(i-j), with X^N = -1 negating the
    terms that wrap past X^(N-1)."""
    wrapped = np.concatenate([secret[i::-1], -secret[:i:-1]])
    return sum(int(a) * int(b) for a, b in zip(x, wrapped)) % (1 << bits)


def from_digits(digit: int, bits: int, k: int) -> int:
    """The word below 2^k whose every B-bit digit, B = `bits`, is
    `digit`."""
    return sum(digit << j for j in range(0, k, bits)) % (1 << k)


@pytest.mark.parametrize("n", DEGREES)
def test_fft_product_equals_schoolbook_product(n):
    params = default_params(ring_degree=n)
    k = params.seeded_bits
    x, secrets = operands(n, k)
    chosen = [0, 1, n // 2 - 1, n // 2, n - 2, n - 1, 1000]
    for secret in secrets:
        got = TernaryProduct(secret, params)(x)
        assert got.dtype == np.uint64 and got.shape == x.shape
        for row, want in zip(got, x):
            assert [int(row[i]) for i in chosen] == [
                schoolbook_coefficient(want, secret, i, k) for i in chosen]


@pytest.mark.parametrize("n,bits", [(1024, 30), (2048, 30), (4096, 30),
                                    (8192, 30), (16384, 20),
                                    (MAX_RING_DEGREE, 20)])
def test_limb_width_from_the_bound(n, bits):
    """The fewest equal limbs of balanced digits mod 2^60 that the bound
    allows, each digit at most 2^(B-1) in magnitude: a limb count fewer
    would break it."""
    assert limb_bits(n, 60) == bits
    assert error_bound(n, bits - 1) < ROUND_MARGIN
    fewer = -(-60 // (-(-60 // bits) - 1))
    assert error_bound(n, fewer - 1) >= ROUND_MARGIN


def test_inaccurate_fft_is_refused(small_params, monkeypatch):
    """An inverse FFT off by 0.3 leaves products 0.3 from an integer:
    encryption and decryption raise instead of rounding to a wrong
    integer."""
    n = small_params.ring_degree
    keys = KeyMaterial(small_params,
                       np.random.default_rng(3).integers(-1, 2, n))
    batch = encrypt_symmetric(encode_coeffs(np.ones((1, 8)), small_params,
                                            level=0), keys, [5], 8)
    ifft = np.fft.ifft
    monkeypatch.setattr(np.fft, "ifft", lambda z, *a, **k: ifft(z) + 0.3)
    with pytest.raises(DomainError, match="from an integer"):
        encrypt_symmetric(encode_coeffs(np.ones((1, 8)), small_params,
                                        level=0), keys, [5], 8)
    with pytest.raises(DomainError, match="from an integer"):
        decrypt_coeffs(batch, keys)
