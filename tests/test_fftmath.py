"""The exact FFT product by the ternary secret: equal to the NTT product
at the smallest and largest ring degrees, for any operand below q0 and
the extreme secrets, with its limb width from the written bound and a
run-time check that refuses an FFT less accurate than that bound."""

import numpy as np
import pytest

from cipherfed.errors import DomainError
from cipherfed.fhe import (KeyMaterial, decrypt_coeffs, default_params,
                           encode_coeffs, encrypt_symmetric)
from cipherfed.fhe.fftmath import (ROUND_MARGIN, TernaryProduct,
                                   error_bound, limb_bits)
from cipherfed.fhe.params import MAX_RING_DEGREE
from cipherfed.fhe.poly import (COEFF, RingPoly, ShoupPoly,
                                from_signed_coeffs, ntt_forward, ntt_inverse)

DEGREES = [1024, MAX_RING_DEGREE]


def ntt_product(x: np.ndarray, secret: np.ndarray, params) -> np.ndarray:
    """x*s mod q0 through the NTT: the reference."""
    s = ShoupPoly.wrap(ntt_forward(from_signed_coeffs(secret, params, (0,))))
    x = ntt_forward(RingPoly(params, (0,), x[:, None, :], COEFF))
    return ntt_inverse(x.mul_fixed(s)).residues[:, 0, :]


@pytest.mark.parametrize("n", DEGREES)
def test_fft_product_equals_ntt_product(n):
    params = default_params(ring_degree=n)
    q0 = params.modulus_chain[0]
    rng = np.random.default_rng(n)
    x = np.stack([rng.integers(0, q0, n, dtype=np.uint64),
                  np.full(n, q0 - 1, dtype=np.uint64)])
    for secret in (rng.integers(-1, 2, n), np.ones(n, dtype=np.int64),
                   -np.ones(n, dtype=np.int64)):
        got = TernaryProduct(secret, params)(x)
        assert got.dtype == np.uint64 and got.shape == x.shape
        assert np.array_equal(got, ntt_product(x, secret, params))


@pytest.mark.parametrize("n,bits", [(1024, 31), (2048, 31), (4096, 21),
                                    (MAX_RING_DEGREE, 21)])
def test_limb_width_from_the_bound(n, bits):
    """The fewest equal limbs of a 61-bit q0 that the bound allows: a
    limb count fewer would break it."""
    assert limb_bits(n, 61) == bits
    assert error_bound(n, bits) < ROUND_MARGIN
    fewer = -(-61 // (-(-61 // bits) - 1))
    assert error_bound(n, fewer) >= ROUND_MARGIN


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
