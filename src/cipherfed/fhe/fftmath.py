"""Exact negacyclic products by the ternary secret in float64 FFTs.

TernaryProduct computes x*s mod Q = 2^k in Z_Q[X]/(X^N + 1), a*s to
encrypt and c1*s to decrypt, without an NTT, as TFHE does (Chillotti et
al., J. Cryptology 2020): x is split into limbs of balanced B-bit
digits, each limb folded into N/2 complex values and twisted by the
2N-th roots of unity, one N/2-point FFT per limb is multiplied by s's
spectrum and inverted, and np.rint gives each limb's integer product;
wrapping u64 shifts and adds recombine them. B comes from a written
error bound, and each product checks its distance from the integers at
run time (docs/protocol.md, "Exact products by s").
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import DomainError
from .params import EncryptionParams

# the unit roundoff of float64, and an upper bound on the error of each
# root of unity that the FFT and the twist multiply by
UNIT_ROUNDOFF = 2.0 ** -53
ROOT_ERROR = 2.0 ** -50
# the largest distance from an integer that a product may show; the
# limb width keeps the bound below it, and np.rint is exact below 1/2
ROUND_MARGIN = 0.25


def error_bound(n: int, bits: int) -> float:
    """The largest error of one coefficient of a limb's product with a
    ternary s at ring degree n, for digits of magnitude at most 2^bits:
    Percival's bound for FFT convolution of length 2^m = n/2 (Math.
    Comp. 2003), ||x|| ||y|| ((1+u)^3m (1+sqrt5 u)^(3m+1) (1+beta)^3m -
    1), with ||x|| <= sqrt(n) 2^bits, ||y|| <= sqrt(n), and one more
    product by a root for each twist and the untwist."""
    m = (n // 2).bit_length() - 1
    growth = math.expm1(3 * m * math.log1p(UNIT_ROUNDOFF)
                        + (3 * m + 4) * math.log1p(math.sqrt(5)
                                                   * UNIT_ROUNDOFF)
                        + (3 * m + 3) * math.log1p(ROOT_ERROR))
    return n * 2.0 ** bits * growth


def limb_bits(n: int, q_bits: int) -> int:
    """The limb width B for ring degree n and Q = 2^q_bits: the fewest
    limbs, at least two, whose equal width B = ceil(q_bits / L) keeps
    error_bound(n, B - 1), for balanced digits, below ROUND_MARGIN. For
    Q = 2^60, 30 (two limbs) up to N = 8,192 and 20 (three) above."""
    limbs = 2
    while error_bound(n, -(-q_bits // limbs) - 1) >= ROUND_MARGIN:
        limbs += 1
    return -(-q_bits // limbs)


class TernaryProduct:
    """x -> x*s mod 2^k for the ternary secret s and k =
    params.seeded_bits: its twist, spectrum and limb shifts, built once
    per key."""

    def __init__(self, secret: np.ndarray, params: EncryptionParams):
        n, k = params.ring_degree, params.seeded_bits
        self.bits = limb_bits(n, k)
        mask = (1 << k) - 1
        self.mask = np.uint64(mask)
        shifts = range(0, k, self.bits)
        self.shifts = np.array(shifts, dtype=np.uint64).reshape(-1, 1, 1)
        # 2^(B-1) in every digit: digit j of x + offset, less 2^(B-1),
        # is a balanced digit of x
        self.offset = np.uint64(sum(1 << (j + self.bits - 1)
                                    for j in shifts) & mask)
        self.twist = np.exp(1j * np.pi / n * np.arange(n // 2))
        self.untwist = self.twist.conj()
        z = secret.astype(np.float64)
        self.spectrum = np.fft.fft((z[:n // 2] + 1j * z[n // 2:])
                                   * self.twist)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """x*s mod 2^k for the uint64 coefficients x (..., N), each
        below 2^k, as uint64 (..., N). Raises DomainError if a product's
        float result lies farther than ROUND_MARGIN from an integer."""
        shape, half = x.shape, x.shape[-1] // 2
        digits = (((x.reshape(1, -1, shape[-1]) + self.offset)
                   >> self.shifts) & np.uint64((1 << self.bits) - 1)
                  ).astype(np.float64)
        digits -= 2.0 ** (self.bits - 1)
        # limb j of row r is FFT row j*rows + r; numpy transforms a
        # matrix faster than a stack of them
        z = np.empty(digits.shape[:-1] + (half,), dtype=np.complex128)
        z.real, z.imag = digits[..., :half], digits[..., half:]
        z = z.reshape(-1, half)
        z *= self.twist
        z = np.fft.ifft(np.fft.fft(z) * self.spectrum)
        z *= self.untwist
        f = np.concatenate([z.real, z.imag], axis=-1)
        p = np.rint(f)
        f -= p
        far = max(f.max(), -f.min())
        if far > ROUND_MARGIN:
            raise DomainError(f"an FFT product lies {far:.3g} from an "
                              f"integer, past {ROUND_MARGIN}: this FFT is "
                              "less accurate than its error bound")
        p = p.astype(np.int64).view(np.uint64).reshape(len(self.shifts), -1,
                                                       shape[-1])
        # sum_j p_j * 2^(jB) in wrapping u64 words, then mod 2^k
        return ((p << self.shifts).sum(axis=0, dtype=np.uint64)
                & self.mask).reshape(shape)
