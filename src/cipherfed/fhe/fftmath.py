"""Exact negacyclic products by the ternary secret in float64 FFTs.

TernaryProduct computes x*s mod q0 in Z_q0[X]/(X^N + 1), a*s to encrypt
and c1*s to decrypt, without an NTT, as TFHE does (Chillotti et al.,
J. Cryptology 2020): x is split into limbs of B bits, each limb folded
into N/2 complex values and twisted by the 2N-th roots of unity, one
N/2-point FFT per limb is multiplied by s's spectrum and inverted, and
np.rint gives each limb's integer product, which the limbs' weights
recombine mod q0. B comes from a written error bound (`error_bound`),
and each product checks its distance from the integers at run time;
docs/protocol.md, "Exact products by s", states both. np.fft starts no
worker threads.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import DomainError
from .nttmath import addmod, shoup_constant, shoup_mul
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
    ternary s at ring degree n, for limbs below 2^bits: Percival's bound
    for FFT convolution of length 2^m = n/2 (Math. Comp. 2003),
    ||x|| ||y|| ((1+u)^3m (1+sqrt5 u)^(3m+1) (1+beta)^3m - 1), with
    ||x|| <= sqrt(n) 2^bits, ||y|| <= sqrt(n), and one more product by
    a root for each twist and the untwist."""
    m = (n // 2).bit_length() - 1
    growth = math.expm1(3 * m * math.log1p(UNIT_ROUNDOFF)
                        + (3 * m + 4) * math.log1p(math.sqrt(5)
                                                   * UNIT_ROUNDOFF)
                        + (3 * m + 3) * math.log1p(ROOT_ERROR))
    return n * 2.0 ** bits * growth


def limb_bits(n: int, q_bits: int) -> int:
    """The limb width B for ring degree n and a q_bits-bit modulus: the
    fewest limbs, at least two, whose equal width B = ceil(q_bits / L)
    keeps error_bound(n, B) below ROUND_MARGIN. 31 (two limbs) at N =
    1,024 and 2,048, 21 (three) from 4,096 to 32,768 for a 61-bit q0."""
    limbs = 2
    while error_bound(n, -(-q_bits // limbs)) >= ROUND_MARGIN:
        limbs += 1
    return -(-q_bits // limbs)


class TernaryProduct:
    """x -> x*s mod q0 in Z_q0[X]/(X^N + 1) for the ternary secret s:
    its twist and spectrum, the limb shifts, and the weight 2^B mod q0
    of the limbs past the first with its Shoup constant, built once per
    key."""

    def __init__(self, secret: np.ndarray, params: EncryptionParams):
        n, q0 = params.ring_degree, params.modulus_chain[0]
        self.q0 = np.uint64(q0)
        self.bits = limb_bits(n, q0.bit_length())
        limbs = -(-q0.bit_length() // self.bits)
        self.shifts = (np.arange(limbs, dtype=np.uint64)
                       * np.uint64(self.bits)).reshape(-1, 1, 1)
        self.twist = np.exp(1j * np.pi / n * np.arange(n // 2))
        self.untwist = self.twist.conj()
        z = secret.astype(np.float64)
        self.spectrum = np.fft.fft((z[:n // 2] + 1j * z[n // 2:])
                                   * self.twist)
        w = np.uint64(pow(2, self.bits, q0))
        self.weight = w, shoup_constant(w, self.q0)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """x*s mod q0 for the uint64 coefficients x (..., N), each below
        q0, as uint64 (..., N). Raises DomainError if a product's float
        result lies farther than ROUND_MARGIN from an integer."""
        shape, half = x.shape, x.shape[-1] // 2
        limbs = ((x.reshape(1, -1, shape[-1]) >> self.shifts)
                 & np.uint64((1 << self.bits) - 1)).astype(np.float64)
        # limb k of row r is FFT row k*rows + r; numpy transforms a
        # matrix faster than a stack of them
        z = np.empty(limbs.shape[:-1] + (half,), dtype=np.complex128)
        z.real, z.imag = limbs[..., :half], limbs[..., half:]
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
        p = p.astype(np.int64).reshape(len(self.shifts), -1, shape[-1])
        # the limbs past the first, recombined exactly: (x >> B)*s, whose
        # coefficients stay below N * q0 / 2^B < 2^63
        high = p[-1]
        for limb in p[-2:0:-1]:
            high = (high << np.int64(self.bits)) + limb
        low, high = (np.remainder(v, np.int64(self.q0)).view(np.uint64)
                     for v in (p[0], high))
        return addmod(low, shoup_mul(high, *self.weight, self.q0),
                      self.q0).reshape(shape)
