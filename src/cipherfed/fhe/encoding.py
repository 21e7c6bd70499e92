"""Two encodings of real values into plaintext polynomials.

Slot encoding (`encode`/`decode`) interpolates up to N/2 values through
the canonical embedding: the polynomial's evaluations at the 2N-th roots
of unity zeta^(5^j) reproduce the scaled inputs. The 5^j order is the
one slot rotations need, and no rotation runs; it stays because every
ciphertext's bytes depend on it.

Coefficient packing (`encode_coeffs`/`decode_coeffs`) puts N values
straight into the coefficients, m_j = round(x_j * scale), with no FFT.
Adding ciphertexts and multiplying them by integer constants, all that
federated averaging does, acts on each coefficient on its own, so the
federation's uploads use it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..errors import CapacityError, DomainError, LevelError
from .nttmath import addmod, shoup_constant, shoup_mul, submod
from .params import EncryptionParams
from .poly import (COEFF, RingPoly, ShoupPoly, from_signed_coeffs,
                   ntt_forward, ntt_inverse)


@dataclass(frozen=True)
class Plaintext:
    poly: RingPoly
    scale: float
    level: int

    def __post_init__(self):
        if not self.scale > 0:
            raise DomainError("plaintext scale must be positive")
        if not 0 <= self.level <= self.poly.params.max_level:
            raise LevelError(f"level {self.level} outside the modulus chain")

    @cached_property
    def shoup(self) -> ShoupPoly:
        """The multiplier mul_plain applies, built on first use.
        encode_scalar sets a constant one instead."""
        return ShoupPoly.wrap(self.poly)


def _slot_spectrum(values: np.ndarray, params: EncryptionParams) -> np.ndarray:
    """Place slot values (last axis) and conjugates on the 2N spectrum."""
    two_n = 2 * params.ring_degree
    spec = np.zeros(values.shape[:-1] + (two_n,), dtype=np.complex128)
    idx = np.asarray(params.rot_group[:values.shape[-1]], dtype=np.int64)
    spec[..., idx] = values
    spec[..., two_n - idx] = np.conj(values)
    return spec


def encode(values, params: EncryptionParams, level: int | None = None,
           scale: float | None = None) -> Plaintext:
    """Encode real values into the slots of an NTT-domain plaintext at
    the given level.

    A (chunks, count) matrix gives a batch, one plaintext per row. Rows
    are zero-padded to the slot count. Decoding the result recovers the
    inputs to within ~2^-30 at the default scale of 2^40.
    """
    level, scale = _level_and_scale(params, level, scale)
    vals = _finite_rows(values, params.slot_count, "slot")
    spec = _slot_spectrum(vals * scale, params)
    n = params.ring_degree
    coeffs = np.fft.fft(spec)[..., :n].real / n
    return Plaintext(poly=ntt_forward(_coeff_poly(coeffs, params, level)),
                     scale=scale, level=level)


def encode_coeffs(values, params: EncryptionParams, level: int | None = None,
                  scale: float | None = None) -> Plaintext:
    """Coefficient packing: value j of a row becomes coefficient j,
    round(value * scale), of a coefficient-domain plaintext, to which
    encrypt_symmetric adds its error before the one NTT. A (chunks,
    count) matrix gives a batch; rows are zero-padded to ring_degree."""
    level, scale = _level_and_scale(params, level, scale)
    vals = _finite_rows(values, params.ring_degree, "coefficient")
    scaled = np.zeros(vals.shape[:-1] + (params.ring_degree,))
    scaled[..., :vals.shape[-1]] = vals * scale
    return Plaintext(poly=_coeff_poly(scaled, params, level), scale=scale,
                     level=level)


def decode_coeffs(pt: Plaintext, count: int) -> np.ndarray:
    """The inverse of encode_coeffs before its division by the scale:
    the first `count` coefficients as exact int64, centered mod the base
    prime q0, shaped (count,) or (chunks, count). Valid while every
    coefficient stays below q0 / 2 in absolute value."""
    params = pt.poly.params
    if count > params.ring_degree:
        raise CapacityError(f"count {count} exceeds the "
                            f"{params.ring_degree}-coefficient capacity")
    poly = pt.poly if pt.poly.domain_tag == COEFF else ntt_inverse(pt.poly)
    return _center(poly.residues[..., 0, :count], poly.primes[0])


def _finite_rows(values, capacity: int, unit: str) -> np.ndarray:
    vals = np.atleast_1d(np.asarray(values, dtype=np.float64))
    if vals.shape[-1] > capacity:
        raise CapacityError(f"{vals.shape[-1]} values exceed the "
                            f"{capacity}-{unit} capacity")
    if vals.size and not np.all(np.isfinite(vals)):
        raise DomainError("cannot encode non-finite values")
    return vals


def _coeff_poly(coeffs: np.ndarray, params: EncryptionParams,
                level: int) -> RingPoly:
    """The coefficients, rounded, over the chain primes up to `level`."""
    return from_signed_coeffs(_check_word(np.round(coeffs)).astype(np.int64),
                              params, tuple(range(level + 1)))


def encode_scalar(c: float, params: EncryptionParams, level: int | None = None,
                  scale: float | None = None) -> Plaintext:
    """Encode one scalar broadcast to every slot (used by weighted sums).

    c in every slot encodes to the constant polynomial round(c * scale),
    as encode() computes it, and the NTT of a constant is that constant
    in every slot, so this needs no FFT and no NTT. Its Shoup table is
    one column that broadcasts over the ring.
    """
    level, scale = _level_and_scale(params, level, scale)
    if not math.isfinite(c):
        raise DomainError("cannot encode non-finite values")
    k = int(_check_word(np.round(float(c) * scale)))
    fixed = ShoupPoly.constant(k, params, tuple(range(level + 1)))
    pt = Plaintext(poly=fixed.poly, scale=scale, level=level)
    pt.__dict__["shoup"] = fixed
    return pt


def _level_and_scale(params: EncryptionParams, level: int | None,
                     scale: float | None) -> tuple[int, float]:
    if level is None:
        level = params.max_level
    if not 0 <= level <= params.max_level:
        raise LevelError(f"level {level} outside the modulus chain")
    return level, params.scale if scale is None else scale


def _check_word(rounded):
    if np.any(np.abs(rounded) > 2 ** 62):
        raise DomainError("encoded coefficients overflow the RNS word size")
    return rounded


def decode(pt: Plaintext, count: int) -> np.ndarray:
    """First `count` slot values of a plaintext, scale divided out:
    shaped (count,), or (chunks, count) for a batch."""
    params = pt.poly.params
    if count > params.slot_count:
        raise CapacityError(
            f"count {count} exceeds the {params.slot_count}-slot capacity")
    poly = pt.poly if pt.poly.domain_tag == COEFF else ntt_inverse(pt.poly)
    coeffs = _centered_float_coeffs(poly)
    return _evaluate_slots(coeffs, params, count) / pt.scale


def _center(residues: np.ndarray, q: int) -> np.ndarray:
    v = residues.astype(np.int64)
    return np.where(v > q // 2, v - q, v)


_GARNER_CACHE: dict[tuple[int, ...], list] = {}


def _garner_constants(primes: tuple[int, ...]) -> list:
    """Per-k fixed multipliers (with Shoup tables) for the mixed-radix
    reconstruction below."""
    consts = _GARNER_CACHE.get(primes)
    if consts is None:
        consts = []
        for k in range(1, len(primes)):
            qk = primes[k]
            radixes = []
            radix = 1
            for j in range(k):
                radixes.append((np.uint64(radix), shoup_constant(radix, qk)))
                radix = radix * primes[j] % qk
            inv = pow(radix, qk - 2, qk)
            consts.append((radixes, np.uint64(inv), shoup_constant(inv, qk)))
        _GARNER_CACHE[primes] = consts
    return consts


def _centered_float_coeffs(poly: RingPoly) -> np.ndarray:
    """Centered CRT reconstruction via Garner's mixed-radix digits.

    Digit k is reduced mod prime k, so every step stays in word
    arithmetic; the final float64 combination is exact to ~2^-50
    relative, far inside the decoding noise budget.
    """
    primes = poly.primes
    consts = _garner_constants(primes)
    digits = [_center(poly.residues[..., 0, :], primes[0])]
    for k in range(1, len(primes)):
        qk = primes[k]
        qk64 = np.uint64(qk)
        radixes, inv, inv_shoup = consts[k - 1]
        # acc = sum_{j<k} digits[j] * prod_{i<j} q_i, reduced mod qk
        acc = np.zeros_like(poly.residues[..., 0, :])
        for j in range(k):
            r, r_shoup = radixes[j]
            term = shoup_mul(np.mod(digits[j], qk).astype(np.uint64),
                             r, r_shoup, qk64)
            acc = addmod(acc, term, qk64)
        diff = submod(poly.residues[..., k, :], acc, qk64)
        digits.append(_center(shoup_mul(diff, inv, inv_shoup, qk64), qk))
    out = digits[-1].astype(np.float64)
    for k in range(len(primes) - 2, -1, -1):
        out = out * float(primes[k]) + digits[k].astype(np.float64)
    return out


def _evaluate_slots(coeffs: np.ndarray, params: EncryptionParams,
                    count: int) -> np.ndarray:
    two_n = 2 * params.ring_degree
    evals = np.fft.ifft(coeffs, n=two_n) * two_n
    idx = np.asarray(params.rot_group[:count], dtype=np.int64)
    return evals[..., idx].real
