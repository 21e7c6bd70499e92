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

Both decoders center each coefficient mod the base prime q0. On more
primes its other residues must agree, which holds exactly while
|x| < q0 / 2; past that (an un-rescaled product) decoding raises.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..errors import CapacityError, DomainError, LevelError
from .params import EncryptionParams
from .poly import (COEFF, NTT, RingPoly, centered, from_signed_coeffs,
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
    encrypt_symmetric adds its error and -a*s, with no NTT. A (chunks,
    count) matrix gives a batch; rows are zero-padded to ring_degree."""
    level, scale = _level_and_scale(params, level, scale)
    vals = _finite_rows(values, params.ring_degree, "coefficient")
    scaled = np.zeros(vals.shape[:-1] + (params.ring_degree,))
    scaled[..., :vals.shape[-1]] = vals * scale
    return Plaintext(poly=_coeff_poly(scaled, params, level), scale=scale,
                     level=level)


def decode_coeffs(pt: Plaintext, count: int) -> np.ndarray:
    """The inverse of encode_coeffs before its division by the scale:
    the first `count` coefficients as exact int64, centered mod q0,
    shaped (count,) or (chunks, count). Raises CapacityError past the
    ring degree, and DomainError, asking for a rescale, when one has
    reached q0 / 2: its residues on the other primes disagree."""
    params = pt.poly.params
    if count > params.ring_degree:
        raise CapacityError(f"count {count} exceeds the "
                            f"{params.ring_degree}-coefficient capacity")
    poly = pt.poly if pt.poly.domain_tag == COEFF else ntt_inverse(pt.poly)
    rows = poly.residues[..., :count]
    v = centered(rows[..., 0, :], poly.primes[0])
    if len(poly.primes) > 1:
        q = poly.q_column[1:].view(np.int64)
        if np.any(np.mod(v[..., None, :], q).view(np.uint64)
                  != rows[..., 1:, :]):
            raise DomainError("plaintext coefficients reach half the base "
                              "prime: rescale before decoding")
    return v


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
    rounded = np.round(coeffs)
    if np.any(np.abs(rounded) > 2 ** 62):
        raise DomainError("encoded coefficients overflow the RNS word size")
    return from_signed_coeffs(rounded.astype(np.int64), params,
                              tuple(range(level + 1)))


def encode_scalar(c: float, params: EncryptionParams, level: int | None = None,
                  scale: float | None = None) -> Plaintext:
    """Encode one scalar broadcast to every slot (used by weighted sums).

    c in every slot encodes to the constant polynomial round(c * scale),
    as encode() computes it, and the NTT of a constant is that constant
    at every root: coefficient 0 of encode_coeffs([c]), N times.
    """
    pt = encode_coeffs([c], params, level, scale)
    residues = np.repeat(pt.poly.residues[:, :1], params.ring_degree, axis=1)
    return replace(pt, poly=replace(pt.poly, residues=residues,
                                    domain_tag=NTT))


def _level_and_scale(params: EncryptionParams, level: int | None,
                     scale: float | None) -> tuple[int, float]:
    if level is None:
        level = params.max_level
    if not 0 <= level <= params.max_level:
        raise LevelError(f"level {level} outside the modulus chain")
    return level, params.scale if scale is None else scale


def decode(pt: Plaintext, count: int) -> np.ndarray:
    """First `count` slot values of a plaintext, scale divided out:
    shaped (count,), or (chunks, count) for a batch. Raises as
    decode_coeffs does, and CapacityError past the slot count."""
    params = pt.poly.params
    if count > params.slot_count:
        raise CapacityError(
            f"count {count} exceeds the {params.slot_count}-slot capacity")
    coeffs = decode_coeffs(pt, params.ring_degree).astype(np.float64)
    return _evaluate_slots(coeffs, params, count) / pt.scale


def _evaluate_slots(coeffs: np.ndarray, params: EncryptionParams,
                    count: int) -> np.ndarray:
    two_n = 2 * params.ring_degree
    evals = np.fft.ifft(coeffs, n=two_n) * two_n
    idx = np.asarray(params.rot_group[:count], dtype=np.int64)
    return evals[..., idx].real
