"""Fixed-point weight quantization applied before encryption."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DomainError


@dataclass(frozen=True)
class QuantizationSpec:
    """Clip to [-clip_range, clip_range], then round to multiples of
    2^-fractional_bits."""
    fractional_bits: int = 16
    clip_range: float = 8.0

    def __post_init__(self):
        if self.fractional_bits < 1:
            raise DomainError("fractional_bits must be >= 1")
        if not self.clip_range > 0:
            raise DomainError("clip_range must be positive")


def quantize(values, spec: QuantizationSpec) -> np.ndarray:
    """Idempotent fixed-point rounding of a real vector."""
    v = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(v)):
        raise DomainError("cannot quantize non-finite values")
    clipped = np.clip(v, -spec.clip_range, spec.clip_range)
    factor = 2.0 ** spec.fractional_bits
    return np.round(clipped * factor) / factor
