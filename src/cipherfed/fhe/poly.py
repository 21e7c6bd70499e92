"""RNS polynomials over Z_q[X]/(X^N + 1).

A RingPoly holds one uint64 residue row per active prime; leading axes
make it a batch of polynomials on one basis. The active basis is
described by indices into the modulus chain, so level drops and key
material share one representation. Values are immutable by convention:
operations return new polynomials.

A ShoupPoly is a fixed multiplier (a key, a plaintext, a constant): an
NTT-domain polynomial with its Shoup tables. RingPoly.mul_fixed takes
one, in word arithmetic; no multiply uses object dtype.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DomainError, ParameterError, ShapeError
from .nttmath import addmod, shoup_constant, shoup_mul, submod
from .params import EncryptionParams, basis_rows

GAUSSIAN_STDDEV = 3.2

COEFF = "coeff"
NTT = "ntt"


@dataclass(frozen=True)
class RingPoly:
    params: EncryptionParams
    prime_indices: tuple[int, ...]
    residues: np.ndarray  # (..., len(prime_indices), ring_degree), uint64
    domain_tag: str

    def __post_init__(self):
        if self.residues.shape[-2:] != (len(self.prime_indices),
                                        self.params.ring_degree):
            raise ParameterError("residue matrix shape does not match basis")
        if self.domain_tag not in (COEFF, NTT):
            raise DomainError(f"unknown domain tag {self.domain_tag!r}")

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(self.params.modulus_chain[i] for i in self.prime_indices)

    @property
    def batch_shape(self) -> tuple[int, ...]:
        return self.residues.shape[:-2]

    @property
    def q_column(self) -> np.ndarray:
        """The basis primes as a read-only (rows, 1) column for
        broadcasting, cached with the basis's NTT context."""
        return self.params.stacked_ntt(self.prime_indices).q

    def _check_compatible(self, other: "RingPoly", broadcast=False) -> None:
        """Same basis, domain and batch shape (batches must not broadcast);
        with `broadcast`, a single `other` may meet a whole batch."""
        if self.params is not other.params and self.params != other.params:
            raise ParameterError("polynomials from different parameter sets")
        if self.prime_indices != other.prime_indices:
            raise DomainError("active prime sets differ")
        if self.domain_tag != other.domain_tag:
            raise DomainError(
                f"domain mismatch: {self.domain_tag} vs {other.domain_tag}")
        if (self.batch_shape != other.batch_shape
                and not (broadcast and other.batch_shape == ())):
            raise ShapeError(f"batch shapes differ: {self.batch_shape} vs "
                             f"{other.batch_shape}")

    def _like(self, residues: np.ndarray) -> "RingPoly":
        return RingPoly(self.params, self.prime_indices, residues,
                        self.domain_tag)

    def add(self, other: "RingPoly") -> "RingPoly":
        self._check_compatible(other)
        return self._like(addmod(self.residues, other.residues, self.q_column))

    def neg(self) -> "RingPoly":
        return self._like(submod(0, self.residues, self.q_column))

    def mul_fixed(self, fixed: "ShoupPoly") -> "RingPoly":
        """Pointwise product with a fixed multiplier whose basis holds
        this one's primes; a single multiplier broadcasts over a batch."""
        if self.domain_tag != NTT:
            raise DomainError("fixed multiply requires NTT domain")
        rows = basis_rows(fixed.poly.prime_indices, self.prime_indices)
        return self._like(shoup_mul(
            self.residues, fixed.poly.residues[..., rows, :],
            tuple(h[..., rows, :] for h in fixed.shoup), self.q_column))


@dataclass(frozen=True)
class ShoupPoly:
    """NTT-domain polynomial with the Shoup constants of its residues, so
    that it multiplies other residues without big-int arithmetic."""
    poly: RingPoly
    shoup: tuple[np.ndarray, np.ndarray]  # 32-bit halves, as shoup_constant

    @classmethod
    def wrap(cls, poly: RingPoly) -> "ShoupPoly":
        if poly.domain_tag != NTT:
            raise DomainError("Shoup tables require NTT domain")
        return cls(poly, shoup_constant(poly.residues, poly.q_column))

    @classmethod
    def constant(cls, k: int, params: EncryptionParams,
                 prime_indices: tuple[int, ...]) -> "ShoupPoly":
        """The constant polynomial k, which is k in every NTT slot: one
        column of residues and of table, the residues broadcast over the
        ring as a read-only view."""
        w = np.array([[k % params.modulus_chain[i]]
                      for i in prime_indices], dtype=np.uint64)
        poly = RingPoly(params, prime_indices,
                        np.broadcast_to(w, (len(w), params.ring_degree)), NTT)
        return cls(poly, shoup_constant(w, poly.q_column))


def ntt_forward(p: RingPoly) -> RingPoly:
    """Coefficient domain -> NTT (evaluation) domain."""
    if p.domain_tag != COEFF:
        raise DomainError("ntt_forward expects a coefficient-domain polynomial")
    ctx = p.params.stacked_ntt(p.prime_indices)
    return RingPoly(p.params, p.prime_indices, ctx.forward(p.residues), NTT)


def ntt_inverse(p: RingPoly) -> RingPoly:
    """NTT domain -> coefficient domain."""
    if p.domain_tag != NTT:
        raise DomainError("ntt_inverse expects an NTT-domain polynomial")
    ctx = p.params.stacked_ntt(p.prime_indices)
    return RingPoly(p.params, p.prime_indices, ctx.inverse(p.residues), COEFF)


def from_signed_coeffs(values: np.ndarray, params: EncryptionParams,
                       prime_indices: tuple[int, ...]) -> RingPoly:
    """Build a coefficient-domain polynomial from signed int64
    coefficients, shaped (..., ring_degree)."""
    q = params.stacked_ntt(prime_indices).q.view(np.int64)
    res = np.mod(values[..., None, :], q).view(np.uint64)
    return RingPoly(params, prime_indices, res, COEFF)


def sample_ternary(params: EncryptionParams, prime_indices: tuple[int, ...],
                   rng: np.random.Generator) -> RingPoly:
    v = rng.integers(-1, 2, params.ring_degree).astype(np.int64)
    return from_signed_coeffs(v, params, prime_indices)


def sample_gaussian(params: EncryptionParams, prime_indices: tuple[int, ...],
                    rng: np.random.Generator,
                    stddev: float = GAUSSIAN_STDDEV) -> RingPoly:
    v = np.round(rng.normal(0.0, stddev, params.ring_degree)).astype(np.int64)
    return from_signed_coeffs(v, params, prime_indices)


def sample_uniform(params: EncryptionParams, prime_indices: tuple[int, ...],
                   rng: np.random.Generator) -> RingPoly:
    """Uniform element of the RNS ring (independent uniform residues are
    exactly uniform mod the product, by CRT)."""
    res = np.empty((len(prime_indices), params.ring_degree), dtype=np.uint64)
    for row, idx in enumerate(prime_indices):
        res[row] = rng.integers(0, params.modulus_chain[idx],
                                params.ring_degree, dtype=np.uint64)
    return RingPoly(params, prime_indices, res, COEFF)
