"""Exact statevector simulation of the variational circuit family used
by the hybrid classifier: RX angle embedding, per-layer parameterized
rotations, a CNOT entangling ring, and Pauli-Z readout.

Expectations are computed exactly (no shot sampling), so gradients and
training runs are deterministic. States carry at most MAX_QUBITS qubits
to bound the 2^n amplitude array.

Every routine works on a batch of states shaped (batch, 2^n); `run_pqc`
and `param_shift_grad` wrap batch size 1. The parameter-shift gradients
stack every +-pi/2 shifted copy of the batch on the batch axis and
simulate them in one `run_pqc_batch` call. To bound memory, the stacked
rows are split into calls of at most max(batch, STACK_AMPLITUDES // 2^n)
rows: one call for small circuits, about one batch per call at
MAX_QUBITS.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ShapeError

MAX_QUBITS = 12
AXES = ("X", "Y", "Z")
# Amplitudes simulated per call when gradients stack shifted circuits.
STACK_AMPLITUDES = 2 ** 17


@dataclass(frozen=True)
class PqcArchitecture:
    """Layer template: one parameterized rotation per qubit per layer
    (axis taken from `axes`), then a CNOT ring control i -> (i+1) mod n.
    Single-qubit circuits have no entangler."""
    qubit_count: int
    depth: int
    axes: tuple[tuple[str, ...], ...] = ()
    readout: tuple[int, ...] = ()

    def __post_init__(self):
        if self.depth < 1:
            raise ShapeError("depth must be >= 1")
        if not 1 <= self.qubit_count <= MAX_QUBITS:
            raise ShapeError(f"qubit count must be in [1, {MAX_QUBITS}]")
        axes = self.axes or tuple(("X",) * self.qubit_count
                                  for _ in range(self.depth))
        if len(axes) != self.depth or any(len(row) != self.qubit_count
                                          for row in axes):
            raise ShapeError("axes grid must be depth x qubit_count")
        for row in axes:
            for ax in row:
                if ax not in AXES:
                    raise ShapeError(f"unknown rotation axis {ax!r}")
        object.__setattr__(self, "axes", axes)
        readout = self.readout or tuple(range(self.qubit_count))
        if not readout or any(not 0 <= r < self.qubit_count for r in readout):
            raise ShapeError("readout qubits must be a non-empty subset")
        object.__setattr__(self, "readout", tuple(readout))


@dataclass(frozen=True)
class PqcParams:
    """Rotation angles, shape depth x qubit_count, radians."""
    angles: np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.angles)):
            raise ShapeError("angles must be finite")

    @staticmethod
    def random(arch: PqcArchitecture, rng: np.random.Generator) -> "PqcParams":
        return PqcParams(rng.uniform(-np.pi, np.pi,
                                     (arch.depth, arch.qubit_count)))


def _check_angles(arch: PqcArchitecture, params: PqcParams) -> np.ndarray:
    a = np.asarray(params.angles, dtype=np.float64)
    if a.shape != (arch.depth, arch.qubit_count):
        raise ShapeError(f"angles shape {a.shape} does not match "
                         f"({arch.depth}, {arch.qubit_count})")
    return a


# --- batched kernels ------------------------------------------------------

def _batch_zero(batch: int, n: int) -> np.ndarray:
    amps = np.zeros((batch, 2 ** n), dtype=np.complex128)
    amps[:, 0] = 1.0
    return amps


def _batch_rotate(amps: np.ndarray, n: int, qubit: int, axis: str,
                  angles) -> np.ndarray:
    """Apply exp(-i*angle/2 * sigma_axis) on one qubit; `angles` is a
    scalar or a per-batch-element vector."""
    b = amps.shape[0]
    half = np.broadcast_to(np.asarray(angles, dtype=np.float64) / 2.0, (b,))
    c = np.cos(half)[:, None]
    s = np.sin(half)[:, None]
    view = amps.reshape(b, 2 ** qubit, 2, 2 ** (n - qubit - 1))
    a0 = view[:, :, 0, :].reshape(b, -1)
    a1 = view[:, :, 1, :].reshape(b, -1)
    if axis == "X":
        n0 = c * a0 - 1j * s * a1
        n1 = -1j * s * a0 + c * a1
    elif axis == "Y":
        n0 = c * a0 - s * a1
        n1 = s * a0 + c * a1
    else:  # Z
        phase_lo = (c - 1j * s)
        phase_hi = (c + 1j * s)
        n0 = phase_lo * a0
        n1 = phase_hi * a1
    out = np.empty_like(amps)
    ov = out.reshape(b, 2 ** qubit, 2, 2 ** (n - qubit - 1))
    ov[:, :, 0, :] = n0.reshape(b, 2 ** qubit, -1)
    ov[:, :, 1, :] = n1.reshape(b, 2 ** qubit, -1)
    return out


def _cnot_perm(n: int, control: int, target: int) -> np.ndarray:
    idx = np.arange(2 ** n)
    c_bit = (idx >> (n - 1 - control)) & 1
    flipped = idx ^ (1 << (n - 1 - target))
    return np.where(c_bit == 1, flipped, idx)


@lru_cache(maxsize=MAX_QUBITS)
def _ring_perm(n: int) -> np.ndarray:
    """The CNOT ring i -> (i+1) mod n, in order, as one gather index."""
    perm = np.arange(2 ** n)
    for qubit in range(n):
        perm = perm[_cnot_perm(n, qubit, (qubit + 1) % n)]
    perm.flags.writeable = False
    return perm


def _batch_z_expect(amps: np.ndarray, n: int, qubit: int) -> np.ndarray:
    idx = np.arange(2 ** n)
    sign = 1.0 - 2.0 * ((idx >> (n - 1 - qubit)) & 1)
    return np.sum((np.abs(amps) ** 2) * sign, axis=1)


def _batch_embed(features: np.ndarray, n: int) -> np.ndarray:
    amps = _batch_zero(features.shape[0], n)
    for qubit in range(n):
        amps = _batch_rotate(amps, n, qubit, "X", features[:, qubit])
    return amps


def _batch_layers(amps: np.ndarray, arch: PqcArchitecture,
                  angles: np.ndarray) -> np.ndarray:
    n = arch.qubit_count
    for layer in range(arch.depth):
        for qubit in range(n):
            amps = _batch_rotate(amps, n, qubit, arch.axes[layer][qubit],
                                 angles[:, layer, qubit])
        if n >= 2:
            amps = amps[:, _ring_perm(n)]
    return amps


def run_pqc_batch(features: np.ndarray, arch: PqcArchitecture,
                  angles: np.ndarray) -> np.ndarray:
    """Z expectations for a feature batch.

    features: (batch, qubit_count); angles: (depth, qubit_count) shared,
    or (batch, depth, qubit_count) per element. Returns
    (batch, len(readout)).
    """
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[1] != arch.qubit_count:
        raise ShapeError(f"features must be (batch, {arch.qubit_count})")
    a = np.asarray(angles, dtype=np.float64)
    if a.ndim == 2:
        a = np.broadcast_to(a, (feats.shape[0],) + a.shape)
    amps = _batch_embed(feats, arch.qubit_count)
    amps = _batch_layers(amps, arch, a)
    out = np.stack([_batch_z_expect(amps, arch.qubit_count, r)
                    for r in arch.readout], axis=1)
    return out


def run_pqc(features, arch: PqcArchitecture, params: PqcParams) -> np.ndarray:
    """Readout Z expectations for one feature vector, each in [-1, 1]."""
    angles = _check_angles(arch, params)
    f = np.asarray(features, dtype=np.float64).ravel()
    if f.size != arch.qubit_count:
        raise ShapeError(f"{f.size} features for {arch.qubit_count} qubits")
    return run_pqc_batch(f[None, :], arch, angles)[0]


def _run_stacked(feats: np.ndarray, arch: PqcArchitecture,
                 angles: np.ndarray, batch: int) -> np.ndarray:
    """run_pqc_batch over stacked shifted rows, in calls of at most
    max(batch, STACK_AMPLITUDES // 2^n) rows. `angles` is shared
    (depth, qubits) or per row."""
    per_call = max(batch, STACK_AMPLITUDES >> arch.qubit_count)
    return np.concatenate([
        run_pqc_batch(feats[i:i + per_call], arch,
                      angles if angles.ndim == 2 else angles[i:i + per_call])
        for i in range(0, feats.shape[0], per_call)])


def grad_angles_batch(features: np.ndarray, arch: PqcArchitecture,
                      angles: np.ndarray) -> np.ndarray:
    """Parameter-shift derivatives of every readout w.r.t. every angle.

    Returns (batch, depth, qubit_count, len(readout)):
    d<Z_r> / d angle[l, q] per batch element. The 2*depth*qubit_count
    shifted circuits of every batch element are stacked on the batch
    axis and run in one simulator call, split into calls of at most
    max(batch, STACK_AMPLITUDES // 2^n) rows.
    """
    feats = np.asarray(features, dtype=np.float64)
    b = feats.shape[0]
    d, n = arch.depth, arch.qubit_count
    eye = np.eye(d * n).reshape(d * n, d, n) * (np.pi / 2)
    shifted = (np.asarray(angles, dtype=np.float64)
               + np.concatenate([eye, -eye]))
    out = _run_stacked(np.repeat(feats, 2 * d * n, axis=0), arch,
                       np.tile(shifted, (b, 1, 1)), b)
    out = out.reshape(b, 2, d, n, -1)
    return (out[:, 0] - out[:, 1]) / 2.0


def grad_features_batch(features: np.ndarray, arch: PqcArchitecture,
                        angles: np.ndarray) -> np.ndarray:
    """Parameter-shift derivatives w.r.t. the embedding angles.

    Returns (batch, qubit_count, len(readout)). Valid because the
    embedding gates are RX rotations, so the same +-pi/2 rule applies.
    The 2*qubit_count shifted circuits of every batch element are
    stacked and run as in `grad_angles_batch`.
    """
    feats = np.asarray(features, dtype=np.float64)
    b = feats.shape[0]
    n = arch.qubit_count
    eye = np.eye(n) * (np.pi / 2)
    rows = (feats[:, None, :] + np.concatenate([eye, -eye])).reshape(-1, n)
    out = _run_stacked(rows, arch, np.asarray(angles), b).reshape(b, 2, n, -1)
    return (out[:, 0] - out[:, 1]) / 2.0


def param_shift_grad(features, arch: PqcArchitecture, params: PqcParams,
                     readout_weights) -> np.ndarray:
    """Gradient of sum_j w_j <Z_j> w.r.t. every variational angle, via
    the exact +-pi/2 parameter-shift rule. Shape depth x qubit_count."""
    angles = _check_angles(arch, params)
    w = np.asarray(readout_weights, dtype=np.float64).ravel()
    if w.size != len(arch.readout):
        raise ShapeError(f"{w.size} readout weights for "
                         f"{len(arch.readout)} readout qubits")
    f = np.asarray(features, dtype=np.float64).ravel()
    if f.size != arch.qubit_count:
        raise ShapeError(f"{f.size} features for {arch.qubit_count} qubits")
    per_readout = grad_angles_batch(f[None, :], arch, angles)[0]
    return per_readout @ w
