"""Exact statevector simulation of the variational circuit family used
by the hybrid classifier: RX angle embedding, per-layer parameterized
rotations, a CNOT entangling ring, and Pauli-Z readout.

Expectations are computed exactly (no shot sampling), so gradients and
training runs are deterministic. States carry at most MAX_QUBITS qubits
to bound the 2^n amplitude array.

Every routine works on a batch of states shaped (batch, 2^n); a single
feature vector is a batch of one row. `final_states` and `readout_vjp`
also take one angle set per client for a batch of K equal contiguous
groups of rows, so K clients' mini-batches run as one batch. They check
angles and features; the model, whose data `check_data` has checked,
calls their unchecked kernels `_final_states` and `_readout_vjp`. Every
rotation is the in-place psi <- cos(h) psi + sin(h) (-i sigma psi) of
`_rotate(amps, gen, cos, sin)`, each sweep taking cos and sin once over
all its half angles h. Training differentiates by the adjoint method
(Jones & Gacon 2020, arXiv:2009.02823): `final_states` runs the circuit
once, and `readout_vjp` contracts the readout gradient with the circuit
in one backward sweep over the gates, for every angle and embedding
feature at once. The parameter-shift gradients (`grad_angles_batch`,
`grad_features_batch`) are the oracle: they stack every +-pi/2 shifted
copy of the batch on the batch axis and simulate them in calls of at
most max(batch, STACK_AMPLITUDES // 2^n) rows.
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


def _check_angles(arch: PqcArchitecture, angles,
                  rows: int | None = None) -> np.ndarray:
    """Finite float64 angles, shared (depth, qubit_count); given `rows`,
    also one set per client, (K, depth, qubit_count) for rows that fall
    in K equal contiguous groups, and returned as (K, depth,
    qubit_count) either way, shared angles as K = 1."""
    a = np.asarray(angles, dtype=np.float64)
    shape = (arch.depth, arch.qubit_count)
    if a.shape != shape and not (
            rows is not None and a.ndim == 3 and a.shape[1:] == shape
            and len(a) and rows % len(a) == 0):
        raise ShapeError(f"angles shape {a.shape} does not match {shape}"
                         + ("" if rows is None else
                            f" or (K, {shape[0]}, {shape[1]}) for K "
                            f"dividing {rows} rows"))
    if not np.isfinite(a).all():
        raise ShapeError("angles must be finite")
    return a if rows is None else a.reshape((-1,) + shape)


def _check_features(arch: PqcArchitecture, features,
                    rows: int | None = None) -> np.ndarray:
    """float64 features (batch, qubit_count), `rows` rows if given."""
    f = np.asarray(features, dtype=np.float64)
    if f.ndim != 2 or rows not in (None, len(f)) or (
            f.shape[1] != arch.qubit_count):
        raise ShapeError(f"features shape {f.shape} does not match "
                         f"({rows or 'batch'}, {arch.qubit_count})")
    return f


# --- batched kernels ------------------------------------------------------

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


@lru_cache(maxsize=MAX_QUBITS)
def _ring_unperm(n: int) -> np.ndarray:
    """The gather index that undoes `_ring_perm(n)`."""
    inv = np.argsort(_ring_perm(n))
    inv.flags.writeable = False
    return inv


@lru_cache(maxsize=MAX_QUBITS)
def _z_signs(n: int) -> np.ndarray:
    """(n, 2^n): row q is the diagonal of Pauli Z on qubit q."""
    idx = np.arange(2 ** n)
    signs = 1.0 - 2.0 * ((idx >> (n - 1 - np.arange(n)[:, None])) & 1)
    signs.flags.writeable = False
    return signs


@lru_cache(maxsize=MAX_QUBITS)
def _neg_i_z_signs(n: int) -> np.ndarray:
    """(n, 2^n): row q is the diagonal of -i Z on qubit q."""
    table = -1j * _z_signs(n)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=MAX_QUBITS)
def _bit_flips(n: int) -> np.ndarray:
    """(n, 2^n): row q is the gather index that flips qubit q."""
    idx = np.arange(2 ** n)
    flips = idx ^ (1 << (n - 1 - np.arange(n)[:, None]))
    flips.flags.writeable = False
    return flips


def _generator(amps: np.ndarray, n: int, qubit: int,
               axis: str) -> np.ndarray:
    """A new array: -i sigma_axis on one qubit of every row of a
    (..., 2^n) array. X flips the qubit's bit, Z signs it, and
    -i sigma_y psi = -sign * (psi flipped) has a real factor."""
    if axis == "Z":
        return amps * _neg_i_z_signs(n)[qubit]
    gen = amps.take(_bit_flips(n)[qubit], axis=-1)
    gen *= -1j if axis == "X" else -_z_signs(n)[qubit]
    return gen


def _rotate(amps: np.ndarray, gen: np.ndarray, cos, sin) -> None:
    """exp(-i h sigma) in place, amps <- cos(h) amps + sin(h) gen, given
    gen = `_generator(amps, ...)` (overwritten): h = theta / 2 rotates by
    theta, -theta / 2 undoes it. cos and sin broadcast against amps, as
    scalars, per-row (rows, 1) or per-group (K, 1, 1) arrays."""
    gen *= sin
    amps *= cos
    amps += gen


def _final_states(features: np.ndarray, arch: PqcArchitecture,
                  angles: np.ndarray) -> np.ndarray:
    """`final_states` unchecked, for (K, depth, qubit_count) angles: the
    RX embedding of each row, then the layers."""
    n = arch.qubit_count
    amps = np.zeros((len(features), 2 ** n), dtype=np.complex128)
    amps[:, 0] = 1.0
    half = features[:, :, None] / 2.0
    cos, sin = np.cos(half), np.sin(half)
    for qubit in range(n):
        _rotate(amps, _generator(amps, n, qubit, "X"), cos[:, qubit],
                sin[:, qubit])
    amps = amps.reshape(len(angles), -1, 2 ** n)
    half = angles[..., None, None] / 2.0
    cos, sin = np.cos(half), np.sin(half)
    for layer, axes in enumerate(arch.axes):
        for qubit, axis in enumerate(axes):
            _rotate(amps, _generator(amps, n, qubit, axis),
                    cos[:, layer, qubit], sin[:, layer, qubit])
        if n >= 2:
            amps = amps.take(_ring_perm(n), axis=-1)
    return amps.reshape(-1, 2 ** n)


def final_states(features: np.ndarray, arch: PqcArchitecture,
                 angles: np.ndarray) -> np.ndarray:
    """The (batch, 2^n) amplitudes the circuit leaves for a feature batch.

    features: (batch, qubit_count); angles: (depth, qubit_count) shared,
    or (K, depth, qubit_count) for a batch of K equal contiguous groups
    of rows, one angle set per group (K = batch gives each row its own).
    Any other shape raises ShapeError.
    """
    feats = _check_features(arch, features)
    return _final_states(feats, arch, _check_angles(arch, angles, len(feats)))


def expectations(states: np.ndarray, arch: PqcArchitecture) -> np.ndarray:
    """(batch, len(readout)) Z expectations of `final_states` output."""
    probs, signs = np.abs(states) ** 2, _z_signs(arch.qubit_count)
    out = np.empty((len(probs), len(arch.readout)))
    for i, r in enumerate(arch.readout):
        out[:, i] = np.add.reduce(probs * signs[r], axis=1)
    return out


def run_pqc_batch(features: np.ndarray, arch: PqcArchitecture,
                  angles: np.ndarray) -> np.ndarray:
    """Z expectations for a feature batch, shaped (batch, len(readout));
    arguments as for `final_states`."""
    return expectations(final_states(features, arch, angles), arch)


def _run_stacked(feats: np.ndarray, arch: PqcArchitecture,
                 angles: np.ndarray, batch: int) -> np.ndarray:
    """run_pqc_batch over stacked shifted rows and their per-row angles,
    in calls of at most max(batch, STACK_AMPLITUDES // 2^n) rows."""
    per_call = max(batch, STACK_AMPLITUDES >> arch.qubit_count)
    return np.concatenate([
        run_pqc_batch(feats[i:i + per_call], arch, angles[i:i + per_call])
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
    feats = _check_features(arch, features)
    b = feats.shape[0]
    d, n = arch.depth, arch.qubit_count
    eye = np.eye(d * n).reshape(d * n, d, n) * (np.pi / 2)
    shifted = _check_angles(arch, angles) + np.concatenate([eye, -eye])
    out = _run_stacked(np.repeat(feats, 2 * d * n, axis=0), arch,
                       np.tile(shifted, (b, 1, 1)), b).reshape(b, 2, d, n, -1)
    return (out[:, 0] - out[:, 1]) / 2.0


def grad_features_batch(features: np.ndarray, arch: PqcArchitecture,
                        angles: np.ndarray) -> np.ndarray:
    """Parameter-shift derivatives w.r.t. the embedding angles.

    Returns (batch, qubit_count, len(readout)). Valid because the
    embedding gates are RX rotations, so the same +-pi/2 rule applies.
    The 2*qubit_count shifted circuits of every batch element are
    stacked and run as in `grad_angles_batch`.
    """
    feats = _check_features(arch, features)
    b = feats.shape[0]
    n = arch.qubit_count
    eye = np.eye(n) * (np.pi / 2)
    rows = (feats[:, None, :] + np.concatenate([eye, -eye])).reshape(-1, n)
    shared = _check_angles(arch, angles)
    out = _run_stacked(rows, arch, np.broadcast_to(
        shared, (len(rows),) + shared.shape), b).reshape(b, 2, n, -1)
    return (out[:, 0] - out[:, 1]) / 2.0


def readout_vjp(states: np.ndarray, features: np.ndarray,
                arch: PqcArchitecture, angles: np.ndarray,
                d_read: np.ndarray):
    """Adjoint gradient of sum_{b,r} d_read[b, r] <Z_r>_b.

    `states` is `final_states(features, arch, angles)`, with angles
    shared, (depth, qubit_count), or one set per group, (K, depth,
    qubit_count), for K equal contiguous groups of rows; features and
    d_read, (batch, len(readout)), have one row per state, or it raises
    ShapeError. Returns (g_angles, d_features (batch, qubit_count)),
    g_angles shaped as the angles: each group's gradient sums its own
    rows only. The sweep is `_readout_vjp`'s.
    """
    n = arch.qubit_count
    if np.ndim(states) != 2 or np.shape(states)[1] != 2 ** n:
        raise ShapeError(f"states must be (batch, {2 ** n})")
    b = len(states)
    feats = _check_features(arch, features, rows=b)
    shape = np.shape(angles)
    angles = _check_angles(arch, angles, rows=b)
    d_read = np.asarray(d_read, dtype=np.float64)
    if d_read.shape != (b, len(arch.readout)):
        raise ShapeError(f"d_read shape {d_read.shape} is not "
                         f"{(b, len(arch.readout))}")
    g_angles, d_features = _readout_vjp(states, feats, arch, angles, d_read)
    return g_angles.reshape(shape), d_features


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.dot of each row pair of two (K, L) arrays, bitwise, as one
    stacked matmul; np.einsum would sum in another order."""
    return np.matmul(a[:, None], b[..., None])[:, 0, 0]


def _readout_vjp(states, feats, arch, angles, d_read):
    """`readout_vjp` unchecked, for (K, depth, qubit_count) angles and
    g_angles. The observable is diagonal, so lambda = O psi. The sweep
    walks the gates in reverse over psi and lambda stacked as one (2, K,
    rows / K, 2^n) array: at each rotation exp(-i t/2 sigma) it adds
    Re<lambda|-i sigma psi>, a dot product of float64 views that makes
    no full-size temporary, to the gradient of t (one per group), then
    undoes the gate on both with the forward pass's kernel at -t/2."""
    n = arch.qubit_count
    b, groups = len(states), len(angles)
    pair = np.concatenate([states, states]).reshape(2, groups, -1, 2 ** n)
    # one product per group, as the group alone would compute it
    pair[1] *= np.matmul(d_read.reshape(groups, -1, d_read.shape[1]),
                         _z_signs(n)[list(arch.readout)])
    half = -angles[..., None, None] / 2.0
    cos, sin = np.cos(half), np.sin(half)
    g_angles = np.empty(angles.shape)
    for layer in reversed(range(arch.depth)):
        if n >= 2:
            pair = pair.take(_ring_unperm(n), axis=-1)
        lam = pair[1].view(np.float64).reshape(groups, -1)
        for qubit in reversed(range(n)):
            gen = _generator(pair, n, qubit, arch.axes[layer][qubit])
            g_angles[:, layer, qubit] = _row_dots(
                lam, gen[0].view(np.float64).reshape(groups, -1))
            _rotate(pair, gen, cos[:, layer, qubit], sin[:, layer, qubit])
            del gen  # else the next generator is a third copy of pair
    pair = pair.reshape(2, b, 2 ** n)
    lam = pair[1].view(np.float64)
    half = -(feats[:, :, None] / 2.0)
    cos, sin = np.cos(half), np.sin(half)
    d_features = np.empty((b, n))
    for qubit in reversed(range(n)):
        gen = _generator(pair, n, qubit, "X")
        d_features[:, qubit] = np.einsum("bi,bi->b", lam,
                                         gen[0].view(np.float64))
        if qubit:
            _rotate(pair, gen, cos[:, qubit], sin[:, qubit])
        del gen
    return g_angles, d_features
