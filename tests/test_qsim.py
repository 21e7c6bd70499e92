import tracemalloc

import numpy as np
import pytest

from cipherfed import qsim
from cipherfed.errors import ShapeError


def embed(features):
    """The embedded state of one feature vector."""
    f = np.asarray(features, dtype=np.float64)
    return qsim._batch_embed(f[None, :], f.size)


def z(amps, qubit):
    return qsim._batch_z_expect(amps, int(np.log2(amps.shape[1])), qubit)[0]


def norm_sq(amps):
    return float(np.sum(np.abs(amps) ** 2))


def test_embed_zero_features_is_ground_state():
    s = embed([0.0, 0.0, 0.0])
    expect = np.zeros(8, dtype=complex)
    expect[0] = 1.0
    assert np.allclose(s[0], expect)


def test_embed_pi_flips_qubit():
    s = embed([np.pi])
    assert abs(z(s, 0) + 1.0) < 1e-12
    # RX(pi)|0> = -i|1>, up to that global phase amplitude 1 on |1>
    assert abs(abs(s[0, 1]) - 1.0) < 1e-12


def test_embed_half_pi_balances():
    assert abs(z(embed([np.pi / 2]), 0)) < 1e-12


def test_embed_shape_error():
    arch = qsim.PqcArchitecture(qubit_count=3, depth=1)
    with pytest.raises(ShapeError):
        qsim.run_pqc([0.0, 0.0], arch, qsim.PqcParams(np.zeros((1, 3))))


def test_rotation_zero_angle_identity(rng):
    s = embed(rng.uniform(-np.pi, np.pi, 2))
    assert np.allclose(qsim._batch_rotate(s, 2, 0, "X", 0.0), s)


def test_rotation_two_pi_negates_state(rng):
    s = embed(rng.uniform(-np.pi, np.pi, 2))
    s2 = qsim._batch_rotate(s, 2, 1, "X", 2 * np.pi)
    assert np.allclose(s2, -s)
    for q in range(2):
        assert abs(z(s, q) - z(s2, q)) < 1e-12


def test_rotation_closed_form_cosine():
    theta = 0.7
    s = qsim._batch_rotate(embed([0.0]), 1, 0, "X", theta)
    assert abs(z(s, 0) - np.cos(theta)) < 1e-12


def test_rotation_norm_preserved(rng):
    s = embed(rng.uniform(-np.pi, np.pi, 3))
    for axis in ("X", "Y", "Z"):
        s = qsim._batch_rotate(s, 3, 1, axis, rng.uniform(-np.pi, np.pi))
    assert abs(norm_sq(s) - 1.0) < 1e-10


def test_rotation_index_out_of_range():
    with pytest.raises(ShapeError):
        qsim.PqcArchitecture(qubit_count=1, depth=1, readout=(1,))
    with pytest.raises(ShapeError):
        qsim.PqcArchitecture(qubit_count=1, depth=1, axes=(("W",),))


def test_cnot_truth_table():
    perm = qsim._cnot_perm(2, 0, 1)
    # |00> fixed
    s = embed([0.0, 0.0])
    assert np.allclose(s[:, perm], s)
    # |10> -> |11>: build |10> via amplitude placement
    s10 = np.zeros((1, 4), dtype=complex)
    s10[0, 2] = 1.0  # binary 10
    assert abs(s10[0, perm][3] - 1.0) < 1e-12


def test_cnot_involution(rng):
    s = embed(rng.uniform(-np.pi, np.pi, 3))
    perm = qsim._cnot_perm(3, 0, 2)
    assert np.allclose(s[:, perm][:, perm], s)


def test_run_pqc_all_zero_gives_plus_one():
    arch = qsim.PqcArchitecture(qubit_count=3, depth=2)
    params = qsim.PqcParams(np.zeros((2, 3)))
    out = qsim.run_pqc([0.0, 0.0, 0.0], arch, params)
    assert np.allclose(out, 1.0)


def test_run_pqc_single_qubit_closed_form():
    arch = qsim.PqcArchitecture(qubit_count=1, depth=1)
    theta = 1.234
    out = qsim.run_pqc([0.0], arch, qsim.PqcParams(np.array([[theta]])))
    assert abs(out[0] - np.cos(theta)) < 1e-12


def test_run_pqc_outputs_bounded(rng):
    arch = qsim.PqcArchitecture(qubit_count=4, depth=3)
    for _ in range(20):
        params = qsim.PqcParams.random(arch, rng)
        feats = rng.uniform(-np.pi, np.pi, 4)
        out = qsim.run_pqc(feats, arch, params)
        assert np.all(np.abs(out) <= 1.0 + 1e-12)


def test_run_pqc_readout_subset():
    arch = qsim.PqcArchitecture(qubit_count=3, depth=1, readout=(2,))
    out = qsim.run_pqc([0.0] * 3, arch, qsim.PqcParams(np.zeros((1, 3))))
    assert out.shape == (1,)


def test_param_shift_single_qubit_closed_form():
    arch = qsim.PqcArchitecture(qubit_count=1, depth=1)
    theta = 0.3
    g = qsim.param_shift_grad([0.0], arch,
                              qsim.PqcParams(np.array([[theta]])), [1.0])
    assert abs(g[0, 0] + np.sin(theta)) < 1e-12


def test_param_shift_zero_angles_zero_gradient():
    arch = qsim.PqcArchitecture(qubit_count=1, depth=1)
    g = qsim.param_shift_grad([0.0], arch, qsim.PqcParams(np.zeros((1, 1))),
                              [1.0])
    assert abs(g[0, 0]) < 1e-12


def test_param_shift_matches_finite_difference(rng):
    h = 1e-5
    for _ in range(10):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(1, 3))
        arch = qsim.PqcArchitecture(qubit_count=n, depth=d)
        params = qsim.PqcParams.random(arch, rng)
        feats = rng.uniform(-np.pi, np.pi, n)
        w = rng.uniform(-1, 1, n)
        ps = qsim.param_shift_grad(feats, arch, params, w)
        for l in range(d):
            for q in range(n):
                ang = params.angles.copy()
                ang[l, q] += h
                up = qsim.run_pqc(feats, arch, qsim.PqcParams(ang)) @ w
                ang[l, q] -= 2 * h
                dn = qsim.run_pqc(feats, arch, qsim.PqcParams(ang)) @ w
                assert abs(ps[l, q] - (up - dn) / (2 * h)) < 1e-6


def test_layer_inverse_restores_state(rng):
    # a layer then its exact inverse (reversed CNOTs, negated angles)
    n, theta = 3, rng.uniform(-np.pi, np.pi, 3)
    s = embed(rng.uniform(-np.pi, np.pi, n))
    fwd = s
    for q in range(n):
        fwd = qsim._batch_rotate(fwd, n, q, "X", theta[q])
    for q in range(n):
        fwd = fwd[:, qsim._cnot_perm(n, q, (q + 1) % n)]
    back = fwd
    for q in reversed(range(n)):
        back = back[:, qsim._cnot_perm(n, q, (q + 1) % n)]
    for q in reversed(range(n)):
        back = qsim._batch_rotate(back, n, q, "X", -theta[q])
    assert np.abs(back - s).max() < 1e-10


def test_norm_preserved_through_deep_circuit(rng):
    arch = qsim.PqcArchitecture(qubit_count=4, depth=3)
    params = qsim.PqcParams.random(arch, rng)
    feats = rng.uniform(-np.pi, np.pi, 4)
    out = qsim.run_pqc_batch(feats[None, :], arch, params.angles)
    assert np.all(np.abs(out) <= 1.0 + 1e-12)
    # expectations bounded implies normalized state; check directly too
    s = qsim._batch_layers(embed(feats), arch, params.angles[None])
    assert abs(norm_sq(s) - 1.0) < 1e-10


def test_qubit_cap_enforced():
    with pytest.raises(ShapeError):
        qsim.PqcArchitecture(qubit_count=13, depth=1)
    with pytest.raises(ShapeError):
        qsim.PqcArchitecture(qubit_count=0, depth=1)


def test_architecture_validation():
    with pytest.raises(ShapeError):
        qsim.PqcArchitecture(qubit_count=2, depth=0)
    with pytest.raises(ShapeError):
        qsim.PqcArchitecture(qubit_count=2, depth=1, readout=(5,))
    with pytest.raises(ShapeError):
        qsim.PqcArchitecture(qubit_count=2, depth=1, axes=(("X",),))


def test_angle_shape_validation(rng):
    arch = qsim.PqcArchitecture(qubit_count=2, depth=2)
    with pytest.raises(ShapeError):
        qsim.run_pqc([0.0, 0.0], arch, qsim.PqcParams(np.zeros((1, 2))))


# --- stacked parameter-shift gradients vs the per-shift reference ---------

def reference_run(feats, arch, angles):
    """run_pqc_batch gate by gate, one CNOT at a time."""
    n = arch.qubit_count
    a = np.broadcast_to(angles, (feats.shape[0],) + angles.shape)
    amps = qsim._batch_embed(feats, n)
    for layer in range(arch.depth):
        for q in range(n):
            amps = qsim._batch_rotate(amps, n, q, arch.axes[layer][q],
                                      a[:, layer, q])
        if n >= 2:
            for q in range(n):
                amps = amps[:, qsim._cnot_perm(n, q, (q + 1) % n)]
    return np.stack([qsim._batch_z_expect(amps, n, r) for r in arch.readout],
                    axis=1)


def reference_grad_angles(feats, arch, angles):
    """One pair of simulator runs per shifted angle."""
    out = np.empty((feats.shape[0], arch.depth, arch.qubit_count,
                    len(arch.readout)))
    for layer in range(arch.depth):
        for q in range(arch.qubit_count):
            shift = np.zeros_like(angles)
            shift[layer, q] = np.pi / 2
            plus = reference_run(feats, arch, angles + shift)
            minus = reference_run(feats, arch, angles - shift)
            out[:, layer, q, :] = (plus - minus) / 2.0
    return out


def reference_grad_features(feats, arch, angles):
    """One pair of simulator runs per shifted embedding angle."""
    out = np.empty((feats.shape[0], arch.qubit_count, len(arch.readout)))
    for q in range(arch.qubit_count):
        shift = np.zeros_like(feats)
        shift[:, q] = np.pi / 2
        plus = reference_run(feats + shift, arch, angles)
        minus = reference_run(feats - shift, arch, angles)
        out[:, q, :] = (plus - minus) / 2.0
    return out


def random_arch(rng):
    n = int(rng.integers(1, 6))
    d = int(rng.integers(1, 4))
    axes = tuple(tuple(str(ax) for ax in rng.choice(qsim.AXES, n))
                 for _ in range(d))
    k = int(rng.integers(1, n + 1))
    readout = tuple(sorted(int(r) for r in rng.choice(n, k, replace=False)))
    return qsim.PqcArchitecture(qubit_count=n, depth=d, axes=axes,
                                readout=readout)


@pytest.mark.parametrize("batch", [1, 2, 3, 16, 33])
def test_stacked_gradients_match_per_shift_reference(batch):
    rng = np.random.default_rng(2009 + batch)
    for _ in range(12):
        arch = random_arch(rng)
        feats = rng.uniform(-np.pi, np.pi, (batch, arch.qubit_count))
        angles = rng.uniform(-np.pi, np.pi, (arch.depth, arch.qubit_count))
        pairs = [
            (qsim.run_pqc_batch(feats, arch, angles),
             reference_run(feats, arch, angles)),
            (qsim.grad_angles_batch(feats, arch, angles),
             reference_grad_angles(feats, arch, angles)),
            (qsim.grad_features_batch(feats, arch, angles),
             reference_grad_features(feats, arch, angles)),
        ]
        for got, want in pairs:
            assert got.shape == want.shape
            if batch >= 2:
                assert np.array_equal(got, want)
            else:
                # The reference simulates a single row, and numpy sums
                # one (1, 2^n) row in _batch_z_expect in a different
                # order than a row of a multi-row array, so the two
                # agree only to rounding.
                assert np.abs(got - want).max() <= 1e-15


def test_stacked_gradient_memory_bounded_at_max_qubits():
    rng = np.random.default_rng(12)
    arch = qsim.PqcArchitecture(qubit_count=qsim.MAX_QUBITS, depth=2)
    feats = rng.uniform(-np.pi, np.pi, (32, arch.qubit_count))
    angles = rng.uniform(-np.pi, np.pi, (arch.depth, arch.qubit_count))

    def peak(fn):
        tracemalloc.start()
        try:
            fn(feats, arch, angles)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(qsim.grad_angles_batch) <= 2 * peak(qsim.run_pqc_batch)
