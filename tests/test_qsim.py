import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


def rotate(amps, qubit, axis, theta):
    """A copy of `amps` with exp(-i theta/2 sigma_axis) on one qubit."""
    out = amps.copy()
    n = int(np.log2(out.shape[1]))
    qsim._rotate(out, qsim._generator(out, n, qubit, axis), theta / 2.0)
    return out


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
    for feats in (np.zeros((1, 2)), np.zeros(3), np.zeros((1, 3, 1))):
        with pytest.raises(ShapeError, match="features shape"):
            qsim.run_pqc_batch(feats, arch, np.zeros((1, 3)))


def test_rotation_zero_angle_identity(rng):
    s = embed(rng.uniform(-np.pi, np.pi, 2))
    assert np.allclose(rotate(s, 0, "X", 0.0), s)


def test_rotation_two_pi_negates_state(rng):
    s = embed(rng.uniform(-np.pi, np.pi, 2))
    s2 = rotate(s, 1, "X", 2 * np.pi)
    assert np.allclose(s2, -s)
    for q in range(2):
        assert abs(z(s, q) - z(s2, q)) < 1e-12


def test_rotation_closed_form_cosine():
    theta = 0.7
    s = rotate(embed([0.0]), 0, "X", theta)
    assert abs(z(s, 0) - np.cos(theta)) < 1e-12


def test_rotation_norm_preserved(rng):
    s = embed(rng.uniform(-np.pi, np.pi, 3))
    for axis in ("X", "Y", "Z"):
        s = rotate(s, 1, axis, rng.uniform(-np.pi, np.pi))
    assert abs(norm_sq(s) - 1.0) < 1e-10


PAULI = {"X": np.array([[0, 1], [1, 0]], dtype=complex),
         "Y": np.array([[0, -1j], [1j, 0]]),
         "Z": np.array([[1, 0], [0, -1]], dtype=complex)}


def dense_rotation(n, qubit, axis, theta):
    """exp(-i theta/2 sigma_axis) on one qubit as a 2^n x 2^n matrix;
    qubit 0 is the most significant bit of an amplitude's index."""
    gate = (np.cos(theta / 2) * np.eye(2)
            - 1j * np.sin(theta / 2) * PAULI[axis])
    return np.kron(np.kron(np.eye(2 ** qubit), gate),
                   np.eye(2 ** (n - qubit - 1)))


@pytest.mark.parametrize("axis", qsim.AXES)
@pytest.mark.parametrize("n", range(1, 6))
def test_rotation_kernel_matches_dense_matrix(axis, n):
    """The in-place update at theta/2 is the dense gate, for a shared
    (scalar) and a per-row angle; at -theta/2 it restores the state."""
    rng = np.random.default_rng(n)
    rows = 4
    start = (rng.normal(size=(rows, 2 ** n))
             + 1j * rng.normal(size=(rows, 2 ** n)))
    start /= np.linalg.norm(start, axis=1, keepdims=True)
    for qubit in range(n):
        shared = rng.uniform(-np.pi, np.pi)
        per_row = rng.uniform(-np.pi, np.pi, rows)
        for theta, half in ((np.full(rows, shared), shared / 2),
                            (per_row, per_row[:, None] / 2)):
            want = np.stack([dense_rotation(n, qubit, axis, t) @ row
                             for t, row in zip(theta, start)])
            amps = start.copy()
            qsim._rotate(amps, qsim._generator(amps, n, qubit, axis), half)
            assert np.abs(amps - want).max() <= 1e-14
            qsim._rotate(amps, qsim._generator(amps, n, qubit, axis), -half)
            assert np.abs(amps - start).max() <= 1e-14


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


def run_one(features, arch, angles):
    """Readout expectations of one feature vector."""
    return qsim.run_pqc_batch(np.asarray(features)[None], arch, angles)[0]


def shift_grad(features, arch, angles, w):
    """Parameter-shift gradient of sum_j w_j <Z_j> for one feature vector,
    shaped (depth, qubit_count)."""
    return qsim.grad_angles_batch(np.asarray(features)[None], arch,
                                  angles)[0] @ w


def test_run_pqc_all_zero_gives_plus_one():
    arch = qsim.PqcArchitecture(qubit_count=3, depth=2)
    out = run_one([0.0, 0.0, 0.0], arch, np.zeros((2, 3)))
    assert np.allclose(out, 1.0)


def test_run_pqc_single_qubit_closed_form():
    arch = qsim.PqcArchitecture(qubit_count=1, depth=1)
    theta = 1.234
    out = run_one([0.0], arch, np.array([[theta]]))
    assert abs(out[0] - np.cos(theta)) < 1e-12


def test_run_pqc_outputs_bounded(rng):
    arch = qsim.PqcArchitecture(qubit_count=4, depth=3)
    for _ in range(20):
        angles = rng.uniform(-np.pi, np.pi, (3, 4))
        feats = rng.uniform(-np.pi, np.pi, 4)
        out = run_one(feats, arch, angles)
        assert np.all(np.abs(out) <= 1.0 + 1e-12)


def test_run_pqc_readout_subset():
    arch = qsim.PqcArchitecture(qubit_count=3, depth=1, readout=(2,))
    out = run_one([0.0] * 3, arch, np.zeros((1, 3)))
    assert out.shape == (1,)


def test_param_shift_single_qubit_closed_form():
    arch = qsim.PqcArchitecture(qubit_count=1, depth=1)
    theta = 0.3
    g = shift_grad([0.0], arch, np.array([[theta]]), [1.0])
    assert abs(g[0, 0] + np.sin(theta)) < 1e-12


def test_param_shift_zero_angles_zero_gradient():
    arch = qsim.PqcArchitecture(qubit_count=1, depth=1)
    g = shift_grad([0.0], arch, np.zeros((1, 1)), [1.0])
    assert abs(g[0, 0]) < 1e-12


def test_param_shift_matches_finite_difference(rng):
    h = 1e-5
    for _ in range(10):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(1, 3))
        arch = qsim.PqcArchitecture(qubit_count=n, depth=d)
        angles = rng.uniform(-np.pi, np.pi, (d, n))
        feats = rng.uniform(-np.pi, np.pi, n)
        w = rng.uniform(-1, 1, n)
        ps = shift_grad(feats, arch, angles, w)
        for l in range(d):
            for q in range(n):
                ang = angles.copy()
                ang[l, q] += h
                up = run_one(feats, arch, ang) @ w
                ang[l, q] -= 2 * h
                dn = run_one(feats, arch, ang) @ w
                assert abs(ps[l, q] - (up - dn) / (2 * h)) < 1e-6


def test_layer_inverse_restores_state(rng):
    # a layer then its exact inverse (reversed CNOTs, negated angles)
    n, theta = 3, rng.uniform(-np.pi, np.pi, 3)
    s = embed(rng.uniform(-np.pi, np.pi, n))
    fwd = s
    for q in range(n):
        fwd = rotate(fwd, q, "X", theta[q])
    for q in range(n):
        fwd = fwd[:, qsim._cnot_perm(n, q, (q + 1) % n)]
    back = fwd
    for q in reversed(range(n)):
        back = back[:, qsim._cnot_perm(n, q, (q + 1) % n)]
    for q in reversed(range(n)):
        back = rotate(back, q, "X", -theta[q])
    assert np.abs(back - s).max() < 1e-10


def test_norm_preserved_through_deep_circuit(rng):
    arch = qsim.PqcArchitecture(qubit_count=4, depth=3)
    angles = rng.uniform(-np.pi, np.pi, (3, 4))
    feats = rng.uniform(-np.pi, np.pi, 4)
    out = qsim.run_pqc_batch(feats[None, :], arch, angles)
    assert np.all(np.abs(out) <= 1.0 + 1e-12)
    # expectations bounded implies normalized state; check directly too
    s = qsim._batch_layers(embed(feats), arch, angles[None])
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
        qsim.run_pqc_batch(np.zeros((1, 2)), arch, np.zeros((1, 2)))
    for bad in (np.nan, np.inf):
        angles = np.zeros((2, 2))
        angles[1, 0] = bad
        with pytest.raises(ShapeError, match="finite"):
            qsim.run_pqc_batch(np.zeros((1, 2)), arch, angles)


def vjp(features, arch, angles):
    """readout_vjp with unit d_read at states of well-formed angles."""
    states = qsim.final_states(features, arch, np.zeros((arch.depth,
                                                         arch.qubit_count)))
    return qsim.readout_vjp(states, features, arch, angles,
                            np.ones((len(features), len(arch.readout))))


ANGLE_TAKERS = {"final_states": qsim.final_states,
                "readout_vjp": vjp,
                "grad_angles_batch": qsim.grad_angles_batch,
                "grad_features_batch": qsim.grad_features_batch}


@pytest.mark.parametrize("shape", [(3, 3), (1, 3), (3,), (5, 2, 3)],
                         ids=["extra-layer", "missing-layer", "1-D",
                              "5-sets-for-4-rows"])
@pytest.mark.parametrize("name", ANGLE_TAKERS)
def test_every_angle_taker_rejects_wrong_depth(name, shape):
    """A depth-2 circuit takes (2, 3) angles; one set too many or too
    few, or a flat row, is a ShapeError in every function that takes
    angles, never a dropped layer or a raw IndexError."""
    arch = qsim.PqcArchitecture(qubit_count=3, depth=2)
    with pytest.raises(ShapeError, match="angles shape"):
        ANGLE_TAKERS[name](np.zeros((4, 3)), arch, np.zeros(shape))


def test_per_row_angles_only_where_a_row_has_its_own():
    """`final_states` and `readout_vjp` take one angle set per client,
    (K, depth, qubits) for rows in K equal contiguous groups; K = 1 is
    the shared set and K = rows gives each row its own. The
    parameter-shift gradients take shared angles only, and a row count
    that K does not divide is refused."""
    arch = qsim.PqcArchitecture(qubit_count=3, depth=2)
    feats = np.random.default_rng(7).uniform(-np.pi, np.pi, (4, 3))
    shared = np.random.default_rng(8).uniform(-np.pi, np.pi, (2, 3))
    for k in (1, 2, 4):
        per_client = np.broadcast_to(shared, (k, 2, 3))
        assert np.array_equal(qsim.final_states(feats, arch, per_client),
                              qsim.final_states(feats, arch, shared))
        g_shared, d_shared = vjp(feats, arch, shared)
        g_client, d_client = vjp(feats, arch, per_client)
        assert g_client.shape == (k, 2, 3)
        assert np.allclose(g_client.sum(axis=0), g_shared, atol=1e-12)
        assert np.array_equal(d_client, d_shared)
    per_row = np.broadcast_to(shared, (4, 2, 3))
    for name in ("grad_angles_batch", "grad_features_batch"):
        with pytest.raises(ShapeError, match="angles shape"):
            ANGLE_TAKERS[name](feats, arch, per_row)
    for name in ("final_states", "readout_vjp"):
        with pytest.raises(ShapeError, match="angles shape"):
            ANGLE_TAKERS[name](feats, arch, np.zeros((3, 2, 3)))


@pytest.mark.parametrize("groups,rows", [(1, 5), (3, 1), (3, 7), (4, 32)])
def test_readout_vjp_on_groups_equals_separate_calls(groups, rows):
    """K groups of rows with their own angles in one `final_states` and
    one `readout_vjp` give bitwise the states, angle gradients and
    feature gradients of K separate calls."""
    arch = qsim.PqcArchitecture(qubit_count=3, depth=2, axes=(
        ("X", "Y", "Z"), ("Z", "X", "Y")), readout=(0, 2))
    rng = np.random.default_rng(groups * 100 + rows)
    feats = rng.uniform(-np.pi, np.pi, (groups, rows, 3))
    angles = rng.uniform(-np.pi, np.pi, (groups, 2, 3))
    d_read = rng.normal(size=(groups, rows, 2))
    states = qsim.final_states(feats.reshape(-1, 3), arch, angles)
    g_angles, d_feats = qsim.readout_vjp(states, feats.reshape(-1, 3), arch,
                                         angles, d_read.reshape(-1, 2))
    assert g_angles.shape == angles.shape
    for k in range(groups):
        alone = qsim.final_states(feats[k], arch, angles[k])
        assert np.array_equal(states[k * rows:(k + 1) * rows], alone)
        g_alone, d_alone = qsim.readout_vjp(alone, feats[k], arch, angles[k],
                                            d_read[k])
        assert np.array_equal(g_angles[k], g_alone)
        assert np.array_equal(d_feats[k * rows:(k + 1) * rows], d_alone)


@pytest.mark.parametrize("rows", [3, 5])
@pytest.mark.parametrize("argument", ["features", "d_read"])
def test_readout_vjp_needs_one_row_per_state(argument, rows):
    arch = qsim.PqcArchitecture(qubit_count=3, depth=2, readout=(0, 2))
    feats, angles = np.zeros((4, 3)), np.zeros((2, 3))
    args = {"features": feats, "d_read": np.ones((4, 2))}
    args[argument] = np.ones((rows, args[argument].shape[1]))
    states = qsim.final_states(feats, arch, angles)
    with pytest.raises(ShapeError, match=f"{argument} shape"):
        qsim.readout_vjp(states, args["features"], arch, angles,
                         args["d_read"])


def test_readout_vjp_rejects_malformed_states_and_readout_width():
    arch = qsim.PqcArchitecture(qubit_count=3, depth=2, readout=(0, 2))
    feats, angles = np.zeros((4, 3)), np.zeros((2, 3))
    states = qsim.final_states(feats, arch, angles)
    with pytest.raises(ShapeError, match="d_read shape"):
        qsim.readout_vjp(states, feats, arch, angles, np.ones((4, 3)))
    for bad in (states[:, :4], states[0]):
        with pytest.raises(ShapeError, match="states must be"):
            qsim.readout_vjp(bad, feats, arch, angles, np.ones((4, 2)))


# --- stacked parameter-shift gradients vs the per-shift reference ---------

def reference_run(feats, arch, angles):
    """run_pqc_batch gate by gate, one CNOT at a time."""
    n = arch.qubit_count
    a = np.broadcast_to(angles, (feats.shape[0],) + angles.shape)
    amps = qsim._batch_embed(feats, n)
    for layer in range(arch.depth):
        for q in range(n):
            gen = qsim._generator(amps, n, q, arch.axes[layer][q])
            qsim._rotate(amps, gen, a[:, layer, q, None] / 2.0)
        if n >= 2:
            for q in range(n):
                amps = np.take(amps, qsim._cnot_perm(n, q, (q + 1) % n),
                               axis=1)
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


# --- adjoint VJP vs the parameter-shift oracle -----------------------------

@st.composite
def architectures(draw):
    """1-5 qubits, depth 1-3, a random axis grid and readout subset."""
    n = draw(st.integers(1, 5))
    depth = draw(st.integers(1, 3))
    row = st.lists(st.sampled_from(qsim.AXES), min_size=n, max_size=n)
    axes = draw(st.lists(row, min_size=depth, max_size=depth))
    readout = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n,
                            unique=True))
    return qsim.PqcArchitecture(qubit_count=n, depth=depth,
                                axes=tuple(map(tuple, axes)),
                                readout=tuple(readout))


@settings(max_examples=80, deadline=None)
@given(arch=architectures(), batch=st.sampled_from([1, 32]),
       seed=st.integers(0, 2 ** 32 - 1))
@example(arch=qsim.PqcArchitecture(qubit_count=1, depth=1), batch=1, seed=0)
@example(arch=qsim.PqcArchitecture(qubit_count=1, depth=3, axes=(
    ("X",), ("Y",), ("Z",))), batch=32, seed=1)
def test_readout_vjp_matches_parameter_shift(arch, batch, seed):
    rng = np.random.default_rng(seed)
    feats = rng.uniform(-np.pi, np.pi, (batch, arch.qubit_count))
    angles = rng.uniform(-np.pi, np.pi, (arch.depth, arch.qubit_count))
    d_read = rng.normal(size=(batch, len(arch.readout)))
    states = qsim.final_states(feats, arch, angles)
    g_angles, d_feats = qsim.readout_vjp(states, feats, arch, angles, d_read)
    want_angles = np.einsum("bdnr,br->dn",
                            qsim.grad_angles_batch(feats, arch, angles),
                            d_read)
    want_feats = np.einsum("bnr,br->bn",
                           qsim.grad_features_batch(feats, arch, angles),
                           d_read)
    assert g_angles.shape == want_angles.shape
    assert d_feats.shape == want_feats.shape
    assert np.abs(g_angles - want_angles).max() <= 1e-12
    assert np.abs(d_feats - want_feats).max() <= 1e-12


def test_per_architecture_constants_are_cached_read_only():
    for table in (qsim._ring_perm, qsim._ring_unperm, qsim._z_signs,
                  qsim._neg_i_z_signs, qsim._bit_flips):
        assert table(5) is table(5)
        assert not table(5).flags.writeable
    assert np.array_equal(qsim._ring_perm(5)[qsim._ring_unperm(5)],
                          np.arange(32))


@pytest.mark.parametrize("qubits", [10, qsim.MAX_QUBITS])
def test_readout_vjp_memory_bounded(qubits):
    """The backward sweep holds psi and lambda plus one Pauli product:
    within twice the forward simulation's peak."""
    rng = np.random.default_rng(qubits)
    arch = qsim.PqcArchitecture(qubit_count=qubits, depth=2, axes=(
        tuple(qsim.AXES[q % 3] for q in range(qubits)),) * 2)
    feats = rng.uniform(-np.pi, np.pi, (32, qubits))
    angles = rng.uniform(-np.pi, np.pi, (arch.depth, qubits))
    d_read = rng.normal(size=(32, qubits))
    states = qsim.final_states(feats, arch, angles)

    def peak(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert (peak(qsim.readout_vjp, states, feats, arch, angles, d_read)
            <= 2 * peak(qsim.run_pqc_batch, feats, arch, angles))
