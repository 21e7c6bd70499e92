import hashlib
import struct
from dataclasses import replace

import numpy as np
import pytest

from cipherfed import model as M
from cipherfed import qsim
from cipherfed.errors import DomainError, FormatError, ShapeError
from cipherfed.qsim import PqcArchitecture


def toy_model(seed=0, features=3, qubits=2, depth=2, classes=2):
    arch = PqcArchitecture(qubit_count=qubits, depth=depth)
    return M.init_model(features, arch, classes, rng_seed=seed)


def grads_flat(grads):
    return np.concatenate([grads[k].ravel() for k in
                           ("w_in", "b_in", "angles", "w_out", "b_out")])


def fd_gradient(model, X, y, h=1e-6):
    flat = M.flatten_weights(model)
    out = np.zeros_like(flat)
    for i in range(flat.size):
        p = flat.copy()
        p[i] += h
        lp, _ = M.loss_and_grads(M.unflatten_weights(model, p), X, y)
        p[i] -= 2 * h
        lm, _ = M.loss_and_grads(M.unflatten_weights(model, p), X, y)
        out[i] = (lp - lm) / (2 * h)
    return out


def test_zero_model_uniform_softmax():
    arch = PqcArchitecture(qubit_count=2, depth=1)
    zero = M.HybridModel(w_in=np.zeros((3, 2)), b_in=np.zeros(2), arch=arch,
                         angles=np.zeros((1, 2)), w_out=np.zeros((2, 4)),
                         b_out=np.zeros(4))
    logits, _ = M.forward(zero, np.ones((5, 3)))
    probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    assert np.allclose(probs, 0.25)


def test_uniform_prediction_loss_is_log_c():
    arch = PqcArchitecture(qubit_count=2, depth=1)
    zero = M.HybridModel(w_in=np.zeros((3, 2)), b_in=np.zeros(2), arch=arch,
                         angles=np.zeros((1, 2)), w_out=np.zeros((2, 3)),
                         b_out=np.zeros(3))
    loss, _ = M.loss_and_grads(zero, np.ones((4, 3)), [0, 1, 2, 0])
    assert abs(loss - np.log(3)) < 1e-12


def test_confident_correct_prediction_low_loss():
    arch = PqcArchitecture(qubit_count=1, depth=1)
    m = M.HybridModel(w_in=np.zeros((2, 1)), b_in=np.zeros(1), arch=arch,
                      angles=np.zeros((1, 1)), w_out=np.zeros((1, 2)),
                      b_out=np.array([50.0, -50.0]))
    loss, _ = M.loss_and_grads(m, np.zeros((3, 2)), [0, 0, 0])
    assert loss < 1e-12


def test_forward_matches_hand_composition(rng):
    m = toy_model(seed=3)
    x = rng.uniform(-1, 1, (1, 3))
    logits, cache = M.forward(m, x)
    act = np.pi * np.tanh(x @ m.w_in + m.b_in)
    readout = qsim.run_pqc_batch(act[:1], m.arch, m.angles)[0]
    expect = readout @ m.w_out + m.b_out
    assert np.allclose(logits[0], expect)


def test_batch_equals_per_sample(rng):
    m = toy_model(seed=4)
    X = rng.uniform(-1, 1, (6, 3))
    batch_logits, _ = M.forward(m, X)
    for i in range(6):
        single, _ = M.forward(m, X[i:i + 1])
        assert np.allclose(single[0], batch_logits[i])


def test_gradients_match_finite_differences(rng):
    m = toy_model(seed=5)
    X = rng.uniform(-1, 1, (4, 3))
    y = rng.integers(0, 2, 4)
    _, grads = M.loss_and_grads(m, X, y)
    fd = fd_gradient(m, X, y)
    ga = grads_flat(grads)
    rel = np.abs(ga - fd) / np.maximum(np.abs(fd), 1e-6)
    assert rel.max() < 1e-4


def test_forward_readouts_equal_run_pqc_batch(rng):
    m = toy_model(seed=6, qubits=3)
    _, cache = M.forward(m, rng.uniform(-1, 1, (9, 3)))
    assert np.array_equal(cache["readouts"],
                          qsim.run_pqc_batch(cache["act"], m.arch, m.angles))


def test_training_never_simulates_shifted_circuits(rng, monkeypatch):
    """The quantum layer's gradients come from one adjoint sweep, so the
    stacked parameter-shift simulation must not run during training."""
    def stacked(*args):
        raise AssertionError("training ran the stacked shifted circuits")

    monkeypatch.setattr(qsim, "_run_stacked", stacked)
    m = toy_model(seed=21)
    X = rng.uniform(-1, 1, (20, 3))
    y = rng.integers(0, 2, 20)
    _, grads = M.loss_and_grads(m, X, y)
    assert np.all(np.isfinite(grads["angles"]))
    cfg = M.TrainingConfig(learning_rate=0.1, batch_size=8,
                           epochs_per_round=1, rng_seed=4)
    [trained] = M.train_epochs(m, [(X, y, cfg)])
    assert not np.array_equal(trained.angles, m.angles)


def test_label_out_of_range(rng):
    m = toy_model()
    with pytest.raises(DomainError):
        M.loss_and_grads(m, rng.uniform(-1, 1, (2, 3)), [0, 5])


def test_empty_batch_rejected():
    m = toy_model()
    with pytest.raises(ShapeError):
        M.forward(m, np.zeros((0, 3)))
    with pytest.raises(ShapeError):
        M.loss_and_grads(m, np.zeros((0, 3)), np.zeros(0, dtype=int))


def test_sgd_descent_property(rng):
    ok = 0
    trials = 100
    for t in range(trials):
        m = toy_model(seed=t, features=2, qubits=2, depth=1, classes=2)
        X = rng.uniform(-1, 1, (8, 2))
        y = rng.integers(0, 2, 8)
        loss0, grads = M.loss_and_grads(m, X, y)
        stepped = replace(m, **{k: getattr(m, k) - 1e-3 * g
                                for k, g in grads.items()})
        loss1, _ = M.loss_and_grads(stepped, X, y)
        if loss1 <= loss0 + 1e-12:
            ok += 1
    assert ok >= 95


def test_flatten_roundtrip_exact(rng):
    m = toy_model(seed=8)
    flat = M.flatten_weights(m)
    assert flat.size == m.param_count
    back = M.unflatten_weights(m, flat)
    for name in ("w_in", "b_in", "angles", "w_out", "b_out"):
        assert np.array_equal(getattr(back, name), getattr(m, name))


def test_flatten_ordering_stable():
    m = toy_model(seed=9)
    assert np.array_equal(M.flatten_weights(m), M.flatten_weights(m))


def test_flatten_ordering_layout():
    m = toy_model(seed=10)
    flat = M.flatten_weights(m)
    nin = m.w_in.size
    assert np.array_equal(flat[:nin], m.w_in.ravel())
    assert np.array_equal(flat[nin:nin + m.b_in.size], m.b_in)


def test_unflatten_length_mismatch():
    m = toy_model()
    with pytest.raises(ShapeError):
        M.unflatten_weights(m, np.zeros(m.param_count + 1))


def test_param_count_is_sum_of_layers():
    m = toy_model(features=4, qubits=3, depth=2, classes=5)
    expect = 4 * 3 + 3 + 2 * 3 + 3 * 5 + 5
    assert m.param_count == expect


def test_evaluate_perfect_model():
    arch = PqcArchitecture(qubit_count=1, depth=1)
    m = M.HybridModel(w_in=np.zeros((1, 1)), b_in=np.zeros(1), arch=arch,
                      angles=np.zeros((1, 1)), w_out=np.zeros((1, 2)),
                      b_out=np.array([10.0, -10.0]))
    acc, loss = M.evaluate(m, np.zeros((5, 1)), np.zeros(5, dtype=int))
    assert acc == 1.0 and loss < 1e-8


def test_evaluate_constant_model_matches_label_fraction(rng):
    arch = PqcArchitecture(qubit_count=1, depth=1)
    m = M.HybridModel(w_in=np.zeros((1, 1)), b_in=np.zeros(1), arch=arch,
                      angles=np.zeros((1, 1)), w_out=np.zeros((1, 2)),
                      b_out=np.zeros(2))
    # ties break toward class 0, so accuracy equals the label-0 fraction
    y = rng.integers(0, 2, 40)
    acc, _ = M.evaluate(m, rng.uniform(-1, 1, (40, 1)), y)
    assert acc == np.mean(y == 0)


def test_evaluate_matches_per_sample_oracle(rng):
    m = toy_model(seed=11)
    X = rng.uniform(-1, 1, (30, 3))
    y = rng.integers(0, 2, 30)
    acc, _ = M.evaluate(m, X, y)
    correct = 0
    for i in range(30):
        logits, _ = M.forward(m, X[i:i + 1])
        correct += int(np.argmax(logits[0]) == y[i])
    assert acc == correct / 30


@pytest.mark.parametrize("bad", [-1, 3])
def test_evaluate_rejects_labels_outside_the_classes(rng, bad):
    m = toy_model(classes=3)
    X = rng.uniform(-1, 1, (4, 3))
    for fn in (M.evaluate, M.loss_and_grads):
        with pytest.raises(DomainError, match=r"\[0, 3\)"):
            fn(m, X, [0, 1, 2, bad])


@pytest.mark.parametrize("labels", [[0, 1], [0, 1, 2, 0, 1, 2]])
def test_evaluate_rejects_a_label_count_other_than_the_samples(rng, labels):
    m = toy_model(classes=3)
    X = rng.uniform(-1, 1, (4, 3))
    for fn in (M.evaluate, M.loss_and_grads):
        with pytest.raises(ShapeError, match="labels for 4 samples"):
            fn(m, X, labels)


def test_evaluate_empty_rejected():
    m = toy_model()
    with pytest.raises(DomainError):
        M.evaluate(m, np.zeros((0, 3)), np.zeros(0, dtype=int))


@pytest.mark.parametrize("rows", [(40, 40, 40, 40), (81, 81, 80, 80),
                                  (300, 257, 300), (81,)])
def test_stacked_evaluation_equals_one_evaluate_per_client(rng, rows):
    """evaluate_clients returns the floats of one `evaluate` call per
    client, with equal and unequal row counts, one client, and a last
    256-row batch of one row."""
    m = toy_model(seed=17, qubits=3, classes=3)
    data = [M.check_data(m, rng.uniform(-1, 1, (n, 3)),
                         rng.integers(0, 3, n)) for n in rows]
    cfg = M.TrainingConfig(learning_rate=0.2, batch_size=16)
    models = M.train_epochs(m, [(x, y, cfg) for x, y in data])
    got = M.evaluate_clients(models, data)
    assert got == [M.evaluate(model, x, y)
                   for model, (x, y) in zip(models, data)]
    assert all(type(v) is float for score in got for v in score)


def test_training_and_evaluation_run_no_input_checks(rng, monkeypatch):
    """After `check_data`, training and stacked evaluation call the
    circuit's unchecked kernels: the input checks never run."""
    def check(*args, **kwargs):
        raise AssertionError("an input check ran")

    m = toy_model(seed=22, qubits=3, classes=3)
    data = [M.check_data(m, rng.uniform(-1, 1, (n, 3)),
                         rng.integers(0, 3, n)) for n in (20, 13)]
    cfg = M.TrainingConfig(learning_rate=0.1, batch_size=8)
    monkeypatch.setattr(qsim, "_check_angles", check)
    monkeypatch.setattr(qsim, "_check_features", check)
    models = M.train_epochs(m, [(x, y, cfg) for x, y in data])
    assert len(M.evaluate_clients(models, data)) == 2
    with pytest.raises(AssertionError, match="an input check ran"):
        qsim.run_pqc_batch(np.zeros((1, 3)), m.arch, m.angles)


def test_training_deterministic(rng):
    m = toy_model(seed=12)
    X = rng.uniform(-1, 1, (40, 3))
    y = rng.integers(0, 2, 40)
    cfg = M.TrainingConfig(learning_rate=0.1, batch_size=8,
                           epochs_per_round=2, rng_seed=99)
    [a] = M.train_epochs(m, [(X, y, cfg)])
    [b] = M.train_epochs(m, [(X, y, cfg)])
    assert np.array_equal(M.flatten_weights(a), M.flatten_weights(b))


@pytest.mark.parametrize("epochs", [0, 1, 3])
@pytest.mark.parametrize("batch", [8, 32])
def test_stacked_training_equals_one_client_runs(rng, batch, epochs):
    """Clients of 33, 64 and 7 rows trained in one call reach bitwise
    the weights of three one-client calls. Their last batches are
    ragged; the 7-row client is smaller than one batch and runs out of
    steps before the others."""
    m = toy_model(seed=15, qubits=3, classes=3)
    clients = [(rng.uniform(-1, 1, (rows, 3)), rng.integers(0, 3, rows),
                M.TrainingConfig(learning_rate=0.2, batch_size=batch,
                                 epochs_per_round=epochs, rng_seed=seed))
               for rows, seed in ((33, 1), (64, 2), (7, 3))]
    stacked = M.train_epochs(m, clients)
    assert len(stacked) == len(clients)
    for got, client in zip(stacked, clients):
        [alone] = M.train_epochs(m, [client])
        assert np.array_equal(M.flatten_weights(got),
                              M.flatten_weights(alone))
    if epochs == 0:
        assert all(np.array_equal(M.flatten_weights(got),
                                  M.flatten_weights(m)) for got in stacked)


def test_stacked_training_takes_each_clients_own_config(rng):
    """Clients with their own learning rate, batch size and epoch count
    in one call: each reaches its one-client weights bitwise."""
    m = toy_model(seed=16, qubits=3, classes=3)
    clients = [(rng.uniform(-1, 1, (rows, 3)), rng.integers(0, 3, rows),
                M.TrainingConfig(learning_rate=lr, batch_size=batch,
                                 epochs_per_round=epochs, rng_seed=rows))
               for rows, lr, batch, epochs in ((20, 0.1, 8, 2),
                                               (20, 0.3, 8, 1),
                                               (12, 0.2, 5, 3))]
    for got, client in zip(M.train_epochs(m, clients), clients):
        [alone] = M.train_epochs(m, [client])
        assert np.array_equal(M.flatten_weights(got),
                              M.flatten_weights(alone))


# SHA-256 of the four trained weight vectors below, as the trainer that
# gathered each step's rows into a fresh array produced them
WIDE_DIGEST = ("6c5104317e7fa6ed31971941bd7a0bc3"
               "d5771dd723df95ad186eaed2a4cbec7c")


def test_wide_shaped_training_digest_pinned():
    """The wide workload's shape: 4,096 features, 4 clients of 80 and
    81 rows, 32-row batches over 3 epochs. Each epoch's ragged last
    batches, of 16 and 17 rows, step as two groups of two."""
    rng = np.random.default_rng(41)
    m = M.init_model(4096, PqcArchitecture(qubit_count=3, depth=2), 3,
                     rng_seed=6)
    clients = [(rng.uniform(-1, 1, (rows, 4096)), rng.integers(0, 3, rows),
                M.TrainingConfig(learning_rate=0.15, batch_size=32,
                                 epochs_per_round=3, rng_seed=k))
               for k, rows in enumerate((80, 81, 81, 80))]
    weights = b"".join(M.flatten_weights(got).tobytes()
                       for got in M.train_epochs(m, clients))
    assert hashlib.sha256(weights).hexdigest() == WIDE_DIGEST


def test_training_checks_every_client_before_any_step(rng, monkeypatch):
    """A bad label or feature width in any client is refused before the
    first step runs, and no client is trained."""
    def step(*args):
        raise AssertionError("a step ran")

    monkeypatch.setattr(M, "_gradients", step)
    m = toy_model(qubits=3, classes=3)
    cfg = M.TrainingConfig(learning_rate=0.1, batch_size=4)
    good = (rng.uniform(-1, 1, (6, 3)), rng.integers(0, 3, 6), cfg)
    for bad, error in (((np.zeros((6, 3)), [0, 1, 2, 0, 1, 3], cfg),
                        DomainError),
                       ((np.zeros((6, 4)), np.zeros(6, dtype=int), cfg),
                        ShapeError)):
        with pytest.raises(error):
            M.train_epochs(m, [good, bad])
    assert M.train_epochs(m, []) == []


def test_zero_epochs_identity(rng):
    m = toy_model(seed=13)
    cfg = M.TrainingConfig(learning_rate=0.1, epochs_per_round=0)
    [out] = M.train_epochs(m, [(rng.uniform(-1, 1, (10, 3)),
                                rng.integers(0, 2, 10), cfg)])
    assert np.array_equal(M.flatten_weights(out), M.flatten_weights(m))


def test_init_model_seeded():
    a = toy_model(seed=21)
    b = toy_model(seed=21)
    c = toy_model(seed=22)
    assert np.array_equal(M.flatten_weights(a), M.flatten_weights(b))
    assert not np.array_equal(M.flatten_weights(a), M.flatten_weights(c))
    assert np.abs(a.angles).max() <= np.pi
    assert np.abs(a.w_in).max() <= 0.5


def test_checkpoint_roundtrip(rng):
    m = toy_model(seed=14, features=5, qubits=3, depth=2, classes=4)
    back = M.load_checkpoint(M.save_checkpoint(m))
    assert np.array_equal(M.flatten_weights(back), M.flatten_weights(m))
    assert back.arch == m.arch


@pytest.mark.parametrize("keep", [5, 12, 20])
def test_checkpoint_truncated_header_rejected(keep):
    blob = M.save_checkpoint(toy_model(seed=14, features=5, qubits=3))
    with pytest.raises(FormatError):
        M.load_checkpoint(blob[:keep])


def test_checkpoint_truncated_weights_rejected():
    blob = M.save_checkpoint(toy_model(seed=14, features=5, qubits=3))
    with pytest.raises(FormatError):
        M.load_checkpoint(blob[:-12])


def test_checkpoint_trailing_bytes_rejected():
    blob = M.save_checkpoint(toy_model(seed=14, features=5, qubits=3))
    with pytest.raises(FormatError):
        M.load_checkpoint(blob + b"\x00\x00")


def test_checkpoint_count_must_match_architecture():
    m = toy_model(seed=14, features=5, qubits=3)
    blob = M.save_checkpoint(m)
    pos = len(blob) - 8 * m.param_count - 4
    short = (blob[:pos] + struct.pack("<I", m.param_count - 1)
             + blob[pos + 4:-8])
    with pytest.raises(FormatError):
        M.load_checkpoint(short)
