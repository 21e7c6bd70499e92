import hashlib
import json
import threading

import numpy as np
import pytest

from cipherfed import data as D
from cipherfed import model as M
from cipherfed.errors import (AlignmentError, ConfigError, ParameterError,
                              ProtocolError)
from cipherfed.federation import server
from cipherfed.federation.client import (PlainUpdate, decrypt_and_load,
                                         derive_seed, encrypt_model)
from cipherfed.federation.quantize import QuantizationSpec, quantize
from cipherfed.federation.rounds import (RoundConfig, run_federated_training,
                                         run_round)
from cipherfed.model import TrainingConfig, flatten_weights
from cipherfed.qsim import PqcArchitecture


@pytest.fixture(scope="module")
def toy_world(small_params):
    from cipherfed.fhe import keygen
    train, test = D.generate_synthetic("blobs", 240, 0.5, seed=21, classes=3)
    parts = D.partition(train, D.PartitionSpec(client_count=3, rng_seed=4))
    arch = PqcArchitecture(qubit_count=2, depth=1)
    init = M.init_model(2, arch, 3, rng_seed=77)
    keys = keygen(small_params, rng_seed=13)
    return {"parts": parts, "test": test, "init": init, "keys": keys}


def make_config(parts, rounds=2, **kw):
    kw.setdefault("learning_rate", 0.15)
    kw.setdefault("batch_size", 16)
    kw.setdefault("epochs_per_round", 1)
    kw.setdefault("base_seed", 5)
    kw.setdefault("deterministic_timing", True)
    return RoundConfig.for_datasets(parts, rounds=rounds, **kw)


def test_encrypt_model_roundtrip(toy_world):
    keys = toy_world["keys"]
    m = toy_world["init"]
    spec = QuantizationSpec()
    upd = encrypt_model(m, spec, keys, client_id=0, sample_count=10,
                        round_index=0, rng_seed=3)
    back = decrypt_and_load(upd.chunks, keys, m)
    expect = quantize(flatten_weights(m), spec)
    assert np.abs(flatten_weights(back) - expect).max() < 2.0 ** -15


def test_encrypt_zero_model(toy_world, small_params):
    keys = toy_world["keys"]
    arch = PqcArchitecture(qubit_count=2, depth=1)
    zero = M.HybridModel(w_in=np.zeros((2, 2)), b_in=np.zeros(2), arch=arch,
                         angles=np.zeros((1, 2)), w_out=np.zeros((2, 3)),
                         b_out=np.zeros(3))
    upd = encrypt_model(zero, QuantizationSpec(), keys, 0, 1, 0)
    back = decrypt_and_load(upd.chunks, keys, zero)
    assert np.abs(flatten_weights(back)).max() < 2.0 ** -15


def test_chunk_count_ceiling(toy_world, small_params):
    from cipherfed.federation.client import chunk_count_for
    assert chunk_count_for(5000, 4096) == 2
    assert chunk_count_for(8193, 4096) == 3
    keys = toy_world["keys"]
    arch = PqcArchitecture(qubit_count=4, depth=3)
    big = M.init_model(200, arch, 60, rng_seed=1)  # > one chunk of N
    upd = encrypt_model(big, QuantizationSpec(), keys, 0, 1, 0)
    n = small_params.ring_degree
    assert big.param_count > n
    assert len(upd.chunks) == -(-big.param_count // n)
    back = decrypt_and_load(upd.chunks, keys, big)
    expect = quantize(flatten_weights(big), QuantizationSpec())
    assert np.array_equal(flatten_weights(back), expect)


def test_decrypt_and_load_template_mismatch(toy_world):
    keys = toy_world["keys"]
    m = toy_world["init"]
    upd = encrypt_model(m, QuantizationSpec(), keys, 0, 1, 0)
    big_arch = PqcArchitecture(qubit_count=4, depth=3)
    big = M.init_model(500, big_arch, 40, rng_seed=1)
    from cipherfed.errors import ShapeError
    with pytest.raises(ShapeError):
        decrypt_and_load(upd.chunks[:0], keys, big)


def test_decrypt_and_load_requires_exact_chunk_count(toy_world):
    """A batch with a chunk more than the model fills is refused, not
    cut down to size."""
    from cipherfed.errors import ShapeError
    keys, m = toy_world["keys"], toy_world["init"]
    upd = encrypt_model(m, QuantizationSpec(), keys, 0, 1, 0)
    assert len(upd.chunks) == 1
    with pytest.raises(ShapeError, match="2 chunks .* which fill 1"):
        decrypt_and_load(upd.chunks[[0, 0]], keys, m)


def test_aggregate_single_client_identity(toy_world):
    keys = toy_world["keys"]
    m = toy_world["init"]
    spec = QuantizationSpec()
    upd = encrypt_model(m, spec, keys, client_id=0, sample_count=17,
                        round_index=0)
    agg = server.aggregate([upd], keys.public)
    back = decrypt_and_load(agg, keys, m)
    expect = quantize(flatten_weights(m), spec)
    assert np.abs(flatten_weights(back) - expect).max() < 1e-4


def test_aggregate_identical_models_fixed_point(toy_world):
    keys = toy_world["keys"]
    m = toy_world["init"]
    spec = QuantizationSpec()
    u1 = encrypt_model(m, spec, keys, 0, 5, 0, rng_seed=1)
    u2 = encrypt_model(m, spec, keys, 1, 11, 0, rng_seed=2)
    agg = server.aggregate([u1, u2], keys.public)
    back = decrypt_and_load(agg, keys, m)
    expect = quantize(flatten_weights(m), spec)
    assert np.abs(flatten_weights(back) - expect).max() < 1e-4


def test_aggregate_weighted_example(toy_world, small_params):
    # w1=[1,2], w2=[3,4], n1=1, n2=3 -> 0.25*w1 + 0.75*w2 = [2.5, 3.5]
    from cipherfed.fhe import encode, encrypt
    from cipherfed.federation.client import ClientUpdate
    keys = toy_world["keys"]
    c1 = encrypt(encode([[1.0, 2.0]], small_params), keys, [1])
    c2 = encrypt(encode([[3.0, 4.0]], small_params), keys, [2])
    u1 = ClientUpdate(0, c1, 1, 0, 2)
    u2 = ClientUpdate(1, c2, 3, 0, 2)
    agg = server.aggregate([u1, u2], keys.public)
    from cipherfed.fhe import decode, decrypt
    got = decode(decrypt(agg[0], keys), 2)
    assert np.abs(got - [2.5, 3.5]).max() < 1e-4


def test_aggregate_requires_updates(toy_world):
    with pytest.raises(ProtocolError):
        server.aggregate([], toy_world["keys"].public)


def test_aggregate_round_mismatch(toy_world):
    keys = toy_world["keys"]
    m = toy_world["init"]
    u1 = encrypt_model(m, QuantizationSpec(), keys, 0, 5, round_index=0)
    u2 = encrypt_model(m, QuantizationSpec(), keys, 1, 5, round_index=1)
    with pytest.raises(ProtocolError, match="round"):
        server.aggregate([u1, u2], keys.public)


def test_aggregate_chunk_mismatch(toy_world, small_params):
    from cipherfed.fhe import encode, encrypt
    keys = toy_world["keys"]
    m = toy_world["init"]
    u1 = encrypt_model(m, QuantizationSpec(), keys, 0, 5, 0)
    u2 = encrypt_model(m, QuantizationSpec(), keys, 1, 5, 0)
    two = encrypt(encode(np.zeros((2, 4)), small_params), keys, [1, 2])
    u2 = type(u2)(client_id=1, chunks=two, sample_count=5, round_index=0,
                  param_count=u2.param_count)
    with pytest.raises(AlignmentError, match="chunks"):
        server.aggregate([u1, u2], keys.public)


def test_aggregate_duplicate_client(toy_world):
    keys = toy_world["keys"]
    m = toy_world["init"]
    u1 = encrypt_model(m, QuantizationSpec(), keys, 0, 5, 0)
    with pytest.raises(ProtocolError, match="duplicate"):
        server.aggregate([u1, u1], keys.public)


def test_aggregate_rejects_full_key_material(toy_world):
    keys = toy_world["keys"]
    m = toy_world["init"]
    upd = encrypt_model(m, QuantizationSpec(), keys, 0, 5, 0)
    with pytest.raises(ParameterError, match="public"):
        server.aggregate([upd], keys)


def test_aggregate_plain_equal_clients_is_exact_mean():
    v1 = np.array([1.0, 2.0, 3.0])
    v2 = np.array([5.0, 6.0, 7.0])
    u1 = PlainUpdate(0, v1, 10, 0)
    u2 = PlainUpdate(1, v2, 10, 0)
    got = server.aggregate_plain([u1, u2])
    assert np.array_equal(got, 0.5 * v1 + 0.5 * v2)


def test_aggregate_rejects_zero_sample_count():
    with pytest.raises(ProtocolError, match="sample count 0"):
        server.aggregate_plain([PlainUpdate(0, np.ones(3), 0, 0)])


def test_aggregate_rejects_update_without_chunks(toy_world):
    from cipherfed.federation.client import ClientUpdate
    keys = toy_world["keys"]
    empty = encrypt_model(toy_world["init"], QuantizationSpec(), keys, 0, 5,
                          0).chunks[:0]
    with pytest.raises(ProtocolError, match="no chunks"):
        server.aggregate([ClientUpdate(0, empty, 5, 0, 0)], keys.public)


def test_run_round_single_client_matches_standalone(toy_world):
    parts = [toy_world["parts"][0]]
    cfg = make_config(parts, rounds=1)
    keys = toy_world["keys"]
    init = toy_world["init"]
    new_model, rows = run_round(init, cfg, parts, toy_world["test"], keys,
                                round_index=0, mode="fhe")
    # standalone oracle: same training from the same state and seed
    seed = derive_seed(cfg.base_seed, 0, 0, 1)
    tcfg = TrainingConfig(learning_rate=cfg.learning_rate,
                          batch_size=cfg.batch_size,
                          epochs_per_round=cfg.epochs_per_round,
                          rng_seed=seed)
    [oracle] = M.train_epochs(init, [(parts[0].features, parts[0].labels,
                                      tcfg)])
    diff = np.abs(flatten_weights(new_model) - flatten_weights(oracle)).max()
    assert diff <= 2.0 ** -15


def test_run_round_zero_epochs_only_quantizes(toy_world):
    parts = toy_world["parts"]
    cfg = make_config(parts, rounds=1, epochs_per_round=0)
    init = toy_world["init"]
    new_model, _ = run_round(init, cfg, parts, toy_world["test"],
                             toy_world["keys"], 0, mode="fhe")
    expect = quantize(flatten_weights(init), cfg.quantization)
    assert np.abs(flatten_weights(new_model) - expect).max() < 1e-4


def test_run_round_metrics_shape(toy_world):
    parts = toy_world["parts"]
    cfg = make_config(parts, rounds=1)
    _, rows = run_round(toy_world["init"], cfg, parts, toy_world["test"],
                        toy_world["keys"], 0, mode="plaintext")
    assert len(rows) == len(parts) + 1
    actors = [r["actor"] for r in rows]
    assert actors == [f"client_{k}" for k in range(len(parts))] + ["global"]
    for r in rows[:-1]:
        assert r["train_loss"] is not None and r["test_loss"] is None
    assert rows[-1]["test_acc"] is not None


def test_run_round_client_failure_named(toy_world):
    parts = list(toy_world["parts"])
    bad = D.Dataset(parts[1].features, parts[1].labels, parts[1].class_count)
    object.__setattr__(bad, "labels", parts[1].labels.copy())
    bad.labels[0] = 99  # out-of-range label -> client-side failure
    parts[1] = bad
    cfg = make_config(parts, rounds=1)
    with pytest.raises(ProtocolError, match="client 1"):
        run_round(toy_world["init"], cfg, parts, toy_world["test"],
                  toy_world["keys"], 0, mode="fhe")


def test_run_round_trains_clients_in_order_in_caller_thread(toy_world,
                                                            monkeypatch):
    from cipherfed.federation import rounds
    seen = []

    def recording(model, clients):
        seen.append((threading.get_ident(),
                     [tcfg.rng_seed for *_, tcfg in clients]))
        return M.train_epochs(model, clients)

    monkeypatch.setattr(rounds, "train_epochs", recording)
    parts = toy_world["parts"]
    cfg = make_config(parts, rounds=1)
    run_round(toy_world["init"], cfg, parts, toy_world["test"],
              toy_world["keys"], 0, mode="plaintext")
    # one stacked call for every client, each with its own seed
    assert seen == [(threading.get_ident(),
                     [derive_seed(cfg.base_seed, 0, k, 1)
                      for k in range(len(parts))])]


def test_run_round_rejects_samples_beyond_capacity(toy_world, monkeypatch):
    """A RoundConfig built directly, not by pipeline.round_config, is
    held to the level-0 capacity (65,535 samples) before any client
    trains; a larger total would decrypt to a wrong mean."""
    from cipherfed.federation import rounds

    def training(*args):
        raise AssertionError("a client trained")

    monkeypatch.setattr(rounds, "train_epochs", training)

    def blank(rows):
        return D.Dataset(np.zeros((rows, 2)), np.zeros(rows, dtype=np.int64),
                         3)

    for counts, error, match in (
            ((40000, 25536), ConfigError,
             "65536 samples across the clients exceed the 65535"),
            ((40000, 25535), ProtocolError, "a client trained")):
        parts = [blank(c) for c in counts]
        cfg = make_config(parts, rounds=1)
        with pytest.raises(error, match=match):
            run_round(toy_world["init"], cfg, parts, toy_world["test"],
                      toy_world["keys"], 0, mode="fhe")
    # the plaintext arm holds any total
    with pytest.raises(ProtocolError, match="a client trained"):
        run_round(toy_world["init"], make_config([blank(70000)], rounds=1),
                  [blank(70000)], toy_world["test"], toy_world["keys"], 0,
                  mode="plaintext")


def test_training_zero_rounds_returns_initial(toy_world):
    parts = toy_world["parts"]
    cfg = make_config(parts, rounds=0)
    final, history = run_federated_training(
        toy_world["init"], cfg, parts, toy_world["test"], toy_world["keys"],
        mode="fhe")
    assert final is toy_world["init"]
    assert history == []


# SHA-256 of the final global weights below, as the trainer that ran the
# clients one after another produced them; any reordering of the
# training arithmetic changes it.
TRAINING_DIGEST = ("822b0f602be1ee41f04549b316b3d4a4"
                   "c43fb08dea7c4da1207a35a002ec0244")


@pytest.mark.parametrize("mode", ["fhe", "plaintext"])
def test_training_digest_pinned(toy_world, mode):
    """A small direct run: clients of 45, 28 and 9 samples, batches of
    16 (ragged last batches, one client below a batch), 2 epochs, 2
    rounds. Exact FedAvg gives both modes the same weights."""
    parts = [D.Dataset(p.features[:n], p.labels[:n], p.class_count)
             for p, n in zip(toy_world["parts"], (45, 28, 9))]
    cfg = make_config(parts, rounds=2, epochs_per_round=2)
    final, _ = run_federated_training(
        toy_world["init"], cfg, parts, toy_world["test"],
        toy_world["keys"] if mode == "fhe" else None, mode=mode)
    digest = hashlib.sha256(flatten_weights(final).tobytes()).hexdigest()
    assert digest == TRAINING_DIGEST


# SHA-256 of a desk-shaped run's final weights and metrics rows, as the
# trainer that evaluated each client alone and reduced each group's
# angle gradients with one np.dot per group produced them. Quantized
# aggregation absorbs a last-bit change in a client's weights, so the
# weights alone would miss one; the clients' train_loss rows do not.
DESK_DIGEST = ("d0e3b98d6f613687907c1c7fe2b766b1"
               "30d7c32b1c9457baebc97b15bea9326f")


def test_desk_shaped_digest_pinned():
    """Desk's shape: 3 qubits at depth 2 and 4 clients with 32-row
    batches over 3 epochs, 2 rounds. Clients of 100, 100, 90 and 75 rows
    step as one group of four, then in ragged groups of two and one."""
    train, test = D.generate_synthetic("blobs", 480, 0.5, seed=8, classes=3)
    parts = [D.Dataset(train.features[a:b], train.labels[a:b], 3)
             for a, b in ((0, 100), (100, 200), (200, 290), (290, 365))]
    init = M.init_model(2, PqcArchitecture(qubit_count=3, depth=2), 3,
                        rng_seed=5)
    cfg = make_config(parts, epochs_per_round=3, batch_size=32, base_seed=3)
    final, history = run_federated_training(init, cfg, parts, test, None,
                                            mode="plaintext")
    digest = hashlib.sha256(flatten_weights(final).tobytes()
                            + json.dumps(history).encode()).hexdigest()
    assert digest == DESK_DIGEST


def test_training_deterministic(toy_world):
    parts = toy_world["parts"]
    cfg = make_config(parts, rounds=2)
    a_model, a_hist = run_federated_training(
        toy_world["init"], cfg, parts, toy_world["test"], toy_world["keys"],
        mode="fhe")
    b_model, b_hist = run_federated_training(
        toy_world["init"], cfg, parts, toy_world["test"], toy_world["keys"],
        mode="fhe")
    assert np.array_equal(flatten_weights(a_model), flatten_weights(b_model))
    assert a_hist == b_hist


def test_fhe_and_plaintext_arms_agree(toy_world):
    parts = toy_world["parts"]
    cfg = make_config(parts, rounds=2)
    fhe_model, _ = run_federated_training(
        toy_world["init"], cfg, parts, toy_world["test"], toy_world["keys"],
        mode="fhe")
    plain_model, _ = run_federated_training(
        toy_world["init"], cfg, parts, toy_world["test"], toy_world["keys"],
        mode="plaintext")
    diff = np.abs(flatten_weights(fhe_model)
                  - flatten_weights(plain_model)).max()
    assert diff <= 1e-3


def test_convergence_early_stop(toy_world):
    parts = toy_world["parts"]
    cfg = make_config(parts, rounds=6, epochs_per_round=0,
                      convergence_delta=1e-3)
    # zero epochs: the global loss is constant, so the delta rule fires
    _, history = run_federated_training(
        toy_world["init"], cfg, parts, toy_world["test"], toy_world["keys"],
        mode="plaintext")
    rounds_seen = {r["round"] for r in history}
    assert len(rounds_seen) == 2  # stopped right after the first repeat


def test_round_config_validation():
    with pytest.raises(ConfigError):
        RoundConfig(client_count=0, rounds=1, sample_counts=(),
                    learning_rate=0.1)
    with pytest.raises(ConfigError):
        RoundConfig(client_count=2, rounds=1, sample_counts=(5,),
                    learning_rate=0.1)
    with pytest.raises(ConfigError):
        RoundConfig(client_count=1, rounds=1, sample_counts=(0,),
                    learning_rate=0.1)
    with pytest.raises(ConfigError):
        RoundConfig(client_count=1, rounds=1, sample_counts=(5,),
                    learning_rate=-0.1)


@pytest.mark.parametrize("field,value", [
    ("client_count", 2.0), ("client_count", True), ("rounds", 1.5),
    ("rounds", "1"), ("sample_counts", (2.9, "3")),
    ("sample_counts", (True, 3)), ("sample_counts", (2.0, 3)),
    ("batch_size", 2.5), ("batch_size", np.float64(2)),
    ("epochs_per_round", False), ("base_seed", 0.5)])
def test_round_config_refuses_non_integers(field, value):
    """Counts, rounds and sizes are ints or numpy integers, never bools:
    the sample counts become the server's FedAvg weights, and a float
    would be truncated into one or fail mid-run."""
    kw = dict(client_count=2, rounds=1, sample_counts=(2, 3),
              learning_rate=0.1)
    kw[field] = value
    with pytest.raises(ConfigError, match=f"{field}.* must be an integer"):
        RoundConfig(**kw)


def test_round_config_takes_numpy_integers():
    cfg = RoundConfig(client_count=np.int64(2), rounds=np.int32(1),
                      sample_counts=tuple(np.int64([2, 3])),
                      learning_rate=0.1, batch_size=np.int16(4),
                      epochs_per_round=np.uint8(1), base_seed=np.int64(-1))
    assert cfg.sample_counts == (2, 3)
    assert all(type(c) is int for c in cfg.sample_counts)


@pytest.mark.parametrize("seed", [2 ** 63, -2 ** 63 - 1])
def test_round_config_base_seed_fits_signed_64_bits(seed):
    """derive_seed packs the base seed as a signed 64-bit integer."""
    with pytest.raises(ConfigError, match="base_seed must fit"):
        RoundConfig(client_count=1, rounds=1, sample_counts=(5,),
                    learning_rate=0.1, base_seed=seed)
    for ok in (2 ** 63 - 1, -2 ** 63):
        assert derive_seed(RoundConfig(
            client_count=1, rounds=1, sample_counts=(5,), learning_rate=0.1,
            base_seed=ok).base_seed, 0) >= 0


def encrypted_chunk(params, keys, level, scale):
    """A batch of one chunk at `level` and `scale`."""
    from cipherfed.fhe import encode, encrypt
    return encrypt(encode([[0.5]], params, level=level, scale=scale), keys,
                   [0])


def test_aggregate_rejects_param_count_that_needs_other_chunks(
        toy_world, small_params):
    from cipherfed.federation.client import ClientUpdate
    keys = toy_world["keys"]
    top, scale = small_params.max_level, small_params.scale
    one = encrypted_chunk(small_params, keys, top, scale)
    ok = ClientUpdate(0, one, 5, 0, 3)
    for count in (0, small_params.ring_degree + 1):
        bad = ClientUpdate(1, one, 5, 0, count)
        with pytest.raises(ProtocolError, match="which need"):
            server.aggregate([ok, bad], keys.public)


@pytest.mark.parametrize("level_drop,scale_div", [(1, 1), (0, 2)],
                         ids=["level", "scale"])
def test_aggregate_rejects_update_at_other_level_or_scale(
        toy_world, small_params, level_drop, scale_div):
    from cipherfed.federation.client import ClientUpdate
    keys = toy_world["keys"]
    top, scale = small_params.max_level, small_params.scale
    ok = ClientUpdate(0, encrypted_chunk(small_params, keys, top, scale),
                      5, 0, 3)
    bad = ClientUpdate(1, encrypted_chunk(
        small_params, keys, top - level_drop, scale / scale_div), 5, 0, 3)
    with pytest.raises(AlignmentError,
                       match="client 1 sent 1 chunks at .* expected 1 at"):
        server.aggregate([ok, bad], keys.public)
