"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its measured runtime. Run with `pytest tests/test_acceptance.py
-v -s` to see the per-criterion lines."""

import functools
import time

import numpy as np
import pytest

from cipherfed import data as D
from cipherfed import model as M
from cipherfed import qsim
from cipherfed.errors import ParameterError, ProtocolError
from cipherfed.fhe import (decode, decrypt, default_params, encode, encrypt,
                           keygen)
from cipherfed.federation import server
from cipherfed.federation.client import ClientUpdate, derive_seed
from cipherfed.federation.metrics import MetricsSink
from cipherfed.federation.rounds import RoundConfig, run_round
from cipherfed.federation.runner import run_socket_federation
from cipherfed.model import TrainingConfig, flatten_weights
from cipherfed.qsim import PqcArchitecture, PqcParams


def criterion(num, budget_s, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[FAIL] criterion {num}: {desc}")
                raise
            dt = time.perf_counter() - t0
            print(f"\n[PASS] criterion {num}: {desc} "
                  f"({dt:.1f}s of {budget_s}s budget)")
            assert dt <= budget_s, f"criterion {num} exceeded runtime budget"
        return wrapper
    return deco


@pytest.fixture(scope="module")
def std():
    params = default_params()
    keys = keygen(params, rng_seed=50)
    return params, keys


# -- criterion 6/10 shared configuration ------------------------------------

DESK_SEEDS = {"data": 42, "partition": 7, "init": 100, "train": 9, "keys": 50}


def desk_world():
    train, test = D.generate_synthetic("blobs", 1500, 0.5,
                                       seed=DESK_SEEDS["data"], classes=3)
    assert len(train) == 1200 and len(test) == 300
    parts = D.partition(train, D.PartitionSpec(
        client_count=4, strategy="iid", rng_seed=DESK_SEEDS["partition"]))
    arch = PqcArchitecture(qubit_count=3, depth=2)
    init = M.init_model(2, arch, 3, rng_seed=DESK_SEEDS["init"])
    return parts, test, init


def desk_round_config(parts, rounds=10):
    return RoundConfig.for_datasets(
        parts, rounds=rounds, learning_rate=0.15, batch_size=32,
        epochs_per_round=3, base_seed=DESK_SEEDS["train"],
        deterministic_timing=True)


@criterion(1, 60, "FHE roundtrip precision over 1000 random slot vectors")
def test_criterion_01_roundtrip_precision(std):
    params, keys = std
    assert params.ring_degree == 4096 and params.scale == 2.0 ** 40
    rng = np.random.default_rng(101)
    worst = 0.0
    for trial in range(1000):
        v = rng.uniform(-1, 1, params.slot_count)
        ct = encrypt(encode(v, params), keys, rng_seed=trial)
        got = decode(decrypt(ct, keys), params.slot_count)
        worst = max(worst, float(np.abs(got - v).max()))
    print(f"  worst slot error {worst:.3g} (bound {2.0 ** -18:.3g})")
    assert worst <= 2.0 ** -18


@criterion(2, 120, "encrypted weighted aggregation matches plaintext oracle")
def test_criterion_02_aggregation_oracle(std):
    params, keys = std
    rng = np.random.default_rng(202)
    length = 512
    worst = 0.0
    for trial in range(100):
        n_clients = int(rng.integers(2, 9))
        vecs = [rng.uniform(-1, 1, length) for _ in range(n_clients)]
        counts = rng.integers(1, 1000, n_clients)
        updates = []
        for k, (vec, n_k) in enumerate(zip(vecs, counts)):
            ct = encrypt(encode(vec[None, :], params), keys,
                         rng_seed=[derive_seed(trial, k)])
            updates.append(ClientUpdate(client_id=k, chunks=ct,
                                        sample_count=int(n_k),
                                        round_index=trial,
                                        param_count=length))
        agg = server.aggregate(updates, keys.public)
        got = decode(decrypt(agg[0], keys), length)
        weights = counts / counts.sum()
        expect = sum(w * v for w, v in zip(weights, vecs))
        worst = max(worst, float(np.abs(got - expect).max()))
    print(f"  worst aggregation error {worst:.3g} (bound 1e-4)")
    assert worst <= 1e-4


@criterion(3, 10, "NTT products equal schoolbook negacyclic products exactly")
def test_criterion_03_ntt_vs_schoolbook():
    from cipherfed.fhe.nttmath import StackedNtt, find_ntt_primes

    def schoolbook(a, b, q, n):
        res = [0] * n
        for i in range(n):
            for j in range(n):
                v = int(a[i]) * int(b[j])
                k = i + j
                if k >= n:
                    res[k - n] = (res[k - n] - v) % q
                else:
                    res[k] = (res[k] + v) % q
        return np.array(res, dtype=np.uint64)

    rng = np.random.default_rng(303)
    for n in (8, 16):
        q = find_ntt_primes(13, 1, 2 * n)[0]
        ntt = StackedNtt((q,), n)
        for _ in range(1000):
            a = rng.integers(0, q, n).astype(np.uint64)
            b = rng.integers(0, q, n).astype(np.uint64)
            prod = (ntt.forward(a[None])[0].astype(object)
                    * ntt.forward(b[None])[0].astype(object)) % q
            got = ntt.inverse(prod.astype(np.uint64)[None])[0]
            assert np.array_equal(got, schoolbook(a, b, q, n))
    print("  2000 random products, all bit-exact")


@criterion(4, 60, "parameter-shift gradients match finite differences")
def test_criterion_04_parameter_shift():
    # closed form: d<Z>/dθ = -sin θ for a single RX
    arch1 = PqcArchitecture(qubit_count=1, depth=1)
    for theta in (0.3, -1.1, 2.5):
        g = qsim.param_shift_grad([0.0], arch1,
                                  PqcParams(np.array([[theta]])), [1.0])
        assert abs(g[0, 0] + np.sin(theta)) < 1e-12

    rng = np.random.default_rng(404)
    h = 1e-5
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 5))
        d = int(rng.integers(1, 4))
        arch = PqcArchitecture(qubit_count=n, depth=d)
        params = PqcParams.random(arch, rng)
        feats = rng.uniform(-np.pi, np.pi, n)
        w = rng.uniform(-1, 1, n)
        ps = qsim.param_shift_grad(feats, arch, params, w)
        for l in range(d):
            for q in range(n):
                ang = params.angles.copy()
                ang[l, q] += h
                up = qsim.run_pqc(feats, arch, PqcParams(ang)) @ w
                ang[l, q] -= 2 * h
                dn = qsim.run_pqc(feats, arch, PqcParams(ang)) @ w
                worst = max(worst, abs(ps[l, q] - (up - dn) / (2 * h)))
    print(f"  worst |PS - FD| = {worst:.3g} (bound 1e-6)")
    assert worst <= 1e-6


@criterion(5, 120, "hybrid-model gradients match finite differences")
def test_criterion_05_full_model_gradients():
    rng = np.random.default_rng(505)
    worst = 0.0
    for trial in range(20):
        features = int(rng.integers(2, 5))
        qubits = int(rng.integers(2, 4))
        depth = int(rng.integers(1, 3))
        classes = int(rng.integers(2, 4))
        arch = PqcArchitecture(qubit_count=qubits, depth=depth)
        m = M.init_model(features, arch, classes, rng_seed=trial)
        X = rng.uniform(-1, 1, (4, features))
        y = rng.integers(0, classes, 4)
        _, grads = M.loss_and_grads(m, X, y)
        analytic = np.concatenate([grads[k].ravel() for k in
                                   ("w_in", "b_in", "angles", "w_out",
                                    "b_out")])
        flat = flatten_weights(m)
        h = 1e-5
        fd = np.zeros_like(flat)
        for i in range(flat.size):
            p = flat.copy()
            p[i] += h
            lp, _ = M.loss_and_grads(M.unflatten_weights(m, p), X, y)
            p[i] -= 2 * h
            lm, _ = M.loss_and_grads(M.unflatten_weights(m, p), X, y)
            fd[i] = (lp - lm) / (2 * h)
        rel = np.abs(analytic - fd) / np.maximum(np.abs(fd), 1e-6)
        worst = max(worst, float(rel.max()))
    print(f"  worst relative gradient error {worst:.3g} (bound 1e-4)")
    assert worst <= 1e-4


@criterion(6, 600, "desk-scale comparison: encrypted vs plaintext arms")
def test_criterion_06_desk_scale_analog(std):
    _params, keys = std
    parts, test, init = desk_world()
    cfg = desk_round_config(parts)

    model_f, model_p = init, init
    per_round_diff = []
    final_acc = {}
    for r in range(cfg.rounds):
        model_f, rows_f = run_round(model_f, cfg, parts, test, keys, r,
                                    mode="fhe")
        model_p, rows_p = run_round(model_p, cfg, parts, test, keys, r,
                                    mode="plaintext")
        diff = np.abs(flatten_weights(model_f)
                      - flatten_weights(model_p)).max()
        per_round_diff.append(float(diff))
        final_acc["fhe"] = rows_f[-1]["test_acc"]
        final_acc["plaintext"] = rows_p[-1]["test_acc"]

    gap = abs(final_acc["fhe"] - final_acc["plaintext"])
    print(f"  plaintext acc {final_acc['plaintext']:.4f}, "
          f"fhe acc {final_acc['fhe']:.4f}, gap {gap * 100:.2f}pp, "
          f"max per-round weight diff {max(per_round_diff):.3g}")
    assert final_acc["plaintext"] >= 0.90
    assert gap <= 0.02
    assert max(per_round_diff) <= 1e-3


@criterion(7, 120, "single-client federation equals standalone training")
def test_criterion_07_single_client_degeneracy(std):
    _params, keys = std
    train, test = D.generate_synthetic("blobs", 300, 0.5, seed=17, classes=3)
    parts = [train]
    arch = PqcArchitecture(qubit_count=3, depth=2)
    init = M.init_model(2, arch, 3, rng_seed=31)
    cfg = RoundConfig.for_datasets(parts, rounds=5, learning_rate=0.15,
                                   batch_size=32, epochs_per_round=2,
                                   base_seed=12, deterministic_timing=True)
    fed = init
    worst = 0.0
    for r in range(cfg.rounds):
        incoming = fed
        fed, _rows = run_round(fed, cfg, parts, test, keys, r, mode="fhe")
        tcfg = TrainingConfig(learning_rate=cfg.learning_rate,
                              batch_size=cfg.batch_size,
                              epochs_per_round=cfg.epochs_per_round,
                              rng_seed=derive_seed(cfg.base_seed, r, 0, 1))
        oracle = M.train_epochs(incoming, train.features, train.labels, tcfg)
        diff = np.abs(flatten_weights(fed) - flatten_weights(oracle)).max()
        worst = max(worst, float(diff))
    print(f"  worst per-round deviation {worst:.3g} (bound {2 ** -15:.3g})")
    assert worst <= 2.0 ** -15


@criterion(8, 120, "socket protocol determinism and corrupted-frame handling")
def test_criterion_08_protocol_determinism(tmp_path):
    import socket as socket_mod
    import threading

    from cipherfed.federation import transport as T
    from cipherfed.federation.runner import run_transport_client
    from cipherfed.federation.server import FederationCoordinator

    params = default_params(ring_degree=1024)
    keys = keygen(params, rng_seed=41)
    train, test = D.generate_synthetic("blobs", 160, 0.5, seed=61, classes=2)
    parts = D.partition(train, D.PartitionSpec(client_count=2, rng_seed=2))
    arch = PqcArchitecture(qubit_count=2, depth=1)
    init = M.init_model(2, arch, 2, rng_seed=9)
    cfg = RoundConfig.for_datasets(parts, rounds=2, learning_rate=0.2,
                                   batch_size=16, epochs_per_round=1,
                                   base_seed=8, deterministic_timing=True)

    files = [tmp_path / "run1.jsonl", tmp_path / "run2.jsonl"]
    for path in files:
        with MetricsSink(path) as sink:
            run_socket_federation(init, cfg, parts, test, keys, mode="fhe",
                                  sink=sink)
    assert files[0].read_bytes() == files[1].read_bytes()
    assert len(files[0].read_bytes()) > 0
    print("  two socket runs: metrics files byte-identical")

    # corrupted frame: flip a length byte mid-stream
    listener = socket_mod.socket(socket_mod.AF_INET, socket_mod.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(2)
    port = listener.getsockname()[1]
    coordinator = FederationCoordinator(expected_clients=2, rounds=cfg.rounds,
                                        mode="fhe", material=keys.public)
    server_err = []

    def serve():
        chans = []
        try:
            for _ in range(2):
                conn, _ = listener.accept()
                chans.append(T.SocketChannel(conn))
            coordinator.run(chans)
        except ProtocolError as exc:
            server_err.append(exc)
        finally:
            for ch in chans:
                ch.close()

    srv = threading.Thread(target=serve, daemon=True)
    srv.start()
    client_err = []

    def legit():
        sock = socket_mod.create_connection(("127.0.0.1", port), timeout=10.0)
        try:
            run_transport_client(T.SocketChannel(sock), 0, parts[0], test,
                                 init, cfg, keys, "fhe")
        except ProtocolError as exc:
            client_err.append(exc)
        finally:
            sock.close()

    cli = threading.Thread(target=legit, daemon=True)
    cli.start()
    rogue = socket_mod.create_connection(("127.0.0.1", port), timeout=10.0)
    rogue.sendall(T.encode_frame(T.Message(T.MSG_JOIN, 0,
                                           T.encode_join(1, 10))))
    frame = bytearray(T.encode_frame(T.Message(T.MSG_UPDATE, 0, b"x" * 32)))
    frame[0] |= 0x80  # flipped length byte
    rogue.sendall(bytes(frame))
    srv.join(timeout=60.0)
    cli.join(timeout=60.0)
    listener.close()
    rogue.close()

    assert server_err and isinstance(server_err[0], ProtocolError)
    assert client_err, "legit client must be aborted, not left hanging"
    print(f"  corrupted frame -> ProtocolError: {server_err[0]}")


@criterion(9, 60, "server aggregation is blind to secret key material")
def test_criterion_09_server_blindness(std):
    params, keys = std
    from cipherfed.fhe.keys import KeyMaterial, PublicMaterial
    from cipherfed.fhe.ops import decrypt as decrypt_fn
    from cipherfed.fhe.serial import (deserialize_public_material,
                                      serialize_public_key)

    # 1. the public material type carries no secret field
    assert not hasattr(keys.public, "secret_key")
    assert "secret" not in {f.lower() for f in vars(keys.public)}

    # 2. the server module's namespace has no route to decryption
    exposed = vars(server).values()
    assert decrypt_fn not in exposed
    assert KeyMaterial not in exposed
    assert not any(getattr(v, "__name__", "").startswith("decrypt")
                   for v in exposed)

    # 3. aggregation runs against material rebuilt from public bytes only
    pub = deserialize_public_material(serialize_public_key(keys.public),
                                      params)
    assert isinstance(pub, PublicMaterial)
    rng = np.random.default_rng(909)
    vec = rng.uniform(-1, 1, 64)
    ct = encrypt(encode(vec[None, :], params), pub, [1])
    upd = ClientUpdate(0, ct, 5, 0, 64)
    agg = server.aggregate([upd], pub)
    got = decode(decrypt(agg[0], keys), 64)
    assert np.abs(got - vec).max() < 1e-4

    # 4. handing the full key material to the server is rejected
    with pytest.raises(ParameterError):
        server.aggregate([upd], keys)
    coordinator_ok = False
    try:
        server.FederationCoordinator(expected_clients=1, rounds=1,
                                     mode="fhe", material=keys)
    except ParameterError:
        coordinator_ok = True
    assert coordinator_ok
    print("  public-only aggregation works; secret-bearing material rejected")


@criterion(10, 600, "encrypted arm costs at least as much wall time")
def test_criterion_10_overhead_direction(tmp_path):
    from cipherfed.config import parse_config
    from cipherfed.pipeline import compare_runs

    doc = {
        "mode": "fhe", "seed": DESK_SEEDS["train"],
        "transport": "direct", "deterministic_timing": True,
        "federation": {"clients": 4, "rounds": 10, "epochs_per_round": 3,
                       "learning_rate": 0.15, "batch_size": 32},
        "model": {"qubits": 3, "depth": 2},
        "data": {"kind": "blobs", "samples": 1500, "noise": 0.5,
                 "classes": 3},
    }
    cfg = parse_config(doc)
    report = compare_runs(cfg)
    fhe_wall = report["fhe"]["wall_seconds"]
    plain_wall = report["plaintext"]["wall_seconds"]
    print(f"  fhe arm {fhe_wall:.1f}s vs plaintext arm {plain_wall:.1f}s; "
          f"gap {report['accuracy_gap']}")
    assert fhe_wall >= plain_wall
    assert report["fhe"]["test_acc"] is not None
    assert report["plaintext"]["test_acc"] is not None
