"""cipherfed benchmark: federated training in both arms, timed end to
end, or traced layer by layer.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 22 --trace 0

A run sets the workload up SETUP_REPEATS times, then runs one episode:
a fresh federation in the encrypted (`fhe`) and the `plaintext` arm with
the same seeds, for as many rounds as fill --seconds on the reference
machine (2 x86 cores), and checks the arms against each other. With
--trace 1 it runs two episodes of half the length, the first untraced
and the second traced; it reports per-layer metrics and writes its
spans to perfbench/out/. The last line of standard output is the
result as one JSON object. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

if not (SRC / "cipherfed" / "__init__.py").is_file():
    sys.exit(f"perfbench: no cipherfed sources at {SRC}")
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from cipherfed import model as model_mod  # noqa: E402
from cipherfed import pipeline, qsim  # noqa: E402
from cipherfed.config import parse_config  # noqa: E402
from cipherfed.federation import (client, rounds, runner, server,  # noqa: E402
                                  transport)
from cipherfed.fhe.serial import (serialize_ciphertext,  # noqa: E402
                                  serialize_galois_keys, serialize_public_key)
from cipherfed.model import flatten_weights  # noqa: E402
from spans import Tracer, self_times, tail_percentile  # noqa: E402

ARMS = ("fhe", "plaintext")
# Half the set-ups run before the episode and half after it, so that
# their median samples the host at two moments, not one.
SETUP_REPEATS = 8

# Acceptance criterion 6 bounds, checked on every episode.
MAX_DRIFT = 1e-3
MAX_ACC_GAP = 0.02


@dataclass(frozen=True)
class Workload:
    samples: int
    dims: int          # 2 blob dims; the rest are zero columns
    clients: int
    epochs: int
    transport: str     # "direct" or "socket"
    round_s: float     # seconds a round of both arms takes on the
                       # reference machine
    min_plain_acc: float = 0.0


# Why each workload exists is in BENCHMARK.json and perfbench/README.md.
WORKLOADS = {
    "desk": Workload(samples=1500, dims=2, clients=4, epochs=3,
                     transport="direct", round_s=3.1, min_plain_acc=0.90),
    "wide": Workload(samples=400, dims=4096, clients=4, epochs=3,
                     transport="direct", round_s=2.0),
    "socket": Workload(samples=600, dims=1024, clients=2, epochs=2,
                       transport="socket", round_s=0.87),
}


@dataclass
class World:
    parts: list
    test: object
    keys: object
    model0: object
    rc: object


@dataclass
class Episode:
    bounds: dict    # arm -> [(start, end)] per round, perf_counter seconds
    cpu: dict       # arm -> [(start, end)] per round, process_time seconds
    drift: list     # per round, max |w_fhe - w_plain|
    acc: dict       # arm -> final global test accuracy


# --- inputs and set-up --------------------------------------------------

def rounds_for(w: Workload, seconds: float) -> int:
    """Rounds per arm that fill `seconds` on the reference machine, at
    least 2 so that one round follows round 0. A count, not a deadline,
    so two commits do the same work."""
    return max(2, round(seconds / w.round_s))


def run_config(w: Workload, seed: int, n_rounds: int):
    return parse_config({
        "seed": seed, "transport": w.transport,
        "encryption": {"ring_degree": 4096, "chain_bits": [60, 40, 40]},
        "federation": {"clients": w.clients, "rounds": n_rounds,
                       "epochs_per_round": w.epochs, "learning_rate": 0.15,
                       "batch_size": 32},
        "model": {"qubits": 3, "depth": 2},
        "data": {"kind": "blobs", "samples": w.samples, "dims": 2,
                 "classes": 3, "noise": 0.5,
                 "partition": {"strategy": "iid"}},
    })


def pad(ds, dims: int):
    """Widen the features with zero columns. Noise columns would be
    stretched to [-pi, pi] by the min-max scaling and saturate the
    front-end, leaving the model at chance accuracy; zero columns keep
    the parameter count and the per-round work and let the model learn."""
    extra = dims - ds.features.shape[1]
    if extra <= 0:
        return ds
    return replace(ds, features=np.hstack(
        [ds.features, np.zeros((len(ds), extra))]))


def set_up(w: Workload, seed: int, n_rounds: int, times: dict) -> World:
    """Build the world from scratch: config (with its NTT tables), data,
    keys and model. Appends the CPU seconds each part took to `times`."""
    t0 = time.process_time()
    cfg = run_config(w, seed, n_rounds)
    t1 = time.process_time()
    parts, test = pipeline.build_datasets(cfg)
    parts = [pad(p, w.dims) for p in parts]
    test = pad(test, w.dims)
    t2 = time.process_time()
    keys = pipeline.build_keys(cfg)
    t3 = time.process_time()
    model0 = pipeline.build_model(cfg, w.dims, test.class_count)
    rc = pipeline.round_config(cfg, parts)
    t4 = time.process_time()
    times["setup_s"].append(t4 - t0)
    times["data.build_s"].append(t2 - t1)
    times["fhe.keygen_s"].append(t3 - t2)
    return World(parts=parts, test=test, keys=keys, model0=model0, rc=rc)


def frame_bytes(mtype: int, payload: bytes) -> int:
    return len(transport.encode_frame(transport.Message(mtype, 0, payload)))


def aggregation_probe(world: World) -> dict:
    """One untimed aggregation of every client's update of the initial
    model, encrypted and in plaintext: the wire sizes of one client's
    UPDATE frame, the GLOBAL frame and the keys, and the bits to which
    the decrypted average matches the plaintext one."""
    rc, keys = world.rc, world.keys
    encrypted, plain = [], []
    for k, n_k in enumerate(rc.sample_counts):
        encrypted.append(client.encrypt_model(
            world.model0, rc.quantization, keys, client_id=k,
            sample_count=n_k, round_index=0, rng_seed=k + 1))
        plain.append(client.plain_update(world.model0, rc.quantization, k,
                                         n_k, 0))
    agg = server.aggregate(encrypted, keys.public)
    error = np.abs(flatten_weights(client.decrypt_and_load(agg, keys,
                                                           world.model0))
                   - server.aggregate_plain(plain)).max()
    upd = encrypted[0]
    return {
        "upload_bytes": frame_bytes(transport.MSG_UPDATE,
                                    transport.encode_update(upd)),
        "download_bytes": frame_bytes(transport.MSG_GLOBAL,
                                      transport.encode_global(agg)),
        "key_bytes": (len(serialize_public_key(keys.public))
                      + len(serialize_galois_keys(keys.public))),
        "precision_bits": bits(error),
        "fhe.upload_level": upd.chunks[0].level,
        "fhe.agg_level": agg[0].level,
        "fhe.ct_bytes": len(serialize_ciphertext(upd.chunks[0])),
    }


def bits(error: float) -> float:
    """-log2 of an error; an exact zero would be infinite, so cap at 64."""
    return -math.log2(max(float(error), 2.0 ** -64))


# --- episodes -------------------------------------------------------------

def arm_span(tracer, arm: str, name: str):
    if tracer is None:
        return nullcontext()
    tracer.arm = arm
    return tracer.span(name, root=True)


def direct_episode(world: World, tracer) -> Episode:
    """Both arms in lockstep over the direct transport, one round each."""
    models = {arm: world.model0 for arm in ARMS}
    bounds = {arm: [] for arm in ARMS}
    cpu = {arm: [] for arm in ARMS}
    drift, acc = [], {}
    for r in range(world.rc.rounds):
        for arm in ARMS:
            with arm_span(tracer, arm, "federation.round"):
                start, cpu_start = time.perf_counter(), time.process_time()
                models[arm], rows = rounds.run_round(
                    models[arm], world.rc, world.parts, world.test,
                    world.keys, r, mode=arm)
                bounds[arm].append((start, time.perf_counter()))
                cpu[arm].append((cpu_start, time.process_time()))
            acc[arm] = rows[-1]["test_acc"]
        diff = (flatten_weights(models["fhe"])
                - flatten_weights(models["plaintext"]))
        drift.append(float(np.abs(diff).max()))
    return Episode(bounds, cpu, drift, acc)


class RoundEnds:
    """Metrics sink that stamps the wall and process CPU time when the
    server records each round's global row, which is when the round
    ends."""

    def __init__(self):
        self.ends = []
        self.cpu_ends = []

    def write(self, row: dict) -> None:
        if row["actor"] == "global":
            self.ends.append(time.perf_counter())
            self.cpu_ends.append(time.process_time())


@contextmanager
def loaded_models():
    """Record, per client thread, the flattened global model each client
    loads after every round of a transport run."""
    loaded = defaultdict(list)
    originals = {name: getattr(runner, name)
                 for name in ("decrypt_and_load", "unflatten_weights")}

    def recording(fn):
        def load(*args, **kwargs):
            m = fn(*args, **kwargs)
            loaded[threading.get_ident()].append(flatten_weights(m))
            return m
        return load

    for name, fn in originals.items():
        setattr(runner, name, recording(fn))
    try:
        yield loaded
    finally:
        for name, fn in originals.items():
            setattr(runner, name, fn)


def socket_episode(world: World, tracer) -> Episode:
    """Each arm as one TCP federation of rc.rounds rounds."""
    n_rounds = world.rc.rounds
    bounds, cpu, weights, acc = {}, {}, {}, {}
    for arm in ARMS:
        ends = RoundEnds()
        with (arm_span(tracer, arm, "federation.run"),
              loaded_models() as loaded):
            start, cpu_start = time.perf_counter(), time.process_time()
            _final, history = runner.run_socket_federation(
                world.model0, world.rc, world.parts, world.test, world.keys,
                mode=arm, sink=ends)
        if len(ends.ends) != n_rounds:
            raise RuntimeError(f"{arm}: {len(ends.ends)} of {n_rounds} "
                               "rounds completed")
        bounds[arm] = list(zip([start] + ends.ends[:-1], ends.ends))
        cpu[arm] = list(zip([cpu_start] + ends.cpu_ends[:-1], ends.cpu_ends))
        per_client = list(loaded.values())
        if (len(per_client) != world.rc.client_count
                or any(len(w) != n_rounds for w in per_client)):
            raise RuntimeError(f"{arm}: clients did not each load "
                               f"{n_rounds} global models")
        for other in per_client[1:]:
            if not all(np.array_equal(a, b)
                       for a, b in zip(per_client[0], other)):
                raise RuntimeError(f"{arm}: clients loaded different "
                                   "global models")
        weights[arm] = per_client[0]
        acc[arm] = history[-1]["test_acc"]
    drift = [float(np.abs(f - p).max())
             for f, p in zip(weights["fhe"], weights["plaintext"])]
    return Episode(bounds, cpu, drift, acc)


EPISODES = {"direct": direct_episode, "socket": socket_episode}


def problems(ep: Episode, w: Workload) -> list[str]:
    found = []
    worst = max(ep.drift)
    if not worst <= MAX_DRIFT:
        found.append(f"weight drift {worst:.3g} > {MAX_DRIFT}")
    gap = abs(ep.acc["fhe"] - ep.acc["plaintext"])
    if not gap <= MAX_ACC_GAP:
        found.append(f"accuracy gap {gap:.4f} > {MAX_ACC_GAP}")
    if not ep.acc["plaintext"] >= w.min_plain_acc:
        found.append(f"plaintext accuracy {ep.acc['plaintext']:.4f} "
                     f"< {w.min_plain_acc}")
    return found


def run_episode(world: World, w: Workload, tracer=None):
    """One episode and its checks. Returns (episode, failed count)."""
    ep = EPISODES[w.transport](world, tracer)
    for arm in ARMS:
        print(f"{arm} rounds after round 0: wall "
              f"{fmt(round_times(ep, arm))} s, cpu "
              f"{fmt(round_times(ep, arm, 'cpu'))} s")
    found = problems(ep, w)
    if found:
        print("check failed: " + "; ".join(found), file=sys.stderr)
    return ep, int(bool(found))


def fmt(values) -> str:
    return "[" + ", ".join(f"{v:.3f}" for v in values) + "]"


# --- metrics --------------------------------------------------------------

def round_times(ep: Episode, arm: str, clock: str = "wall") -> list:
    """Round durations of an arm, without round 0, in wall or process
    CPU seconds."""
    spans = ep.bounds[arm] if clock == "wall" else ep.cpu[arm]
    return [end - start for start, end in spans[1:]]


def end_to_end(setup: dict, probe: dict, ep: Episode, failed: int) -> dict:
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": statistics.median(setup["setup_s"]),
        "fhe_round_cpu_s": statistics.median(round_times(ep, "fhe", "cpu")),
        "plain_round_cpu_s": statistics.median(
            round_times(ep, "plaintext", "cpu")),
        "upload_bytes": probe["upload_bytes"],
        "download_bytes": probe["download_bytes"],
        "key_bytes": probe["key_bytes"],
        "peak_rss_mb": peak_kib / 1024.0,
        "fhe_test_acc": ep.acc["fhe"],
        "precision_bits": probe["precision_bits"],
        "pass_share": 1.0 - failed,
    }


def install_tracing(tracer: Tracer) -> None:
    """Wrap each layer's public functions under the names their callers
    import them by."""
    for op in ("encode", "encrypt", "decrypt", "decode"):
        tracer.wrap(client, op, f"fhe.{op}")
    for op in ("encode_scalar", "mul_plain", "add_ct", "rescale"):
        tracer.wrap(server, op, f"fhe.{op}")
    tracer.wrap(transport, "serialize_ciphertext", "fhe.serial.serialize")
    tracer.wrap(transport, "deserialize_ciphertext",
                "fhe.serial.deserialize")

    def batch_rows(result, *args):
        return result.shape[0]

    # forward calls the simulator through model; the gradients call it
    # through qsim
    tracer.wrap(model_mod, "run_pqc_batch", "qsim.run_pqc_batch", batch_rows)
    tracer.wrap(qsim, "run_pqc_batch", "qsim.run_pqc_batch", batch_rows)
    for fn in ("grad_angles_batch", "grad_features_batch"):
        tracer.wrap(model_mod, fn, f"qsim.{fn}")
    for fn in ("forward", "loss_and_grads"):
        tracer.wrap(model_mod, fn, f"model.{fn}")
    tracer.wrap(rounds, "train_epochs", "model.train_epochs")

    tracer.wrap(client, "quantize", "federation.quantize")
    tracer.wrap(rounds, "encrypt_model", "federation.encrypt_model")
    tracer.wrap(server, "aggregate", "federation.aggregate")
    tracer.wrap(server, "aggregate_plain", "federation.aggregate_plain")
    for mod in (rounds, runner):
        tracer.wrap(mod, "evaluate", "model.evaluate")
        tracer.wrap(mod, "decrypt_and_load", "federation.decrypt_and_load")
    tracer.wrap(transport, "encode_frame", "federation.transport.frame",
                lambda frame, msg: (msg.mtype, len(frame)))
    tracer.wrap(transport.SocketChannel, "recv", "federation.transport.recv")


FHE_OPS = ("encode", "encrypt", "encode_scalar", "mul_plain", "add_ct",
           "rescale", "decrypt", "decode")
QSIM_FNS = ("run_pqc_batch", "grad_angles_batch", "grad_features_batch")
MODEL_FNS = ("loss_and_grads", "forward", "evaluate", "train_epochs")
# federation step -> the arm whose rounds it is averaged over
FEDERATION_STEPS = {"quantize": ("fhe",), "encrypt_model": ("fhe",),
                    "aggregate": ("fhe",), "aggregate_plain": ("plaintext",),
                    "decrypt_and_load": ("fhe",)}
UP_TYPES = (transport.MSG_JOIN, transport.MSG_UPDATE, transport.MSG_METRICS)


def frame_totals(spans, arm: str) -> dict:
    """Frames and bytes each way, from the encode_frame spans of an arm."""
    out = {"frames": 0, "up": 0, "down": 0}
    for s in spans:
        if s.name == "federation.transport.frame" and s.arm == arm:
            mtype, size = s.meta
            out["frames"] += 1
            out["up" if mtype in UP_TYPES else "down"] += size
    return out


def server_waits(spans, ep: Episode, arm: str = "fhe") -> list:
    """Per round after round 0: time from round start until aggregation
    starts, which is when the last update has arrived."""
    aggs = sorted(s.start for s in spans
                  if s.name == "federation.aggregate" and s.arm == arm)
    waits = []
    for start, end in ep.bounds[arm][1:]:
        inside = [t for t in aggs if start <= t < end]
        if inside:
            waits.append(inside[0] - start)
    return waits


def per_layer(tracer: Tracer, traced: Episode, untraced: Episode,
              setup: dict, probe: dict,
              clients: int) -> dict:
    spans = tracer.spans
    own = self_times(spans)
    n_rounds = {arm: len(traced.bounds[arm]) for arm in ARMS}
    calls, self_s, busy_s, rows = (defaultdict(float) for _ in range(4))
    for s in spans:
        key = (s.name, s.arm)
        calls[key] += 1
        self_s[key] += own[s.sid]
        busy_s[key] += s.end - s.start
        if s.name == "qsim.run_pqc_batch":
            rows[key] += s.meta

    def per_round(table, name, arms=ARMS, scale=1.0):
        return (scale * sum(table[(name, a)] for a in arms)
                / sum(n_rounds[a] for a in arms))

    out = {"fhe.keygen_s": statistics.median(setup["fhe.keygen_s"]),
           "data.build_s": statistics.median(setup["data.build_s"])}
    for key in ("fhe.upload_level", "fhe.agg_level", "fhe.ct_bytes"):
        out[key] = probe[key]
    for op in FHE_OPS:
        out[f"fhe.{op}.calls"] = per_round(calls, f"fhe.{op}", ("fhe",))
        out[f"fhe.{op}.self_ms"] = per_round(self_s, f"fhe.{op}", ("fhe",),
                                             1e3)
    for op in ("serialize", "deserialize"):
        out[f"fhe.serial.{op}_ms"] = per_round(busy_s, f"fhe.serial.{op}",
                                               ("fhe",), 1e3)
    for fn in QSIM_FNS:
        out[f"qsim.{fn}.calls"] = per_round(calls, f"qsim.{fn}")
        out[f"qsim.{fn}.self_ms"] = per_round(self_s, f"qsim.{fn}",
                                              scale=1e3)
    out["qsim.circuit_rows"] = per_round(rows, "qsim.run_pqc_batch")
    for fn in MODEL_FNS:
        out[f"model.{fn}.self_ms"] = per_round(self_s, f"model.{fn}",
                                               scale=1e3)
    for step, arms in FEDERATION_STEPS.items():
        out[f"federation.{step}.busy_ms"] = per_round(
            busy_s, f"federation.{step}", arms, 1e3)
    waits = server_waits(spans, traced)
    out["federation.server_wait_ms"] = (1e3 * statistics.median(waits)
                                        if waits else 0.0)
    frames = frame_totals(spans, "fhe")
    out["federation.transport.frames"] = frames["frames"] / n_rounds["fhe"]
    out["federation.transport.bytes_up"] = (frames["up"]
                                            / (n_rounds["fhe"] * clients))
    out["federation.transport.bytes_down"] = (frames["down"]
                                              / (n_rounds["fhe"] * clients))
    out["federation.transport.recv_wait_ms"] = per_round(
        busy_s, "federation.transport.recv", ("fhe",), 1e3)

    plain_fhe = round_times(untraced, "fhe")
    start, end = untraced.bounds["fhe"][0]
    out["federation.round0_s"] = end - start
    tail = tail_percentile(plain_fhe)
    # with ten or fewer samples no percentile qualifies; report 0
    out["federation.round.tail_pct"], out["federation.round.tail_s"] = (
        tail if tail is not None else (0.0, 0.0))
    out["federation.round.samples"] = len(plain_fhe)
    out["federation.fhe_round_wall_s"] = statistics.median(plain_fhe)
    out["federation.plain_round_wall_s"] = statistics.median(
        round_times(untraced, "plaintext"))
    out["federation.arm_drift_bits"] = bits(
        max(untraced.drift + traced.drift))
    out["trace.overhead_s"] = (
        statistics.median(round_times(traced, "fhe", "cpu"))
        - statistics.median(round_times(untraced, "fhe", "cpu")))
    return out


# --- output ---------------------------------------------------------------

def declared_units(section: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def result(values: dict, section: str, attempted: int, failed: int) -> dict:
    """The result object, with units from BENCHMARK.json. Every declared
    metric must be measured and every value finite."""
    units = declared_units(section)
    if set(values) != set(units):
        raise RuntimeError(f"measured {sorted(set(values) ^ set(units))} "
                           "differ from BENCHMARK.json")
    bad = [n for n, v in values.items() if not math.isfinite(v)]
    if bad:
        raise RuntimeError(f"non-finite metrics: {bad}")
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed,
            "metrics": {n: {"value": float(values[n]), "unit": units[n]}
                        for n in units}}


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def environment(workload: str, seed: int) -> dict:
    return {"git_sha": git_sha(), "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "workload": workload, "seed": seed,
            "src_lines": sum(len(p.read_text().splitlines())
                             for p in SRC.rglob("*.py"))}


def write_spans(tracer: Tracer, workload: str, seed: int) -> Path:
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{workload}-{seed}.jsonl"
    with open(path, "w") as fh:
        for s in tracer.spans:
            fh.write(json.dumps({"id": s.sid, "name": s.name,
                                 "start": s.start, "end": s.end,
                                 "parent": s.parent, "thread": s.thread,
                                 "arm": s.arm, "meta": s.meta}) + "\n")
    return path


def run_workload(name: str, w: Workload, seed: int, seconds: float,
                 trace: bool) -> dict:
    print("env " + json.dumps(environment(name, seed)))
    setup = defaultdict(list)
    n_rounds = rounds_for(w, seconds / 2 if trace else seconds)
    for _ in range(SETUP_REPEATS // 2):
        world = set_up(w, seed, n_rounds, setup)
    probe = aggregation_probe(world)
    if not trace:
        ep, failed = run_episode(world, w)
    else:
        untraced, fail_u = run_episode(world, w)
        tracer = Tracer()
        install_tracing(tracer)
        try:
            traced, fail_t = run_episode(world, w, tracer)
        finally:
            tracer.restore()
        print(f"spans {len(tracer.spans)} written to "
              f"{write_spans(tracer, name, seed)}")
    for _ in range(SETUP_REPEATS - SETUP_REPEATS // 2):
        set_up(w, seed, n_rounds, setup)
    if not trace:
        values = end_to_end(setup, probe, ep, failed)
        attempted, section = 1, "end_to_end"
    else:
        values = per_layer(tracer, traced, untraced, setup, probe,
                           w.clients)
        attempted, failed, section = 2, fail_u + fail_t, "per_layer"
    out = result(values, section, attempted, failed)
    for metric, v in out["metrics"].items():
        print(f"{metric} = {v['value']:.6g} {v['unit']}")
    return out


def run_all(args) -> dict:
    """Each workload in its own process, so peak memory and caches are
    its own. Metric names are prefixed with the workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900, check=True)
        lines = proc.stdout.splitlines()
        print("\n".join(f"{name}: {line}" for line in lines[:-1]))
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for metric, v in res["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = v
    return combined


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2 ** 63:
        ap.error("--seed must be in [0, 2^63)")
    if args.workload == "all":
        out = run_all(args)
    else:
        out = run_workload(args.workload, WORKLOADS[args.workload],
                           args.seed, args.seconds, bool(args.trace))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
