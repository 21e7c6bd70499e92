"""High-level run assembly: datasets, keys, model, and the dispatch to
the configured transport. Used by the CLI and by the demo scripts."""

from __future__ import annotations

import logging
import time
from pathlib import Path

from .config import RunConfig
from .data import Dataset, generate_synthetic, load_csv, partition, stratified_split
from .errors import ConfigError
from .fhe.keys import KeyMaterial, keygen
from .fhe.serial import (deserialize_key_material, serialize_public_key,
                         serialize_secret_key)
from .federation.client import check_capacity
from .federation.metrics import MetricsSink
from .federation.rounds import (RoundConfig, federated_rounds,
                                run_federated_training)
from .federation.runner import run_socket_federation
from .federation.server import MODES
from .model import HybridModel, init_model

log = logging.getLogger("cipherfed")

KEY_FILES = {"secret": "secret.key", "public": "public.key"}


def build_datasets(cfg: RunConfig):
    """(per-client train datasets, shared test dataset)."""
    d = cfg.data
    if d.kind == "csv":
        whole = load_csv(d.path, d.label_column)
        train, test = stratified_split(whole, seed=cfg.seed)
    else:
        train, test = generate_synthetic(d.kind, d.samples, d.noise,
                                         seed=cfg.seed, classes=d.classes,
                                         dims=d.dims)
    parts = partition(train, d.partition)
    log.info("data: %d train / %d test across %d clients",
             len(train), len(test), len(parts))
    return parts, test


def build_keys(cfg: RunConfig) -> KeyMaterial:
    """Load key material from cfg.key_dir, or derive it from the seed."""
    if cfg.key_dir is not None:
        kd = Path(cfg.key_dir)
        secret = (kd / KEY_FILES["secret"]).read_bytes()
        public = (kd / KEY_FILES["public"]).read_bytes()
        log.info("keys: loaded from %s", kd)
        return deserialize_key_material(secret, public, cfg.encryption)
    log.info("keys: generating from seed %d", cfg.seed)
    return keygen(cfg.encryption, rng_seed=cfg.seed)


def write_key_files(keys: KeyMaterial, out_dir) -> dict[str, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {name: out / fname for name, fname in KEY_FILES.items()}
    paths["secret"].write_bytes(serialize_secret_key(keys))
    paths["public"].write_bytes(serialize_public_key(keys.public))
    return paths


def build_model(cfg: RunConfig, feature_count: int,
                class_count: int) -> HybridModel:
    return init_model(feature_count, cfg.arch, class_count,
                      rng_seed=cfg.seed)


def round_config(cfg: RunConfig, parts) -> RoundConfig:
    """The round config of a run on `parts`. Its clients and sample
    total must fit a level-0 encrypted sum under the run's encryption
    and quantization, whichever arm runs, so that one config serves
    both."""
    rc = RoundConfig.for_datasets(
        parts, rounds=cfg.rounds, learning_rate=cfg.learning_rate,
        batch_size=cfg.batch_size, epochs_per_round=cfg.epochs_per_round,
        base_seed=cfg.seed, convergence_delta=cfg.convergence_delta,
        quantization=cfg.quantization,
        deterministic_timing=cfg.deterministic_timing)
    check_capacity(rc.sample_counts, cfg.encryption, cfg.quantization)
    return rc


def _start(cfg: RunConfig, parts, test: Dataset):
    """The initial model and the round config of a run on `parts`."""
    if len(parts) != cfg.clients:
        raise ConfigError(f"partition produced {len(parts)} shares for "
                          f"{cfg.clients} clients")
    model0 = build_model(cfg, parts[0].features.shape[1], test.class_count)
    return model0, round_config(cfg, parts)


def execute_run(cfg: RunConfig, mode: str | None = None,
                sink: MetricsSink | None = None, keys=None, parts=None,
                test: Dataset | None = None):
    """Run one federation arm end to end.

    Returns (final model, metric rows, wall_seconds). Pass keys/parts/test
    to reuse work between arms (the compare command does).
    """
    mode = mode or cfg.mode
    if parts is None or test is None:
        parts, test = build_datasets(cfg)
    model0, rc = _start(cfg, parts, test)
    if keys is None and mode == "fhe":
        keys = build_keys(cfg)

    t0 = time.perf_counter()
    if cfg.transport == "direct":
        final, history = run_federated_training(model0, rc, parts, test,
                                                keys, mode=mode, sink=sink)
    else:
        final, history = run_socket_federation(model0, rc, parts, test,
                                               keys, mode=mode, sink=sink)
    wall = time.perf_counter() - t0
    log.info("run complete: mode=%s rounds=%d wall=%.2fs",
             mode, cfg.rounds, wall)
    return final, history, wall


def summarize_history(history) -> dict:
    """Final-round summary: mean client train metrics plus the last
    global test metrics and the number of rounds completed."""
    if not history:
        return {"train_acc": None, "train_loss": None,
                "test_acc": None, "test_loss": None, "rounds_completed": 0}
    last_round = max(r["round"] for r in history)
    clients = [r for r in history
               if r["round"] == last_round and r["actor"] != "global"]
    glob = [r for r in history
            if r["round"] == last_round and r["actor"] == "global"]
    train_acc = (sum(r["train_acc"] for r in clients) / len(clients)
                 if clients else None)
    train_loss = (sum(r["train_loss"] for r in clients) / len(clients)
                  if clients else None)
    out = {"train_acc": train_acc, "train_loss": train_loss,
           "test_acc": None, "test_loss": None,
           "rounds_completed": last_round + 1}
    if glob:
        out["test_acc"] = glob[-1]["test_acc"]
        out["test_loss"] = glob[-1]["test_loss"]
    return out


def _lockstep(cfg: RunConfig, parts, test: Dataset, keys, sinks: dict):
    """Both arms on the direct transport, one round of each in turn.
    Returns each arm's metric rows and the wall seconds of its rounds."""
    model0, rc = _start(cfg, parts, test)
    runs = {mode: federated_rounds(model0, rc, parts, test, keys, mode,
                                   sinks[mode]) for mode in MODES}
    history = {mode: [] for mode in MODES}
    wall = dict.fromkeys(MODES, 0.0)
    while runs:
        for mode in list(runs):
            t0 = time.perf_counter()
            step = next(runs[mode], None)
            wall[mode] += time.perf_counter() - t0
            if step is None:
                del runs[mode]
            else:
                history[mode].extend(step[1])
    return history, wall


def compare_runs(cfg: RunConfig, sink_fhe: MetricsSink | None = None,
                 sink_plain: MetricsSink | None = None) -> dict:
    """Run the encrypted and plaintext arms with identical seeds and
    report the accuracy gap and wall times.

    On the direct transport the arms alternate round by round, and an
    arm's wall time is the sum of its own rounds, so a host that slows
    down during the run slows both arms alike. A socket arm is one
    federation whose coordinator and client threads drive all of its
    rounds, so on that transport the arms run one after the other."""
    parts, test = build_datasets(cfg)
    keys = build_keys(cfg)
    sinks = {"fhe": sink_fhe, "plaintext": sink_plain}
    if cfg.transport == "direct":
        history, wall = _lockstep(cfg, parts, test, keys, sinks)
    else:
        history, wall = {}, {}
        for mode in MODES:
            _model, history[mode], wall[mode] = execute_run(
                cfg, mode=mode, sink=sinks[mode], keys=keys, parts=parts,
                test=test)
    report = {}
    for mode in MODES:
        report[mode] = summarize_history(history[mode])
        report[mode]["wall_seconds"] = wall[mode]
    gap = None
    if (report["fhe"]["test_acc"] is not None
            and report["plaintext"]["test_acc"] is not None):
        gap = abs(report["fhe"]["test_acc"] - report["plaintext"]["test_acc"])
    report["accuracy_gap"] = gap
    return report
