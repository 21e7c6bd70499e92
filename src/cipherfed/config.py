"""Declarative run configuration.

A run is described by one YAML document with sections: encryption,
federation, model, data, output, plus top-level mode/seed/transport.
Validation is total: every section is checked (and the derived domain
objects constructed) before any computation or file write happens.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .errors import ConfigError
from .data import PartitionSpec
from .fhe.params import EncryptionParams, default_params
from .federation.quantize import QuantizationSpec
from .federation.rounds import MODES
from .qsim import PqcArchitecture

TRANSPORTS = ("direct", "socket")
DATA_KINDS = ("blobs", "two_moons", "xor", "csv")


@dataclass(frozen=True)
class DataConfig:
    kind: str = "blobs"
    samples: int = 1500
    noise: float = 0.5
    classes: int = 3
    dims: int = 2
    path: str | None = None
    label_column: str | None = None
    partition: PartitionSpec = field(default_factory=lambda: PartitionSpec(1))


@dataclass(frozen=True)
class OutputConfig:
    metrics_path: str = "metrics.jsonl"
    checkpoint_path: str = "model.ckpt"
    report_path: str | None = None


@dataclass(frozen=True)
class RunConfig:
    mode: str
    seed: int
    transport: str
    deterministic_timing: bool
    encryption: EncryptionParams
    rotation_steps: tuple[int, ...]
    clients: int
    rounds: int
    epochs_per_round: int
    learning_rate: float
    batch_size: int
    convergence_delta: float | None
    quantization: QuantizationSpec
    arch: PqcArchitecture
    data: DataConfig
    output: OutputConfig
    key_dir: str | None


def _section(doc: dict, name: str) -> dict:
    sec = doc.get(name, {})
    if sec is None:
        sec = {}
    if not isinstance(sec, dict):
        raise ConfigError(f"section {name!r} must be a mapping")
    return sec


def _get(sec: dict, key: str, default, caster, where: str):
    val = sec.get(key, default)
    if val is None:
        return None
    try:
        return caster(val)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}.{key}: {exc}") from None


def parse_config(doc: dict, overrides: dict | None = None) -> RunConfig:
    """Build and validate a RunConfig from a parsed YAML mapping.

    `overrides` maps dotted keys (e.g. "mode", "federation.rounds") to
    replacement values; command-line flags go through here.
    """
    if not isinstance(doc, dict):
        raise ConfigError("configuration root must be a mapping")
    doc = {k: (dict(v) if isinstance(v, dict) else v) for k, v in doc.items()}
    for dotted, value in (overrides or {}).items():
        parts = dotted.split(".")
        target = doc
        for p in parts[:-1]:
            target = target.setdefault(p, {})
            if not isinstance(target, dict):
                raise ConfigError(f"cannot override {dotted}")
        target[parts[-1]] = value

    mode = doc.get("mode", "fhe")
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    transport = doc.get("transport", "direct")
    if transport not in TRANSPORTS:
        raise ConfigError(f"transport must be one of {TRANSPORTS}, "
                          f"got {transport!r}")
    seed = _get(doc, "seed", 0, int, "top level")
    if seed is None or seed < 0:
        raise ConfigError("seed must be a non-negative integer")
    det = doc.get("deterministic_timing", False)
    if not isinstance(det, bool):
        raise ConfigError("deterministic_timing must be true or false")

    enc = _section(doc, "encryption")
    ring = _get(enc, "ring_degree", 4096, int, "encryption")
    scale_bits = _get(enc, "scale_bits", 40, int, "encryption")
    chain_bits = enc.get("chain_bits", [60, 40, 40])
    if (not isinstance(chain_bits, (list, tuple)) or len(chain_bits) < 2
            or not all(isinstance(b, int) for b in chain_bits)):
        raise ConfigError("encryption.chain_bits must list >= 2 integer "
                          "bit sizes")
    try:
        params = default_params(ring_degree=ring, scale_bits=scale_bits,
                                chain_bits=tuple(chain_bits))
    except Exception as exc:
        raise ConfigError(f"encryption: {exc}") from None
    # the federation never rotates, so no Galois keys unless asked for
    steps = enc.get("rotation_steps", [])
    if not isinstance(steps, (list, tuple)):
        raise ConfigError("encryption.rotation_steps must be a list")
    try:
        rotation_steps = tuple(int(s) for s in steps)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"encryption.rotation_steps: {exc}") from None
    for s in rotation_steps:
        if not 1 <= s < params.slot_count:
            raise ConfigError(f"rotation step {s} outside "
                              f"[1, {params.slot_count})")

    fed = _section(doc, "federation")
    clients = _get(fed, "clients", 2, int, "federation")
    rounds = _get(fed, "rounds", 5, int, "federation")
    epochs = _get(fed, "epochs_per_round", 1, int, "federation")
    lr = _get(fed, "learning_rate", 0.1, float, "federation")
    batch = _get(fed, "batch_size", 32, int, "federation")
    delta = _get(fed, "convergence_delta", None, float, "federation")
    if clients < 1:
        raise ConfigError("federation.clients must be >= 1")
    if rounds < 0:
        raise ConfigError("federation.rounds must be >= 0")
    if epochs < 0:
        raise ConfigError("federation.epochs_per_round must be >= 0")
    if not lr > 0:
        raise ConfigError("federation.learning_rate must be positive")
    if batch < 1:
        raise ConfigError("federation.batch_size must be >= 1")
    if delta is not None and not delta > 0:
        raise ConfigError("federation.convergence_delta must be positive "
                          "when set")
    q = _section(fed, "quantization")
    try:
        quant = QuantizationSpec(
            fractional_bits=_get(q, "fractional_bits", 16, int,
                                 "federation.quantization"),
            clip_range=_get(q, "clip_range", 8.0, float,
                            "federation.quantization"))
    except Exception as exc:
        raise ConfigError(f"federation.quantization: {exc}") from None

    mdl = _section(doc, "model")
    qubits = _get(mdl, "qubits", 3, int, "model")
    depth = _get(mdl, "depth", 2, int, "model")
    axes = mdl.get("axes")
    readout = mdl.get("readout")
    try:
        arch = PqcArchitecture(
            qubit_count=qubits, depth=depth,
            axes=tuple(tuple(row) for row in axes) if axes else (),
            readout=tuple(int(r) for r in readout) if readout else ())
    except Exception as exc:
        raise ConfigError(f"model: {exc}") from None

    dat = _section(doc, "data")
    kind = dat.get("kind", "blobs")
    if kind not in DATA_KINDS:
        raise ConfigError(f"data.kind must be one of {DATA_KINDS}")
    part = _section(dat, "partition")
    strategy = part.get("strategy", "iid")
    try:
        pspec = PartitionSpec(client_count=clients, strategy=strategy,
                              alpha=_get(part, "alpha", 0.5, float,
                                         "data.partition"),
                              rng_seed=seed)
    except Exception as exc:
        raise ConfigError(f"data.partition: {exc}") from None
    dcfg = DataConfig(kind=kind,
                      samples=_get(dat, "samples", 1500, int, "data"),
                      noise=_get(dat, "noise", 0.5, float, "data"),
                      classes=_get(dat, "classes", 3, int, "data"),
                      dims=_get(dat, "dims", 2, int, "data"),
                      path=dat.get("path"),
                      label_column=dat.get("label_column"),
                      partition=pspec)
    if kind == "csv":
        if not dcfg.path or not dcfg.label_column:
            raise ConfigError("data.kind=csv requires data.path and "
                              "data.label_column")
    elif not dcfg.noise >= 0:
        raise ConfigError("data.noise must be >= 0")
    elif dcfg.classes < 1:
        raise ConfigError("data.classes must be >= 1")
    elif dcfg.samples < dcfg.classes:
        raise ConfigError("data.samples must cover every class")

    out = _section(doc, "output")
    ocfg = OutputConfig(
        metrics_path=str(out.get("metrics_path", "metrics.jsonl")),
        checkpoint_path=str(out.get("checkpoint_path", "model.ckpt")),
        report_path=out.get("report_path"))

    keys_sec = _section(doc, "keys")
    key_dir = keys_sec.get("dir")

    return RunConfig(mode=mode, seed=seed, transport=transport,
                     deterministic_timing=det, encryption=params,
                     rotation_steps=rotation_steps, clients=clients,
                     rounds=rounds, epochs_per_round=epochs,
                     learning_rate=lr, batch_size=batch,
                     convergence_delta=delta, quantization=quant, arch=arch,
                     data=dcfg, output=ocfg,
                     key_dir=str(key_dir) if key_dir else None)


def load_config(path, overrides: dict | None = None) -> RunConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        doc = yaml.safe_load(p.read_text())
    except yaml.YAMLError as exc:
        raise ConfigError(f"{p}: invalid YAML: {exc}") from None
    if doc is None:
        doc = {}
    return parse_config(doc, overrides)
