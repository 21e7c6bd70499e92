"""Declarative run configuration.

A run is described by one YAML document with sections: encryption,
federation, model, data, output, plus top-level mode/seed/transport.
Validation is total: every section is checked (and the derived domain
objects constructed) before any computation or file write happens.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .errors import ConfigError
from .data import PartitionSpec
from .fhe.params import EncryptionParams, default_params
from .federation.quantize import QuantizationSpec
from .federation.server import MODES
from .federation.transport import MAX_WIRE_COUNT
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


def _num(value, name: str, kind: type = float, low=None, above=None):
    """`value` as a finite `kind` (int or float) of at least `low` and
    above `above`; anything else, a bool, a string and null included,
    raises ConfigError naming the dotted key."""
    try:
        ok = not isinstance(value, bool) and math.isfinite(value) and (
            kind is float or float(value).is_integer())
    except (TypeError, OverflowError):
        ok = False
    if not ok:
        what = "an integer" if kind is int else "a finite number"
        raise ConfigError(f"{name} must be {what}, got {value!r}")
    if low is not None and value < low:
        raise ConfigError(f"{name} must be >= {low}, got {value}")
    if above is not None and not value > above:
        raise ConfigError(f"{name} must be > {above}, got {value}")
    return kind(value)


def _ints(value, name: str) -> tuple[int, ...]:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{name} must be a list, got {value!r}")
    return tuple(_num(v, f"{name} item", int) for v in value)


def _str(value, name: str, optional: bool = False) -> str | None:
    """A non-empty string, or None for an optional key left out."""
    if value is None and optional:
        return None
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{name} must be a non-empty string, "
                          f"got {value!r}")
    return value


def parse_config(doc: dict, overrides: dict | None = None) -> RunConfig:
    """Build and validate a RunConfig from a parsed YAML mapping.

    `overrides` maps dotted keys (e.g. "mode", "federation.rounds") to
    replacement values; command-line flags go through here.
    """
    if not isinstance(doc, dict):
        raise ConfigError("configuration root must be a mapping")
    doc = copy.deepcopy(doc)  # no override reaches the caller's mapping
    for dotted, value in (overrides or {}).items():
        parts = dotted.split(".")
        target = doc
        for p in parts[:-1]:
            if target.get(p) is None:  # YAML's `section:` with no keys
                target[p] = {}
            target = target[p]
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
    seed = _num(doc.get("seed", 0), "seed", int, low=0)
    if seed >= 2 ** 63:  # derive_seed packs it as a signed 64-bit integer
        raise ConfigError(f"seed must be < 2^63, got {seed}")
    det = doc.get("deterministic_timing", False)
    if not isinstance(det, bool):
        raise ConfigError("deterministic_timing must be true or false")

    enc = _section(doc, "encryption")
    chain_bits = _ints(enc.get("chain_bits", [60, 40, 40]),
                       "encryption.chain_bits")
    if len(chain_bits) < 2:
        raise ConfigError("encryption.chain_bits must list >= 2 bit sizes")
    ring = _num(enc.get("ring_degree", 4096), "encryption.ring_degree", int)
    scale_bits = _num(enc.get("scale_bits", 40), "encryption.scale_bits", int)
    try:
        params = default_params(ring_degree=ring, scale_bits=scale_bits,
                                chain_bits=chain_bits)
    except Exception as exc:
        raise ConfigError(f"encryption: {exc}") from None

    fed = _section(doc, "federation")
    clients = _num(fed.get("clients", 2), "federation.clients", int, low=1)
    rounds = _num(fed.get("rounds", 5), "federation.rounds", int, low=0)
    for key, value in (("clients", clients), ("rounds", rounds)):
        if transport == "socket" and value > MAX_WIRE_COUNT:
            raise ConfigError(f"federation.{key} must be <= {MAX_WIRE_COUNT}"
                              f" on the socket transport, got {value}")
    epochs = _num(fed.get("epochs_per_round", 1),
                  "federation.epochs_per_round", int, low=0)
    lr = _num(fed.get("learning_rate", 0.1), "federation.learning_rate",
              above=0)
    batch = _num(fed.get("batch_size", 32), "federation.batch_size", int,
                 low=1)
    delta = fed.get("convergence_delta")
    if delta is not None:
        delta = _num(delta, "federation.convergence_delta", above=0)
    q = _section(fed, "quantization")
    bits = _num(q.get("fractional_bits", 16),
                "federation.quantization.fractional_bits", int)
    clip = _num(q.get("clip_range", 8.0), "federation.quantization.clip_range")
    try:
        quant = QuantizationSpec(fractional_bits=bits, clip_range=clip)
    except Exception as exc:
        raise ConfigError(f"federation.quantization: {exc}") from None

    mdl = _section(doc, "model")
    qubits = _num(mdl.get("qubits", 3), "model.qubits", int)
    depth = _num(mdl.get("depth", 2), "model.depth", int)
    axes = mdl.get("axes")
    readout = _ints(mdl.get("readout", []), "model.readout")
    try:
        arch = PqcArchitecture(
            qubit_count=qubits, depth=depth,
            axes=tuple(tuple(row) for row in axes) if axes else (),
            readout=readout)
    except Exception as exc:
        raise ConfigError(f"model: {exc}") from None

    dat = _section(doc, "data")
    kind = dat.get("kind", "blobs")
    if kind not in DATA_KINDS:
        raise ConfigError(f"data.kind must be one of {DATA_KINDS}")
    part = _section(dat, "partition")
    strategy = part.get("strategy", "iid")
    alpha = _num(part.get("alpha", 0.5), "data.partition.alpha")
    try:
        pspec = PartitionSpec(client_count=clients, strategy=strategy,
                              alpha=alpha, rng_seed=seed)
    except Exception as exc:
        raise ConfigError(f"data.partition: {exc}") from None
    dcfg = DataConfig(
        kind=kind,
        samples=_num(dat.get("samples", 1500), "data.samples", int),
        noise=_num(dat.get("noise", 0.5), "data.noise", low=0),
        classes=_num(dat.get("classes", 3), "data.classes", int, low=1),
        dims=_num(dat.get("dims", 2), "data.dims", int, low=2),
        path=_str(dat.get("path"), "data.path", optional=True),
        label_column=_str(dat.get("label_column"), "data.label_column",
                          optional=True),
        partition=pspec)
    if kind == "csv":
        if not dcfg.path or not dcfg.label_column:
            raise ConfigError("data.kind=csv requires data.path and "
                              "data.label_column")
    elif kind != "blobs" and dcfg.dims != 2:
        raise ConfigError(f"data.dims must be 2 for data.kind={kind}")
    elif dcfg.samples < dcfg.classes:
        raise ConfigError("data.samples must cover every class")

    out = _section(doc, "output")
    ocfg = OutputConfig(
        metrics_path=_str(out.get("metrics_path", "metrics.jsonl"),
                          "output.metrics_path"),
        checkpoint_path=_str(out.get("checkpoint_path", "model.ckpt"),
                             "output.checkpoint_path"),
        report_path=_str(out.get("report_path"), "output.report_path",
                         optional=True))
    key_dir = _str(_section(doc, "keys").get("dir"), "keys.dir",
                   optional=True)

    return RunConfig(mode=mode, seed=seed, transport=transport,
                     deterministic_timing=det, encryption=params,
                     clients=clients, rounds=rounds, epochs_per_round=epochs,
                     learning_rate=lr, batch_size=batch,
                     convergence_delta=delta, quantization=quant, arch=arch,
                     data=dcfg, output=ocfg, key_dir=key_dir)


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
