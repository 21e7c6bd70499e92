"""Operator entry point.

Subcommands: keygen, train, compare, inspect. Runs are described by a
YAML config (see config.py); a handful of flags override config keys.
Exit codes: 0 success, 2 config error, 3 runtime/protocol error,
4 IO error. Set CIPHERFED_LOG=DEBUG|INFO|WARNING for log verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from .config import MODES, TRANSPORTS, load_config
from .errors import CipherfedError, ConfigError, FormatError
from .federation.metrics import MetricsSink
from .model import CHECKPOINT_MAGIC, save_checkpoint
from .pipeline import (build_keys, compare_runs, execute_run,
                       summarize_history, write_key_files)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_IO = 4


def _setup_logging() -> None:
    level = os.environ.get("CIPHERFED_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _overrides(args) -> dict:
    out = {}
    if getattr(args, "mode", None):
        out["mode"] = args.mode
    if getattr(args, "rounds", None) is not None:
        out["federation.rounds"] = args.rounds
    if getattr(args, "seed", None) is not None:
        out["seed"] = args.seed
    if getattr(args, "transport", None):
        out["transport"] = args.transport
    if getattr(args, "metrics", None):
        out["output.metrics_path"] = args.metrics
    if getattr(args, "checkpoint", None):
        out["output.checkpoint_path"] = args.checkpoint
    return out


def cmd_keygen(args) -> int:
    cfg = load_config(args.config, _overrides(args))
    keys = build_keys(cfg)
    paths = write_key_files(keys, args.out)
    params = cfg.encryption
    print(f"ring degree      : {params.ring_degree}")
    print(f"slots            : {params.slot_count}")
    print(f"modulus chain    : {[q.bit_length() for q in params.modulus_chain]}"
          f" bits")
    print(f"scale            : 2^{int(params.scale).bit_length() - 1}")
    print(f"params digest    : {params.digest.hex()}")
    for name, path in paths.items():
        print(f"wrote {name:7s}: {path} ({path.stat().st_size} bytes)")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = load_config(args.config, _overrides(args))
    Path(cfg.output.metrics_path).parent.mkdir(parents=True, exist_ok=True)
    with MetricsSink(cfg.output.metrics_path) as sink:
        model, history, wall = execute_run(cfg, sink=sink)
    Path(cfg.output.checkpoint_path).parent.mkdir(parents=True, exist_ok=True)
    Path(cfg.output.checkpoint_path).write_bytes(save_checkpoint(model))
    summary = summarize_history(history)
    print(f"mode             : {cfg.mode}")
    print(f"rounds completed : {len({r['round'] for r in history})}")
    if summary["train_acc"] is not None:
        print(f"final train acc  : {summary['train_acc']:.4f}")
    if summary["test_acc"] is not None:
        print(f"final test acc   : {summary['test_acc']:.4f}")
        print(f"final test loss  : {summary['test_loss']:.4f}")
    print(f"total wall time  : {wall:.2f} s")
    print(f"metrics          : {cfg.output.metrics_path}")
    print(f"checkpoint       : {cfg.output.checkpoint_path}")
    return EXIT_OK


def _arm_metrics_path(base: str, mode: str) -> str:
    p = Path(base)
    return str(p.with_name(f"{p.stem}.{mode}{p.suffix or '.jsonl'}"))


def cmd_compare(args) -> int:
    cfg = load_config(args.config, _overrides(args))
    base = cfg.output.metrics_path
    Path(base).parent.mkdir(parents=True, exist_ok=True)
    with MetricsSink(_arm_metrics_path(base, "fhe")) as sf, \
            MetricsSink(_arm_metrics_path(base, "plaintext")) as sp:
        report = compare_runs(cfg, sink_fhe=sf, sink_plain=sp)

    def fmt(x, spec=".4f"):
        return format(x, spec) if x is not None else "n/a"

    print(f"{'arm':<12}{'train acc':>11}{'test acc':>10}{'test loss':>11}"
          f"{'wall (s)':>10}")
    for mode in ("fhe", "plaintext"):
        m = report[mode]
        print(f"{mode:<12}{fmt(m['train_acc']):>11}{fmt(m['test_acc']):>10}"
              f"{fmt(m['test_loss']):>11}{fmt(m['wall_seconds'], '.2f'):>10}")
    print(f"accuracy gap : {fmt(report['accuracy_gap'])}")
    if cfg.output.report_path:
        Path(cfg.output.report_path).write_text(json.dumps(report, indent=2))
        print(f"report       : {cfg.output.report_path}")
    return EXIT_OK


def cmd_inspect(args) -> int:
    from .fhe.serial import (MAGIC_CIPHERTEXT, MAGIC_FLOAT_VECTOR,
                             MAGIC_KINDS, MAGIC_PUBLIC_KEY, MAGIC_SECRET_KEY,
                             MAGIC_SEEDED, MAGIC_SLOT_SEEDED, Reader)
    batches = (MAGIC_CIPHERTEXT, MAGIC_SEEDED, MAGIC_SLOT_SEEDED)
    data = Path(args.path).read_bytes()
    size = len(data)
    r = Reader(data, f"{data[:4]!r} header")
    magic = r.take(4)
    if magic in (MAGIC_SECRET_KEY, MAGIC_PUBLIC_KEY, *batches):
        digest = r.take(8)
    if magic == MAGIC_SECRET_KEY:
        print("kind   : secret key")
        print(f"digest : {digest.hex()}")
        print(f"size   : {size} bytes")
        print("coefficients withheld (secret material is never printed)")
    elif magic == MAGIC_PUBLIC_KEY:
        print("kind   : public key")
        print(f"digest : {digest.hex()}")
        print(f"size   : {size} bytes")
    elif magic in batches:
        level, scale, chunks = r.unpack("BdH")
        print(f"kind   : {MAGIC_KINDS[magic]}")
        print(f"digest : {digest.hex()}")
        print(f"level  : {level}")
        print(f"scale  : {scale:.6g}")
        print(f"chunks : {chunks}")
        print(f"size   : {size} bytes")
    elif magic == MAGIC_FLOAT_VECTOR:
        (count,) = r.unpack("I")
        print("kind   : float vector")
        print(f"length : {count}")
        print(f"size   : {size} bytes")
    elif magic == CHECKPOINT_MAGIC:
        feat, nq, depth, classes, n_read = r.unpack("HBBHB")
        print("kind     : model checkpoint")
        print(f"features : {feat}")
        print(f"qubits   : {nq}  depth: {depth}  readouts: {n_read}")
        print(f"classes  : {classes}")
        print(f"size     : {size} bytes")
    else:
        raise FormatError(f"unknown magic bytes {magic!r}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cipherfed",
        description="Federated training of hybrid quantum-classical "
                    "classifiers with encrypted aggregation")
    sub = ap.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="YAML run config")
    common.add_argument("--mode", choices=MODES)
    common.add_argument("--rounds", type=int)
    common.add_argument("--seed", type=int)
    common.add_argument("--transport", choices=TRANSPORTS)
    common.add_argument("--metrics", help="metrics JSONL path override")
    common.add_argument("--checkpoint", help="checkpoint path override")

    kg = sub.add_parser("keygen", parents=[common],
                        help="generate and write key files")
    kg.add_argument("--out", required=True, help="output directory")
    kg.set_defaults(func=cmd_keygen)

    tr = sub.add_parser("train", parents=[common],
                        help="run federated training")
    tr.set_defaults(func=cmd_train)

    cp = sub.add_parser("compare", parents=[common],
                        help="run encrypted and plaintext arms, report gap")
    cp.set_defaults(func=cmd_compare)

    ins = sub.add_parser("inspect", help="describe a serialized artifact")
    ins.add_argument("path")
    ins.set_defaults(func=cmd_inspect)
    return ap


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CipherfedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
