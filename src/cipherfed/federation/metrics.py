"""JSON-lines metrics sink.

One record per (round, actor) with a fixed field order so that runs with
identical seeds produce byte-identical files, also when a rerun writes
to the same path: a sink truncates its file. Wall-clock fields are
written as 0.0 when deterministic timing is requested.
"""

from __future__ import annotations

import json

FIELDS = ("round", "actor", "train_loss", "train_acc", "test_loss",
          "test_acc", "wall_ms")


def metrics_row(round_index: int, actor: str, train_loss=None, train_acc=None,
                test_loss=None, test_acc=None, wall_ms: float = 0.0) -> dict:
    return {"round": round_index, "actor": actor,
            "train_loss": train_loss, "train_acc": train_acc,
            "test_loss": test_loss, "test_acc": test_acc,
            "wall_ms": wall_ms}


def format_row(row: dict) -> str:
    ordered = {k: row.get(k) for k in FIELDS}
    return json.dumps(ordered, separators=(",", ":"))


class MetricsSink:
    """Writes metric rows to a JSONL file, replacing what it held."""

    def __init__(self, path=None):
        self.path = path
        self._fh = open(path, "w") if path is not None else None

    def write(self, row: dict) -> None:
        if self._fh is not None:
            self._fh.write(format_row(row) + "\n")
            self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
