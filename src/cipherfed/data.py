"""Dataset generation, CSV ingestion, preprocessing, and federated
partitioning.

Features are min-max scaled per column into [-pi, pi] so they can feed
the RX angle embedding directly. Synthetic generators stand in for
full-scale image corpora; they are deterministic in their seed.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DomainError, IngestionError

FEATURE_RANGE = np.pi


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray  # (samples, dims) float64, in [-pi, pi]
    labels: np.ndarray    # (samples,) int64
    class_count: int

    def __post_init__(self):
        if self.features.ndim != 2:
            raise DomainError("features must be a 2-D matrix")
        if self.labels.shape != (self.features.shape[0],):
            raise DomainError("labels must match the sample count")
        if not np.all(np.isfinite(self.features)):
            raise DomainError("features must be finite")
        if self.features.size and np.abs(self.features).max() > FEATURE_RANGE + 1e-9:
            raise DomainError("features must be scaled into [-pi, pi]")
        if self.labels.size and (self.labels.min() < 0
                                 or self.labels.max() >= self.class_count):
            raise DomainError("labels must lie in [0, class_count)")

    def __len__(self) -> int:
        return self.features.shape[0]


@dataclass(frozen=True)
class PartitionSpec:
    client_count: int
    strategy: str = "iid"
    alpha: float = 0.5
    rng_seed: int = 0

    def __post_init__(self):
        if self.client_count < 1:
            raise ConfigError("client_count must be >= 1")
        if self.strategy not in ("iid", "dirichlet"):
            raise ConfigError(f"unknown partition strategy {self.strategy!r}")
        if self.strategy == "dirichlet" and not self.alpha > 0:
            raise ConfigError("dirichlet alpha must be positive")


def scale_features(raw: np.ndarray) -> np.ndarray:
    """Min-max scale each column into [-pi, pi]; constant columns map
    to zero."""
    lo = raw.min(axis=0)
    hi = raw.max(axis=0)
    span = hi - lo
    safe = np.where(span == 0, 1.0, span)
    scaled = (raw - lo) / safe * (2 * FEATURE_RANGE) - FEATURE_RANGE
    return np.where(span == 0, 0.0, scaled)


def _stratified_split(features, labels, class_count, seed):
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5B1]))
    train_idx = []
    test_idx = []
    for c in range(class_count):
        idx = np.flatnonzero(labels == c)
        rng.shuffle(idx)
        n_test = max(1, len(idx) // 5)
        test_idx.append(idx[:n_test])
        train_idx.append(idx[n_test:])
    tr = np.concatenate(train_idx)
    te = np.concatenate(test_idx)
    rng.shuffle(tr)
    rng.shuffle(te)
    train = Dataset(features[tr], labels[tr], class_count)
    test = Dataset(features[te], labels[te], class_count)
    return train, test


def generate_synthetic(kind: str, samples: int, noise: float, seed: int,
                       classes: int = 3, dims: int = 2):
    """Deterministic synthetic dataset, already scaled and split 80/20
    stratified. Returns (train, test).

    kinds: blobs (gaussian clusters on a circle), two_moons, xor.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xDA7A]))
    if kind == "blobs":
        if samples < classes:
            raise ConfigError("need at least one sample per class")
        angles = 2 * np.pi * np.arange(classes) / classes
        centers = 2.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        labels = np.arange(samples) % classes
        pts = centers[labels][:, :2] + rng.normal(0, noise, (samples, 2))
        if dims > 2:
            pts = np.hstack([pts, rng.normal(0, noise, (samples, dims - 2))])
    elif kind == "two_moons":
        classes = 2
        if samples < classes:
            raise ConfigError("need at least one sample per class")
        half = samples // 2
        t0 = rng.uniform(0, np.pi, half)
        t1 = rng.uniform(0, np.pi, samples - half)
        upper = np.stack([np.cos(t0), np.sin(t0)], axis=1)
        lower = np.stack([1 - np.cos(t1), 0.5 - np.sin(t1)], axis=1)
        pts = np.vstack([upper, lower]) + rng.normal(0, noise, (samples, 2))
        labels = np.concatenate([np.zeros(half, np.int64),
                                 np.ones(samples - half, np.int64)])
    elif kind == "xor":
        classes = 2
        pts = rng.uniform(-1, 1, (samples, 2))
        labels = ((pts[:, 0] * pts[:, 1]) > 0).astype(np.int64)
        pts = pts + rng.normal(0, noise, (samples, 2))
    else:
        raise ConfigError(f"unknown synthetic kind {kind!r}")

    labels = labels.astype(np.int64)
    feats = scale_features(pts.astype(np.float64))
    return _stratified_split(feats, labels, classes, seed)


def load_csv(path, label_column: str) -> Dataset:
    """Numeric CSV with a header row. The label column must hold
    integral values; distinct labels map to contiguous classes in sorted
    order. Other columns become min-max-scaled features."""
    p = Path(path)
    if not p.exists():
        raise IngestionError(f"no such file: {p}")
    with open(p, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestionError(f"{p}: empty file") from None
        header = [h.strip() for h in header]
        if label_column not in header:
            raise IngestionError(
                f"{p}: label column {label_column!r} not in header {header}")
        label_idx = header.index(label_column)
        rows = []
        raw_labels = []
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise IngestionError(
                    f"{p}: row {line_no} has {len(row)} cells, "
                    f"expected {len(header)}")
            try:
                vals = [float(cell) for cell in row]
            except ValueError as exc:
                raise IngestionError(
                    f"{p}: row {line_no}: non-numeric cell ({exc})") from None
            lbl = vals.pop(label_idx)
            if not math.isfinite(lbl) or lbl != int(lbl):
                raise IngestionError(
                    f"{p}: row {line_no}: label {lbl} is not an integer")
            rows.append(vals)
            raw_labels.append(int(lbl))
    if not rows:
        raise IngestionError(f"{p}: no data rows")
    feats = scale_features(np.asarray(rows, dtype=np.float64))
    uniq = sorted(set(raw_labels))
    remap = {v: i for i, v in enumerate(uniq)}
    labels = np.asarray([remap[v] for v in raw_labels], dtype=np.int64)
    return Dataset(feats, labels, class_count=len(uniq))


def stratified_split(ds: Dataset, seed: int = 0):
    """80/20 stratified train/test split of a single dataset."""
    return _stratified_split(ds.features, ds.labels, ds.class_count, seed)


def partition(ds: Dataset, spec: PartitionSpec) -> list[Dataset]:
    """Split a train dataset into disjoint per-client shares."""
    n = len(ds)
    if n < spec.client_count:
        raise ConfigError(f"{n} samples cannot cover {spec.client_count} clients")
    rng = np.random.default_rng(np.random.SeedSequence([spec.rng_seed, 0xFA27]))
    if spec.strategy == "iid":
        # the first n % client_count shares take one sample more
        shares = np.array_split(rng.permutation(n), spec.client_count)
    else:
        shares = _dirichlet_shares(ds.labels, spec, rng)
    return [Dataset(ds.features[idx], ds.labels[idx], ds.class_count)
            for idx in shares]


def _dirichlet_shares(labels, spec, rng):
    n_clients = spec.client_count
    for _ in range(100):
        shares = [[] for _ in range(n_clients)]
        for c in np.unique(labels):
            idx = np.flatnonzero(labels == c)
            rng.shuffle(idx)
            props = rng.dirichlet(np.full(n_clients, spec.alpha))
            cuts = (np.cumsum(props)[:-1] * len(idx)).astype(np.int64)
            for i, chunk in enumerate(np.split(idx, cuts)):
                shares[i].extend(chunk.tolist())
        if all(len(s) >= 1 for s in shares):
            return [np.asarray(sorted(s), dtype=np.int64) for s in shares]
    raise ConfigError("dirichlet partition left a client empty after "
                      "100 attempts; increase alpha or sample count")
