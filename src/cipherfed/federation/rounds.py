"""Federated round execution: local training of each client in turn,
weighted aggregation (encrypted or plaintext), decryption,
redistribution, and the loop to convergence. `client_step` is the
client's part of a round on every transport."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..errors import ConfigError, ProtocolError
from ..fhe.keys import public_part
from ..model import HybridModel, TrainingConfig, evaluate, train_epochs, unflatten_weights
from . import server
from .client import (check_sample_capacity, decrypt_and_load, derive_seed,
                     encrypt_model, plain_update)
from .metrics import MetricsSink, metrics_row
from .quantize import QuantizationSpec

@dataclass(frozen=True)
class RoundConfig:
    """Federation hyperparameters for one run."""
    client_count: int
    rounds: int
    sample_counts: tuple[int, ...]
    learning_rate: float
    batch_size: int = 32
    epochs_per_round: int = 1
    base_seed: int = 0
    convergence_delta: float | None = None
    quantization: QuantizationSpec = field(default_factory=QuantizationSpec)
    deterministic_timing: bool = False

    def __post_init__(self):
        if self.client_count < 1:
            raise ConfigError("client_count must be >= 1")
        if self.rounds < 0:
            raise ConfigError("rounds must be >= 0")
        counts = tuple(int(c) for c in self.sample_counts)
        object.__setattr__(self, "sample_counts", counts)
        if len(counts) != self.client_count:
            raise ConfigError("sample_counts must list one entry per client")
        if any(c < 1 for c in counts):
            raise ConfigError("every client needs at least one sample")
        if not self.learning_rate > 0:
            raise ConfigError("learning_rate must be positive")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.epochs_per_round < 0:
            raise ConfigError("epochs_per_round must be >= 0")
        if (self.convergence_delta is not None
                and not self.convergence_delta > 0):
            raise ConfigError("convergence_delta must be positive when set")

    @staticmethod
    def for_datasets(client_datasets, rounds, learning_rate, **kw) -> "RoundConfig":
        return RoundConfig(client_count=len(client_datasets), rounds=rounds,
                           sample_counts=tuple(len(d) for d in client_datasets),
                           learning_rate=learning_rate, **kw)


def _clock(config: RoundConfig):
    if config.deterministic_timing:
        return lambda: 0.0
    return time.perf_counter


def client_step(model: HybridModel, dataset, config: RoundConfig,
                round_index: int, client_id: int, mode: str, keys):
    """One client's part of a round: train from `model` on `dataset`,
    build the encrypted (fhe) or plain update, and time both into the
    client's metrics row. Returns (update, row)."""
    clock = _clock(config)
    t0 = clock()
    tcfg = TrainingConfig(learning_rate=config.learning_rate,
                          batch_size=config.batch_size,
                          epochs_per_round=config.epochs_per_round,
                          rng_seed=derive_seed(config.base_seed, round_index,
                                               client_id, 1))
    local = train_epochs(model, dataset.features, dataset.labels, tcfg)
    train_acc, train_loss = evaluate(local, dataset.features, dataset.labels)
    n_k = config.sample_counts[client_id]
    if mode == "fhe":
        upd = encrypt_model(local, config.quantization, keys,
                            client_id=client_id, sample_count=n_k,
                            round_index=round_index,
                            rng_seed=derive_seed(config.base_seed, round_index,
                                                 client_id, 2))
    else:
        upd = plain_update(local, config.quantization, client_id, n_k,
                           round_index)
    return upd, metrics_row(round_index, f"client_{client_id}",
                            train_loss=train_loss, train_acc=train_acc,
                            wall_ms=(clock() - t0) * 1000.0)


def check_run_inputs(config: RoundConfig, client_datasets, keys,
                     mode: str) -> None:
    """ConfigError before any client trains, on every transport, unless
    the mode is known, each client has one dataset of its configured
    size, and an fhe sample total fits `sample_capacity`."""
    server.check_mode(mode)
    if len(client_datasets) != config.client_count:
        raise ConfigError(f"{len(client_datasets)} datasets for "
                          f"{config.client_count} clients")
    for k, ds in enumerate(client_datasets):
        if len(ds) != config.sample_counts[k]:
            raise ConfigError(f"client {k} dataset size {len(ds)} does not "
                              f"match configured {config.sample_counts[k]}")
    if mode == "fhe":
        check_sample_capacity(sum(config.sample_counts), keys.params,
                              config.quantization)


def run_round(global_model: HybridModel, config: RoundConfig, client_datasets,
              test_data, keys, round_index: int, mode: str = "fhe"):
    """One federation round, after `check_run_inputs`. Every client
    trains from the same incoming global model, one after another in
    client-id order; a failed client aborts the round with a protocol
    error naming it. Returns (new global model, metric rows)."""
    check_run_inputs(config, client_datasets, keys, mode)
    clock = _clock(config)
    round_start = clock()
    updates, rows = [], []
    for k, ds in enumerate(client_datasets):
        try:
            upd, row = client_step(global_model, ds, config, round_index, k,
                                   mode, keys)
        except Exception as exc:
            raise ProtocolError(f"client {k} failed during round "
                                f"{round_index}: {exc}") from exc
        updates.append(upd)
        rows.append(row)

    public = public_part(keys)
    agg = server.server_step(updates, mode, public)
    if mode == "fhe":
        new_model = decrypt_and_load(agg, keys, global_model,
                                     config.quantization)
    else:
        new_model = unflatten_weights(global_model, agg)

    test_acc, test_loss = evaluate(new_model, test_data.features,
                                   test_data.labels)
    rows.append(metrics_row(round_index, "global", test_loss=test_loss,
                            test_acc=test_acc,
                            wall_ms=(clock() - round_start) * 1000.0))
    return new_model, rows


def federated_rounds(initial_model: HybridModel, config: RoundConfig,
                     client_datasets, test_data, keys, mode: str = "fhe",
                     sink: MetricsSink | None = None):
    """The round loop: run_round for config.rounds rounds, or until the
    global test loss moves less than convergence_delta. Writes each
    round's rows to `sink`, then yields (new global model, rows)."""
    model = initial_model
    prev_loss = None
    for r in range(config.rounds):
        model, rows = run_round(model, config, client_datasets, test_data,
                                keys, round_index=r, mode=mode)
        if sink is not None:
            for row in rows:
                sink.write(row)
        yield model, rows
        g_loss = rows[-1]["test_loss"]
        if server.converged(prev_loss, g_loss, config.convergence_delta):
            return
        prev_loss = g_loss


def run_federated_training(initial_model: HybridModel, config: RoundConfig,
                           client_datasets, test_data, keys,
                           mode: str = "fhe", sink: MetricsSink | None = None):
    """Every round of federated_rounds. In plaintext mode the
    aggregation is the same weighted sum without encryption. Returns
    (final model, all metric rows)."""
    model = initial_model
    history = []
    for model, rows in federated_rounds(initial_model, config,
                                        client_datasets, test_data, keys,
                                        mode, sink):
        history.extend(rows)
    return model, history
