"""Federated rounds on the direct transport: local training of every
client as one stacked batch, weighted aggregation (encrypted or
plaintext), decryption and redistribution, played by `server.round_loop`,
the round loop of both transports. `client_steps` is the clients' part
of a round on every transport."""

from __future__ import annotations

import math
import time
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from numbers import Integral, Real

from ..errors import ConfigError, ProtocolError
from ..model import (HybridModel, TrainingConfig, check_data, evaluate,
                     evaluate_clients, train_epochs, unflatten_weights)
from . import server
from .client import (check_capacity, decrypt_and_load, derive_seed,
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
        if not isinstance(self.sample_counts, Sequence):
            raise ConfigError(f"sample_counts must be a sequence of "
                              f"integers, got {self.sample_counts!r}")
        # ints or numpy integers, never bools: int() would truncate 2.9
        names = ("client_count", "rounds", "batch_size", "epochs_per_round",
                 "base_seed")
        for name, v in [*((n, getattr(self, n)) for n in names),
                        *(("sample_counts item", c)
                          for c in self.sample_counts)]:
            if not isinstance(v, Integral) or isinstance(v, bool):
                raise ConfigError(f"{name} must be an integer, got {v!r}")
        if not -2 ** 63 <= self.base_seed < 2 ** 63:
            raise ConfigError("base_seed must fit a signed 64-bit integer")
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
        # finite positive reals, never bools or strings
        delta = self.convergence_delta
        for name, v in (("learning_rate", self.learning_rate),
                        ("convergence_delta", 1 if delta is None else delta)):
            if (not isinstance(v, Real) or isinstance(v, bool)
                    or not 0 < v < math.inf):
                raise ConfigError(f"{name} must be a finite positive "
                                  f"number, got {v!r}")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.epochs_per_round < 0:
            raise ConfigError("epochs_per_round must be >= 0")

    @staticmethod
    def for_datasets(client_datasets, rounds, learning_rate, **kw) -> "RoundConfig":
        return RoundConfig(client_count=len(client_datasets), rounds=rounds,
                           sample_counts=tuple(len(d) for d in client_datasets),
                           learning_rate=learning_rate, **kw)


def _clock(config: RoundConfig):
    if config.deterministic_timing:
        return lambda: 0.0
    return time.perf_counter


@contextmanager
def _failure_of(client_ids, round_index: int):
    """Any error inside re-raised as a ProtocolError that names the
    clients."""
    try:
        yield
    except Exception as exc:
        names = ", ".join(map(str, client_ids))
        raise ProtocolError(f"client{'s' * (len(client_ids) > 1)} {names} "
                            f"failed during round {round_index}: "
                            f"{exc}") from exc


def client_steps(model: HybridModel, datasets, config: RoundConfig,
                 round_index: int, client_ids, mode: str, keys):
    """The clients' part of a round, on every transport: train and
    evaluate every client from `model` on its dataset, in one
    `train_epochs` and one `evaluate_clients` call, then build each one's
    encrypted (fhe) or plain update and metrics row. Every client's data
    is checked before any client trains. A failure raises a ProtocolError
    naming the client, or every client if it comes from the shared
    training or evaluation. A row's wall time is the shared time plus
    that client's update. Returns [(update, row)] in client_ids order."""
    clock = _clock(config)
    t0 = clock()
    clients = []
    for k, ds in zip(client_ids, datasets):
        with _failure_of([k], round_index):
            x, y = check_data(model, ds.features, ds.labels)
        clients.append((x, y, TrainingConfig(
            learning_rate=config.learning_rate,
            batch_size=config.batch_size,
            epochs_per_round=config.epochs_per_round,
            rng_seed=derive_seed(config.base_seed, round_index, k, 1))))
    with _failure_of(client_ids, round_index):
        trained = train_epochs(model, clients)
        scores = evaluate_clients(trained, [(x, y) for x, y, _ in clients])
    train_s = clock() - t0
    out = []
    for k, local, (train_acc, train_loss) in zip(client_ids, trained, scores):
        t1 = clock()
        with _failure_of([k], round_index):
            n_k = config.sample_counts[k]
            if mode == "fhe":
                upd = encrypt_model(local, config.quantization, keys,
                                    client_id=k, sample_count=n_k,
                                    round_index=round_index,
                                    rng_seed=derive_seed(config.base_seed,
                                                         round_index, k, 2))
            else:
                upd = plain_update(local, config.quantization, k, n_k,
                                   round_index)
        out.append((upd, metrics_row(
            round_index, f"client_{k}", train_loss=train_loss,
            train_acc=train_acc,
            wall_ms=(train_s + clock() - t1) * 1000.0)))
    return out


def check_run_inputs(config: RoundConfig, client_datasets, keys,
                     mode: str) -> None:
    """ConfigError before any client trains, on every transport, unless
    the mode is known, each client has one dataset of its configured
    size, and on an fhe run the clients and their sample total fit the
    capacity (`client.check_capacity`)."""
    server.check_mode(mode)
    if len(client_datasets) != config.client_count:
        raise ConfigError(f"{len(client_datasets)} datasets for "
                          f"{config.client_count} clients")
    for k, ds in enumerate(client_datasets):
        if len(ds) != config.sample_counts[k]:
            raise ConfigError(f"client {k} dataset size {len(ds)} does not "
                              f"match configured {config.sample_counts[k]}")
    if mode == "fhe":
        check_capacity(config.sample_counts, keys.params,
                       config.quantization)


def run_round(global_model: HybridModel, config: RoundConfig, client_datasets,
              test_data, keys, round_index: int, mode: str = "fhe"):
    """One federation round, after `check_run_inputs`. Every client
    trains from the same incoming global model, all of them together as
    one stacked batch (`client_steps`); a failed client aborts the round
    with a protocol error naming it. Returns (new global model, metric
    rows)."""
    check_run_inputs(config, client_datasets, keys, mode)
    clock = _clock(config)
    round_start = clock()
    updates, rows = map(list, zip(*client_steps(
        global_model, client_datasets, config, round_index,
        range(config.client_count), mode, keys)))

    agg = server.server_step(updates, mode,
                             keys.params if mode == "fhe" else None)
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
    """run_round played by `server.round_loop`, the round loop of both
    transports: yields (new global model, rows) each round, until
    config.rounds or convergence."""
    return server.round_loop(
        config, lambda model, r: run_round(model, config, client_datasets,
                                           test_data, keys, r, mode),
        initial_model, sink)


def run_federated_training(initial_model: HybridModel, config: RoundConfig,
                           client_datasets, test_data, keys,
                           mode: str = "fhe", sink: MetricsSink | None = None):
    """Every round of federated_rounds. In plaintext mode the
    aggregation is the same weighted sum without encryption. Returns
    (final model, all metric rows)."""
    model, history = initial_model, []
    for model, rows in federated_rounds(initial_model, config,
                                        client_datasets, test_data, keys,
                                        mode, sink):
        history.extend(rows)
    return model, history
