"""Encrypted FedAvg is exact: uploads are packed into coefficients on the
2^-f grid, so the decrypted aggregate rounds back to the integer
sum_k n_k * x_k * 2^f, and both arms divide that same sum once."""

import threading
from collections import defaultdict
from dataclasses import replace

import numpy as np
import pytest

from cipherfed import data as D
from cipherfed import model as M
from cipherfed.errors import ConfigError, DomainError
from cipherfed.federation import runner, server
from cipherfed.federation.client import (decrypt_and_load, encrypt_model,
                                         plain_update, sample_capacity)
from cipherfed.federation.quantize import QuantizationSpec
from cipherfed.federation.rounds import (RoundConfig, federated_rounds,
                                         run_federated_training)
from cipherfed.federation.runner import run_socket_federation
from cipherfed.fhe import keygen
from cipherfed.model import flatten_weights
from cipherfed.qsim import PqcArchitecture

# the benchmark's three workloads: (samples, dims, clients, epochs); dims
# past 2 are zero columns
WORKLOADS = {"desk": (1500, 2, 4, 3), "wide": (400, 4096, 4, 3),
             "socket": (600, 1024, 2, 2)}
ROUNDS = 2


def widen(ds, dims: int):
    extra = dims - ds.features.shape[1]
    return replace(ds, features=np.hstack(
        [ds.features, np.zeros((len(ds), extra))])) if extra else ds


def world(name: str):
    samples, dims, clients, epochs = WORKLOADS[name]
    train, test = D.generate_synthetic("blobs", samples, 0.5, seed=42,
                                       classes=3)
    parts = [widen(p, dims) for p in D.partition(
        train, D.PartitionSpec(client_count=clients, rng_seed=7))]
    init = M.init_model(dims, PqcArchitecture(qubit_count=3, depth=2), 3,
                        rng_seed=100)
    cfg = RoundConfig.for_datasets(parts, rounds=ROUNDS, learning_rate=0.15,
                                   batch_size=32, epochs_per_round=epochs,
                                   base_seed=9, deterministic_timing=True)
    return init, cfg, parts, widen(test, dims)


def socket_global_weights(monkeypatch, *args, mode):
    """Every round's global weights as the socket clients load them; all
    clients must load the same ones."""
    loaded = defaultdict(list)
    for name in ("decrypt_and_load", "unflatten_weights"):
        def load(*a, _fn=getattr(runner, name), **kw):
            m = _fn(*a, **kw)
            loaded[threading.get_ident()].append(flatten_weights(m))
            return m
        monkeypatch.setattr(runner, name, load)
    run_socket_federation(*args, mode=mode)
    monkeypatch.undo()
    first, *others = loaded.values()
    for other in others:
        assert all(np.array_equal(a, b) for a, b in zip(first, other))
    return first


@pytest.mark.parametrize("transport", ["direct", "socket"])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_arms_bitwise_equal_every_round(std_keys, monkeypatch, name,
                                        transport):
    args = (*world(name), std_keys)
    weights = {}
    for mode in ("fhe", "plaintext"):
        if transport == "direct":
            weights[mode] = [flatten_weights(m) for m, _rows in
                             federated_rounds(*args, mode=mode)]
        else:
            weights[mode] = socket_global_weights(monkeypatch, *args,
                                                  mode=mode)
    assert len(weights["fhe"]) == len(weights["plaintext"]) == ROUNDS
    for got, want in zip(weights["fhe"], weights["plaintext"]):
        assert np.array_equal(got, want)


def test_decryption_exact_at_capacity(small_params, small_keys):
    """8 mixed sample counts that fill the capacity, weights spread over
    the whole clip range and over 2 chunks: the decrypted mean is the
    plaintext arm's, bit for bit."""
    spec = QuantizationSpec()
    counts = [1, 2, 999, 4096, 7000, 12345, 16384, 24708]
    assert sum(counts) == sample_capacity(small_params, spec) == 65535
    template = M.init_model(600, PqcArchitecture(qubit_count=3, depth=2), 3,
                            rng_seed=1)
    assert template.param_count > small_params.ring_degree
    rng = np.random.default_rng(65535)
    enc, plain = [], []
    for k, n_k in enumerate(counts):
        m = M.unflatten_weights(template, rng.uniform(
            -spec.clip_range, spec.clip_range, template.param_count))
        enc.append(encrypt_model(m, spec, small_keys, client_id=k,
                                 sample_count=n_k, round_index=0,
                                 rng_seed=k))
        plain.append(plain_update(m, spec, k, n_k, 0))
    agg = server.aggregate(enc, small_keys.public)
    got = flatten_weights(decrypt_and_load(agg, small_keys, template, spec))
    want = server.aggregate_plain(plain)
    assert np.array_equal(got, want)
    # the integer sum, divided once, by hand
    sums = sum(n_k * np.round(u.values * 2.0 ** 16).astype(np.int64)
               for n_k, u in zip(counts, plain))
    assert np.array_equal(got, sums / (65535 * 2.0 ** 16))


def test_decrypt_rejects_scale_beyond_capacity(small_params, small_keys):
    m = M.init_model(2, PqcArchitecture(qubit_count=2, depth=1), 2,
                     rng_seed=2)
    upd = encrypt_model(m, QuantizationSpec(), small_keys, client_id=0,
                        sample_count=3, round_index=0)
    for scale in (small_params.scale * 1.5, small_params.scale * 65536):
        with pytest.raises(DomainError, match="total from 1 to 65535"):
            decrypt_and_load(replace(upd.chunks, scale=scale), small_keys,
                             m)


@pytest.mark.parametrize("bits,capacity", [(23, 511), (30, 3), (41, 0)])
def test_inexact_fractional_bits_is_config_error(small_params, bits,
                                                 capacity):
    """With more fractional bits, a smaller sum of errors fits under half
    a quantization step: a run whose samples that bound cannot hold
    fails before any client trains, on both transports."""
    spec = QuantizationSpec(fractional_bits=bits)
    assert sample_capacity(small_params, spec) == capacity
    init, cfg, parts, test = world("desk")
    cfg = replace(cfg, quantization=spec)
    keys = keygen(small_params, rng_seed=3)
    for run in (run_federated_training, run_socket_federation):
        with pytest.raises(ConfigError, match="holds exactly"):
            run(init, cfg, parts, test, keys, mode="fhe")
