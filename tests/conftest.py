import socket

import numpy as np
import pytest

from cipherfed.federation.client import ClientUpdate
from cipherfed.federation.rounds import RoundConfig
from cipherfed.federation.server import aggregate
from cipherfed.federation.transport import SocketChannel
from cipherfed.fhe import (default_params, encode_coeffs, encrypt_symmetric,
                           keygen, ops)


def channel_pair() -> tuple[SocketChannel, SocketChannel]:
    """Two connected in-process channels over `socket.socketpair()`."""
    a, b = socket.socketpair()
    return SocketChannel(a), SocketChannel(b)


def coordinator_config(counts, rounds: int = 1) -> RoundConfig:
    """The RoundConfig a scripted coordinator runs from: one client per
    entry of `counts`, which are the clients' FedAvg weights."""
    return RoundConfig(client_count=len(counts), rounds=rounds,
                       sample_counts=tuple(counts), learning_rate=0.1)


def seeded_uploads(keys, chunks: int, counts) -> list:
    """One seeded upload of `chunks` chunks per client, the clients
    holding `counts` samples."""
    params = keys.params
    return [ClientUpdate(k, encrypt_symmetric(encode_coeffs(
        np.linspace(-1, 1, 8 * chunks).reshape(chunks, 8) / (k + 1), params,
        level=0), keys, [100 * k + j for j in range(chunks)]), n, 0,
        chunks * params.ring_degree) for k, n in enumerate(counts)]


def seeded_aggregate(keys, chunks: int, counts):
    """server.aggregate of `seeded_uploads`."""
    return aggregate(seeded_uploads(keys, chunks, counts), keys.public)


def count_expansions(monkeypatch) -> list:
    """A list that grows by one for each seed expanded from now on."""
    calls, expand = [], ops.expand_seed
    monkeypatch.setattr(ops, "expand_seed",
                        lambda *a: calls.append(1) or expand(*a))
    return calls


@pytest.fixture(scope="session")
def small_params():
    # N=1024 keeps unit tests fast; same chain structure as the default
    return default_params(ring_degree=1024)


@pytest.fixture(scope="session")
def small_keys(small_params):
    return keygen(small_params, rng_seed=7)


@pytest.fixture(scope="session")
def std_params():
    return default_params()


@pytest.fixture(scope="session")
def std_keys(std_params):
    return keygen(std_params, rng_seed=7)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
