import socket

import numpy as np
import pytest

from cipherfed.federation.transport import SocketChannel
from cipherfed.fhe import default_params, keygen


def channel_pair() -> tuple[SocketChannel, SocketChannel]:
    """Two connected in-process channels over `socket.socketpair()`."""
    a, b = socket.socketpair()
    return SocketChannel(a), SocketChannel(b)


@pytest.fixture(scope="session")
def small_params():
    # N=1024 keeps unit tests fast; same chain structure as the default
    return default_params(ring_degree=1024)


@pytest.fixture(scope="session")
def small_keys(small_params):
    return keygen(small_params, rotation_steps=(1, 2, 3), rng_seed=7)


@pytest.fixture(scope="session")
def std_params():
    return default_params()


@pytest.fixture(scope="session")
def std_keys(std_params):
    return keygen(std_params, rotation_steps=(1,), rng_seed=7)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
