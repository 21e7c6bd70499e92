import socket
import struct
from dataclasses import replace

import numpy as np
import pytest

from cipherfed.federation.client import ClientUpdate, level0_bound
from cipherfed.federation.quantize import QuantizationSpec
from cipherfed.federation.rounds import RoundConfig
from cipherfed.federation.server import aggregate
from cipherfed.federation.transport import SocketChannel
from cipherfed.fhe import (default_params, encode_coeffs, encrypt_symmetric,
                           keygen, ops)
from cipherfed.fhe.serial import SEALED, TRAILER_BYTES, seal


def channel_pair() -> tuple[SocketChannel, SocketChannel]:
    """Two connected in-process channels over `socket.socketpair()`."""
    a, b = socket.socketpair()
    return SocketChannel(a), SocketChannel(b)


def coordinator_config(counts, rounds: int = 1) -> RoundConfig:
    """The RoundConfig a scripted coordinator runs from: one client per
    entry of `counts`, which are the clients' FedAvg weights."""
    return RoundConfig(client_count=len(counts), rounds=rounds,
                       sample_counts=tuple(counts), learning_rate=0.1)


def seeded_upload(keys, client_id: int, values, sample_count: int,
                  count: int, seeds, round_index: int = 0) -> ClientUpdate:
    """A client's upload of a (chunks, width) matrix `values` as
    encrypt_model uploads weights: values * n_k coded as coefficients at
    the scale times n_k, the first `count` encrypted under the secret key,
    chunk j from seeds[j], with n_k and the default quantization spec
    recorded."""
    params = keys.params
    batch = encrypt_symmetric(encode_coeffs(values, params, level=0,
                                            scale=params.scale * sample_count),
                              keys, seeds, count)
    return ClientUpdate(client_id, replace(
        batch, counts=(sample_count,), quantization=QuantizationSpec()),
        sample_count, round_index, count)


def seeded_uploads(keys, chunks: int, counts, count=None) -> list:
    """One `seeded_upload` of `chunks` chunks per client, the clients
    holding `counts` samples, each of `count` coefficients (all of the
    chunks' by default)."""
    count = chunks * keys.params.ring_degree if count is None else count
    return [seeded_upload(keys, k, np.linspace(-1, 1, 8 * chunks)
                          .reshape(chunks, 8) / (k + 1), n, count,
                          [100 * k + j for j in range(chunks)])
            for k, n in enumerate(counts)]


def decrypted_mean(agg, keys) -> np.ndarray:
    """The weighted mean that a seeded aggregate holds, rounded as
    decrypt_and_load rounds it."""
    spec = agg.quantization
    half, _ = level0_bound(keys.params, spec)
    sums = (ops.decrypt_coeffs(agg, keys) + half) // (2 * half)
    return sums / (agg.scale / keys.params.scale
                   * 2.0 ** spec.fractional_bits)


def seeded_aggregate(keys, chunks: int, counts, count=None):
    """server.aggregate of `seeded_uploads`."""
    return aggregate(seeded_uploads(keys, chunks, counts, count), keys.public)


def count_expansions(monkeypatch) -> list:
    """A list that grows by one for each seed expanded from now on."""
    calls, expand = [], ops.expand_seed
    monkeypatch.setattr(ops, "expand_seed",
                        lambda *a: calls.append(1) or expand(*a))
    return calls


def forbid_expansion(monkeypatch) -> None:
    """Make every seed expansion from now on raise."""
    def expand(*_):
        raise AssertionError("a seed was expanded")
    monkeypatch.setattr(ops, "expand_seed", expand)


def resealed(blob: bytes, change) -> bytes:
    """`blob` with `change` applied to its bytes; in a sealed artifact,
    to the bytes its trailer covers, with the trailer recomputed, so
    that a hostile edit reaches the check it targets and not the
    trailer's."""
    if blob[:4] not in SEALED:
        return bytes(change(bytearray(blob)))
    return seal(bytes(change(bytearray(blob[:-TRAILER_BYTES]))))


def patched(blob: bytes, fmt: str, at: int, *values) -> bytes:
    """`blob`, resealed, with `values` packed as `fmt` at byte `at`."""
    def put(body):
        struct.pack_into("<" + fmt, body, at, *values)
        return body
    return resealed(blob, put)


def with_field(blob: bytes, start: int, index: int, width: int,
               value: int) -> bytes:
    """`blob`, resealed, with field `index` of the packed row that begins
    at byte `start`, `width` bits a field, set to `value`."""
    bit = 8 * start + index * width
    lo, hi = bit // 8, (bit + width + 7) // 8

    def put(body):
        word = int.from_bytes(body[lo:hi], "little")
        mask = ((1 << width) - 1) << bit % 8
        word = (word & ~mask) | ((value << bit % 8) & mask)
        body[lo:hi] = word.to_bytes(hi - lo, "little")
        return body
    return resealed(blob, put)


def pack_rows(residues, widths: bytes) -> bytes:
    """Residue rows, chunk after chunk, each at its width as
    docs/protocol.md words it: bit i of residue j is bit j * width + i
    of the row, least significant bit of the first byte first, and 0
    bits pad a row to whole bytes. Python integers only, as an oracle
    for the packer."""
    rows = np.asarray(residues)
    rows = rows.reshape(-1, len(widths), rows.shape[-1])
    out = []
    for chunk in rows:
        for row, b in zip(chunk, widths):
            stream = "".join(format(int(v), f"0{b}b")[::-1] for v in row)
            stream += "0" * (-len(stream) % 8)
            out.append(int(stream[::-1] or "0", 2).to_bytes(
                len(stream) // 8, "little"))
    return b"".join(out)


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
