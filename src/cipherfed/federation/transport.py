"""Pluggable transport for the federation protocol.

Frame layout: u32 big-endian length, u8 message type, u16 big-endian
round index, payload. The length counts everything after itself. One
channel implementation, over a stream socket: a TCP connection, or an
in-process socket pair for loopback runs. Both move the same bytes, so
a run's results do not depend on the transport. Every payload is read
through one bounds-checked `Reader` and must be consumed exactly.
"""

from __future__ import annotations

import json
import socket
import struct

import numpy as np

from ..errors import ProtocolError
from ..fhe.ops import Ciphertext, stack
from ..fhe.serial import (Reader, deserialize_ciphertext,
                          deserialize_float_vector, serialize_ciphertext,
                          serialize_float_vector)
from .client import ClientUpdate, PlainUpdate

MSG_JOIN = 1
MSG_UPDATE = 2
MSG_GLOBAL = 3
MSG_METRICS = 4
MSG_ABORT = 5
_VALID_TYPES = (MSG_JOIN, MSG_UPDATE, MSG_GLOBAL, MSG_METRICS, MSG_ABORT)

MAX_FRAME = 1 << 28  # 256 MiB sanity bound; larger lengths are corruption
CONVERGED_REASON = "converged"


class Message:
    __slots__ = ("mtype", "round_index", "payload")

    def __init__(self, mtype: int, round_index: int, payload: bytes = b""):
        self.mtype = mtype
        self.round_index = round_index
        self.payload = payload


def encode_frame(msg: Message) -> bytes:
    body = struct.pack("!BH", msg.mtype, msg.round_index) + msg.payload
    return struct.pack("!I", len(body)) + body


def decode_body(body: bytes) -> Message:
    if len(body) < 3:
        raise ProtocolError(f"frame body too short ({len(body)} bytes)")
    mtype, round_index = struct.unpack("!BH", body[:3])
    if mtype not in _VALID_TYPES:
        raise ProtocolError(f"unknown message type {mtype}")
    return Message(mtype, round_index, body[3:])


class SocketChannel:
    """Length-prefixed frames over a stream socket."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._sock.settimeout(120.0)

    def _read_exact(self, n: int) -> bytes:
        buf = bytearray()
        while len(buf) < n:
            try:
                chunk = self._sock.recv(n - len(buf))
            except socket.timeout:
                raise ProtocolError("socket recv timed out") from None
            except OSError as exc:
                raise ProtocolError(f"socket error: {exc}") from None
            if not chunk:
                raise ProtocolError("peer closed the connection mid-frame")
            buf.extend(chunk)
        return bytes(buf)

    def send(self, msg: Message) -> None:
        try:
            self._sock.sendall(encode_frame(msg))
        except OSError as exc:
            raise ProtocolError(f"socket send failed: {exc}") from None

    def recv(self, timeout: float = 120.0) -> Message:
        self._sock.settimeout(timeout)
        (length,) = struct.unpack("!I", self._read_exact(4))
        if length > MAX_FRAME:
            raise ProtocolError(f"frame length {length} exceeds bound "
                                f"(corrupted length prefix?)")
        if length < 3:
            raise ProtocolError(f"frame length {length} below minimum")
        return decode_body(self._read_exact(length))

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


def loopback_pair() -> tuple[SocketChannel, SocketChannel]:
    """Two connected in-process endpoints over a stream socket pair."""
    a, b = socket.socketpair()
    return SocketChannel(a), SocketChannel(b)


# --- payload encodings ------------------------------------------------------

KIND_PLAIN = 0
KIND_FHE = 1


def encode_join(client_id: int, sample_count: int) -> bytes:
    return struct.pack("<HQ", client_id, sample_count)


def decode_join(payload: bytes) -> tuple[int, int]:
    r = Reader(payload, "JOIN payload", ProtocolError)
    client_id, sample_count = r.unpack("HQ")
    r.end()
    return client_id, sample_count


def _encode_blobs(blobs) -> bytes:
    out = [struct.pack("<H", len(blobs))]
    for b in blobs:
        out.append(struct.pack("<I", len(b)))
        out.append(b)
    return b"".join(out)


def _read_blobs(r: Reader) -> list[bytes]:
    """The blob list that ends the payload under `r`."""
    (count,) = r.unpack("H")
    blobs = [r.take(r.unpack("I")[0]) for _ in range(count)]
    r.end()
    return blobs


def _batch(blobs, params) -> Ciphertext:
    """The chunks of an encrypted payload, stacked into one batch."""
    if params is None:
        raise ProtocolError("encrypted payload on a plaintext run")
    if not blobs:
        raise ProtocolError("encrypted payload carries no chunks")
    return stack([deserialize_ciphertext(b, params) for b in blobs])


def encode_update(update) -> bytes:
    if isinstance(update, ClientUpdate):
        head = struct.pack("<HQBI", update.client_id, update.sample_count,
                           KIND_FHE, update.param_count)
        chunks = [serialize_ciphertext(ct) for ct in update.chunks]
        return head + _encode_blobs(chunks)
    head = struct.pack("<HQBI", update.client_id, update.sample_count,
                       KIND_PLAIN, update.values.size)
    return head + _encode_blobs([serialize_float_vector(update.values)])


def decode_update(payload: bytes, round_index: int, params):
    r = Reader(payload, "UPDATE payload", ProtocolError)
    client_id, sample_count, kind, param_count = r.unpack("HQBI")
    blobs = _read_blobs(r)
    if kind == KIND_FHE:
        return ClientUpdate(client_id=client_id,
                            chunks=_batch(blobs, params),
                            sample_count=sample_count,
                            round_index=round_index, param_count=param_count)
    if kind == KIND_PLAIN:
        if len(blobs) != 1:
            raise ProtocolError("plain update must carry one vector")
        return PlainUpdate(client_id=client_id,
                           values=deserialize_float_vector(blobs[0]),
                           sample_count=sample_count, round_index=round_index)
    raise ProtocolError(f"unknown update kind {kind}")


def encode_global(agg) -> bytes:
    if isinstance(agg, np.ndarray):
        return struct.pack("<B", KIND_PLAIN) + _encode_blobs(
            [serialize_float_vector(agg)])
    return struct.pack("<B", KIND_FHE) + _encode_blobs(
        [serialize_ciphertext(ct) for ct in agg])


def decode_global(payload: bytes, params):
    r = Reader(payload, "GLOBAL payload", ProtocolError)
    (kind,) = r.unpack("B")
    blobs = _read_blobs(r)
    if kind == KIND_PLAIN:
        if len(blobs) != 1:
            raise ProtocolError("plain global must carry one vector")
        return deserialize_float_vector(blobs[0])
    if kind == KIND_FHE:
        return _batch(blobs, params)
    raise ProtocolError(f"unknown global kind {kind}")


def encode_metrics(row: dict) -> bytes:
    return json.dumps(row, sort_keys=True).encode("utf-8")


def decode_metrics(payload: bytes) -> dict:
    """A metrics row: an object with an actor, an int round, and loss and
    accuracy fields that are numbers or null."""
    try:
        row = json.loads(payload.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ProtocolError(f"malformed METRICS payload: {exc}") from None
    if not isinstance(row, dict) or "actor" not in row:
        raise ProtocolError("metrics row missing actor")
    if type(row.get("round")) is not int or any(
            row.get(k) is not None and type(row[k]) not in (int, float)
            for k in ("train_loss", "train_acc", "test_loss", "test_acc")):
        raise ProtocolError("metrics row needs an int round and numeric or "
                            "null loss and accuracy")
    return row
