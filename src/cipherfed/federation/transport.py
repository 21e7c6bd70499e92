"""Wire format of the federation protocol.

Frame layout: u32 big-endian length, u8 message type, u16 big-endian
round index, payload. The length counts everything after itself. One
channel implementation, `SocketChannel`, carries frames over a stream
socket. Serialization is lossless, so a socket run's results equal the
direct transport's. Every payload is read through one bounds-checked
`Reader` and must be consumed exactly. An UPDATE or GLOBAL carries one
artifact, and the run's mode says which one: on an fhe run a `CKV4`
seeded batch up and a `CKV2` batch down, both coefficient-packed.
"""

from __future__ import annotations

import json
import socket
import struct

import numpy as np

from ..errors import ProtocolError
from ..fhe.serial import (Reader, deserialize_ciphertext,
                          deserialize_float_vector, deserialize_seeded,
                          serialize_ciphertext, serialize_float_vector,
                          serialize_seeded)
from .client import ClientUpdate, PlainUpdate

MSG_JOIN = 1
MSG_UPDATE = 2
MSG_GLOBAL = 3
MSG_METRICS = 4
MSG_ABORT = 5
_VALID_TYPES = (MSG_JOIN, MSG_UPDATE, MSG_GLOBAL, MSG_METRICS, MSG_ABORT)

MAX_FRAME = 1 << 28  # 256 MiB sanity bound; larger lengths are corruption
# frames carry the round index, and JOIN and UPDATE the client id, as u16:
# the most rounds and clients a socket run can take
MAX_WIRE_COUNT = 0xFFFF
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


# --- payload encodings ------------------------------------------------------

def encode_join(client_id: int, sample_count: int) -> bytes:
    return struct.pack("<HQ", client_id, sample_count)


def decode_join(payload: bytes) -> tuple[int, int]:
    r = Reader(payload, "JOIN payload", ProtocolError)
    client_id, sample_count = r.unpack("HQ")
    r.end()
    return client_id, sample_count


def encode_update(update) -> bytes:
    if isinstance(update, ClientUpdate):
        count, artifact = update.param_count, serialize_seeded(update.chunks)
    else:
        count, artifact = (update.values.size,
                           serialize_float_vector(update.values))
    return struct.pack("<HQI", update.client_id, update.sample_count,
                       count) + artifact


def decode_update(payload: bytes, round_index: int, params):
    r = Reader(payload, "UPDATE payload", ProtocolError)
    client_id, sample_count, param_count = r.unpack("HQI")
    if params is not None:
        return ClientUpdate(client_id=client_id,
                            chunks=deserialize_seeded(payload[r.pos:],
                                                      params),
                            sample_count=sample_count,
                            round_index=round_index, param_count=param_count)
    artifact = deserialize_float_vector(payload[r.pos:])
    if artifact.size != param_count:
        raise ProtocolError(f"plain update carries {artifact.size} values "
                            f"for {param_count} parameters")
    return PlainUpdate(client_id=client_id, values=artifact,
                       sample_count=sample_count, round_index=round_index)


def encode_global(agg) -> bytes:
    if isinstance(agg, np.ndarray):
        return serialize_float_vector(agg)
    return serialize_ciphertext(agg)


def decode_global(payload: bytes, params):
    """The one artifact that is a GLOBAL payload: a `CKV2` ciphertext
    batch on an fhe run, where `params` is given, and a `CKF1` vector on
    a plaintext run."""
    if params is None:
        return deserialize_float_vector(payload)
    return deserialize_ciphertext(payload, params)


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
