"""Pluggable transport for the federation protocol.

Frame layout: u32 big-endian length, u8 message type, u16 big-endian
round index, payload. The length counts everything after itself. Two
channel implementations: an in-process loopback queue pair and a TCP
stream socket; both move the same bytes, so a run's results do not
depend on the transport.
"""

from __future__ import annotations

import json
import queue
import socket
import struct

import numpy as np

from ..errors import ProtocolError
from ..fhe.serial import (deserialize_ciphertext, deserialize_float_vector,
                          serialize_ciphertext, serialize_float_vector)
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


class LoopbackChannel:
    """One endpoint of an in-process queue pair carrying raw frames."""

    def __init__(self, inbox: queue.Queue, outbox: queue.Queue):
        self._in = inbox
        self._out = outbox
        self._closed = False

    def send(self, msg: Message) -> None:
        self._out.put(encode_frame(msg))

    def recv(self, timeout: float = 120.0) -> Message:
        try:
            frame = self._in.get(timeout=timeout)
        except queue.Empty:
            raise ProtocolError("loopback recv timed out") from None
        if frame is None:
            raise ProtocolError("peer closed the loopback channel")
        if len(frame) < 4:
            raise ProtocolError("truncated frame")
        (length,) = struct.unpack("!I", frame[:4])
        if length > MAX_FRAME:
            raise ProtocolError(f"frame length {length} exceeds bound")
        if length != len(frame) - 4:
            raise ProtocolError("frame length does not match body")
        return decode_body(frame[4:])

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._out.put(None)


def loopback_pair() -> tuple[LoopbackChannel, LoopbackChannel]:
    a_to_b: queue.Queue = queue.Queue()
    b_to_a: queue.Queue = queue.Queue()
    return (LoopbackChannel(b_to_a, a_to_b), LoopbackChannel(a_to_b, b_to_a))


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

KIND_PLAIN = 0
KIND_FHE = 1


def encode_join(client_id: int, sample_count: int) -> bytes:
    return struct.pack("<HQ", client_id, sample_count)


def decode_join(payload: bytes) -> tuple[int, int]:
    if len(payload) != 10:
        raise ProtocolError("malformed JOIN payload")
    return struct.unpack("<HQ", payload)


def _encode_blobs(blobs) -> bytes:
    out = [struct.pack("<H", len(blobs))]
    for b in blobs:
        out.append(struct.pack("<I", len(b)))
        out.append(b)
    return b"".join(out)


def _decode_blobs(buf: bytes, offset: int) -> list[bytes]:
    """The blob list at `offset`, which must end exactly at the end of
    `buf`; any misfit raises struct.error, as a short read does."""
    (count,) = struct.unpack_from("<H", buf, offset)
    offset += 2
    blobs = []
    for _ in range(count):
        (ln,) = struct.unpack_from("<I", buf, offset)
        offset += 4
        if offset + ln > len(buf):
            raise struct.error(f"blob of {ln} bytes runs past the payload")
        blobs.append(buf[offset:offset + ln])
        offset += ln
    if offset != len(buf):
        raise struct.error(f"{len(buf) - offset} trailing bytes after the "
                           "blob list")
    return blobs


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
    try:
        client_id, sample_count, kind, param_count = struct.unpack_from(
            "<HQBI", payload, 0)
        blobs = _decode_blobs(payload, 15)
    except (struct.error, IndexError) as exc:
        raise ProtocolError(f"malformed UPDATE payload: {exc}") from None
    if kind == KIND_FHE:
        chunks = tuple(deserialize_ciphertext(b, params) for b in blobs)
        return ClientUpdate(client_id=client_id, chunks=chunks,
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
    try:
        (kind,) = struct.unpack_from("<B", payload, 0)
        blobs = _decode_blobs(payload, 1)
    except (struct.error, IndexError) as exc:
        raise ProtocolError(f"malformed GLOBAL payload: {exc}") from None
    if kind == KIND_PLAIN:
        if len(blobs) != 1:
            raise ProtocolError("plain global must carry one vector")
        return deserialize_float_vector(blobs[0])
    if kind == KIND_FHE:
        return [deserialize_ciphertext(b, params) for b in blobs]
    raise ProtocolError(f"unknown global kind {kind}")


def encode_metrics(row: dict) -> bytes:
    return json.dumps(row, sort_keys=True).encode("utf-8")


def decode_metrics(payload: bytes) -> dict:
    try:
        row = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed METRICS payload: {exc}") from None
    if not isinstance(row, dict) or "actor" not in row:
        raise ProtocolError("metrics row missing actor")
    return row
