"""Wire format of the federation protocol.

Frame layout: u32 big-endian length, u8 message type, u16 big-endian
round index, payload. The length counts everything after itself. One
channel implementation, `SocketChannel`, carries frames over a stream
socket. Serialization is lossless, so a socket run's results equal the
direct transport's. Every binary payload is read through a
bounds-checked `Reader` and must be consumed exactly. An UPDATE or
GLOBAL payload is one artifact, which the run's mode picks: on an fhe
run a `CKU4` seeded upload up and a `CKA4` seeded aggregate down, each
carrying the P = param_count coefficients of c0 that hold weights and
seeds in place of c1; on a plaintext run `CKF1` both ways. Either
reader takes P from the run, not from the payload. A `CKU4` rounds away
the low bits of c0 that the run's quantization spec and client count
leave each upload (`client.upload_bits`), a `CKA4` those that they
leave to decryption's rounding (`client.dropped_bits`), and each end
stamps a decoded batch with its own run's spec. A METRICS
payload is a row's data, and an ABORT payload a reason of at most
CONTROL_BYTES.
"""

from __future__ import annotations

import json
import math
import socket
import struct
from dataclasses import replace

import numpy as np

from ..errors import FormatError, ProtocolError
from ..fhe.ops import SEED_BYTES
from ..fhe.serial import (Reader, deserialize_float_vector,
                          deserialize_seeded, deserialize_seeded_sum,
                          serialize_float_vector, serialize_seeded,
                          serialize_seeded_sum)
# perfbench --trace wraps these two; ROADMAP item 1
from ..fhe.serial import deserialize_ciphertext, serialize_ciphertext
from .client import (ClientUpdate, PlainUpdate, chunk_count_for,
                     dropped_bits, upload_bits)
from .metrics import FIELDS
from .quantize import QuantizationSpec, quantize

MSG_JOIN = 1
MSG_UPDATE = 2
MSG_GLOBAL = 3
MSG_METRICS = 4
MSG_ABORT = 5
_VALID_TYPES = (MSG_JOIN, MSG_UPDATE, MSG_GLOBAL, MSG_METRICS, MSG_ABORT)

MAX_FRAME = 1 << 28  # 256 MiB sanity bound; larger lengths are corruption
# the longest payload that is not an artifact: an ABORT reason is cut to
# it, and a JOIN (2 bytes) or a METRICS row (five float reprs of at most
# 24 characters or nulls, under 256 bytes) is shorter
CONTROL_BYTES = 1 << 10
# frames carry the round index, and JOIN the client id, as u16: the most
# rounds and clients a socket run can take
MAX_WIRE_COUNT = 0xFFFF
METRICS_FIELDS = FIELDS[2:]  # a METRICS payload: no round, no actor


class Message:
    __slots__ = ("mtype", "round_index", "payload")

    def __init__(self, mtype: int, round_index: int, payload: bytes = b""):
        self.mtype = mtype
        self.round_index = round_index
        self.payload = payload


def encode_frame(msg: Message) -> bytes:
    body = struct.pack("!BH", msg.mtype, msg.round_index) + msg.payload
    return struct.pack("!I", len(body)) + body


def frame_bound(param_count: int, params=None, clients: int = 1) -> int:
    """The longest frame a reader in a run of `param_count` parameters
    takes: the run's longest artifact, an UPDATE (clients=1) or a
    GLOBAL, or CONTROL_BYTES if that is longer. Such an artifact holds
    at most 8 bytes a parameter, 64 of header and trailer and, on an fhe
    run (`params` given), a sample count and a seed a chunk for each
    client."""
    payload = 8 * param_count + 64
    if params is not None:
        payload += clients * (8 + SEED_BYTES * chunk_count_for(
            param_count, params.ring_degree))
    return 3 + max(payload, CONTROL_BYTES)


def abort_message(exc: Exception) -> Message:
    """The ABORT that reports `exc` as `<ErrorType>: <message>`, its
    UTF-8 cut to CONTROL_BYTES; receivers decode a cut character as a
    replacement."""
    reason = f"{type(exc).__name__}: {exc}".encode("utf-8")
    return Message(MSG_ABORT, 0, reason[:CONTROL_BYTES])


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
        if sock.family in (socket.AF_INET, socket.AF_INET6):
            # no Nagle: METRICS would wait for the ACK of UPDATE
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

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

    def recv(self, timeout: float = 120.0, limit: int = MAX_FRAME) -> Message:
        """The next frame; one longer than `limit` is refused unread."""
        self._sock.settimeout(timeout)
        (length,) = struct.unpack("!I", self._read_exact(4))
        if length > limit:
            raise ProtocolError(f"frame length {length} exceeds bound "
                                f"{limit} (corrupted length prefix?)")
        return decode_body(self._read_exact(length))

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


# --- payload encodings ------------------------------------------------------

def encode_join(client_id: int) -> bytes:
    """A JOIN payload: the client id alone, never its FedAvg weight."""
    return struct.pack("<H", client_id)


def decode_join(payload: bytes) -> int:
    r = Reader(payload, "JOIN payload", ProtocolError)
    (client_id,) = r.unpack("H")
    r.end()
    return client_id


def _spec(batch):
    """The quantization spec that a seeded batch records; FormatError if
    none, since the wire's rounding follows from it."""
    if getattr(batch, "quantization", None) is None:
        raise FormatError("only a seeded batch that records its "
                          "quantization spec goes on the wire")
    return batch.quantization


def encode_update(update, clients: int = 1) -> bytes:
    """An UPDATE payload: the update's artifact alone, `CKF1` or a
    `CKU4` rounded by the low bits that its spec gives the uploads of a
    run of `clients` clients (the same for every run of up to
    client.SUM_CLIENTS)."""
    if isinstance(update, ClientUpdate):
        batch = update.chunks
        return serialize_seeded(batch, upload_bits(batch.params,
                                                   _spec(batch), clients))
    return serialize_float_vector(update.values)


def decode_update(payload: bytes, round_index: int, params, client_id: int,
                  sample_count: int, param_count: int,
                  quantization: QuantizationSpec = QuantizationSpec(),
                  clients: int = 1):
    """The UPDATE of the client that joined as `client_id`, holding the
    run's `sample_count` for it, for the server's `param_count`: on an
    fhe run (`params` given) that many coefficients in the chunks they
    fill, at the scale times `sample_count`, rounded by the bits that
    `quantization` gives the uploads of `clients` clients, checked
    before any field past the header is read (no seed is expanded), and
    stamped with the run's `quantization`; on a plaintext run that many
    values, which `quantization` leaves as is."""
    if params is not None:
        chunks = replace(deserialize_seeded(
            payload, params, param_count, sample_count,
            upload_bits(params, quantization, clients)),
            quantization=quantization)
        return ClientUpdate(client_id, chunks, sample_count, round_index,
                            param_count)
    values = deserialize_float_vector(payload)
    if values.size != param_count:
        raise ProtocolError(f"plain update carries {values.size} values "
                            f"for {param_count} parameters")
    if not np.array_equal(quantize(values, quantization), values):
        raise ProtocolError(f"plain update not quantized under {quantization}")
    return PlainUpdate(client_id, values, sample_count, round_index)


def encode_global(agg) -> bytes:
    """A plaintext mean as `CKF1`, an aggregate of seeded uploads as
    `CKA4`, rounded by the bits that its quantization and client count
    drop; any other aggregate, or one that records no quantization, is
    a FormatError."""
    if isinstance(agg, np.ndarray):
        return serialize_float_vector(agg)
    return serialize_seeded_sum(agg, dropped_bits(agg.params, _spec(agg),
                                                  len(agg.counts)))


def decode_global(payload: bytes, params, param_count: int,
                  quantization: QuantizationSpec = QuantizationSpec()):
    """The one artifact that is a GLOBAL payload for a model of
    `param_count` parameters: on an fhe run, where `params` is given, a
    `CKA4` seeded aggregate of that many coefficients whose c0 drops the
    bits that the run's `quantization` gives for its client count,
    stamped with that spec, and on a plaintext run a `CKF1` vector of
    that many values. Whether the counts are the run's is the caller's
    check; no seed is expanded until the aggregate is decrypted."""
    if params is not None:
        return replace(deserialize_seeded_sum(
            payload, params, param_count,
            lambda clients: dropped_bits(params, quantization, clients)),
            quantization=quantization)
    values = deserialize_float_vector(payload)
    if values.size != param_count:
        raise ProtocolError(f"plain global carries {values.size} values "
                            f"for {param_count} parameters")
    return values


def encode_metrics(row: dict) -> bytes:
    """A METRICS payload: the row's fields but the round and the actor."""
    return json.dumps({k: row[k] for k in METRICS_FIELDS},
                      sort_keys=True).encode("utf-8")


def _no_constant(name: str):
    raise ValueError(f"{name} is not a number")


def decode_metrics(payload: bytes, actor: str) -> dict:
    """The data fields of the METRICS row the server stamps `actor`: a
    client row's train loss and accuracy are finite numbers and its test
    fields null, the `global` row's the reverse, and wall_ms finite.
    Numbers are read as float64, so a huge integer is infinite."""
    try:
        row = json.loads(payload.decode("utf-8"), parse_constant=_no_constant,
                         parse_int=float)
    except (ValueError, RecursionError) as exc:
        raise ProtocolError(f"malformed METRICS payload: {exc}") from None
    if not isinstance(row, dict) or row.keys() != set(METRICS_FIELDS):
        raise ProtocolError("METRICS payload must hold exactly "
                            + ", ".join(METRICS_FIELDS))
    given = (("test_loss", "test_acc") if actor == "global"
             else ("train_loss", "train_acc")) + ("wall_ms",)
    for k, v in row.items():
        finite = type(v) is float and math.isfinite(v)
        if not (finite if k in given else v is None):
            want = "a finite number" if k in given else "null"
            raise ProtocolError(f"{actor} METRICS row: {k} must be {want}, "
                                f"got {v!r:.40}")
    return row
