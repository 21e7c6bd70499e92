"""Server-side aggregation over encrypted updates.

This module is the server's entire capability surface: it imports no
decryption routine and no secret-bearing type, and it rejects key
material that carries more than the public part. Aggregation multiplies
each client's whole ciphertext batch by its integer sample count, adds
the products and divides by the total through the scale: no rescale.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..errors import (AlignmentError, CipherfedError, ConfigError,
                      ParameterError, ProtocolError)
from ..fhe.encoding import encode_scalar
from ..fhe.keys import PublicMaterial
from ..fhe.ops import Ciphertext, add_ct, mul_plain
from ..fhe.ops import rescale  # perfbench --trace wraps it; ROADMAP item 1
from .client import chunk_count_for, sample_capacity
from .quantize import QuantizationSpec
from .transport import (CONVERGED_REASON, MSG_ABORT, MSG_GLOBAL, MSG_JOIN,
                        MSG_METRICS, MSG_UPDATE, Message, decode_join,
                        decode_metrics, decode_update, encode_global)

MODES = ("fhe", "plaintext")


def check_mode(mode: str) -> None:
    """A run's mode must be one of MODES; anything else is a ConfigError."""
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}")


def _require_public(material) -> PublicMaterial:
    if not isinstance(material, PublicMaterial):
        raise ParameterError(
            "server aggregation accepts public material only; got "
            f"{type(material).__name__}")
    return material


def _check_updates(updates) -> None:
    """Reject a set of updates that cannot be averaged: every encrypted
    update must carry the chunk count its parameter count needs, at the
    level and scale of the first update, which the weights are encoded
    for."""
    if not updates:
        raise ProtocolError("no client updates to aggregate")
    rnd = updates[0].round_index
    first = getattr(updates[0], "chunks", None)
    if first is not None and len(first) == 0:
        raise ProtocolError(f"client {updates[0].client_id} sent no chunks")
    seen = set()
    for u in updates:
        if u.round_index != rnd:
            raise ProtocolError(
                f"client {u.client_id} sent round {u.round_index}, "
                f"expected {rnd}")
        if u.client_id in seen:
            raise ProtocolError(f"duplicate update from client {u.client_id}")
        seen.add(u.client_id)
        if u.sample_count < 1:
            raise ProtocolError(f"client {u.client_id} sent sample count "
                                f"{u.sample_count}")
        if first is None:
            continue
        got, want = ((len(c), c.level, c.scale) for c in (u.chunks, first))
        if got != want:
            raise AlignmentError(
                f"client {u.client_id} sent {got[0]} chunks at level "
                f"{got[1]}, scale {got[2]}; expected {want[0]} at level "
                f"{want[1]}, scale {want[2]}")
        n = first.params.ring_degree
        need = chunk_count_for(u.param_count, n)
        if need != want[0]:
            raise ProtocolError(
                f"client {u.client_id} sent {want[0]} chunks for "
                f"{u.param_count} parameters, which need {need} chunks of "
                f"{n} coefficients")


def aggregate(updates, material: PublicMaterial) -> Ciphertext:
    """Weighted encrypted mean over the clients' ciphertext batches:
    S = sum_k n_k * E(w_k), each n_k an integer plaintext of scale 1, at
    scale (input scale) * n_total, so that decoding divides by n_total.
    The result is one batch at the inputs' level."""
    public = _require_public(material)
    _check_updates(updates)
    updates = sorted(updates, key=lambda u: u.client_id)
    params, first = public.params, updates[0].chunks
    acc = None
    for u in updates:
        term = mul_plain(u.chunks, encode_scalar(
            u.sample_count, params, level=first.level, scale=1.0))
        acc = term if acc is None else add_ct(acc, term)
    return replace(acc, scale=first.scale
                   * sum(u.sample_count for u in updates))


def aggregate_plain(updates) -> np.ndarray:
    """The same weighted mean on unencrypted update vectors: sum_k n_k *
    x_k, divided once by n_total. Quantized values lie on the 2^-f grid
    within `sample_capacity`, so the sum is exact in float64 and the
    mean is bitwise the one decrypt_and_load recovers."""
    _check_updates(updates)
    updates = sorted(updates, key=lambda u: u.client_id)
    acc = np.zeros_like(updates[0].values)
    for u in updates:
        if u.values.shape != acc.shape:
            raise AlignmentError(
                f"client {u.client_id} sent {u.values.shape} values")
        acc = acc + u.sample_count * u.values
    return acc / sum(u.sample_count for u in updates)


def server_step(updates, mode: str, material):
    """The server's part of a round on every transport: the encrypted
    weighted sum under public material in fhe mode, the plain one
    otherwise."""
    if mode == "fhe":
        return aggregate(updates, material)
    return aggregate_plain(updates)


def converged(prev_loss, loss, delta) -> bool:
    """Early-stop rule of every round loop: the global test loss moved
    less than delta since the previous round."""
    return (delta is not None and prev_loss is not None and loss is not None
            and abs(prev_loss - loss) < delta)


class FederationCoordinator:
    """Server side of the wire protocol, driven over abstract channels.

    State is limited to public material, the round plan, and collected
    metric rows; decryption never happens here. On any failure it tells
    every client to abort, then raises the error (as a ProtocolError
    unless it is already a CipherfedError).
    """

    def __init__(self, expected_clients: int, rounds: int, mode: str,
                 material: PublicMaterial | None = None, sink=None,
                 convergence_delta: float | None = None,
                 quantization: QuantizationSpec = QuantizationSpec()):
        check_mode(mode)
        if mode == "fhe":
            self.material = _require_public(material)
            self.sample_capacity = sample_capacity(self.material.params,
                                                   quantization)
        else:
            self.material = None
            self.sample_capacity = None
        self.expected_clients = expected_clients
        self.rounds = rounds
        self.mode = mode
        self.sink = sink
        self.convergence_delta = convergence_delta
        self.history: list[dict] = []

    def _abort_all(self, channels, reason: str) -> None:
        for ch in channels:
            try:
                ch.send(Message(MSG_ABORT, 0, reason.encode("utf-8")))
            except Exception:
                pass

    def run(self, channels) -> list[dict]:
        try:
            return self._run(channels)
        except Exception as exc:
            self._abort_all(channels, f"{type(exc).__name__}: {exc}")
            if isinstance(exc, CipherfedError):
                raise
            raise ProtocolError(f"server failed: {exc}") from exc

    @staticmethod
    def _recv(ch, cid: int, mtype: int, r: int) -> Message:
        msg = ch.recv()
        if msg.mtype == MSG_ABORT:
            raise ProtocolError(f"client {cid} aborted round {r}: "
                                f"{msg.payload.decode('utf-8', 'replace')}")
        if msg.mtype != mtype or msg.round_index != r:
            raise ProtocolError(
                f"client {cid}: expected type {mtype} for round {r}, got "
                f"type {msg.mtype} for round {msg.round_index}")
        return msg

    def _run(self, channels) -> list[dict]:
        if len(channels) != self.expected_clients:
            raise ProtocolError(
                f"{len(channels)} channels for {self.expected_clients} clients")
        by_id, joined = {}, {}
        for ch in channels:
            msg = ch.recv()
            if msg.mtype != MSG_JOIN:
                raise ProtocolError(f"expected JOIN, got type {msg.mtype}")
            cid, count = decode_join(msg.payload)
            if cid in by_id:
                raise ProtocolError(f"duplicate JOIN from client {cid}")
            if count < 1:
                raise ProtocolError(f"client {cid} joined with {count} samples")
            by_id[cid], joined[cid] = ch, count
        if sorted(by_id) != list(range(self.expected_clients)):
            raise ProtocolError(f"client ids {sorted(by_id)} do not cover "
                                f"0..{self.expected_clients - 1}")
        total = sum(joined.values())
        if self.sample_capacity is not None and total > self.sample_capacity:
            raise ProtocolError(
                f"clients joined with {total} samples; a level-0 encrypted "
                f"sum holds at most {self.sample_capacity}")
        clients = [(cid, by_id[cid]) for cid in sorted(by_id)]

        params = self.material.params if self.material is not None else None
        prev_loss = None
        for r in range(self.rounds):
            updates = []
            for cid, ch in clients:
                payload = self._recv(ch, cid, MSG_UPDATE, r).payload
                try:
                    upd = decode_update(payload, r, params)
                except CipherfedError as e:
                    raise type(e)(f"UPDATE from client {cid}: {e}") from e
                if upd.client_id != cid:
                    raise ProtocolError(f"client {cid} sent an UPDATE "
                                        f"naming client {upd.client_id}")
                if upd.sample_count != joined[cid]:
                    raise ProtocolError(
                        f"client {cid} sent sample count {upd.sample_count}, "
                        f"joined with {joined[cid]}")
                updates.append(upd)

            payload = encode_global(server_step(updates, self.mode,
                                                self.material))
            for _cid, ch in clients:
                ch.send(Message(MSG_GLOBAL, r, payload))

            # one training row per client in client-id order, then client
            # 0's global row last; each must name its round and sender
            rows = []
            senders = [(cid, ch, f"client_{cid}") for cid, ch in clients]
            for cid, ch, actor in senders + [(0, clients[0][1], "global")]:
                row = decode_metrics(self._recv(ch, cid, MSG_METRICS,
                                                r).payload)
                if (row["round"], row["actor"]) != (r, actor):
                    raise ProtocolError(
                        f"client {cid} sent a METRICS row for round "
                        f"{row['round']}, actor {row['actor']!r}")
                rows.append(row)
            self.history.extend(rows)
            if self.sink is not None:
                for row in rows:
                    self.sink.write(row)

            g_loss = rows[-1].get("test_loss")
            # no ABORT after the last round: the clients stop there anyway
            if (converged(prev_loss, g_loss, self.convergence_delta)
                    and r < self.rounds - 1):
                self._abort_all(channels, CONVERGED_REASON)
                # clients are already training the next round and will
                # emit one UPDATE and one METRICS before they see the
                # abort; drain those so nobody blocks on a full buffer
                for ch in channels:
                    for _ in range(2):
                        try:
                            ch.recv()
                        except Exception:
                            break
                break
            prev_loss = g_loss
        return self.history
