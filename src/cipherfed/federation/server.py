"""Server-side aggregation over encrypted updates.

This module is the server's entire capability surface: it imports no
decryption routine and no secret-bearing type, and it rejects key
material that carries more than the public part. Aggregation is one
integer sum mod the primes, with the total divided out through the
scale, so no rescale. A seeded upload already holds its client's n_k *
w_k at scale * n_k, so of seeded uploads it only adds the P
coefficients of c0, and the c1 halves only where they are already in
memory; it never expands a seed. Public-key ciphertexts, at one scale,
it weights by their sample counts. `round_loop` is the one round loop
of every actor on both transports.
"""

from __future__ import annotations

from contextlib import suppress

import numpy as np

from ..errors import (AlignmentError, CipherfedError, ConfigError,
                      ParameterError, ProtocolError, ShapeError)
from ..fhe.keys import PublicMaterial
from ..fhe.params import EncryptionParams
from ..fhe.nttmath import multipliers, sum_mod, weighted_sum
from ..fhe.ops import Ciphertext, SeededBatch
# perfbench --trace wraps these four; ROADMAP item 1
from ..fhe.encoding import encode_scalar
from ..fhe.ops import add_ct, mul_plain, rescale
from .client import check_capacity
from .metrics import metrics_row
from .transport import (MAX_WIRE_COUNT, MSG_ABORT, MSG_GLOBAL, MSG_JOIN,
                        MSG_METRICS, MSG_UPDATE, Message, abort_message,
                        decode_join, decode_metrics, decode_update,
                        encode_global, frame_bound)

MODES = ("fhe", "plaintext")


def check_mode(mode: str) -> None:
    """A run's mode must be one of MODES; anything else is a ConfigError."""
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}")


def _server_params(material) -> EncryptionParams:
    """The parameters of public material, or parameters: never keys."""
    if isinstance(material, PublicMaterial):
        material = material.params
    if not isinstance(material, EncryptionParams):
        raise ParameterError("server aggregation accepts parameters or "
                             "public material only; got "
                             f"{type(material).__name__}")
    return material


def _check_updates(updates) -> None:
    """Reject a set of updates that cannot be averaged: every encrypted
    update must carry the first update's chunk count and level, in the
    same kind of batch under the same quantization, and the first
    update's parameter count, and a seeded one that many coefficients,
    which fill its chunks. A seeded update's scale must be the scale
    times its own sample count, which it is weighted by; a public-key
    batch's the first one's, which the server weights."""
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
        seeded = isinstance(first, SeededBatch)
        scale = (u.chunks.params.scale * u.sample_count if seeded
                 else first.scale)
        got, want = ((len(u.chunks), u.chunks.level, u.chunks.scale),
                     (len(first), first.level, scale))
        if got != want:
            raise AlignmentError(
                f"client {u.client_id} sent {got[0]} chunks at level "
                f"{got[1]}, scale {got[2]}; expected {want[0]} at level "
                f"{want[1]}, scale {want[2]}")
        if type(u.chunks) is not type(first):
            raise AlignmentError(f"client {u.client_id} sent a "
                                 f"{type(u.chunks).__name__}, not a "
                                 f"{type(first).__name__}")
        if seeded and u.chunks.quantization != first.quantization:
            raise AlignmentError(f"client {u.client_id} quantized under "
                                 f"{u.chunks.quantization}, not "
                                 f"{first.quantization}")
        if seeded and u.chunks.c0.size != u.param_count:
            raise ShapeError(f"client {u.client_id} sent {u.chunks.c0.size} "
                             f"coefficients for {u.param_count} parameters")
        if u.param_count != updates[0].param_count:
            raise AlignmentError(f"client {u.client_id} sent {u.param_count} "
                                 f"parameters, not {updates[0].param_count}")


def aggregate(updates, material: PublicMaterial | EncryptionParams):
    """Weighted encrypted mean over the clients' ciphertext batches, at
    scale (the scale) * n_total, so that decoding divides by n_total;
    the result is one batch at the inputs' level. Of SeededBatches,
    which each hold n_k * w_k, it adds the P coefficients of c0, carries
    the seeds in client order, the sample counts, so that the GLOBAL
    sends them in place of c1, and the uploads' quantization, which sets
    the GLOBAL's rounding, and sums c1 only if every upload holds it in
    memory (encryption on the direct transport): no seed is expanded
    here. Public-key Ciphertexts it weights, S = sum_k n_k * E(w_k) mod
    the primes, both halves, each client's weight a Shoup multiplier
    once. An update under other parameters than the server's is a
    ParameterError."""
    params = _server_params(material)
    for u in updates:
        if u.chunks.params != params:
            raise ParameterError(f"client {u.client_id} encrypted under "
                                 "other parameters than the server's")
    _check_updates(updates)
    updates = sorted(updates, key=lambda u: u.client_id)
    weights = [u.sample_count for u in updates]
    cts = [u.chunks for u in updates]
    first = cts[0]
    if isinstance(first, SeededBatch):
        q0 = params.q_column((0,))[0]
        a = None
        if all(ct.a is not None for ct in cts):
            a = first.a._like(sum_mod(np.stack([ct.a.residues for ct in cts]),
                                      q0))
        return SeededBatch(
            params, sum_mod(np.stack([ct.c0 for ct in cts]), q0),
            params.scale * sum(weights),
            tuple(s for ct in cts for s in ct.seeds), tuple(weights), a,
            first.quantization)
    q = first.c0.q_column
    factors = multipliers(weights, q)
    c0, c1 = (first.c0._like(weighted_sum(
        [getattr(ct, half).residues for ct in cts], factors, q))
        for half in ("c0", "c1"))
    return Ciphertext(c0, c1, first.scale * sum(weights), first.level)


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
    weighted sum under `material` (as `aggregate` takes it) in fhe mode,
    the plain one otherwise."""
    if mode == "fhe":
        return aggregate(updates, material)
    return aggregate_plain(updates)


def round_loop(config, play_round, state, sink):
    """The round loop of every actor: the direct run, the socket
    coordinator and each socket client. play_round(state, r) returns
    (state, rows), the global row last, for r in range(config.rounds);
    the rows go to `sink`, if any, and (state, rows) is yielded. It stops
    once the global test loss moves less than config.convergence_delta."""
    prev_loss, delta = None, config.convergence_delta
    for r in range(config.rounds):
        state, rows = play_round(state, r)
        if sink is not None:
            for row in rows:
                sink.write(row)
        yield state, rows
        loss = rows[-1]["test_loss"]
        if None not in (delta, prev_loss) and abs(prev_loss - loss) < delta:
            return
        prev_loss = loss


class FederationCoordinator:
    """Server side of the wire protocol, driven over abstract channels.

    It runs from the run's `config`, a RoundConfig, whose sample counts
    each UPDATE's scale must carry, whose client count sets the low bits
    each UPDATE drops, and whose quantization spec each decoded UPDATE
    carries: no peer states its own weight or spec. State is limited to
    that config, the run's parameters, the model size `param_count` and
    collected metric rows; decryption never happens here. fhe clients or
    a sample total beyond the capacity (`client.check_capacity`), or
    rounds or clients that outgrow the wire's u16 fields, are a
    ConfigError at construction. `round_loop` plays its rounds, as it
    plays each client's. On any failure it tells every client to abort,
    then raises the error (as a ProtocolError unless a CipherfedError).
    """

    def __init__(self, config, mode: str, param_count: int,
                 material: PublicMaterial | EncryptionParams | None = None,
                 sink=None):
        check_mode(mode)
        if max(config.rounds, config.client_count) > MAX_WIRE_COUNT:
            raise ConfigError(f"rounds and client_count must be <= "
                              f"{MAX_WIRE_COUNT} on the socket transport")
        self.params = None
        if mode == "fhe":
            self.params = _server_params(material)
            check_capacity(config.sample_counts, self.params,
                           config.quantization)
        self.config = config
        self.param_count = param_count
        self.frame_bound = frame_bound(param_count, self.params)
        self.mode = mode
        self.sink = sink
        self.history: list[dict] = []

    def run(self, channels) -> list[dict]:
        try:
            return self._run(channels)
        except Exception as exc:
            abort = abort_message(exc)
            for ch in channels:
                with suppress(Exception):
                    ch.send(abort)
            if isinstance(exc, CipherfedError):
                raise
            raise ProtocolError(f"server failed: {exc}") from exc

    def _recv(self, ch, cid: int, mtype: int, r: int) -> Message:
        msg = ch.recv(limit=self.frame_bound)
        if msg.mtype == MSG_ABORT:
            raise ProtocolError(f"client {cid} aborted round {r}: "
                                f"{msg.payload.decode('utf-8', 'replace')}")
        if msg.mtype != mtype or msg.round_index != r:
            raise ProtocolError(
                f"client {cid}: expected type {mtype} for round {r}, got "
                f"type {msg.mtype} for round {msg.round_index}")
        return msg

    def _run(self, channels) -> list[dict]:
        cfg = self.config
        if len(channels) != cfg.client_count:
            raise ProtocolError(
                f"{len(channels)} channels for {cfg.client_count} clients")
        by_id = {}
        for ch in channels:
            msg = ch.recv(limit=self.frame_bound)
            if msg.mtype != MSG_JOIN:
                raise ProtocolError(f"expected JOIN, got type {msg.mtype}")
            by_id[decode_join(msg.payload)] = ch
        if sorted(by_id) != list(range(cfg.client_count)):
            raise ProtocolError(f"client ids {sorted(by_id)} do not cover "
                                f"0..{cfg.client_count - 1}")
        clients = [(cid, by_id[cid]) for cid in sorted(by_id)]

        for _, rows in round_loop(cfg, self._round, clients, self.sink):
            self.history.extend(rows)
        return self.history

    def _round(self, clients, r: int):
        """Round r: every UPDATE in, the GLOBAL out, the METRICS in."""
        params = self.params
        updates = []
        for cid, ch in clients:
            payload = self._recv(ch, cid, MSG_UPDATE, r).payload
            try:
                updates.append(decode_update(payload, r, params, cid,
                                             self.config.sample_counts[cid],
                                             self.param_count,
                                             self.config.quantization,
                                             self.config.client_count))
            except CipherfedError as e:
                raise type(e)(f"UPDATE from client {cid}: {e}") from e

        payload = encode_global(server_step(updates, self.mode, params))
        for _cid, ch in clients:
            ch.send(Message(MSG_GLOBAL, r, payload))

        # one training row per client in client-id order, then client 0's
        # global row last: the position names each row's actor
        senders = [(cid, ch, f"client_{cid}") for cid, ch in clients]
        senders.append((0, clients[0][1], "global"))
        return clients, [metrics_row(r, actor, **decode_metrics(
            self._recv(ch, cid, MSG_METRICS, r).payload, actor))
            for cid, ch, actor in senders]
