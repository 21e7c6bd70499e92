"""The wire federation runner.

The same round as the direct path in rounds.py -- each client runs
`client_steps` for itself alone, the coordinator runs `server_step`,
and each plays its rounds through `server.round_loop` -- but every
update, global model, and metrics row crosses a TCP socket. Because
serialization is lossless, a run's metrics are identical on the direct
and socket transports for the same seeds. Clients compute in turns,
under a lock none holds across a send or recv: numpy releases the GIL
around every loop of over 500 elements, so client threads computing at
once would trade it at each call.
"""

from __future__ import annotations

import socket
import threading
from contextlib import suppress

from ..errors import ProtocolError
from ..model import HybridModel, evaluate, unflatten_weights
from .client import decrypt_and_load
from .metrics import MetricsSink, metrics_row
from .rounds import RoundConfig, _clock, check_run_inputs, client_steps
from .server import FederationCoordinator, round_loop
from .transport import (MSG_ABORT, MSG_GLOBAL, MSG_JOIN, MSG_METRICS,
                        MSG_UPDATE, Message, SocketChannel, abort_message,
                        decode_global, encode_join, encode_metrics,
                        encode_update, frame_bound)

_COMPUTE = threading.Lock()  # held by a socket client while it computes


def run_transport_client(channel, client_id: int, dataset, test_data,
                         initial_model: HybridModel, config: RoundConfig,
                         keys, mode: str) -> HybridModel:
    """Client worker: JOIN, then per round, played by `server.round_loop`,
    train / UPDATE / METRICS, receive GLOBAL, decrypt and load, and
    evaluate on the test split if client 0 (which sends the global row)
    or if config.convergence_delta sets the stop rule. On any failure it
    sends ABORT (`transport.abort_message`), then raises the error."""
    try:
        return _client_rounds(channel, client_id, dataset, test_data,
                              initial_model, config, keys, mode)
    except Exception as exc:
        # if the channel is gone, the coordinator sees that instead
        with suppress(Exception):
            channel.send(abort_message(exc))
        raise


def _client_rounds(channel, client_id: int, dataset, test_data,
                   initial_model: HybridModel, config: RoundConfig,
                   keys, mode: str) -> HybridModel:
    clock = _clock(config)
    evaluates = client_id == 0 or config.convergence_delta is not None
    limit = frame_bound(MSG_GLOBAL, initial_model.param_count,
                        keys.params if mode == "fhe" else None,
                        config.sample_counts, config.quantization)

    def io(r, call, *args, **kwargs):
        """A send or recv of round r; its failure names client and round."""
        try:
            return call(*args, **kwargs)
        except ProtocolError as exc:
            raise ProtocolError(f"client {client_id}, round {r}: {exc}") \
                from None

    def play(model, r):
        t0 = clock()
        with _COMPUTE:
            [(upd, row)] = client_steps(model, [dataset], config, r,
                                        [client_id], mode, keys)
            update = encode_update(upd, config.client_count)
            train_row = encode_metrics(row)
        io(r, channel.send, Message(MSG_UPDATE, r, update))
        io(r, channel.send, Message(MSG_METRICS, r, train_row))

        msg = io(r, channel.recv, limit=limit)
        if msg.mtype == MSG_ABORT:
            raise ProtocolError("server aborted: "
                                + msg.payload.decode("utf-8", "replace"))
        if msg.mtype != MSG_GLOBAL or msg.round_index != r:
            raise ProtocolError(f"client {client_id}: unexpected message "
                                f"type {msg.mtype} round {msg.round_index}")
        with _COMPUTE:
            if mode == "fhe":
                agg = decode_global(msg.payload, keys.params,
                                    model.param_count, config.quantization)
                # before decryption expands a seed: the aggregate must
                # carry this run's sample counts, client by client
                if agg.counts != config.sample_counts:
                    raise ProtocolError(
                        f"GLOBAL carries {len(agg.counts)} sample counts "
                        f"totalling {sum(agg.counts)}; the run's "
                        f"{config.client_count} clients hold "
                        f"{config.sample_counts}")
                model = decrypt_and_load(agg, keys, model, config.quantization)
            else:
                model = unflatten_weights(model, decode_global(
                    msg.payload, None, model.param_count))
            test_acc = test_loss = None
            if evaluates:
                test_acc, test_loss = evaluate(model, test_data.features,
                                               test_data.labels)
            grow = metrics_row(r, "global", test_loss=test_loss,
                               test_acc=test_acc,
                               wall_ms=(clock() - t0) * 1000.0)
            payload = encode_metrics(grow)
        if client_id == 0:
            io(r, channel.send, Message(MSG_METRICS, r, payload))
        return model, [row, grow]

    channel.send(Message(MSG_JOIN, 0, encode_join(client_id)))
    model = initial_model
    for model, _rows in round_loop(config, play, initial_model, None):
        pass
    return model


def run_socket_federation(initial_model, config: RoundConfig,
                          client_datasets, test_data, keys,
                          mode: str = "fhe",
                          sink: MetricsSink | None = None,
                          host: str = "127.0.0.1"):
    """Full protocol over TCP on the loopback interface, after
    `check_run_inputs`: each client in its own thread, the coordinator in
    the caller's. Every socket is closed, also when setup fails partway."""
    check_run_inputs(config, client_datasets, keys, mode)
    coordinator = FederationCoordinator(
        config, mode, initial_model.param_count,
        material=keys.params if mode == "fhe" else None, sink=sink)
    results: dict[int, HybridModel] = {}
    client_errors: dict[int, Exception] = {}
    client_channels: list[SocketChannel] = []
    server_channels: list[SocketChannel] = []
    client_threads: list[threading.Thread] = []

    def client_body(k):
        try:
            results[k] = run_transport_client(
                client_channels[k], k, client_datasets[k], test_data,
                initial_model, config, keys, mode)
        except Exception as exc:
            client_errors[k] = exc

    try:
        with socket.create_server((host, 0),
                                  backlog=config.client_count) as listener:
            listener.settimeout(30.0)
            port = listener.getsockname()[1]
            for _ in range(config.client_count):
                client_channels.append(SocketChannel(
                    socket.create_connection((host, port), timeout=30.0)))
            # connections may be accepted out of order; identity comes
            # from JOIN
            for _ in range(config.client_count):
                server_channels.append(SocketChannel(listener.accept()[0]))
        client_threads = [threading.Thread(target=client_body, args=(k,),
                                           daemon=True)
                          for k in range(config.client_count)]
        for t in client_threads:
            t.start()
        coordinator.run(server_channels)
    finally:
        # a client stuck in send/recv, or in a round not played, fails now
        for ch in server_channels:
            ch.close()
        for t in client_threads:
            t.join(timeout=120.0)
        for ch in client_channels:
            ch.close()
    for k in sorted(client_errors):
        exc = client_errors[k]
        raise exc if isinstance(exc, ProtocolError) \
            else ProtocolError(f"client {k} failed: {exc}")
    return results[0], coordinator.history
