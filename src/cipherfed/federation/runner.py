"""The wire federation runner.

The same round as the direct path in rounds.py -- each client runs
`client_step`, the coordinator runs `server_step` -- but every update,
global model, and metrics row crosses a TCP socket. Because
serialization is lossless, a run's metrics are identical on the direct
and socket transports for the same seeds.
"""

from __future__ import annotations

import socket
import threading

from ..errors import ProtocolError
from ..fhe.keys import public_part
from ..model import HybridModel, evaluate, unflatten_weights
from .client import decrypt_and_load
from .metrics import MetricsSink, metrics_row
from .rounds import RoundConfig, _clock, check_run_inputs, client_step
from .server import FederationCoordinator
from .transport import (CONVERGED_REASON, MSG_ABORT, MSG_GLOBAL, MSG_JOIN,
                        MSG_METRICS, MSG_UPDATE, Message, SocketChannel,
                        decode_global, encode_join, encode_metrics,
                        encode_update)


def run_transport_client(channel, client_id: int, dataset, test_data,
                         initial_model: HybridModel, config: RoundConfig,
                         keys, mode: str) -> HybridModel:
    """Client worker: JOIN, then per round train / UPDATE / METRICS,
    receive GLOBAL, decrypt and load. Client 0 additionally evaluates the
    global model on the test split and reports the global metrics row.
    On any failure the client sends ABORT (reason `<ErrorType>: <message>`)
    so the coordinator stops at once, then raises the error."""
    try:
        return _client_rounds(channel, client_id, dataset, test_data,
                              initial_model, config, keys, mode)
    except Exception as exc:
        try:
            channel.send(Message(MSG_ABORT, 0, f"{type(exc).__name__}: "
                                 f"{exc}".encode("utf-8")))
        except Exception:
            pass  # the channel is gone; the coordinator sees that instead
        raise


def _client_rounds(channel, client_id: int, dataset, test_data,
                   initial_model: HybridModel, config: RoundConfig,
                   keys, mode: str) -> HybridModel:
    clock = _clock(config)
    channel.send(Message(MSG_JOIN, 0,
                         encode_join(client_id, len(dataset))))
    model = initial_model
    for r in range(config.rounds):
        t0 = clock()
        upd, row = client_step(model, dataset, config, r, client_id, mode,
                               keys)
        channel.send(Message(MSG_UPDATE, r, encode_update(upd)))
        channel.send(Message(MSG_METRICS, r, encode_metrics(row)))

        msg = channel.recv()
        if msg.mtype == MSG_ABORT:
            reason = msg.payload.decode("utf-8", "replace")
            if reason == CONVERGED_REASON:
                return model
            raise ProtocolError(f"server aborted: {reason}")
        if msg.mtype != MSG_GLOBAL or msg.round_index != r:
            raise ProtocolError(f"client {client_id}: unexpected message "
                                f"type {msg.mtype} round {msg.round_index}")
        agg = decode_global(msg.payload,
                            keys.params if mode == "fhe" else None)
        if mode == "fhe":
            model = decrypt_and_load(agg, keys, model, config.quantization)
        else:
            model = unflatten_weights(model, agg)

        if client_id == 0:
            test_acc, test_loss = evaluate(model, test_data.features,
                                           test_data.labels)
            grow = metrics_row(r, "global", test_loss=test_loss,
                               test_acc=test_acc,
                               wall_ms=(clock() - t0) * 1000.0)
            channel.send(Message(MSG_METRICS, r, encode_metrics(grow)))
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
    material = public_part(keys)
    coordinator = FederationCoordinator(
        expected_clients=config.client_count, rounds=config.rounds,
        mode=mode, material=material if mode == "fhe" else None, sink=sink,
        convergence_delta=config.convergence_delta,
        quantization=config.quantization)
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
        try:
            coordinator.run(server_channels)
        except Exception as exc:
            # unblock clients stuck in send/recv before collecting them
            for ch in server_channels:
                ch.close()
            if isinstance(exc, ProtocolError):
                raise
            raise ProtocolError(f"server failed: {exc}") from exc
    finally:
        for t in client_threads:
            t.join(timeout=120.0)
        for ch in (*server_channels, *client_channels):
            ch.close()
    for k in sorted(client_errors):
        exc = client_errors[k]
        raise exc if isinstance(exc, ProtocolError) \
            else ProtocolError(f"client {k} failed: {exc}")
    return results[0], coordinator.history
