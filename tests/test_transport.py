import json
import re
import socket
import struct
import sys
import threading
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import (channel_pair, coordinator_config, count_expansions,
                      forbid_expansion, patched, resealed, seeded_aggregate,
                      seeded_uploads)

from cipherfed import data as D
from cipherfed import model as M
from cipherfed.errors import (AlignmentError, CipherfedError, ConfigError,
                              DomainError, FormatError, LevelError,
                              ParameterError, ProtocolError)
from cipherfed.federation import transport as T
from cipherfed.federation.client import (ClientUpdate, PlainUpdate,
                                         decrypt_and_load, encrypt_model,
                                         global_bits)
from cipherfed.federation.metrics import metrics_row
from cipherfed.federation.quantize import QuantizationSpec
from cipherfed.federation.rounds import RoundConfig, run_federated_training
from cipherfed.federation import runner
from cipherfed.federation.runner import (run_socket_federation,
                                         run_transport_client)
from cipherfed.federation import server
from cipherfed.federation.server import FederationCoordinator
from cipherfed.fhe import SeededBatch, encode, encrypt
from cipherfed.fhe.serial import (serialize_ciphertext, serialize_float_vector,
                                  serialize_seeded)
from cipherfed.model import flatten_weights
from cipherfed.qsim import PqcArchitecture


@pytest.fixture(scope="module")
def world(small_params):
    from cipherfed.fhe import keygen
    train, test = D.generate_synthetic("blobs", 160, 0.5, seed=31, classes=2)
    parts = D.partition(train, D.PartitionSpec(client_count=2, rng_seed=6))
    arch = PqcArchitecture(qubit_count=2, depth=1)
    init = M.init_model(2, arch, 2, rng_seed=55)
    keys = keygen(small_params, rng_seed=23)
    cfg = RoundConfig.for_datasets(parts, rounds=2, learning_rate=0.2,
                                   batch_size=16, epochs_per_round=1,
                                   base_seed=3, deterministic_timing=True)
    return {"parts": parts, "test": test, "init": init, "keys": keys,
            "cfg": cfg}


def test_frame_roundtrip():
    msg = T.Message(T.MSG_UPDATE, 7, b"payload-bytes")
    frame = T.encode_frame(msg)
    (length,) = struct.unpack("!I", frame[:4])
    assert length == len(frame) - 4
    back = T.decode_body(frame[4:])
    assert back.mtype == T.MSG_UPDATE
    assert back.round_index == 7
    assert back.payload == b"payload-bytes"


def test_decode_unknown_type():
    with pytest.raises(ProtocolError, match="unknown message type"):
        T.decode_body(struct.pack("!BH", 99, 0))


def test_decode_short_body():
    with pytest.raises(ProtocolError, match="too short"):
        T.decode_body(b"\x01")


def test_loopback_channel_roundtrip():
    a, b = channel_pair()
    assert isinstance(a, T.SocketChannel) and isinstance(b, T.SocketChannel)
    a.send(T.Message(T.MSG_JOIN, 0, b"x"))
    got = b.recv(timeout=1.0)
    assert got.mtype == T.MSG_JOIN and got.payload == b"x"
    b.send(T.Message(T.MSG_ABORT, 2, b"stop"))
    back = a.recv(timeout=1.0)
    assert back.mtype == T.MSG_ABORT and back.round_index == 2
    a.close()
    b.close()


def test_loopback_close_wakes_peer():
    a, b = channel_pair()
    a.close()
    with pytest.raises(ProtocolError, match="closed"):
        b.recv(timeout=1.0)
    b.close()


def test_socket_channel_roundtrip():
    srv, cli = socket.socketpair()
    a, b = T.SocketChannel(srv), T.SocketChannel(cli)
    a.send(T.Message(T.MSG_GLOBAL, 3, b"abc" * 1000))
    got = b.recv(timeout=5.0)
    assert got.mtype == T.MSG_GLOBAL and got.payload == b"abc" * 1000
    a.close()
    b.close()


def test_socket_corrupted_length_prefix():
    srv, cli = socket.socketpair()
    ch = T.SocketChannel(srv)
    # flip the top bit of the length prefix of an otherwise valid frame
    frame = bytearray(T.encode_frame(T.Message(T.MSG_JOIN, 0, b"1234567890")))
    frame[0] |= 0x80
    cli.sendall(bytes(frame))
    with pytest.raises(ProtocolError, match="corrupted length"):
        ch.recv(timeout=5.0)
    ch.close()
    cli.close()


def test_socket_frame_shorter_than_its_header():
    """A length below the type byte and the round index is refused
    where the body is decoded."""
    srv, cli = socket.socketpair()
    ch = T.SocketChannel(srv)
    cli.sendall(struct.pack("!I", 2) + b"\x01\x00")
    with pytest.raises(ProtocolError, match="too short"):
        ch.recv(timeout=5.0)
    ch.close()
    cli.close()


def test_socket_truncated_frame():
    srv, cli = socket.socketpair()
    ch = T.SocketChannel(srv)
    frame = T.encode_frame(T.Message(T.MSG_JOIN, 0, b"payload"))
    cli.sendall(frame[:8])
    cli.close()
    with pytest.raises(ProtocolError, match="closed the connection"):
        ch.recv(timeout=5.0)
    ch.close()


def test_frame_past_the_runs_bound_refused_unread():
    """A peer that sends only the length prefix of a MAX_FRAME frame is
    refused at once, before the coordinator buffers or waits for any of
    its body: the bound of a 2-parameter run lies far below."""
    server_end, client_end = channel_pair()
    client_end.send(T.Message(T.MSG_JOIN, 0, T.encode_join(0)))
    client_end._sock.sendall(struct.pack("!I", T.MAX_FRAME))
    coordinator = FederationCoordinator(coordinator_config([10]),
                                        "plaintext", 2)
    errors = []

    def run():
        try:
            coordinator.run([server_end])
        except CipherfedError as exc:
            errors.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout=10.0)
    alive = thread.is_alive()
    server_end.close()
    thread.join(timeout=10.0)
    client_end.close()
    assert not alive, "the coordinator waited for the frame's body"
    assert len(errors) == 1 and isinstance(errors[0], ProtocolError)
    assert (f"frame length {T.MAX_FRAME} exceeds bound "
            f"{T.frame_bound(T.MSG_UPDATE, 2)}") in str(errors[0])


def test_frame_bound_holds_the_runs_frames(small_params, world):
    """A run's frame bound is the exact length of its UPDATE or GLOBAL
    frames, wherever that is above the CONTROL_BYTES floor: here of 3
    chunks from 2 clients, fhe and plain, and of 3 parameters, whose
    frames the floor holds."""
    keys = world["keys"]
    for ups in (seeded_uploads(keys, 3, (5, 7)),
                seeded_uploads(keys, 1, (5, 7), 3)):
        count = ups[0].param_count
        plain = np.zeros(count)
        for payload, mtype, params in (
                (T.encode_update(ups[0], 2), T.MSG_UPDATE, small_params),
                (T.encode_global(server.aggregate(ups, small_params)),
                 T.MSG_GLOBAL, small_params),
                (T.encode_update(PlainUpdate(0, plain, 5, 0)), T.MSG_UPDATE,
                 None),
                (T.encode_global(plain), T.MSG_GLOBAL, None)):
            frame = T.encode_frame(T.Message(mtype, 0, payload))
            bound = T.frame_bound(mtype, count, params, (5, 7))
            assert bound == max(len(frame) - 4, 3 + T.CONTROL_BYTES)


def test_global_frame_bound_follows_the_sample_total(small_params):
    """A client bounds its GLOBAL frames by the run's sample counts: the
    GLOBAL of 12 samples keeps b = 48 bits of c0 and that of 600
    samples b = 54, so of 3 chunks the second bound is 6 bits a
    coefficient longer."""
    count = 3 * small_params.ring_degree
    small, large = (T.frame_bound(T.MSG_GLOBAL, count, small_params, counts)
                    for counts in ((5, 7), (300, 300)))
    assert large - small == (31 - 25) * count // 8


def test_frame_bound_holds_every_control_frame():
    """Past the artifacts, the bound holds a JOIN, the longest METRICS
    row and an ABORT reason of CONTROL_BYTES, also in a plaintext run of
    one parameter."""
    longest = -1.2345678901234567e-308
    assert len(repr(longest)) == 24
    row = metrics_row(2 ** 16 - 1, "client_0", train_loss=longest,
                      train_acc=longest, test_loss=longest,
                      test_acc=longest, wall_ms=longest)
    reason = T.abort_message(ProtocolError("x" * 10 ** 6)).payload
    assert len(reason) == T.CONTROL_BYTES
    for payload in (T.encode_join(2 ** 16 - 1), T.encode_metrics(row),
                    reason):
        for mtype in (T.MSG_UPDATE, T.MSG_GLOBAL):
            assert 3 + len(payload) <= T.frame_bound(mtype, 1)
    assert len(T.encode_metrics(row)) < 256


def test_long_abort_reaches_the_peer_cut_short(world, monkeypatch):
    """A client that fails with a 1 MB message sends an ABORT cut to
    CONTROL_BYTES: the coordinator reads it as the client's abort, not
    as an oversize frame."""
    def fail(*_args, **_kwargs):
        raise ProtocolError("x" * 10 ** 6)
    monkeypatch.setattr(runner, "client_steps", fail)
    with pytest.raises(ProtocolError) as info:
        run_socket_federation(world["init"], world["cfg"], world["parts"],
                              world["test"], world["keys"], mode="fhe")
    message = str(info.value)
    assert "exceeds bound" not in message
    assert message.startswith("client ")
    assert " aborted round 0: ProtocolError: xxx" in message
    assert len(message) < 2 * T.CONTROL_BYTES


def test_update_payload_roundtrip(world, small_params):
    from cipherfed.federation.client import encrypt_model
    from cipherfed.federation.quantize import QuantizationSpec
    upd = encrypt_model(world["init"], QuantizationSpec(), world["keys"],
                        client_id=1, sample_count=42, round_index=0)
    blob = T.encode_update(upd)
    # the artifact alone, its c0 rounded by the u = 19 bits of the
    # default spec
    assert blob == serialize_seeded(upd.chunks, 19)
    back = T.decode_update(blob, 0, small_params, 1, 42, upd.param_count)
    assert back.client_id == 1 and back.sample_count == 42
    assert len(back.chunks) == len(upd.chunks)
    assert back.chunks.scale == upd.chunks.scale == 42 * small_params.scale
    assert back.chunks.counts == upd.chunks.counts == (42,)
    gap = ((back.chunks.c0 - upd.chunks.c0 + np.uint64(2 ** 18))
           % np.uint64(1 << small_params.seeded_bits))
    assert gap.max() <= 2 ** 19 and not (back.chunks.c0 % 2 ** 19).any()
    assert back.chunks.c0.size == upd.param_count


def test_plain_update_payload_roundtrip():
    from cipherfed.federation.client import PlainUpdate
    upd = PlainUpdate(3, np.array([1.5, -2.5]), 9, 1)
    back = T.decode_update(T.encode_update(upd), 1, None, 3, 9, 2)
    assert isinstance(back, PlainUpdate)
    assert np.array_equal(back.values, upd.values)


def test_global_payload_roundtrip_plain():
    vec = np.array([0.25, -0.75, 3.0])
    got = T.decode_global(T.encode_global(vec), None, 3)
    assert np.array_equal(got, vec)


@pytest.mark.parametrize("clients,chunks", [(4, 1), (4, 4), (2, 1)])
def test_fhe_global_size_by_layout(world, small_params, clients, chunks):
    """A GLOBAL is the `CKA5` layout of docs/protocol.md: the `CKV6`
    header, the client count, a u64 count per client, a seed per client
    and chunk, the P coefficients of c0 as a rounded block (d, its width
    byte and P coefficients at b - d bits, padded to a whole byte, d =
    23 for up to 15 clients and b = 50 for 46 samples, 49 for 21), and
    the 16-byte trailer."""
    n = small_params.ring_degree
    count = (chunks - 1) * n + 27
    counts = range(10, 10 + clients)
    d, b = global_bits(small_params, QuantizationSpec(), counts)
    assert (d, b) == (23, {4: 50, 2: 49}[clients])
    payload = T.encode_global(seeded_aggregate(world["keys"], chunks, counts,
                                               count))
    size = (23 + 2 + 8 * clients + 32 * clients * chunks + 2
            + -(-(b - d) * count // 8) + 16)
    assert len(payload) == size
    frame = T.encode_frame(T.Message(T.MSG_GLOBAL, 0, payload))
    assert len(frame) == 7 + size


def test_fhe_global_roundtrip_bitwise(world, small_params):
    """The reader's c1, rebuilt from the seeds and the counts, is the
    server's summed c1, word for word. Its c0 is the server's rounded to
    a multiple of 2^d, d = 23 for 4 clients, and cut to b = 50 bits for
    46 samples, so within 2^22 of it mod 2^b; it decrypts to the same
    weights bit for bit, and it writes the same bytes again."""
    keys, spec = world["keys"], QuantizationSpec()
    template = M.init_model(1540, PqcArchitecture(qubit_count=2, depth=1), 2,
                            rng_seed=5)
    count = template.param_count
    assert -(-count // small_params.ring_degree) == 4
    rng = np.random.default_rng(46)
    ups = [encrypt_model(M.unflatten_weights(template, rng.uniform(
        -spec.clip_range, spec.clip_range, count)), spec, keys, client_id=k,
        sample_count=n, round_index=0, rng_seed=k)
        for k, n in enumerate((10, 11, 12, 13))]
    agg = server.aggregate(ups, keys.public)
    blob = T.encode_global(agg)
    back = T.decode_global(blob, small_params, count)
    # back.c0 - agg.c0 mod 2^50, centred
    gap = ((back.c0 - agg.c0) << np.uint64(14)).view(np.int64) >> 14
    assert back.c0.max() < 1 << 50
    assert np.abs(gap).max() <= 1 << 22 and gap.any()
    assert back.a is None and agg.a is not None
    assert np.array_equal(back.c1.residues, agg.c1.residues)
    assert (back.scale, back.level, back.seeds, back.counts,
            back.quantization) == (agg.scale, agg.level, agg.seeds,
                                   agg.counts, agg.quantization)
    assert agg.counts == (10, 11, 12, 13) and len(agg.seeds) == 16
    assert (flatten_weights(decrypt_and_load(back, keys, template)).tobytes()
            == flatten_weights(decrypt_and_load(agg, keys, template))
            .tobytes())
    assert T.encode_global(back) == blob


def test_global_read_under_another_spec_refused(world, small_params):
    """A client reads a GLOBAL's width from its own run's spec: one
    written for f = 16 is refused by a reader at f = 17, which drops a
    bit fewer, before any field past the header is read; and a batch
    stamped with one spec does not load under another."""
    agg = seeded_aggregate(world["keys"], 1, (10, 11), 14)
    blob = T.encode_global(agg)
    spec = QuantizationSpec(fractional_bits=17)
    with pytest.raises(FormatError, match="truncated"):
        T.decode_global(blob, small_params, 14, quantization=spec)
    m = M.init_model(2, PqcArchitecture(qubit_count=2, depth=1), 2)
    assert m.param_count == 14
    back = T.decode_global(blob, small_params, 14)
    with pytest.raises(DomainError, match="does not load under"):
        decrypt_and_load(back, world["keys"], m, spec)


def test_uploads_of_two_specs_do_not_aggregate(world):
    """Uploads quantized under two specs would need two GLOBAL roundings
    and two decryption steps: the server refuses to sum them."""
    ups = seeded_uploads(world["keys"], 1, (3, 4), 14)
    ups[1] = replace(ups[1], chunks=replace(
        ups[1].chunks, quantization=QuantizationSpec(fractional_bits=17)))
    with pytest.raises(AlignmentError, match="client 1 quantized under"):
        server.aggregate(ups, world["keys"].public)


def test_unseeded_aggregate_is_not_a_global(world):
    """A public-key encryption has no seeds, so it is no upload: alone
    or next to a seeded upload it is an AlignmentError naming its
    client, and it has no GLOBAL encoding either."""
    keys = world["keys"]
    ct = encrypt(encode(np.zeros((1, 4)), keys.params, level=0), keys, [1])
    seeded = seeded_uploads(keys, 1, (3,), 4)[0]
    for ups in ([ClientUpdate(0, ct, 3, 0, 4)],
                [seeded, ClientUpdate(1, ct, 3, 0, 4)]):
        cid = ups[-1].client_id
        with pytest.raises(AlignmentError, match=f"client {cid} sent a "
                                                 "Ciphertext, not a "
                                                 "SeededBatch"):
            server.aggregate(ups, keys.public)
    with pytest.raises(FormatError, match="only a seeded batch that "
                                          "records its quantization"):
        T.encode_global(ct)


def test_malformed_update_payload():
    with pytest.raises(FormatError, match="malformed float vector"):
        T.decode_update(b"\x01", 0, None, 0, 10, 2)


def test_metrics_payload_roundtrip():
    """A METRICS payload holds the five data fields; the server stamps
    the round and the actor back."""
    row = metrics_row(1, "client_0", train_loss=0.5, train_acc=0.9)
    payload = T.encode_metrics(row)
    assert list(json.loads(payload)) == sorted(T.METRICS_FIELDS)
    assert len(T.METRICS_FIELDS) == 5
    back = T.decode_metrics(payload, "client_0")
    assert metrics_row(1, "client_0", **back) == row
    with pytest.raises(ProtocolError):
        T.decode_metrics(b"not json{", "client_0")


def test_plaintext_socket_run_without_keys(world):
    # the plaintext arm needs no key material at all
    model, history = run_socket_federation(
        world["init"], world["cfg"], world["parts"], world["test"],
        keys=None, mode="plaintext")
    assert history[-1]["test_acc"] is not None


def test_plaintext_socket_run_ignores_keys(world):
    # the mode, not the key material a caller passes, picks the artifact
    args = (world["init"], world["cfg"], world["parts"], world["test"])
    with_keys = run_socket_federation(*args, world["keys"], mode="plaintext")
    without = run_socket_federation(*args, None, mode="plaintext")
    assert with_keys[1] == without[1]


@pytest.mark.parametrize("mode", ["fhe", "plaintext"])
def test_direct_and_socket_agree(world, mode):
    args = (world["init"], world["cfg"], world["parts"], world["test"],
            world["keys"] if mode == "fhe" else None)
    m_direct, h_direct = run_federated_training(*args, mode=mode)
    m_sock, h_sock = run_socket_federation(*args, mode=mode)
    assert np.array_equal(flatten_weights(m_direct), flatten_weights(m_sock))
    assert h_direct == h_sock


def test_socket_runs_byte_identical(world, tmp_path):
    from cipherfed.federation.metrics import MetricsSink
    paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
    for p in paths:
        with MetricsSink(p) as sink:
            run_socket_federation(world["init"], world["cfg"], world["parts"],
                                  world["test"], world["keys"], mode="fhe",
                                  sink=sink)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_socket_run_raises_coordinator_error_as_itself(world, monkeypatch):
    """An UPDATE under another parameter digest fails the server's reader
    with a ParameterError, which a socket run raises as it is, as the
    coordinator and the direct transport do."""
    monkeypatch.setattr(runner, "encode_update",
                        lambda update, clients: b"CKU5" + bytes(8))
    with pytest.raises(ParameterError, match="UPDATE from client 0: artifact "
                                             "was produced under different"):
        run_socket_federation(world["init"], world["cfg"], world["parts"],
                              world["test"], world["keys"], mode="fhe")


def test_corrupted_frame_aborts_round_over_socket(world, small_params):
    """A rogue peer sends a frame with a flipped length byte; the
    coordinator aborts the round with a protocol error and the legit
    client is told to stop. Nothing crashes."""
    cfg = world["cfg"]
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(2)
    port = listener.getsockname()[1]

    coordinator = FederationCoordinator(
        cfg, "fhe", world["init"].param_count, material=world["keys"].public)
    server_err = []

    def serve():
        chans = []
        try:
            for _ in range(2):
                conn, _ = listener.accept()
                chans.append(T.SocketChannel(conn))
            coordinator.run(chans)
        except ProtocolError as exc:
            server_err.append(exc)
        finally:
            for ch in chans:
                ch.close()

    srv_thread = threading.Thread(target=serve, daemon=True)
    srv_thread.start()

    client_err = []

    def legit_client():
        sock = socket.create_connection(("127.0.0.1", port), timeout=10.0)
        try:
            run_transport_client(T.SocketChannel(sock), 0, world["parts"][0],
                                 world["test"], world["init"], cfg,
                                 world["keys"], "fhe")
        except ProtocolError as exc:
            client_err.append(exc)
        finally:
            sock.close()

    cli_thread = threading.Thread(target=legit_client, daemon=True)
    cli_thread.start()

    rogue = socket.create_connection(("127.0.0.1", port), timeout=10.0)
    good_join = T.encode_frame(T.Message(T.MSG_JOIN, 0, T.encode_join(1)))
    rogue.sendall(good_join)
    # now a corrupted frame: valid layout, length byte flipped
    frame = bytearray(T.encode_frame(T.Message(T.MSG_UPDATE, 0, b"z" * 64)))
    frame[0] |= 0x80
    rogue.sendall(bytes(frame))

    srv_thread.join(timeout=60.0)
    cli_thread.join(timeout=60.0)
    listener.close()
    rogue.close()
    assert server_err, "coordinator should abort with a protocol error"
    assert isinstance(server_err[0], ProtocolError)
    assert client_err, "legit client should see the abort"
    assert "abort" in str(client_err[0]).lower()


def early_stop_config(world, rounds):
    """No training moves the test loss less than 1e-3 in round 1, so a
    run of this config stops after round 1."""
    return RoundConfig.for_datasets(world["parts"], rounds=rounds,
                                    learning_rate=0.2, batch_size=16,
                                    epochs_per_round=0, base_seed=3,
                                    deterministic_timing=True,
                                    convergence_delta=1e-3)


@pytest.mark.parametrize("rounds", [5, 2])
def test_converged_abort_over_socket(world, rounds, monkeypatch):
    """The run converges after round 1. Every actor applies the round
    loop's stop rule, so the coordinator sends no ABORT, whether round 1
    is the last (2 rounds) or not (5), and the history equals the
    direct path's."""
    sent = []
    send = T.SocketChannel.send

    def recording(self, msg):
        sent.append(msg.mtype)
        send(self, msg)
    monkeypatch.setattr(T.SocketChannel, "send", recording)
    parts, cfg = world["parts"], early_stop_config(world, rounds)
    model, history = run_socket_federation(
        world["init"], cfg, parts, world["test"], world["keys"], mode="fhe")
    assert T.MSG_ABORT not in sent
    assert {r["round"] for r in history} == {0, 1}
    m2, h2 = run_federated_training(world["init"], cfg, parts, world["test"],
                                    world["keys"], mode="fhe")
    assert history == h2
    assert np.array_equal(flatten_weights(model), flatten_weights(m2))


def test_socket_clients_stop_with_the_coordinator(world, monkeypatch):
    """Each client trains rounds 0 and 1 of a 5-round run that stops
    after round 1, and no round beyond the stop."""
    calls = []
    steps = runner.client_steps

    def recording(model, datasets, config, r, client_ids, *args):
        calls.extend((k, r) for k in client_ids)
        return steps(model, datasets, config, r, client_ids, *args)
    monkeypatch.setattr(runner, "client_steps", recording)
    run_socket_federation(world["init"], early_stop_config(world, 5),
                          world["parts"], world["test"], world["keys"],
                          mode="fhe")
    assert sorted(calls) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def record_compute_spans(monkeypatch):
    """(thread, start, end) of every `client_steps` and `evaluate` call
    that a socket client makes."""
    spans = []

    def timed(fn):
        def run(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append((threading.get_ident(), start,
                              time.perf_counter()))
        return run
    for name in ("client_steps", "evaluate"):
        monkeypatch.setattr(runner, name, timed(getattr(runner, name)))
    return spans


def overlaps(spans):
    """Pairs of spans from different threads that overlap in time."""
    return [(a, b) for a in spans for b in spans
            if a[0] != b[0] and a[1] < b[2] and b[1] < a[2]]


@pytest.mark.parametrize("mode", ["fhe", "plaintext"])
def test_socket_clients_compute_in_turns(world, mode, monkeypatch):
    """No client trains or evaluates while another does: two client
    threads computing at once would trade the GIL at every numpy call."""
    spans = record_compute_spans(monkeypatch)
    run_socket_federation(world["init"], replace(world["cfg"], rounds=3),
                          world["parts"], world["test"],
                          world["keys"] if mode == "fhe" else None, mode=mode)
    assert len({thread for thread, _, _ in spans}) == 2
    assert not overlaps(spans)


def test_socket_clients_in_turns_under_stress(world, monkeypatch):
    """Four client threads, more than a 2-core runner has cores, with a
    thread switch every 10 us: they still compute in turns, none
    deadlocks, and the run's results are the direct transport's."""
    train, _ = D.generate_synthetic("blobs", 160, 0.5, seed=31, classes=2)
    parts = D.partition(train, D.PartitionSpec(client_count=4, rng_seed=6))
    cfg = RoundConfig.for_datasets(parts, rounds=3, learning_rate=0.2,
                                   batch_size=16, deterministic_timing=True)
    args = (world["init"], cfg, parts, world["test"], None)
    m_direct, h_direct = run_federated_training(*args, mode="plaintext")
    spans = record_compute_spans(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        start = time.monotonic()
        model, history = run_socket_federation(*args, mode="plaintext")
    finally:
        sys.setswitchinterval(interval)
    assert time.monotonic() - start < 30.0
    assert len({thread for thread, _, _ in spans}) == 4
    assert not overlaps(spans)
    assert history == h_direct
    assert np.array_equal(flatten_weights(model), flatten_weights(m_direct))


def test_tcp_channels_disable_nagle(world, monkeypatch):
    """Both ends of every TCP channel send small frames at once: a
    METRICS frame never waits for the ACK of the UPDATE before it."""
    nodelay = []

    def recording(sock):
        channel = T.SocketChannel(sock)
        nodelay.append(sock.getsockopt(socket.IPPROTO_TCP,
                                       socket.TCP_NODELAY))
        return channel
    monkeypatch.setattr(runner, "SocketChannel", recording)
    run_socket_federation(world["init"], world["cfg"], world["parts"],
                          world["test"], None, mode="plaintext")
    assert len(nodelay) == 4 and all(nodelay)


def test_client_io_failure_names_client_and_round(world):
    """A coordinator that closes the connection after round 0 of a
    2-round run: the client's failure in round 1 names it and the
    round, not only the socket error."""
    srv, cli = channel_pair()
    errors = []

    def client():
        try:
            run_transport_client(cli, 0, world["parts"][0], world["test"],
                                 world["init"], world["cfg"], None,
                                 "plaintext")
        except ProtocolError as exc:
            errors.append(exc)

    thread = threading.Thread(target=client, daemon=True)
    thread.start()
    assert srv.recv(timeout=30.0).mtype == T.MSG_JOIN
    upd = T.decode_update(srv.recv(timeout=30.0).payload, 0, None, 0,
                          world["cfg"].sample_counts[0],
                          world["init"].param_count)
    assert srv.recv(timeout=30.0).mtype == T.MSG_METRICS
    srv.send(T.Message(T.MSG_GLOBAL, 0, T.encode_global(upd.values)))
    assert srv.recv(timeout=30.0).mtype == T.MSG_METRICS
    srv.close()
    thread.join(timeout=30.0)
    cli.close()
    assert not thread.is_alive()
    assert errors and str(errors[0]).startswith("client 0, round 1: socket")


def test_client_playing_past_the_stop_fails_at_once(world, monkeypatch):
    """Clients that ignore the stop rule play round 2 after the
    coordinator has stopped; the run fails at once, without waiting out
    a recv timeout."""
    def no_stop(config, play_round, state, sink):
        return server.round_loop(replace(config, convergence_delta=None),
                                 play_round, state, sink)
    monkeypatch.setattr(runner, "round_loop", no_stop)
    start = time.monotonic()
    with pytest.raises(ProtocolError):
        run_socket_federation(world["init"], early_stop_config(world, 5),
                              world["parts"], world["test"], world["keys"],
                              mode="fhe")
    assert time.monotonic() - start < 30.0


# --- hostile payloads -------------------------------------------------------

OVERRUN = b"CKF1" + struct.pack("<I", 100) + b"abc"  # 100 values, 3 bytes sent


def decode_update(payload):
    return T.decode_update(payload, 0, None, 0, 10, 2)


def decode_global(payload):
    return T.decode_global(payload, None, 2)


@pytest.mark.parametrize("decode,payload", [
    (decode_update, OVERRUN),
    (decode_update,
     T.encode_update(PlainUpdate(0, np.array([1.0, 2.0]), 5, 0)) + b"junk"),
    (decode_global, OVERRUN),
    (decode_global, T.encode_global(np.array([0.5, -0.5])) + b"junk"),
], ids=["update-overrun", "update-trailing", "global-overrun",
        "global-trailing"])
def test_artifact_must_fill_payload(decode, payload):
    with pytest.raises(FormatError, match="malformed float vector"):
        decode(payload)


def scripted_round(mode, material, *frames, param_count=2, sink=None):
    """A one-client coordinator for a model of `param_count` parameters
    against a scripted client that has queued `frames`, each (type,
    round index, payload). Returns the coordinator's error (None if the
    run finished) and the next message the client receives, within 5 s;
    if the run failed, the next one that is not a GLOBAL."""
    server_end, client_end = channel_pair()

    def send_all():  # from a thread, so no frame waits on a full buffer
        try:
            for frame in frames:
                client_end.send(T.Message(*frame))
        except ProtocolError:
            pass  # the coordinator stopped reading

    sender = threading.Thread(target=send_all, daemon=True)
    sender.start()
    coordinator = FederationCoordinator(coordinator_config([10]), mode,
                                        param_count, material=material,
                                        sink=sink)
    try:
        coordinator.run([server_end])
        error = None
    except CipherfedError as exc:
        error = exc
    reply = client_end.recv(timeout=5.0)
    while error is not None and reply.mtype == T.MSG_GLOBAL:
        reply = client_end.recv(timeout=5.0)
    server_end.close()
    sender.join(timeout=5.0)
    client_end.close()
    return error, reply


def client_upload(world):
    """Client 0's round-0 upload of the initial model, one chunk."""
    return encrypt_model(world["init"], QuantizationSpec(), world["keys"],
                         client_id=0, sample_count=10, round_index=0)


def encrypted_update(world):
    """A client's `CKU5` batch, which is its whole UPDATE payload."""
    return T.encode_update(client_upload(world))


def assert_aborted(world, payload):
    error, reply = scripted_round(
        "fhe", world["keys"].public, (T.MSG_JOIN, 0, T.encode_join(0)),
        (T.MSG_UPDATE, 0, payload), param_count=world["init"].param_count)
    assert error is not None
    assert reply.mtype == T.MSG_ABORT
    return error


def test_truncated_ciphertext_update_aborts_clients(world):
    payload = resealed(encrypted_update(world), lambda b: b[:-100])
    error = assert_aborted(world, payload)
    assert isinstance(error, FormatError) and "truncated" in str(error)


def test_patched_level_update_aborts_clients(world):
    # level byte, past the end of the chain
    bad = patched(encrypted_update(world), "B", 12, 9)
    assert isinstance(assert_aborted(world, bad), LevelError)


def test_update_without_chunks_aborts_clients(world):
    # chunk count, after level and scale
    bad = patched(encrypted_update(world), "H", 21, 0)
    error = assert_aborted(world, bad)
    assert isinstance(error, FormatError) and "no chunks" in str(error)


def too_long(payload: bytes, bound: int) -> str:
    """The length refusal of a frame that carries `payload`."""
    return f"frame length {3 + len(payload)} exceeds bound {bound}"


def test_public_key_update_aborts_clients(world):
    """A `CKV6` batch is no UPDATE artifact, and longer than any UPDATE
    of the run: the coordinator refuses its frame by its length prefix,
    unread, and the client gets ABORT."""
    public = serialize_ciphertext(client_upload(world).chunks[:])
    error = assert_aborted(world, public)
    bound = T.frame_bound(T.MSG_UPDATE, world["init"].param_count,
                          world["keys"].params)
    assert isinstance(error, ProtocolError)
    assert too_long(public, bound) in str(error)


def test_update_a_byte_past_the_runs_refused_unread(world, monkeypatch):
    """The coordinator's bound is the exact length of the run's UPDATE
    frame: an UPDATE one byte longer is refused by its length prefix,
    and no byte of it reaches the decoder."""
    keys = world["keys"]
    [upload] = seeded_uploads(keys, 1, (10,))
    payload = T.encode_update(upload) + b"\0"
    decoded = []
    monkeypatch.setattr(server, "decode_update",
                        lambda *args: decoded.append(args))
    error, reply = scripted_round(
        "fhe", keys.public, (T.MSG_JOIN, 0, T.encode_join(0)),
        (T.MSG_UPDATE, 0, payload), param_count=upload.param_count)
    bound = T.frame_bound(T.MSG_UPDATE, upload.param_count, keys.params)
    assert 3 + len(payload) == bound + 1 > 3 + T.CONTROL_BYTES + 1
    assert isinstance(error, ProtocolError) and reply.mtype == T.MSG_ABORT
    assert too_long(payload, bound) in str(error)
    assert decoded == []


def test_thousand_chunk_update_expands_no_seed(world, monkeypatch):
    """An UPDATE of 1,000 chunks for a model that fills 1 is refused by
    its frame's length, which the server's own param count bounds,
    before any of it is read or any seed is expanded."""
    one = client_upload(world).chunks
    n = world["keys"].params.ring_degree
    padded = SeededBatch(one.params, np.resize(one.c0, 999 * n + 1),
                         one.scale, one.seeds * 1000, (1,))
    payload = serialize_seeded(padded, 19)
    expanded = count_expansions(monkeypatch)
    error = assert_aborted(world, payload)
    bound = T.frame_bound(T.MSG_UPDATE, world["init"].param_count,
                          world["keys"].params)
    assert isinstance(error, ProtocolError)
    assert too_long(payload, bound) in str(error)
    assert expanded == []


def test_update_in_parent_layout_refused_naming_client(world):
    """The UPDATE layout that prefixed the artifact with the client id,
    the sample count and the param count (14 bytes) is refused as a
    malformed artifact that names its sender."""
    upd = client_upload(world)
    old = (struct.pack("<HQI", 1, 10, upd.param_count)
           + T.encode_update(upd))
    error, real_err, reply = rogue_round(world, "fhe", world["keys"], old)
    assert isinstance(error, FormatError)
    assert "UPDATE from client 1: unknown magic bytes" in str(error)
    assert reply.mtype == T.MSG_ABORT and b"client 1" in reply.payload


def test_duplicate_join_aborts_every_client():
    """Two of two connections JOIN as client 0: the ids do not cover
    0..1, so the run aborts before any round."""
    pairs = [channel_pair() for _ in range(2)]
    for _srv, cli in pairs:
        cli.send(T.Message(T.MSG_JOIN, 0, T.encode_join(0)))
    coordinator = FederationCoordinator(coordinator_config([10, 10]),
                                        "plaintext", 2)
    with pytest.raises(ProtocolError, match=r"client ids \[0\] do not "
                                            r"cover 0\.\.1"):
        coordinator.run([srv for srv, _cli in pairs])
    assert [cli.recv(timeout=5.0).mtype for _srv, cli in pairs] == [
        T.MSG_ABORT, T.MSG_ABORT]
    for pair in pairs:
        for ch in pair:
            ch.close()


def test_join_is_the_client_id_alone():
    assert T.encode_join(3) == struct.pack("<H", 3)
    assert T.decode_join(T.encode_join(3)) == 3


def test_join_in_parent_layout_aborts_every_client():
    """A 10-byte JOIN that also states a sample count, as the layout
    before this one did, is refused for its trailing bytes."""
    pairs = [channel_pair() for _ in range(2)]
    pairs[0][1].send(T.Message(T.MSG_JOIN, 0, struct.pack("<HQ", 0, 10)))
    pairs[1][1].send(T.Message(T.MSG_JOIN, 0, T.encode_join(1)))
    coordinator = FederationCoordinator(coordinator_config([10, 10]),
                                        "plaintext", 2)
    with pytest.raises(ProtocolError, match="malformed JOIN payload: 8 "
                                            "trailing bytes"):
        coordinator.run([srv for srv, _cli in pairs])
    assert [cli.recv(timeout=5.0).mtype for _srv, cli in pairs] == [
        T.MSG_ABORT, T.MSG_ABORT]
    for pair in pairs:
        for ch in pair:
            ch.close()


def test_server_weights_updates_by_the_config_counts():
    """With config counts (1, 3), uploads [1, 2] and [5, 6] average to
    exactly [4, 5], whatever sample counts the clients hold."""
    pairs = [channel_pair() for _ in range(2)]
    for cid, values, held in ((0, [1.0, 2.0], 500), (1, [5.0, 6.0], 7)):
        cli = pairs[cid][1]
        cli.send(T.Message(T.MSG_JOIN, 0, T.encode_join(cid)))
        cli.send(T.Message(T.MSG_UPDATE, 0, T.encode_update(
            PlainUpdate(cid, np.array(values), held, 0))))
        cli.send(T.Message(T.MSG_METRICS, 0, CLIENT_ROW))
    pairs[0][1].send(T.Message(T.MSG_METRICS, 0, GLOBAL_ROW))
    FederationCoordinator(coordinator_config([1, 3]), "plaintext",
                          2).run([srv for srv, _cli in pairs])
    for _srv, cli in pairs:
        msg = cli.recv(timeout=5.0)
        assert msg.mtype == T.MSG_GLOBAL
        assert T.decode_global(msg.payload, None, 2).tolist() == [4.0, 5.0]
    for pair in pairs:
        for ch in pair:
            ch.close()


def test_coordinator_refuses_counts_beyond_capacity_at_construction(world):
    """Config counts (40000, 30000) exceed the 65,535 samples a level-0
    sum holds: an fhe coordinator is refused before it has a channel to
    read."""
    with pytest.raises(ConfigError, match="70000 samples .* exceed the "
                                          "65535"):
        FederationCoordinator(coordinator_config([40000, 30000]), "fhe",
                              world["init"].param_count,
                              material=world["keys"].public)


@pytest.mark.parametrize("key", ["rounds", "client_count"])
def test_coordinator_refuses_counts_beyond_the_wire(key):
    """The round index and the client id are u16 fields on the wire: a
    code-built RoundConfig that outgrows them is refused when the
    coordinator is built, as `parse_config` refuses a socket config."""
    def config(n):
        counts = (1,) * (n if key == "client_count" else 1)
        return RoundConfig(client_count=len(counts), sample_counts=counts,
                           rounds=n if key == "rounds" else 1,
                           learning_rate=0.1)
    FederationCoordinator(config(T.MAX_WIRE_COUNT), "plaintext", 2)
    with pytest.raises(ConfigError, match=f"{T.MAX_WIRE_COUNT} on the "
                                          "socket transport"):
        FederationCoordinator(config(T.MAX_WIRE_COUNT + 1), "plaintext", 2)


def global_against_client(world, small_params, make_global, monkeypatch):
    """An fhe transport client that trains round 0 and uploads, then
    receives `make_global(update)` as its GLOBAL. Returns the client's
    reply, its error and how many seeds it expanded for the GLOBAL."""
    srv, cli = channel_pair()
    errors = []

    def client():
        try:
            run_transport_client(cli, 0, world["parts"][0], world["test"],
                                 world["init"], world["cfg"], world["keys"],
                                 "fhe")
        except CipherfedError as exc:
            errors.append(exc)

    thread = threading.Thread(target=client, daemon=True)
    thread.start()
    assert srv.recv(timeout=30.0).mtype == T.MSG_JOIN
    upd = T.decode_update(srv.recv(timeout=30.0).payload, 0, small_params,
                          0, world["cfg"].sample_counts[0],
                          world["init"].param_count)
    assert srv.recv(timeout=30.0).mtype == T.MSG_METRICS
    payload = make_global(upd)
    # the client has encrypted its upload; count what the GLOBAL costs
    expanded = count_expansions(monkeypatch)
    srv.send(T.Message(T.MSG_GLOBAL, 0, payload))
    reply = srv.recv(timeout=30.0)
    thread.join(timeout=30.0)
    srv.close()
    cli.close()
    assert not thread.is_alive()
    return reply, errors, len(expanded)


def seeded_global(upd, counts, chunks):
    """A `CKA5` GLOBAL of `chunks` chunks, the upload's coefficients
    repeated to fill all but the last one's, for clients with `counts`;
    every client's seeds are the upload's."""
    one = upd.chunks
    n = one.params.ring_degree
    padded = SeededBatch(one.params, np.resize(one.c0, (chunks - 1) * n
                                               + one.c0.size),
                         one.params.scale * sum(counts),
                         one.seeds * chunks * len(counts), tuple(counts),
                         quantization=one.quantization)
    return T.encode_global(padded)


def client_bound(world, small_params) -> int:
    """The frame bound of a transport client of `world`'s fhe run."""
    return T.frame_bound(T.MSG_GLOBAL, world["init"].param_count,
                         small_params, world["cfg"].sample_counts)


def test_padded_global_aborts_transport_client(world, small_params,
                                               monkeypatch):
    """A `CKA5` GLOBAL with one chunk more than the model fills is
    longer than any GLOBAL of the run: it is refused by its frame's
    length before any seed is expanded, and the client sends ABORT
    instead of loading it."""
    counts = world["cfg"].sample_counts
    payload = seeded_global(client_upload(world), counts, 2)
    reply, errors, expanded = global_against_client(
        world, small_params, lambda upd: payload, monkeypatch)
    refusal = too_long(payload, client_bound(world, small_params))
    assert reply.mtype == T.MSG_ABORT
    assert reply.payload.startswith(b"ProtocolError: client 0, round 0: "
                                    + refusal.encode())
    assert errors and refusal in str(errors[0])
    assert expanded == 0


def test_global_naming_a_thousand_clients_expands_no_seed(world,
                                                          small_params,
                                                          monkeypatch):
    """A GLOBAL whose counts are not the run's is refused before any of
    its clients' seeds is expanded: 1,000 clients, whose seeds make the
    frame longer than the run's bound, by its length, and one client of
    40,000 samples, whose c0 drops the 23 low bits of the run's two
    clients, by its counts."""
    thousand = seeded_global(client_upload(world), [1] * 1000, 1)
    for counts, refusal in (
            ([1] * 1000, "client 0, round 0: " + too_long(
                thousand, client_bound(world, small_params))),
            ([40000], "GLOBAL carries 1 sample counts totalling 40000")):
        reply, errors, expanded = global_against_client(
            world, small_params,
            lambda upd: seeded_global(upd, counts, 1), monkeypatch)
        assert reply.mtype == T.MSG_ABORT
        assert reply.payload.startswith(
            f"ProtocolError: {refusal}".encode())
        assert errors and isinstance(errors[0], ProtocolError)
        assert expanded == 0


def test_ckv2_global_aborts_transport_client(world, small_params,
                                             monkeypatch):
    """A full `CKV6` batch, the layout of the GLOBAL before seeded
    aggregates, is longer than any GLOBAL of an fhe run: it is refused
    by its frame's length, and the client sends ABORT."""
    payload = serialize_ciphertext(client_upload(world).chunks[:])
    reply, errors, expanded = global_against_client(
        world, small_params, lambda upd: payload, monkeypatch)
    refusal = too_long(payload, client_bound(world, small_params))
    assert reply.mtype == T.MSG_ABORT
    assert reply.payload == (b"ProtocolError: client 0, round 0: "
                             + refusal.encode()
                             + b" (corrupted length prefix?)")
    assert errors and isinstance(errors[0], ProtocolError)
    assert expanded == 0


def test_non_protocol_failure_aborts_and_is_wrapped():
    class Broken:
        def __init__(self):
            self.sent = []

        def send(self, msg):
            self.sent.append(msg)

        def recv(self, timeout=120.0, limit=T.MAX_FRAME):
            raise RuntimeError("disk on fire")

    chan = Broken()
    coordinator = FederationCoordinator(coordinator_config([10]),
                                        "plaintext", 2)
    with pytest.raises(ProtocolError, match="disk on fire"):
        coordinator.run([chan])
    assert [m.mtype for m in chan.sent] == [T.MSG_ABORT]


CLIENT_ROW = T.encode_metrics(metrics_row(0, "client_0", train_loss=0.5,
                                         train_acc=1.0))
GLOBAL_ROW = T.encode_metrics(metrics_row(0, "global", test_loss=0.5,
                                         test_acc=1.0))


def plain_frames(rows=((0, CLIENT_ROW), (0, GLOBAL_ROW))):
    """Client 0's frames for one plaintext round: JOIN, an UPDATE of 2
    values, and a METRICS frame per (round index, payload) in `rows`."""
    upd = PlainUpdate(0, np.array([1.0, 2.0]), 10, 0)
    return ((T.MSG_JOIN, 0, T.encode_join(0)),
            (T.MSG_UPDATE, 0, T.encode_update(upd)),
            *((T.MSG_METRICS, rnd, payload) for rnd, payload in rows))


def test_scripted_plain_round_completes():
    error, reply = scripted_round("plaintext", None, *plain_frames())
    assert error is None and reply.mtype == T.MSG_GLOBAL


def test_metrics_rows_stamped_by_position():
    """The server stamps each row with the frame's round and the actor
    its position names: client 0's first row is `client_0`, its second
    `global`."""
    written = []
    error, _reply = scripted_round("plaintext", None, *plain_frames(),
                                   sink=SimpleNamespace(write=written.append))
    assert error is None
    assert written == [
        metrics_row(0, "client_0", train_loss=0.5, train_acc=1.0),
        metrics_row(0, "global", test_loss=0.5, test_acc=1.0)]


NAMING_CLIENT_1 = json.dumps({**json.loads(CLIENT_ROW), "round": 0,
                              "actor": "client_1"}).encode()


@pytest.mark.parametrize("rows,refusal", [
    (((1, CLIENT_ROW), (0, GLOBAL_ROW)), "round 0, got type 4 for round 1"),
    (((0, CLIENT_ROW), (3, GLOBAL_ROW)), "round 0, got type 4 for round 3"),
    (((0, NAMING_CLIENT_1), (0, GLOBAL_ROW)), "payload must hold exactly"),
    (((0, GLOBAL_ROW), (0, GLOBAL_ROW)),
     "client_0 METRICS row: test_acc must be null"),
    (((0, CLIENT_ROW), (0, CLIENT_ROW)),
     "global METRICS row: test_acc must be a finite number"),
], ids=["train-row-round", "global-row-round", "other-client", "global-first",
        "no-global-row"])
def test_metrics_row_must_name_its_round_and_sender(rows, refusal):
    """A METRICS frame names its round in its header and its sender by
    its position, never in its payload: a frame for another round, a
    row that names a sender itself, or a row shaped for another
    position aborts the run."""
    error, reply = scripted_round("plaintext", None,
                                  *plain_frames(rows=rows))
    assert isinstance(error, ProtocolError)
    assert refusal in str(error)
    assert reply.mtype == T.MSG_ABORT


@pytest.mark.parametrize("blobs", [
    b"",
    serialize_float_vector(np.array([1.0]))
    + serialize_float_vector(np.array([2.0]))], ids=["none", "two"])
def test_plain_global_needs_exactly_one_blob(blobs):
    with pytest.raises(FormatError, match="malformed float vector"):
        decode_global(blobs)


def test_plain_update_param_count_must_match_vector():
    """A plain UPDATE must hold the server's param count of values."""
    payload = T.encode_update(PlainUpdate(0, np.array([1.0, 2.0]), 5, 0))
    assert T.decode_update(payload, 0, None, 0, 5, 2).values.size == 2
    for count in (1, 3):
        with pytest.raises(ProtocolError, match=f"2 values for {count} "):
            T.decode_update(payload, 0, None, 0, 5, count)


def test_failing_transport_client_aborts_run_at_once(world):
    parts = list(world["parts"])
    bad = D.Dataset(parts[1].features, parts[1].labels, parts[1].class_count)
    object.__setattr__(bad, "labels", parts[1].labels.copy())
    bad.labels[0] = 99  # out-of-range label -> client 1 fails in training
    parts[1] = bad
    start = time.monotonic()
    with pytest.raises(ProtocolError, match="client 1 aborted round 0"):
        run_socket_federation(world["init"], world["cfg"], parts,
                              world["test"], None, mode="plaintext")
    assert time.monotonic() - start < 30.0


def recording_channels(monkeypatch):
    """Every `SocketChannel` the runner makes, in order of creation."""
    made = []

    def recording(sock):
        made.append(T.SocketChannel(sock))
        return made[-1]

    monkeypatch.setattr(runner, "SocketChannel", recording)
    return made


def test_socket_run_closes_every_channel(world, monkeypatch):
    made = recording_channels(monkeypatch)
    run_socket_federation(world["init"], world["cfg"], world["parts"],
                          world["test"], None, mode="plaintext")
    assert len(made) == 4
    assert all(ch._sock.fileno() == -1 for ch in made)


@pytest.mark.parametrize("mode", ["FHE", "bogus"])
def test_unknown_mode_rejected_before_any_socket_opens(world, monkeypatch,
                                                       mode):
    opened = []
    monkeypatch.setattr(socket, "create_server",
                        lambda *a, **kw: opened.append(a))
    with pytest.raises(ConfigError, match="unknown mode"):
        FederationCoordinator(coordinator_config([10]), mode, 2)
    for keys in (None, world["keys"]):
        with pytest.raises(ConfigError, match="unknown mode"):
            run_socket_federation(world["init"], world["cfg"], world["parts"],
                                  world["test"], keys, mode=mode)
    assert opened == []


def short_by_one(ds):
    return D.Dataset(ds.features[:-1], ds.labels[:-1], ds.class_count)


@pytest.mark.parametrize("mode", ["fhe", "plaintext"])
@pytest.mark.parametrize("case", ["one-dataset", "one-sample-short"])
def test_dataset_mismatch_rejected_before_any_socket_opens(world,
                                                           monkeypatch, case,
                                                           mode):
    """The socket runner checks its datasets against the RoundConfig as
    `run_round` does, at once, instead of failing a client thread."""
    opened = []
    monkeypatch.setattr(socket, "create_server",
                        lambda *a, **kw: opened.append(a))
    parts = list(world["parts"])
    parts = parts[:1] if case == "one-dataset" else [short_by_one(parts[0]),
                                                     parts[1]]
    start = time.monotonic()
    with pytest.raises(ConfigError, match="datasets for 2 clients"
                       if case == "one-dataset" else "client 0 dataset size"):
        run_socket_federation(world["init"], world["cfg"], parts,
                              world["test"], world["keys"], mode=mode)
    assert time.monotonic() - start < 5.0
    assert opened == []


def test_failed_connect_closes_opened_sockets(world, monkeypatch):
    made = recording_channels(monkeypatch)
    connect = socket.create_connection
    calls = []

    def second_fails(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise ConnectionRefusedError("refused for the test")
        return connect(*args, **kwargs)

    monkeypatch.setattr(socket, "create_connection", second_fails)
    with pytest.raises(ConnectionRefusedError, match="for the test"):
        run_socket_federation(world["init"], world["cfg"], world["parts"],
                              world["test"], None, mode="plaintext")
    assert len(calls) == 2 and len(made) == 1
    assert made[0]._sock.fileno() == -1


def test_ciphertext_payload_on_plaintext_run_rejected(world):
    blob = encrypted_update(world)
    with pytest.raises(FormatError, match="not a float vector"):
        T.decode_update(blob, 0, None, 0, 10, world["init"].param_count)
    with pytest.raises(FormatError, match="not a float vector"):
        T.decode_global(blob, None, world["init"].param_count)


def test_plain_payload_on_fhe_run_rejected(small_params):
    upd = PlainUpdate(0, np.array([0.5, -0.5]), 5, 0)
    with pytest.raises(FormatError, match="expected seeded ciphertext but "
                                          "found float vector"):
        T.decode_update(T.encode_update(upd), 0, small_params, 0, 5, 2)
    with pytest.raises(FormatError, match="expected seeded aggregate but "
                                          "found float vector"):
        T.decode_global(T.encode_global(upd.values), small_params, 2)


def test_deeply_nested_metrics_rejected():
    with pytest.raises(ProtocolError, match="malformed METRICS"):
        T.decode_metrics(b"[" * 100000, "client_0")


@pytest.mark.parametrize("field,value", [
    ("round", "1"), ("round", 1.5), ("round", True), ("round", None),
    ("train_loss", "0.5"), ("test_loss", [0.5]), ("train_acc", True),
    ("test_acc", {"v": 1})])
def test_metrics_field_types_checked(field, value):
    """A client row's payload holds no round, numbers for its train
    fields and nulls for its test fields."""
    row = json.loads(CLIENT_ROW)
    row[field] = value
    with pytest.raises(ProtocolError, match="payload must hold exactly"
                       if field == "round" else f"row: {field} must be"):
        T.decode_metrics(json.dumps(row).encode(), "client_0")


@pytest.mark.parametrize("actor,field,text", [
    ("client_0", "train_loss", "NaN"), ("client_0", "train_acc", "Infinity"),
    ("global", "test_loss", "-Infinity"), ("global", "test_acc", "1e400"),
    ("client_0", "wall_ms", "NaN"), ("global", "wall_ms", "1e999"),
    ("client_0", "wall_ms", '{"x": [1]}'), ("global", "wall_ms", '"1.0"'),
    ("client_0", "wall_ms", "true"), ("global", "wall_ms", "null"),
    pytest.param("client_0", "train_loss", "1" + "0" * 400,
                 id="client_0-train_loss-401-digit-int")])
def test_metrics_non_finite_or_non_number_rejected(actor, field, text):
    """NaN and the infinities, also an integer beyond float64, would
    make the metrics file invalid JSON, and `wall_ms` is a finite number
    on every row."""
    row = json.loads(GLOBAL_ROW if actor == "global" else CLIENT_ROW)
    row[field] = "@"
    payload = json.dumps(row).replace('"@"', text).encode()
    with pytest.raises(ProtocolError, match="METRICS"):
        T.decode_metrics(payload, actor)


# --- non-finite plain values, and updates the others cannot join ------------

@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_plain_update_with_non_finite_value_rejected(bad):
    upd = PlainUpdate(0, np.array([1.0, bad, 2.0]), 5, 0)
    with pytest.raises(FormatError, match="non-finite"):
        T.decode_update(T.encode_update(upd), 0, None, 0, 5, 3)
    with pytest.raises(FormatError, match="non-finite"):
        T.decode_global(T.encode_global(upd.values), None, 3)


def rogue_round(world, mode, keys, payload):
    """A round of two clients over socket pairs: client 0 runs for
    real, client 1 joins and sends `payload` as its round-0 UPDATE.
    Returns the coordinator's error, client 0's error and the next
    message client 1 receives."""
    material = keys.public if keys is not None else None
    (srv0, cli0), (srv1, cli1) = channel_pair(), channel_pair()
    real_err = []

    def real_client():
        try:
            run_transport_client(cli0, 0, world["parts"][0], world["test"],
                                 world["init"], world["cfg"], keys, mode)
        except CipherfedError as exc:
            real_err.append(exc)

    def rogue():
        cli1.send(T.Message(T.MSG_JOIN, 0, T.encode_join(1)))
        cli1.send(T.Message(T.MSG_UPDATE, 0, payload))

    threads = [threading.Thread(target=f, daemon=True)
               for f in (real_client, rogue)]
    for t in threads:
        t.start()
    coordinator = FederationCoordinator(world["cfg"], mode,
                                        world["init"].param_count,
                                        material=material)
    with pytest.raises(CipherfedError) as info:
        coordinator.run([srv0, srv1])
    reply = cli1.recv(timeout=5.0)
    for t in threads:
        t.join(timeout=30.0)
    for ch in (srv0, cli0, srv1, cli1):
        ch.close()
    return info.value, real_err, reply


def test_nan_plain_update_aborts_every_client(world):
    upd = PlainUpdate(1, np.array([np.nan] * world["init"].param_count), 10,
                      0)
    error, real_err, reply = rogue_round(world, "plaintext", None,
                                         T.encode_update(upd))
    assert isinstance(error, FormatError)
    assert "UPDATE from client 1" in str(error)
    assert reply.mtype == T.MSG_ABORT
    assert b"client 1" in reply.payload
    assert real_err and "server aborted" in str(real_err[0])
    assert "client 1" in str(real_err[0])


@pytest.mark.parametrize("value", [1e300, 0.1])
def test_unquantized_plain_update_aborts_every_client(world, value):
    """A plain UPDATE beyond the clip range (1e300) or off the 2^-16 grid
    (0.1) is not what quantization under the run's spec gives, so the
    plain sum would not be exact: the coordinator names its sender and
    aborts every client."""
    upd = PlainUpdate(1, np.full(world["init"].param_count, value), 10, 0)
    error, real_err, reply = rogue_round(world, "plaintext", None,
                                         T.encode_update(upd))
    assert isinstance(error, ProtocolError)
    assert ("UPDATE from client 1: plain update not quantized under "
            "QuantizationSpec(") in str(error)
    assert reply.mtype == T.MSG_ABORT
    assert b"client 1" in reply.payload
    assert real_err and "server aborted" in str(real_err[0])
    assert "client 1" in str(real_err[0])


def test_wrong_mode_update_aborts_every_client(world):
    """A `CKF1` UPDATE on an fhe run does not decode; the coordinator
    names its sender and aborts every client."""
    upd = PlainUpdate(1, flatten_weights(world["init"]), 10, 0)
    error, real_err, reply = rogue_round(world, "fhe", world["keys"],
                                         T.encode_update(upd))
    assert isinstance(error, FormatError)
    assert "UPDATE from client 1" in str(error)
    assert reply.mtype == T.MSG_ABORT
    assert b"client 1" in reply.payload
    assert real_err and "server aborted" in str(real_err[0])
    assert "client 1" in str(real_err[0])


def test_mixed_scale_update_aborts_every_client(world, small_params):
    """Client 1 sends a well-formed batch at half client 0's scale Δ.
    A `CKU5` upload of a client of n samples holds the scale Δ·n, the
    one-client case of the scale rule Δ·Σ n, so the server refuses it
    by name, against the run's own count for it, before it is
    averaged."""
    n = world["cfg"].sample_counts[1]
    upd = encrypt_model(world["init"], QuantizationSpec(), world["keys"],
                        client_id=1, sample_count=n, round_index=0,
                        rng_seed=77)
    blob = patched(T.encode_update(upd), "d", 13, small_params.scale / 2)
    error, real_err, reply = rogue_round(world, "fhe", world["keys"], blob)
    assert isinstance(error, FormatError)
    assert (f"UPDATE from client 1: seeded ciphertext scale "
            f"{small_params.scale / 2} is not the scale times its {n} "
            "samples") in str(error)
    assert reply.mtype == T.MSG_ABORT
    assert real_err and "server aborted" in str(real_err[0])


def test_updates_of_different_model_sizes_not_averaged(world):
    """Two one-chunk uploads for models of 27 and 1,000 parameters do
    not average together."""
    ups = [seeded_uploads(world["keys"], 1, (10, 10), n)[k]
           for k, n in enumerate((27, 1000))]
    with pytest.raises(AlignmentError, match="client 1 sent 1000 parameters, "
                                             "not 27"):
        server.aggregate(ups, world["keys"].public)


@pytest.mark.parametrize("counts", [(1,), (20,), (10, 10)])
def test_upload_recording_other_counts_not_averaged(world, counts):
    """An upload records its own client's n_k, as encrypt_model stamps
    it: one whose counts are not (sample_count,), as encrypt_symmetric
    leaves them, is refused by name before the sum, so that no GLOBAL
    carries counts that its scale does not."""
    ups = seeded_uploads(world["keys"], 1, (10, 10), 27)
    ups[1] = replace(ups[1], chunks=replace(
        ups[1].chunks, counts=counts, seeds=ups[1].chunks.seeds
        * len(counts)))
    with pytest.raises(AlignmentError, match=r"client 1 recorded counts "
                                             rf"{re.escape(str(counts))}, "
                                             r"not its sample count \(10,\)"):
        server.aggregate(ups, world["keys"].public)


@pytest.mark.parametrize("chunks", [1, 4])
@pytest.mark.parametrize("clients", [1, 4])
def test_update_and_global_frame_sizes(std_keys, clients, chunks):
    """At N = 4,096 an UPDATE frame of P coefficients in c chunks is 7 +
    23 + 32·c + 2 + ceil(41·P/8) + 16 bytes, u = 19, and a GLOBAL frame
    of K clients 7 + 23 + 2 + 8·K + 32·K·c + 2 + ceil((b - d)·P/8) + 16,
    d = 23 for up to 15 clients and b from the sample total, as
    docs/protocol.md gives them: for 4 clients, 219 B up and 318 B down
    at desk's 27 parameters and 4 x 300 samples (b = 55), 63,260 and
    46,753 B at wide's 12,309 and 4 x 80 (b = 53)."""
    n = std_keys.params.ring_degree
    assert n == 4096
    count = {1: 27, 4: 12309}[chunks]
    counts = {1: (300,) * clients, 4: (80,) * clients}[chunks]
    ups = seeded_uploads(std_keys, chunks, counts, count)

    def frame(mtype, payload):
        return len(T.encode_frame(T.Message(mtype, 0, payload)))

    up = frame(T.MSG_UPDATE, T.encode_update(ups[0]))
    assert up == 7 + 23 + 32 * chunks + 2 + -(-41 * count // 8) + 16
    agg = server.aggregate(ups, std_keys.public)
    down = frame(T.MSG_GLOBAL, T.encode_global(agg))
    d, b = global_bits(std_keys.params, QuantizationSpec(), counts)
    assert d == 23
    assert down == (7 + 23 + 2 + 8 * clients + 32 * clients * chunks + 2
                    + -(-(b - d) * count // 8) + 16)
    if clients == 4:
        assert b == {1: 55, 4: 53}[chunks]
        assert (up, down) == {1: (219, 318), 4: (63260, 46753)}[chunks]


def test_socket_shape_frame_sizes(std_keys):
    """The socket workload's shape, 3,093 parameters in 1 chunk and 2
    clients of 240 samples each (b = 53): 15,932 B up and 11,729 B
    down."""
    ups = seeded_uploads(std_keys, 1, (240, 240), 3093)
    agg = server.aggregate(ups, std_keys.public)
    assert [len(T.encode_frame(T.Message(t, 0, p))) for t, p in (
        (T.MSG_UPDATE, T.encode_update(ups[0])),
        (T.MSG_GLOBAL, T.encode_global(agg)))] == [15932, 11729]


@pytest.mark.parametrize("dims,chunks", [(2, 1), (600, 2)])
def test_direct_fhe_round_expands_each_upload_seed_once(small_params,
                                                        monkeypatch, dims,
                                                        chunks):
    """A direct fhe round of K clients and c chunks expands K·c seeds:
    one per chunk of each upload, at encryption. The aggregate sums the
    a_k that encryption left in memory, and decryption uses that sum."""
    from cipherfed.federation.rounds import run_round
    from cipherfed.fhe import keygen
    train, test = D.generate_synthetic("blobs", 90, 0.5, seed=8, classes=2,
                                       dims=dims)
    parts = D.partition(train, D.PartitionSpec(client_count=3, rng_seed=1))
    init = M.init_model(dims, PqcArchitecture(qubit_count=2, depth=1), 2,
                        rng_seed=3)
    assert -(-init.param_count // small_params.ring_degree) == chunks
    cfg = RoundConfig.for_datasets(parts, rounds=1, learning_rate=0.2,
                                   batch_size=16, epochs_per_round=1,
                                   deterministic_timing=True)
    keys = keygen(small_params, rng_seed=5)
    calls = count_expansions(monkeypatch)
    run_round(init, cfg, parts, test, keys, 0, mode="fhe")
    assert len(calls) == 3 * chunks


def test_coordinator_expands_no_seed_and_runs_no_ntt(world, small_params,
                                                     monkeypatch):
    """The coordinator's fhe round, `decode_update`, `aggregate` and
    `encode_global`, reads seeds and expands none, and runs no NTT. Its
    GLOBAL sums the uploads as the wire rounded them, so its c0 may
    differ from the direct transport's aggregate of the same uploads,
    but it holds the same seeds and counts and loads the same weights,
    bit for bit."""
    from cipherfed.fhe.nttmath import StackedNtt
    counts = world["cfg"].sample_counts
    ups = [encrypt_model(world["init"], QuantizationSpec(), world["keys"],
                         client_id=k, sample_count=n, round_index=0,
                         rng_seed=k) for k, n in enumerate(counts)]
    direct = T.encode_global(server.aggregate(ups, world["keys"].public))
    payloads = [T.encode_update(u) for u in ups]
    forbid_expansion(monkeypatch)
    for name in ("forward", "inverse"):
        monkeypatch.setattr(StackedNtt, name, lambda *a: pytest.fail("NTT"))
    decoded = [T.decode_update(p, 0, small_params, k, n,
                               world["init"].param_count)
               for k, (p, n) in enumerate(zip(payloads, counts))]
    agg = server.server_step(decoded, "fhe", world["keys"].public)
    assert agg.a is None
    monkeypatch.undo()
    got, want = (T.decode_global(g, small_params, world["init"].param_count)
                 for g in (T.encode_global(agg), direct))
    assert (got.seeds, got.counts) == (want.seeds, want.counts)
    assert (flatten_weights(decrypt_and_load(got, world["keys"],
                                             world["init"])).tobytes()
            == flatten_weights(decrypt_and_load(want, world["keys"],
                                                world["init"])).tobytes())


@pytest.mark.parametrize("transport", ["direct", "socket"])
def test_upload_seeds_never_repeat(small_params, monkeypatch, transport):
    """Two uploads that shared a seed would share `a`, and their
    difference would show the server the difference of the weights:
    across 2 chunks, 3 clients and 3 rounds every seed is new."""
    from cipherfed.fhe import keygen
    train, test = D.generate_synthetic("blobs", 150, 0.5, seed=8, classes=2,
                                       dims=600)
    parts = D.partition(train, D.PartitionSpec(client_count=3, rng_seed=1))
    init = M.init_model(600, PqcArchitecture(qubit_count=2, depth=1), 2,
                        rng_seed=3)
    assert -(-init.param_count // small_params.ring_degree) == 2
    cfg = RoundConfig.for_datasets(parts, rounds=3, learning_rate=0.2,
                                   batch_size=16, epochs_per_round=1,
                                   base_seed=4, deterministic_timing=True)
    seen = []
    step = server.server_step

    def recording(updates, mode, material):
        seen.extend(s for u in updates for s in u.chunks.seeds)
        return step(updates, mode, material)

    monkeypatch.setattr(server, "server_step", recording)
    run = (run_federated_training if transport == "direct"
           else run_socket_federation)
    run(init, cfg, parts, test, keygen(small_params, rng_seed=5), mode="fhe")
    assert len(seen) == 2 * 3 * 3
    assert len(set(seen)) == len(seen)
