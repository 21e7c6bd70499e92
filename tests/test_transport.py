import socket
import struct
import threading
import time

import numpy as np
import pytest
from conftest import channel_pair

from cipherfed import data as D
from cipherfed import model as M
from cipherfed.errors import (AlignmentError, CipherfedError, ConfigError,
                              FormatError, LevelError, ProtocolError)
from cipherfed.federation import transport as T
from cipherfed.federation.client import PlainUpdate, encrypt_model
from cipherfed.federation.quantize import QuantizationSpec
from cipherfed.federation.rounds import RoundConfig, run_federated_training
from cipherfed.federation import runner
from cipherfed.federation.runner import (run_socket_federation,
                                         run_transport_client)
from cipherfed.federation import server
from cipherfed.federation.server import FederationCoordinator
from cipherfed.fhe import Ciphertext
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


def test_socket_truncated_frame():
    srv, cli = socket.socketpair()
    ch = T.SocketChannel(srv)
    frame = T.encode_frame(T.Message(T.MSG_JOIN, 0, b"payload"))
    cli.sendall(frame[:8])
    cli.close()
    with pytest.raises(ProtocolError, match="closed the connection"):
        ch.recv(timeout=5.0)
    ch.close()


def test_update_payload_roundtrip(world, small_params):
    from cipherfed.federation.client import encrypt_model
    from cipherfed.federation.quantize import QuantizationSpec
    upd = encrypt_model(world["init"], QuantizationSpec(), world["keys"],
                        client_id=1, sample_count=42, round_index=0)
    blob = T.encode_update(upd)
    back = T.decode_update(blob, 0, small_params)
    assert back.client_id == 1 and back.sample_count == 42
    assert len(back.chunks) == len(upd.chunks)
    assert np.array_equal(back.chunks[0].c0.residues,
                          upd.chunks[0].c0.residues)


def test_plain_update_payload_roundtrip():
    from cipherfed.federation.client import PlainUpdate
    upd = PlainUpdate(3, np.array([1.5, -2.5]), 9, 1)
    back = T.decode_update(T.encode_update(upd), 1, None)
    assert isinstance(back, PlainUpdate)
    assert np.array_equal(back.values, upd.values)


def test_global_payload_roundtrip_plain():
    vec = np.array([0.25, -0.75, 3.0])
    got = T.decode_global(T.encode_global(vec), None)
    assert np.array_equal(got, vec)


def test_malformed_update_payload():
    with pytest.raises(ProtocolError, match="malformed UPDATE"):
        T.decode_update(b"\x01", 0, None)


def test_metrics_payload_roundtrip():
    row = {"round": 1, "actor": "client_0", "train_loss": 0.5,
           "train_acc": 0.9, "test_loss": None, "test_acc": None,
           "wall_ms": 0.0}
    assert T.decode_metrics(T.encode_metrics(row)) == row
    with pytest.raises(ProtocolError):
        T.decode_metrics(b"not json{")


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
        expected_clients=2, rounds=cfg.rounds, mode="fhe",
        material=world["keys"].public)
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
    good_join = T.encode_frame(T.Message(T.MSG_JOIN, 0, T.encode_join(1, 10)))
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


def test_converged_abort_over_socket(world):
    parts = world["parts"]
    cfg = RoundConfig.for_datasets(parts, rounds=5, learning_rate=0.2,
                                   batch_size=16, epochs_per_round=0,
                                   base_seed=3, deterministic_timing=True,
                                   convergence_delta=1e-3)
    model, history = run_socket_federation(
        world["init"], cfg, parts, world["test"], world["keys"], mode="fhe")
    rounds_seen = {r["round"] for r in history}
    assert len(rounds_seen) == 2
    # matches the direct path's early stop
    m2, h2 = run_federated_training(world["init"], cfg, parts, world["test"],
                                    world["keys"], mode="fhe")
    assert {r["round"] for r in h2} == rounds_seen
    assert history == h2


# --- hostile payloads -------------------------------------------------------

def update_payload(param_count, artifact, client_id=0, sample_count=10):
    return (struct.pack("<HQI", client_id, sample_count, param_count)
            + artifact)


OVERRUN = b"CKF1" + struct.pack("<I", 100) + b"abc"  # 100 values, 3 bytes sent


def decode_update(payload):
    return T.decode_update(payload, 0, None)


def decode_global(payload):
    return T.decode_global(payload, None)


@pytest.mark.parametrize("decode,payload", [
    (decode_update, update_payload(100, OVERRUN)),
    (decode_update,
     T.encode_update(PlainUpdate(0, np.array([1.0, 2.0]), 5, 0)) + b"junk"),
    (decode_global, OVERRUN),
    (decode_global, T.encode_global(np.array([0.5, -0.5])) + b"junk"),
], ids=["update-overrun", "update-trailing", "global-overrun",
        "global-trailing"])
def test_artifact_must_fill_payload(decode, payload):
    with pytest.raises(FormatError, match="malformed float vector"):
        decode(payload)


def scripted_round(mode, material, *frames):
    """A one-client coordinator against a scripted client that has
    queued `frames`. Returns the coordinator's error (None if the run
    finished) and the next message the client receives, within 5 s;
    if the run failed, the next one that is not a GLOBAL."""
    server_end, client_end = channel_pair()

    def send_all():  # from a thread, so no frame waits on a full buffer
        try:
            for mtype, payload in frames:
                client_end.send(T.Message(mtype, 0, payload))
        except ProtocolError:
            pass  # the coordinator stopped reading

    sender = threading.Thread(target=send_all, daemon=True)
    sender.start()
    coordinator = FederationCoordinator(expected_clients=1, rounds=1,
                                        mode=mode, material=material)
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


def encrypted_update(world):
    """A client's `CKV4` batch and its parameter count."""
    upd = encrypt_model(world["init"], QuantizationSpec(), world["keys"],
                        client_id=0, sample_count=10, round_index=0)
    return serialize_seeded(upd.chunks), upd.param_count


def assert_aborted(world, payload):
    error, reply = scripted_round(
        "fhe", world["keys"].public, (T.MSG_JOIN, T.encode_join(0, 10)),
        (T.MSG_UPDATE, payload))
    assert error is not None
    assert reply.mtype == T.MSG_ABORT
    return error


def test_truncated_ciphertext_update_aborts_clients(world):
    blob, count = encrypted_update(world)
    payload = update_payload(count, blob[:-100])
    assert isinstance(assert_aborted(world, payload), FormatError)


def test_patched_level_update_aborts_clients(world):
    blob, count = encrypted_update(world)
    bad = bytearray(blob)
    bad[12] = 9  # level byte, past the end of the chain
    payload = update_payload(count, bytes(bad))
    assert isinstance(assert_aborted(world, payload), LevelError)


def test_update_without_chunks_aborts_clients(world):
    blob, count = encrypted_update(world)
    bad = bytearray(blob)
    struct.pack_into("<H", bad, 21, 0)  # chunk count, after level and scale
    error = assert_aborted(world, update_payload(count, bytes(bad)))
    assert isinstance(error, FormatError) and "no chunks" in str(error)


def test_public_key_update_aborts_clients(world):
    """A `CKV2` batch is a GLOBAL artifact; as an fhe UPDATE it is a
    malformed payload."""
    upd = encrypt_model(world["init"], QuantizationSpec(), world["keys"],
                        client_id=0, sample_count=10, round_index=0)
    public = serialize_ciphertext(upd.chunks)
    error = assert_aborted(world, update_payload(upd.param_count, public))
    assert isinstance(error, FormatError)
    assert "expected seeded ciphertext but found ciphertext" in str(error)


def joins_beyond_capacity(world, counts):
    """Clients that JOIN with `counts` on an fhe run; returns the
    coordinator's error and the next message each client receives."""
    pairs = [channel_pair() for _ in counts]
    for cid, (_srv, cli) in enumerate(pairs):
        cli.send(T.Message(T.MSG_JOIN, 0, T.encode_join(cid, counts[cid])))
    coordinator = FederationCoordinator(expected_clients=len(counts),
                                        rounds=1, mode="fhe",
                                        material=world["keys"].public)
    with pytest.raises(ProtocolError) as info:
        coordinator.run([srv for srv, _cli in pairs])
    replies = [cli.recv(timeout=5.0) for _srv, cli in pairs]
    for pair in pairs:
        for ch in pair:
            ch.close()
    return info.value, replies


@pytest.mark.parametrize("counts", [(40000, 30000), (1, 2 ** 64 - 1)])
def test_join_counts_beyond_capacity_abort_every_client(world, counts):
    error, replies = joins_beyond_capacity(world, counts)
    assert f"joined with {sum(counts)} samples" in str(error)
    assert "at most 65535" in str(error)
    assert [m.mtype for m in replies] == [T.MSG_ABORT, T.MSG_ABORT]


def test_padded_global_aborts_transport_client(world, small_params):
    """A GLOBAL with one chunk more than the model fills is refused: the
    client sends ABORT instead of loading it."""
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
    upd = T.decode_update(srv.recv(timeout=30.0).payload, 0, small_params)
    assert srv.recv(timeout=30.0).mtype == T.MSG_METRICS
    one = upd.chunks
    padded = Ciphertext(*(half._like(np.concatenate([half.residues] * 2))
                          for half in (one.c0, one.c1)), one.scale, one.level)
    srv.send(T.Message(T.MSG_GLOBAL, 0, T.encode_global(padded)))
    reply = srv.recv(timeout=30.0)
    thread.join(timeout=30.0)
    srv.close()
    cli.close()
    assert not thread.is_alive()
    assert reply.mtype == T.MSG_ABORT
    assert reply.payload.startswith(b"ShapeError: 2 chunks")
    assert errors and "fill 1" in str(errors[0])


def test_non_protocol_failure_aborts_and_is_wrapped():
    class Broken:
        def __init__(self):
            self.sent = []

        def send(self, msg):
            self.sent.append(msg)

        def recv(self, timeout=120.0):
            raise RuntimeError("disk on fire")

    chan = Broken()
    coordinator = FederationCoordinator(expected_clients=1, rounds=1,
                                        mode="plaintext")
    with pytest.raises(ProtocolError, match="disk on fire"):
        coordinator.run([chan])
    assert [m.mtype for m in chan.sent] == [T.MSG_ABORT]


def plain_frames(join_count, update_count, update_id=0,
                 rows=((0, "client_0"), (0, "global"))):
    """Client 0's frames for one plaintext round: JOIN, an UPDATE that
    names `update_id`, and a METRICS row per (round, actor) in `rows`."""
    upd = PlainUpdate(update_id, np.array([1.0, 2.0]), update_count, 0)
    return ((T.MSG_JOIN, T.encode_join(0, join_count)),
            (T.MSG_UPDATE, T.encode_update(upd)),
            *((T.MSG_METRICS, T.encode_metrics({"round": rnd,
                                                "actor": actor}))
              for rnd, actor in rows))


def test_scripted_plain_round_completes():
    error, reply = scripted_round("plaintext", None, *plain_frames(10, 10))
    assert error is None and reply.mtype == T.MSG_GLOBAL


def test_update_naming_another_client_aborts():
    """Client 0 cannot send an UPDATE on another client's behalf."""
    error, reply = scripted_round("plaintext", None,
                                  *plain_frames(10, 10, update_id=7))
    assert isinstance(error, ProtocolError)
    assert "client 0 sent an UPDATE naming client 7" in str(error)
    assert reply.mtype == T.MSG_ABORT


@pytest.mark.parametrize("rows", [
    ((1, "client_0"), (0, "global")),
    ((0, "client_0"), (3, "global")),
    ((0, "client_1"), (0, "global")),
    ((0, "global"), (0, "global")),
    ((0, "client_0"), (0, "client_0")),
], ids=["train-row-round", "global-row-round", "other-client", "global-first",
        "no-global-row"])
def test_metrics_row_must_name_its_round_and_sender(rows):
    error, reply = scripted_round("plaintext", None,
                                  *plain_frames(10, 10, rows=rows))
    assert isinstance(error, ProtocolError)
    assert "sent a METRICS row for round" in str(error)
    assert reply.mtype == T.MSG_ABORT


def test_join_without_samples_rejected():
    error, reply = scripted_round("plaintext", None, *plain_frames(0, 0))
    assert isinstance(error, ProtocolError) and "0 samples" in str(error)
    assert reply.mtype == T.MSG_ABORT


def test_update_count_must_match_join():
    error, reply = scripted_round("plaintext", None, *plain_frames(10, 12))
    assert isinstance(error, ProtocolError) and "sample count 12" in str(error)
    assert reply.mtype == T.MSG_ABORT


@pytest.mark.parametrize("blobs", [
    b"",
    serialize_float_vector(np.array([1.0]))
    + serialize_float_vector(np.array([2.0]))], ids=["none", "two"])
def test_plain_global_needs_exactly_one_blob(blobs):
    with pytest.raises(FormatError, match="malformed float vector"):
        decode_global(blobs)


def test_plain_update_param_count_must_match_vector():
    payload = T.encode_update(PlainUpdate(0, np.array([1.0, 2.0]), 5, 0))
    assert T.decode_update(payload, 0, None).values.size == 2
    for count in (1, 3):
        bad = payload[:10] + struct.pack("<I", count) + payload[14:]
        with pytest.raises(ProtocolError, match=f"2 values for {count} "):
            T.decode_update(bad, 0, None)


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
        FederationCoordinator(expected_clients=1, rounds=1, mode=mode)
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
    blob, count = encrypted_update(world)
    with pytest.raises(FormatError, match="not a float vector"):
        T.decode_update(update_payload(count, blob), 0, None)
    with pytest.raises(FormatError, match="not a float vector"):
        T.decode_global(blob, None)


def test_plain_payload_on_fhe_run_rejected(small_params):
    upd = PlainUpdate(0, np.array([0.5, -0.5]), 5, 0)
    with pytest.raises(FormatError, match="expected seeded ciphertext but "
                                          "found float vector"):
        T.decode_update(T.encode_update(upd), 0, small_params)
    with pytest.raises(FormatError, match="expected ciphertext but found "
                                          "float vector"):
        T.decode_global(T.encode_global(upd.values), small_params)


def test_deeply_nested_metrics_rejected():
    with pytest.raises(ProtocolError, match="malformed METRICS"):
        T.decode_metrics(b"[" * 100000)


@pytest.mark.parametrize("field,value", [
    ("round", "1"), ("round", 1.5), ("round", True), ("round", None),
    ("train_loss", "0.5"), ("test_loss", [0.5]), ("train_acc", True),
    ("test_acc", {"v": 1})])
def test_metrics_field_types_checked(field, value):
    row = {"round": 0, "actor": "client_0", "train_loss": 0.5,
           "train_acc": 1.0, "test_loss": None, "test_acc": None}
    row[field] = value
    with pytest.raises(ProtocolError, match="int round"):
        T.decode_metrics(T.encode_metrics(row))


# --- non-finite plain values, and updates the others cannot join ------------

@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_plain_update_with_non_finite_value_rejected(bad):
    upd = PlainUpdate(0, np.array([1.0, bad, 2.0]), 5, 0)
    with pytest.raises(FormatError, match="non-finite"):
        T.decode_update(T.encode_update(upd), 0, None)
    with pytest.raises(FormatError, match="non-finite"):
        T.decode_global(T.encode_global(upd.values), None)


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
        cli1.send(T.Message(T.MSG_JOIN, 0, T.encode_join(1, 10)))
        cli1.send(T.Message(T.MSG_UPDATE, 0, payload))

    threads = [threading.Thread(target=f, daemon=True)
               for f in (real_client, rogue)]
    for t in threads:
        t.start()
    coordinator = FederationCoordinator(expected_clients=2, rounds=1,
                                        mode=mode, material=material)
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
    """Client 1 sends a well-formed batch at half client 0's scale: it
    decodes, but the updates cannot be averaged together. (Every `CKV4`
    batch is at level 0, so the scale is what can differ.)"""
    upd = encrypt_model(world["init"], QuantizationSpec(), world["keys"],
                        client_id=1, sample_count=10, round_index=0,
                        rng_seed=77)
    blob = bytearray(serialize_seeded(upd.chunks))
    struct.pack_into("<d", blob, 13, small_params.scale / 2)
    payload = update_payload(upd.param_count, bytes(blob), client_id=1)
    error, real_err, reply = rogue_round(world, "fhe", world["keys"],
                                         payload)
    assert isinstance(error, AlignmentError)
    assert (f"client 1 sent 1 chunks at level 0, scale "
            f"{small_params.scale / 2}") in str(error)
    assert reply.mtype == T.MSG_ABORT
    assert real_err and "server aborted" in str(real_err[0])


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
