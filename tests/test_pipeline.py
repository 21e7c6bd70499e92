from hashlib import sha256

import pytest

from cipherfed import pipeline
from cipherfed.config import parse_config
from cipherfed.errors import ConfigError
from cipherfed.federation.client import sample_capacity
from cipherfed.federation.metrics import MetricsSink
from cipherfed.federation.quantize import QuantizationSpec

DOC = {"mode": "fhe", "seed": 7, "transport": "direct",
       "deterministic_timing": True,
       "encryption": {"ring_degree": 1024},
       "federation": {"clients": 2, "rounds": 4, "epochs_per_round": 1,
                      "learning_rate": 0.15, "batch_size": 32,
                      "convergence_delta": 0.1},
       "model": {"qubits": 2, "depth": 1},
       "data": {"kind": "blobs", "samples": 160, "noise": 0.5,
                "classes": 2}}


def test_compare_alternates_arms_round_by_round(monkeypatch):
    """On the direct transport each arm runs one round in turn, and an
    arm that stops early drops out while the other goes on."""
    steps = []

    def fake_rounds(model0, rc, parts, test, keys, mode, sink):
        for r in range({"fhe": 3, "plaintext": 1}[mode]):
            steps.append((mode, r))
            row = {"round": r, "actor": "global", "test_acc": 1.0,
                   "test_loss": 0.5}
            sink.write(row)
            yield model0, [row]

    class Rows(list):
        write = list.append

    monkeypatch.setattr(pipeline, "federated_rounds", fake_rounds)
    sinks = Rows(), Rows()
    report = pipeline.compare_runs(parse_config(DOC), *sinks)
    assert steps == [("fhe", 0), ("plaintext", 0), ("fhe", 1), ("fhe", 2)]
    assert [len(s) for s in sinks] == [3, 1]
    assert report["fhe"]["rounds_completed"] == 3
    assert report["plaintext"]["rounds_completed"] == 1
    assert all(report[m]["wall_seconds"] > 0 for m in ("fhe", "plaintext"))


def test_compare_rows_equal_each_arm_alone(tmp_path):
    """Alternating the arms changes no metric row: each arm's file is
    byte for byte the one a run of that arm alone writes."""
    cfg = parse_config(DOC)
    paths = {m: tmp_path / f"compare.{m}.jsonl" for m in ("fhe", "plaintext")}
    with MetricsSink(paths["fhe"]) as sf, \
            MetricsSink(paths["plaintext"]) as sp:
        pipeline.compare_runs(cfg, sf, sp)
    for mode, path in paths.items():
        alone = tmp_path / f"alone.{mode}.jsonl"
        with MetricsSink(alone) as sink:
            pipeline.execute_run(cfg, mode=mode, sink=sink)
        assert path.read_bytes() == alone.read_bytes()
        assert path.read_bytes()


def test_sample_capacity_at_the_defaults():
    cfg = parse_config(DOC)
    assert sample_capacity(cfg.encryption, cfg.quantization) == 65535
    # half the clip range leaves room in q0 for twice the samples: each
    # client's error enters the sum once, whatever its sample count, so
    # the rounding step bounds the clients, not the samples
    assert sample_capacity(cfg.encryption,
                           QuantizationSpec(clip_range=4.0)) == 131071
    # fractional bits move the noise's limit alone, far below q0 / 2
    assert sample_capacity(cfg.encryption, QuantizationSpec(
        clip_range=4.0, fractional_bits=15)) == 131071


def test_round_config_rejects_samples_beyond_capacity():
    cfg = parse_config(DOC)
    assert sum(pipeline.round_config(
        cfg, [range(40000), range(25535)]).sample_counts) == 65535
    with pytest.raises(ConfigError, match="65536 samples across the clients "
                                          "exceed the 65535"):
        pipeline.round_config(cfg, [range(40000), range(25536)])


def test_round_config_rejects_upload_without_room_for_one_sample():
    """A 40-bit base prime at scale 2^40 and clip range 8 cannot hold a
    single quantized weight at level 0."""
    cfg = parse_config({**DOC, "encryption": {"ring_degree": 1024,
                                              "chain_bits": [40, 40, 40]}})
    with pytest.raises(ConfigError, match="exceed the 0 that a level-0"):
        pipeline.round_config(cfg, [range(1), range(1)])


def test_key_file_runs_share_no_encryption_randomness(tmp_path,
                                                     monkeypatch):
    """Two socket runs that load the same key files under the same seed
    send different c0 bytes in every UPDATE, so that no server can take
    one run's uploads from the other's, and write the same metrics,
    since decryption is exact. Keys drawn from the seed hold no nonce:
    two such runs send the same bytes."""
    from cipherfed.federation import runner
    pipeline.write_key_files(pipeline.build_keys(parse_config(DOC)),
                             tmp_path / "keys")
    sent, encode = {}, runner.encode_update

    def recording(update, clients):
        payload = encode(update, clients)
        sent[update.round_index, update.client_id] = payload
        return payload

    monkeypatch.setattr(runner, "encode_update", recording)
    runs = []
    for keys, n in (({"dir": str(tmp_path / "keys")}, 2), (None, 2)):
        for k in range(n):
            cfg = parse_config({**DOC, "transport": "socket", "keys": keys})
            path = tmp_path / f"{keys is None}-{k}.jsonl"
            sent.clear()
            with MetricsSink(path) as sink:
                pipeline.execute_run(cfg, sink=sink)
            runs.append((path.read_bytes(), dict(sent)))
    (m0, up0), (m1, up1), (m2, up2), (m3, up3) = runs
    assert m0 == m1 == m2 == m3 and m0
    assert up0.keys() == up1.keys() and len(up0) >= 2
    for key, payload in up0.items():
        other = up1[key]
        assert len(payload) == len(other) and payload[:23] == other[:23]
        # one chunk: the seed, d and the width, then c0
        assert payload[23:55] != other[23:55]
        assert payload[57:-16] != other[57:-16]
    assert up2 == up3


@pytest.mark.parametrize("transport", ["direct", "socket"])
def test_run_builds_only_q0_material(transport):
    """keygen and a 2-round fhe run build no NTT context, no NTT row of
    s and no public key: the run encrypts, sums and decrypts over q0
    alone, with exact FFT products by s in the coefficient domain. Read
    afterwards, the public key is the one keygen drew before it was
    built on first use: seed 7's `CKP3` bytes."""
    from cipherfed.fhe.serial import serialize_public_key
    cfg = parse_config({**DOC, "transport": transport,
                        "federation": {**DOC["federation"], "rounds": 2,
                                       "convergence_delta": None}})
    params = cfg.encryption

    def built():
        return ([key for kind, key in params.__dict__.get("_cache", ())
                 if kind == "ntt"],
                list(keys._rows), keys._public)

    keys = pipeline.build_keys(cfg)
    assert built() == ([], [], None)
    _model, history, _wall = pipeline.execute_run(cfg, "fhe", keys=keys)
    assert [r["round"] for r in history if r["actor"] == "global"] == [0, 1]
    assert built() == ([], [], None)
    digest = sha256(serialize_public_key(keys.public)).hexdigest()[:16]
    assert digest == "c7a0b2155f0340f9"
