from cipherfed import pipeline
from cipherfed.config import parse_config
from cipherfed.federation.metrics import MetricsSink

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
