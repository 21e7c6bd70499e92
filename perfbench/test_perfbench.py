"""Tests for the benchmark's own logic. Run with

    python3 -m pytest perfbench
"""

import json
import threading
from types import SimpleNamespace

import pytest

import run
from spans import Span, Tracer, covered_length, self_times, tail_percentile
from cipherfed.federation import transport


class StepClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_nested_and_across_threads():
    clock = StepClock()
    tracer = Tracer(clock=clock)

    def worker(start, end):
        clock.now = start
        with tracer.span("worker"):
            clock.now = end

    with tracer.span("round", root=True) as root:
        clock.now = 1.0
        with tracer.span("child") as child:
            clock.now = 1.5
            with tracer.span("grandchild") as grandchild:
                clock.now = 2.0
            clock.now = 3.0
        # two workers overlap the child and each other
        for start, end in ((2.0, 6.0), (5.0, 8.0)):
            t = threading.Thread(target=worker, args=(start, end))
            t.start()
            t.join(timeout=10)
            assert not t.is_alive()
        clock.now = 10.0

    workers = [s for s in tracer.spans if s.name == "worker"]
    assert [s.parent for s in workers] == [root.sid, root.sid]
    assert all(s.thread != root.thread for s in workers)
    assert child.parent == root.sid and grandchild.parent == child.sid
    own = self_times(tracer.spans)
    # children of the round cover [1, 8]: 7 of its 10 seconds
    assert own[root.sid] == pytest.approx(3.0)
    assert own[child.sid] == pytest.approx(1.5)
    assert own[grandchild.sid] == pytest.approx(0.5)
    assert [own[s.sid] for s in workers] == pytest.approx([4.0, 3.0])


def test_covered_length_merges_and_clips():
    assert covered_length([], 0, 10) == 0
    assert covered_length([(3, 4), (1, 2), (1.5, 2.5)], 0, 10) == 2.5
    assert covered_length([(-5, 1), (9, 20)], 0, 10) == 2


def test_self_time_of_span_without_children_is_its_duration():
    s = Span(1, "leaf", 2.0, 5.0, None, 0, None)
    assert self_times([s]) == {1: 3.0}


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(range(10)) is None
    assert tail_percentile(range(1, 12)) == (pytest.approx(100 / 11), 1)
    values = list(range(100, 0, -1))
    pct, value = tail_percentile(values)
    assert pct == 90.0 and value == 90
    assert sum(v > value for v in values) == 10


def test_frame_bytes_match_encode_frame():
    payload = bytes(range(10))
    msg = transport.Message(transport.MSG_UPDATE, 3, payload)
    # u32 length, u8 type, u16 round, payload
    assert len(transport.encode_frame(msg)) == 4 + 1 + 2 + 10
    assert run.frame_bytes(transport.MSG_UPDATE, payload) == 17

    tracer = Tracer()
    owner = SimpleNamespace(encode_frame=transport.encode_frame)
    tracer.wrap(owner, "encode_frame", "federation.transport.frame",
                lambda frame, m: (m.mtype, len(frame)))
    tracer.arm = "fhe"
    owner.encode_frame(msg)
    owner.encode_frame(transport.Message(transport.MSG_GLOBAL, 3, b"x" * 5))
    tracer.restore()
    assert owner.encode_frame is transport.encode_frame
    assert [s.meta for s in tracer.spans] == [(transport.MSG_UPDATE, 17),
                                              (transport.MSG_GLOBAL, 12)]
    assert run.frame_totals(tracer.spans, "fhe") == {"frames": 2, "up": 17,
                                                     "down": 12}


def test_round_times_skip_round_zero_on_either_clock():
    ep = run.Episode(bounds={"fhe": [(0.0, 5.0), (5.0, 7.0), (7.0, 10.0)]},
                     cpu={"fhe": [(0.0, 1.0), (1.0, 2.5), (2.5, 3.0)]},
                     drift=[0.0] * 3, acc={"fhe": 1.0})
    assert run.round_times(ep, "fhe") == [2.0, 3.0]
    assert run.round_times(ep, "fhe", "cpu") == [1.5, 0.5]


def test_workloads_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("transport_name", ["direct", "socket"])
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload_reports_every_declared_metric(transport_name, trace):
    tiny = run.Workload(samples=90, dims=40, clients=2, epochs=1,
                        transport=transport_name, round_s=1.0)
    out = run.run_workload("tiny", tiny, seed=5, seconds=0, trace=trace)
    section = "per_layer" if trace else "end_to_end"
    assert set(out["metrics"]) == set(run.declared_units(section))
    assert out["correct"] and out["failed"] == 0
    assert out["attempted"] == (2 if trace else 1)

