"""The names in cipherfed that the benchmark wraps or imports resolve.

perfbench/run.py traces a run by replacing module attributes under the
names their callers import them by, and records each client's loaded
model the same way. A refactor that drops one of those names breaks
only a traced or socket benchmark run, which no test here would start:
this test loads run.py, installs its tracing and its model recorder,
and undoes both.
"""

import importlib.util
import sys
from pathlib import Path

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def test_perfbench_tracing_and_recording_targets_resolve(monkeypatch):
    # run.py puts src/ and perfbench/ first on sys.path
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    run = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, run)
    spec.loader.exec_module(run)

    tracer = run.Tracer()
    run.install_tracing(tracer)
    wrapped = list(tracer._patched)
    tracer.restore()
    assert wrapped and all(getattr(owner, attr) is fn
                           for owner, attr, fn in wrapped)
    with run.loaded_models() as loaded:
        assert not loaded
