"""The benchmark still finds every library name it wraps or calls.

`perfbench/tracing.py` patches functions by name; a name that the library
no longer has makes its per-layer metric read None.  `perfbench/bench.py`
calls the library's drivers, oracle and trace helpers; a call that no
longer fits fails every op.  Otherwise only the minute-long harness smoke
test would notice either.
"""

import importlib
import os

from lstmgrid import lstm_ref

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tracer_finds_every_wrapped_name(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == set()
    finally:
        tracer.uninstall()


def test_benchmark_pipeline_runs_every_workload_exactly(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    bench = importlib.import_module("bench")
    workloads = importlib.import_module("workloads")
    luts = lstm_ref.default_luts()
    for workload in workloads.WORKLOADS.values():
        for inst in workloads.build_instances(workload, 3, toy=True):
            r = bench.run_pipeline(inst, luts, bench._direct)
            assert r.exact, (workload.name, inst.index)
            bench.model_metrics(r)
