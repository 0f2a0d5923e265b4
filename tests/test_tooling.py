"""The benchmark still finds every library name it wraps or calls.

`perfbench/tracing.py` patches functions by name; a name that the library
no longer has makes its per-layer metric read None.  `perfbench/bench.py`
calls the library's drivers, oracle and trace helpers; a call that no
longer fits fails every op.  The tracer also counts on how the library
calls them: one gate MAC call per (layer, step) on each side, whose
saturation flags are whole chains' (the saturating workload's self-check
floor counts them), and one `cell_step_fixed` call per (layer, step),
whose first argument names the layer.  Otherwise only the minute-long
harness smoke test would notice any of this.  Nor would it notice the
cell tail's tables being rebuilt per op (they are built once per LUT
pair and format set), a layer laid out more than once per op on either
side, or a step loop re-checking the LUTs.
"""

import collections
import importlib
import os
import sys

import numpy as np
import pytest

import oracles as O
from lstmgrid import actlut, lstm_ref, systolic_sim

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


def _recorder(fn, log):
    """`fn`, appending (args, kwargs, result) to `log` on every call."""
    def recorded(*args, **kwargs):
        result = fn(*args, **kwargs)
        log.append((args, kwargs, result))
        return result
    return recorded


def _traced_pipeline(monkeypatch, inst):
    """`bench.run_pipeline` over `inst` with spies on the calls the tracer
    wraps: {"sim" | "ref": [(mac_run args, kwargs, (acc, saturated))],
    "cell": [(cell_step_fixed args, kwargs, state)]}."""
    bench = importlib.import_module("bench")
    calls = collections.defaultdict(list)
    with monkeypatch.context() as m:
        for module, name, side in ((systolic_sim, "mac_run", "sim"),
                                   (lstm_ref, "mac_run", "ref"),
                                   (lstm_ref, "cell_step_fixed", "cell")):
            m.setattr(module, name, _recorder(getattr(module, name),
                                              calls[side]))
        r = bench.run_pipeline(inst, lstm_ref.default_luts(), bench._direct)
    assert r.exact
    return calls


def _instances(monkeypatch, name):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    workloads = importlib.import_module("workloads")
    return workloads.build_instances(workloads.WORKLOADS[name], 3, toy=True)


def _is_gate_call(args):
    """A gate call multiplies a layer's four-gate stack."""
    return np.ndim(args[0]) == 4 and np.shape(args[0])[0] == 4


@pytest.mark.parametrize("workload", ["stacked_3x480", "reload_3x384",
                                      "sweep_tiny"])
def test_each_side_calls_the_gate_mac_per_layer_step_and_projects_once(
        monkeypatch, workload):
    for inst in _instances(monkeypatch, workload):
        calls = _traced_pipeline(monkeypatch, inst)
        n_layers, steps = inst.spec.n_layers, inst.n_steps
        for side in ("sim", "ref"):
            gates = [args for args, _, _ in calls[side]
                     if _is_gate_call(args)]
            assert len(gates) == n_layers * steps, (side, inst.index)
            assert len(calls[side]) - len(gates) \
                == (inst.params.fc is not None), (side, inst.index)
        layer_of = {id(p): k for k, p in enumerate(inst.params.layers)}
        cells = collections.Counter(layer_of.get(id(args[0]))
                                    for args, _, _ in calls["cell"])
        assert cells == {k: steps for k in range(n_layers)}, inst.index


@pytest.mark.parametrize("workload", ["stacked_3x480", "reload_3x384",
                                      "sweep_tiny"])
def test_each_side_prepares_each_layer_once_and_steps_only_compute(
        monkeypatch, workload):
    # the grid and the oracle each lay a layer out once per op, through
    # the one `prepare_layer`; the LUTs are checked only where the tail
    # tables are built, never per step
    instances = _instances(monkeypatch, workload)
    bench = importlib.import_module("bench")
    prepare, check = lstm_ref.prepare_layer, lstm_ref.check_luts
    for inst in instances:
        prepared, checked = collections.Counter(), collections.Counter()

        def spy_prepare(*args, **kwargs):
            prepared[sys._getframe(1).f_globals["__name__"]] += 1
            return prepare(*args, **kwargs)

        def spy_check(*args, **kwargs):
            checked[sys._getframe(1).f_code.co_name] += 1
            return check(*args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(lstm_ref, "prepare_layer", spy_prepare)
            m.setattr(lstm_ref, "check_luts", spy_check)
            r = bench.run_pipeline(inst, lstm_ref.default_luts(),
                                   bench._direct)
        assert r.exact
        n_layers = inst.spec.n_layers
        assert prepared == {"lstmgrid.systolic_sim": n_layers,
                            "lstmgrid.lstm_ref": n_layers}, inst.index
        assert set(checked) <= {"build_tail_tables"}, inst.index


def test_every_mac_call_flags_the_chains_the_scalar_mac_clips(monkeypatch):
    # the saturating workload's toy network: 96 -> 96 at weight scale 2.0
    # and feature scale 4.0, on one die, so each gate call's chains are
    # whole: a gate's 96 input terms, the call's `head`, then its 96
    # recurrent terms.  A chain split into halves would flag only the
    # halves that clip
    (inst, _) = _instances(monkeypatch, "saturating_1x480")
    layer = inst.params.layers[0]
    whole = np.stack([np.hstack(pair) for pair in zip(
        layer.input_weights(), layer.recurrent_weights())])
    assert whole.shape == (4, 96, 192)
    calls = _traced_pipeline(monkeypatch, inst)
    flags = []
    for side in ("sim", "ref"):
        assert len(calls[side]) == inst.n_steps
        for t, (args, kwargs, (_, saturated)) in enumerate(calls[side]):
            w_head, v_head = map(np.asarray, kwargs["head"][:2])
            w = np.concatenate([w_head, np.asarray(args[0])], axis=-1)
            assert np.array_equal(w.reshape(whole.shape), whole)
            assert np.array_equal(v_head[0], inst.features[t])
            codes = np.concatenate([v_head[0], np.asarray(args[1])[0]]) \
                .tolist()
            want = [O.mac_chain(zip(row, codes))[1]
                    for row in whole.reshape(-1, 192).tolist()]
            assert saturated.ravel().tolist() == want, (side, t)
            flags += want
    assert sum(flags) >= 0.30 * len(flags)


def test_tail_tables_are_built_once_per_lut_pair_and_formats(monkeypatch):
    instances = _instances(monkeypatch, "sweep_tiny")
    bench = importlib.import_module("bench")
    fmts = instances[0].spec.formats
    # fresh tables: nothing is memoized on them yet
    luts = {kind: actlut.build_lut(kind, fmts.state, fmts.gate)
            for kind in ("sigmoid", "tanh")}
    builds = collections.Counter()
    build = lstm_ref.build_tail_tables

    def spy(luts, fmts):
        builds[id(luts["sigmoid"]), id(luts["tanh"]), fmts] += 1
        return build(luts, fmts)

    monkeypatch.setattr(lstm_ref, "build_tail_tables", spy)
    for inst in instances:
        assert bench.run_pipeline(inst, luts, bench._direct).exact
    assert builds[id(luts["sigmoid"]), id(luts["tanh"]), fmts] == 1
    assert max(builds.values()) == 1
