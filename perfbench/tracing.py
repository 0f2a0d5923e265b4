"""Span tracing of the library's layers from outside the library.

`Tracer.install` replaces the names each caller imports (for example
`systolic_sim.mac_run` and `lstm_ref.mac_run` separately, which gives
caller attribution) with wrappers that record one span per call: id,
name, start, end, parent span, op id and self time.  A span's self time
is its duration minus the time its child spans cover.  Spans stay in
memory until `write_csv` at the end of the run; `uninstall` puts the
original functions back.
"""

import collections
import csv
import itertools
import time

import numpy as np

from lstmgrid import actlut, lstm_ref, systolic_sim

MAC_SIM = "qformat.mac_run@systolic_sim"
MAC_REF = "qformat.mac_run@lstm_ref"
CELL = "lstm_ref.cell_step_fixed"


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent, op, self_s)
        self.counters = collections.Counter()
        self.missing = set()  # wrapped names the library no longer has
        self.op = None
        self.layer_of = {}  # id(LstmLayerParams) -> layer index, per op
        self._stack = []
        self._ids = itertools.count()
        self._patched = []

    def wrap(self, name, fn, after=None):
        """`fn` recording a span per call; `name` may be a function of the
        call's arguments.  `after(result, args)` updates the counters."""
        spans, stack, ids = self.spans, self._stack, self._ids
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [next(ids), 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                label = name(args) if callable(name) else name
                spans.append((frame[0], label, t0, t1, parent, self.op,
                              t1 - t0 - frame[1]))
            if after is not None:
                after(result, args)
            return result

        return traced

    def call(self, name, fn, *args, **kwargs):
        """One traced call made by the benchmark itself."""
        return self.wrap(name, fn)(*args, **kwargs)

    def _patch(self, owner, attr, name, after=None):
        fn = owner.__dict__.get(attr)
        if fn is None:
            self.missing.add(name if isinstance(name, str) else CELL)
            return
        setattr(owner, attr, self.wrap(name, fn, after))
        self._patched.append((owner, attr, fn))

    def install(self):
        counters = self.counters

        def count_rows(result, args):
            saturated = result[1]
            counters["mac_run.rows"] += saturated.size
            counters["mac_run.saturated_rows"] += int(
                np.count_nonzero(saturated))

        def count_words(result, args):
            counters["count_toggles.words"] += np.size(args[0])

        def cell_name(args):
            return "%s.L%d" % (CELL, self.layer_of.get(id(args[0]), -1))

        for module, tag in ((systolic_sim, "systolic_sim"),
                            (lstm_ref, "lstm_ref")):
            self._patch(module, "mac_run", "qformat.mac_run@" + tag,
                        count_rows)
            self._patch(module, "sat_add16", "qformat.sat_add16@" + tag)
            self._patch(module, "requantize", "qformat.requantize@" + tag)
        self._patch(lstm_ref, "cell_step_fixed", cell_name)
        self._patch(actlut.Lut256, "lookup", "actlut.lookup")
        self._patch(systolic_sim, "count_toggles",
                    "systolic_sim.count_toggles", count_words)
        self._patch(systolic_sim, "build_step_schedule",
                    "systolic_sim.build_step_schedule")
        self._patch(systolic_sim, "build_load_schedule",
                    "systolic_sim.build_load_schedule")

    def uninstall(self):
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)

    def saturated_share(self):
        rows = self.counters["mac_run.rows"]
        return self.counters["mac_run.saturated_rows"] / rows if rows else 0.0

    def write_csv(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(("id", "name", "start_s", "end_s", "parent", "op",
                          "self_s"))
            out.writerows(self.spans)


def layer_metrics(tracer, n_ops, n_layers=3):
    """Per-op means of the traced ops' spans and counters.

    Spans outside an op (op id None) are left out.  A metric whose wrapped
    name the library no longer has is None, never zero.
    """
    dur = collections.defaultdict(float)
    self_s = collections.defaultdict(float)
    calls = collections.Counter()
    for _, name, t0, t1, _, op, own in tracer.spans:
        if op is None:
            continue
        dur[name] += t1 - t0
        self_s[name] += own
        calls[name] += 1
    cells = [n for n in calls if n.startswith(CELL + ".L")]
    cnt = tracer.counters

    def per_op(value):
        return value / n_ops

    def both(table, base):
        return table[base + "@systolic_sim"] + table[base + "@lstm_ref"]

    rows = cnt["mac_run.rows"]
    m = {
        "qformat.mac_run.calls": per_op(both(calls, "qformat.mac_run")),
        "qformat.mac_run.rows": per_op(rows),
        "qformat.mac_run.saturated_rows": per_op(
            cnt["mac_run.saturated_rows"]),
        "qformat.mac_run.fast_ratio":
            1.0 - cnt["mac_run.saturated_rows"] / rows if rows else None,
        "qformat.mac_run.sim_s": per_op(dur[MAC_SIM]),
        "qformat.mac_run.ref_s": per_op(dur[MAC_REF]),
        "qformat.sat_add16.calls": per_op(both(calls, "qformat.sat_add16")),
        "qformat.sat_add16.s": per_op(both(dur, "qformat.sat_add16")),
        "qformat.requantize.s": per_op(both(dur, "qformat.requantize")),
        "actlut.lookup.calls": per_op(calls["actlut.lookup"]),
        "actlut.lookup.s": per_op(dur["actlut.lookup"]),
        "lstm_ref.network_infer.s": per_op(dur["lstm_ref.network_infer"]),
        "lstm_ref.cell_step_fixed.calls": per_op(sum(calls[n]
                                                     for n in cells)),
        "lstm_ref.cell_step_fixed.self_s": per_op(sum(self_s[n]
                                                      for n in cells)),
        "mapper.plan_grid.s": per_op(dur["mapper.plan_grid"]),
        "systolic_sim.drive.s": per_op(dur["systolic_sim.drive"]),
        "systolic_sim.drive.self_s": per_op(self_s["systolic_sim.drive"]),
        "systolic_sim.build_step_schedule.calls": per_op(
            calls["systolic_sim.build_step_schedule"]),
        "systolic_sim.build_step_schedule.s": per_op(
            dur["systolic_sim.build_step_schedule"]),
        "systolic_sim.build_load_schedule.calls": per_op(
            calls["systolic_sim.build_load_schedule"]),
        "systolic_sim.build_load_schedule.s": per_op(
            dur["systolic_sim.build_load_schedule"]),
        "systolic_sim.count_toggles.calls": per_op(
            calls["systolic_sim.count_toggles"]),
        "systolic_sim.count_toggles.s": per_op(
            dur["systolic_sim.count_toggles"]),
        "systolic_sim.count_toggles.words": per_op(
            cnt["count_toggles.words"]),
        "systolic_sim.trace_export.s": per_op(
            dur["systolic_sim.trace_export"]),
        "perf_energy.report.s": per_op(dur["perf_energy.report"]),
    }
    for k in range(n_layers):
        m["lstm_ref.cell_step_fixed.L%d.s" % k] = per_op(
            dur["%s.L%d" % (CELL, k)])
    # a metric built from a name that is gone reads as missing, not zero
    for name in tracer.missing:
        prefix = name.split("@")[0] + "."
        for key in m:
            if key.startswith(prefix):
                m[key] = None
    return m
