"""Benchmark body: workloads through the `lstmgrid run` pipeline.

One op is one network instance through plan_grid -> simulate / run_reload
-> network_infer with the plan's column blocks and an exact comparison ->
report -> PhaseTrace.to_csv_rows.  An op whose grid output differs from
the oracle, or that raises, counts as failed and makes the command exit 3.
`--trace 0` prints the end-to-end metrics; `--trace 1` runs untraced,
then traced, and prints the per-layer metrics.  The last line of standard
output is one JSON object; run details, and the spans of a traced run, go
to `.perfbench/` under the repository root.
"""

import argparse
import collections
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

import tracing
from lstmgrid import cli, lstm_ref, mapper, perf_energy, systolic_sim
from workloads import WORKLOADS, build_instances

SETUP_REPEATS = 5
HARD_CAP_S = 75.0  # per phase: two phases and set-up stay under 180 s
EXIT_INCORRECT = 3

PHASE_KINDS = ("feature_stream", "recurrent_compute", "gate_compute",
               "gate_reduce", "gate_activate", "elementwise", "hidden_chain",
               "hidden_bcast", "fc_compute", "fc_reduce", "fc_activate",
               "writeback", "param_load", "state_load", "state_store")
LINK_KINDS = ("p", "r", "h", "out")
N_LAYERS = 3  # deepest workload network

# Imported in a fresh process to time set-up: the modules `lstmgrid run`
# imports, the activation tables, and one plan per distinct network shape.
SETUP_CODE = """
import json, sys, time
shapes = json.loads(sys.stdin.read())
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from lstmgrid import cli, lstm_ref, mapper
lstm_ref.default_luts()
for layers, n_out, nh_capacity, mode in shapes:
    spec = lstm_ref.NetworkSpec([tuple(l) for l in layers], n_out)
    mapper.plan_grid(spec, mapper.TileSpec(nh_capacity=nh_capacity),
                     reload=mode == "reload", chip_select=mode == "chip_select")
print(time.perf_counter() - t0)
"""


def measure_setup(instances, src, root):
    shapes = sorted({(tuple(inst.spec.layers), inst.spec.n_out,
                      inst.tile.nh_capacity, inst.mode)
                     for inst in instances}, key=repr)
    doc = json.dumps(shapes)
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, src],
                              input=doc, capture_output=True, text=True,
                              timeout=60, cwd=root, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def _direct(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


Sample = collections.namedtuple("Sample",
                                "instance total_s drive_s oracle_s n_steps")


class OpResult:
    __slots__ = ("total_s", "drive_s", "oracle_s", "exact", "outputs",
                 "trace", "report", "csv_rows")


def run_pipeline(inst, luts, call):
    """One op: the `lstmgrid run` pipeline without file output."""
    clock = time.perf_counter
    r = OpResult()
    t0 = clock()
    plan = call("mapper.plan_grid", mapper.plan_grid, inst.spec, inst.tile,
                reload=inst.mode == "reload",
                chip_select=inst.mode == "chip_select")
    driver = (systolic_sim.run_reload if inst.mode == "reload"
              else systolic_sim.simulate)
    t1 = clock()
    r.outputs, r.trace = call("systolic_sim.drive", driver, plan,
                              inst.params, inst.features, luts)
    t2 = clock()
    blocks, fc_blocks = cli._plan_blocks(plan)
    oracle = call("lstm_ref.network_infer", lstm_ref.network_infer,
                  inst.spec, inst.params, inst.features, luts=luts,
                  col_blocks_per_layer=blocks,
                  fc_col_blocks=fc_blocks if inst.params.fc else None)
    t3 = clock()
    r.exact = bool(np.array_equal(r.outputs, oracle))
    r.report = call("perf_energy.report", perf_energy.report, r.trace)
    r.csv_rows = call("systolic_sim.trace_export", r.trace.to_csv_rows)
    t4 = clock()
    r.total_s, r.drive_s, r.oracle_s = t4 - t0, t2 - t1, t3 - t2
    return r


def fingerprint(r):
    """Digest of everything the model computes for one op."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(r.outputs, dtype="<i8").tobytes())
    h.update(repr(r.csv_rows).encode())
    h.update(repr(r.report).encode())
    return h.hexdigest()[:16]


def model_metrics(r):
    """Simulated (model) statistics of one op, per inference step."""
    trace, rep = r.trace, r.report
    n = trace.n_steps
    m = {"us_per_step": rep.time_us / n,
         "uj_per_step": rep.total_energy_uj / n,
         "cycles.total": rep.cycles / n}
    for kind in PHASE_KINDS:
        m["cycles." + kind] = rep.phase_cycles.get(kind, 0) / n
    layer_cycles = [0] * N_LAYERS
    toggles = dict.fromkeys(LINK_KINDS, 0)
    bits = dict.fromkeys(LINK_KINDS, 0)
    for rec in trace.records:
        if rec.step is None:
            continue
        layer_cycles[rec.layer] += rec.duration
        for ev in rec.events:
            toggles[ev.kind] += ev.toggles
            bits[ev.kind] += ev.bits
    for k, cyc in enumerate(layer_cycles):
        m["cycles.L%d" % k] = cyc / n
    for kind in LINK_KINDS:
        m["toggles." + kind] = toggles[kind] / n
        m["toggle_factor." + kind] = (toggles[kind] / bits[kind]
                                      if bits[kind] else 0.0)
    # reload mode time-shares physical dies, as perf_energy.report does
    active = {}
    for die, split in trace.die_activity().items():
        key = die[1:] if trace.meta.get("reload") else die
        active[key] = active.get(key, 0) + split["active"]
    m["stall_frac"] = 1.0 - sum(active.values()) / (rep.n_dies * rep.cycles)
    return m


class Runner:
    """Runs ops, checks each against the oracle and its earlier runs."""

    def __init__(self, luts):
        self.luts = luts
        self.attempted = 0
        self.failed = 0
        self.fingerprints = {}  # instance index -> fingerprint of first op
        self.model = {}  # instance index -> model_metrics of first op
        self.drift = []  # instance indices whose fingerprint changed

    def op(self, inst, call, tracer=None):
        self.attempted += 1
        if tracer is not None:
            tracer.op = self.attempted  # the op id spans carry
            tracer.layer_of = {id(p): k
                               for k, p in enumerate(inst.params.layers)}
        try:
            r = run_pipeline(inst, self.luts, call)
        except Exception:  # an op that raises is a failed op, not a crash
            self.failed += 1
            if self.failed <= 3:
                traceback.print_exc()
            return None
        finally:
            if tracer is not None:
                tracer.op = None
        if not r.exact:
            self.failed += 1
            return None
        fp = fingerprint(r)
        if self.fingerprints.setdefault(inst.index, fp) != fp:
            self.drift.append(inst.index)
        if inst.index not in self.model:
            self.model[inst.index] = model_metrics(r)
        return r

    def phase(self, instances, call, seconds, min_ops, tracer=None,
              whole_passes=False):
        """Cycle the instances from the first until `seconds` have passed
        and at least `min_ops` ops ran (at a pass boundary if asked).
        Returns one Sample per op that passed."""
        samples = []
        start = time.perf_counter()
        k = 0
        while True:
            inst = instances[k % len(instances)]
            r = self.op(inst, call, tracer)
            k += 1
            if r is not None:
                samples.append(Sample(inst.index, r.total_s, r.drive_s,
                                      r.oracle_s, inst.n_steps))
            elapsed = time.perf_counter() - start
            if elapsed >= HARD_CAP_S:
                break
            if elapsed >= seconds and k >= min_ops and \
                    (not whole_passes or k % len(instances) == 0):
                break
        return samples


def op_p50(samples):
    """Median over instances of each instance's median op time, so that
    every instance counts once however often the run cycled it."""
    per_instance = collections.defaultdict(list)
    for s in samples:
        per_instance[s.instance].append(s.total_s)
    return statistics.median(statistics.median(v)
                             for v in per_instance.values())


def table4_max_time_err_pct():
    t0 = time.perf_counter()
    rows = perf_energy.table_rows()
    elapsed = time.perf_counter() - t0
    err = max(abs(r["time_us"] / r["ref_time_us"] - 1.0) for r in rows)
    return 100.0 * err, elapsed


def self_check(workload, tracer, where):
    """Guards against input-generator drift changing what a workload
    measures: the MAC chains' saturated share must stay in its band."""
    share = tracer.saturated_share()
    if workload.all_fast and share != 0.0:
        return ["%s: %.6f of MAC chains left the fast path" % (where, share)]
    if workload.min_saturated_share is not None and \
            share < workload.min_saturated_share:
        return ["%s: saturated share %.4f below floor %.2f"
                % (where, share, workload.min_saturated_share)]
    return []


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true",
                   help="shrink every network to smoke-test size")
    return p.parse_args(argv)


def main(argv, root):
    args = parse_args(argv)
    src = os.path.join(root, "src")
    out_dir = os.path.join(root, ".perfbench")
    workload = WORKLOADS[args.workload]
    instances = build_instances(workload, args.seed, args.toy)
    setup_s = None if args.trace else measure_setup(instances, src, root)

    luts = lstm_ref.default_luts()
    table4_err, table_rows_s = table4_max_time_err_pct()
    runner = Runner(luts)

    # Warm-up op, untimed and traced: lets lazy set-up finish, gives the
    # workload self-checks their MAC counts, and its fingerprint is the
    # one every later untraced op on that instance must reproduce.
    probe = tracing.Tracer()
    probe.install()
    try:
        runner.op(instances[0], probe.call, probe)
    finally:
        probe.uninstall()
    problems = self_check(workload, probe, "warm-up")

    budget = args.seconds / 2 if args.trace else args.seconds
    timed = runner.phase(instances, _direct, budget, len(instances))
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = runner.phase(instances, tracer.call, budget / 2,
                                  len(instances), tracer, whole_passes=True)
        finally:
            tracer.uninstall()
        layer = tracing.layer_metrics(tracer, max(1, len(traced)), N_LAYERS)
        problems += self_check(workload, tracer, "traced run")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write_csv(os.path.join(out_dir, "spans-%s-s%d.csv"
                                      % (args.workload, args.seed)))
    if runner.drift:
        problems.append("fingerprint changed on instance(s) %s"
                        % sorted(set(runner.drift)))
    if not timed:
        problems.append("no op completed")
    if runner.failed:
        problems.append("%d of %d ops failed"
                        % (runner.failed, runner.attempted))
    for msg in problems:
        sys.stderr.write("perfbench: %s\n" % msg)

    # model statistics: mean over the instance set, each instance once
    model = {}
    if runner.model:
        per_inst = list(runner.model.values())
        model = {k: statistics.fmean(m[k] for m in per_inst)
                 for k in per_inst[0]}
    workload_fp = hashlib.sha256(" ".join(
        runner.fingerprints[k] for k in sorted(runner.fingerprints))
        .encode()).hexdigest()[:16]
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "toy": args.toy, "ops_timed": len(timed),
        "instances": len(instances),
        "attempted": runner.attempted, "failed": runner.failed,
        "mismatch_frac": runner.failed / runner.attempted,
        "problems": problems,
        "saturated_share_warmup": probe.saturated_share(),
        "model_us_per_step": model.get("us_per_step"),
        "table4_max_time_err_pct": table4_err,
        "fingerprint": workload_fp,
        "instance_fingerprints": {str(k): v for k, v in
                                  sorted(runner.fingerprints.items())},
        "samples": [s._asdict() for s in timed],
    }
    if len(timed) >= 200:  # at least ten samples beyond p95
        info["run_s_p95"] = statistics.quantiles(
            [s.total_s for s in timed], n=20)[18]
    if args.trace:
        metrics = {k: (v, _layer_unit(k)) for k, v in layer.items()}
        metrics["perf_energy.table_rows.s"] = (table_rows_s, "s")
        for k, v in model.items():
            if k not in ("us_per_step", "uj_per_step"):
                metrics["model." + k] = (v, _model_unit(k))
        metrics["model.table4_max_time_err_pct"] = (table4_err, "%")
        metrics["trace.overhead_ratio"] = (
            op_p50(traced) / op_p50(timed) if traced and timed else None,
            "ratio")
        info["traced_ops"] = len(traced)
    else:
        metrics = {}
        if timed:
            n_steps = sum(s.n_steps for s in timed)
            metrics = {
                "run_s_p50": (op_p50(timed), "s"),
                "sim_steps_per_s": (n_steps / sum(s.drive_s for s in timed),
                                    "steps/s"),
                "oracle_steps_per_s": (
                    n_steps / sum(s.oracle_s for s in timed), "steps/s"),
                "model_uj_per_step": (model["uj_per_step"], "uJ")}
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    info["metrics"] = {k: v for k, (v, _) in metrics.items()}
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "%s-s%d-t%d%s.json" % (
            args.workload, args.seed, args.trace, "-toy" if args.toy else "")),
            "w", encoding="utf-8") as fh:
        json.dump(info, fh, indent=1, sort_keys=True)
        fh.write("\n")

    steps = sorted({inst.n_steps for inst in instances})
    print("%s seed %d: %d timed ops over %d instance(s) of %s step(s); "
          "mismatch_frac %g (%d/%d); fingerprint %s"
          % (args.workload, args.seed, len(timed), len(instances),
             "/".join(map(str, steps)), info["mismatch_frac"],
             runner.failed, runner.attempted, workload_fp))
    if "run_s_p95" in info:
        print("run_s_p95 %.6f s over %d ops" % (info["run_s_p95"],
                                               len(timed)))
    print("model_us_per_step %s  table4_max_time_err_pct %.4f  "
          "saturated share %.4f" % (info["model_us_per_step"], table4_err,
                                    info["saturated_share_warmup"]))
    correct = not problems
    print(json.dumps({
        "correct": correct, "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0 if correct else EXIT_INCORRECT


def _layer_unit(name):
    leaf = name.rsplit(".", 1)[1]
    return {"calls": "calls/op", "rows": "rows/op", "saturated_rows":
            "rows/op", "words": "words/op", "fast_ratio": "ratio"}.get(
                leaf, "s/op")


def _model_unit(name):
    kind = name.split(".", 1)[0]
    return {"cycles": "cycles/step", "toggles": "toggles/step",
            "toggle_factor": "ratio", "stall_frac": "ratio"}[kind]

