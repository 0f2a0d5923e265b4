"""End-to-end acceptance gate.

One test per shipping criterion; each prints a single PASS/FAIL verdict
line (run with pytest -s to see them).  Tolerances are stated inline and
asserted exactly as printed — a red test here means the criterion is not
met, not that the test is flaky.
"""

import time

import numpy as np
import pytest

import oracles
from lstmgrid import lstm_ref as LR
from lstmgrid import qformat as QF
from lstmgrid.actlut import build_lut, lut_error_stats
from lstmgrid.mapper import TileSpec, pin_budget, plan_grid
from lstmgrid.perf_energy import (REFERENCE_ROWS, EnergyConstants,
                                  OperatingPoint, extrapolate,
                                  link_bandwidth, peak_performance,
                                  reference_spec)
from lstmgrid.qformat import QFormat
from lstmgrid.systolic_sim import run_reload, simulate

TINY = TileSpec(nh_capacity=4)
FULL = TileSpec()


def verdict(num, name, ok, detail=""):
    tail = " (%s)" % detail if detail else ""
    print("[%2d] %s: %s%s" % (num, name, "PASS" if ok else "FAIL", tail))
    assert ok, "%s%s" % (name, tail)


def reference(plan, params, feats):
    spec = plan.spec
    return LR.network_infer(
        spec, params, feats,
        col_blocks_per_layer=[g.n for g in plan.layer_grids],
        fc_col_blocks=plan.layer_grids[-1].n
        if params.fc is not None else None)


def run_case(seed, layers, n_out, scale, mode, tile, n_steps=2):
    params = LR.random_network_params(seed, layers, n_out=n_out, scale=scale)
    spec = LR.derive_spec(params)
    feats = LR.random_features(seed + 1, n_steps=n_steps,
                               n_features=layers[0][0])
    if mode == "reload":
        plan = plan_grid(spec, tile, reload=True)
        out, _ = run_reload(plan, params, feats)
    else:
        plan = plan_grid(spec, tile, chip_select=(mode == "chip_select"))
        out, _ = simulate(plan, params, feats)
    return np.array_equal(out, reference(plan, params, feats))


# ----------------------------------------------------------------------------------

def test_01_bit_exact_across_shapes_and_modes():
    t0 = time.time()
    n_cases, failures = 0, []
    for n in (1, 2, 3):
        nh = TINY.nh_capacity * n
        for n_layers in (1, 2):
            for mode in ("stacked", "reload", "chip_select"):
                for seed in range(100):
                    ni = 3 + seed % 7
                    shape = [(ni, nh)] + [(nh, nh)] * (n_layers - 1)
                    n_out = (None, 2, 3, 4)[seed % 4]
                    scale = 0.6 + (seed % 5) * 0.35
                    if not run_case(seed, shape, n_out, scale, mode, TINY):
                        failures.append((n, n_layers, mode, seed))
                    n_cases += 1
    # plus one full-size production point
    if not run_case(7, [(123, 192)], 62, 1.0, "stacked", FULL, n_steps=3):
        failures.append(("full 2x2",))
    n_cases += 1
    dt = time.time() - t0
    verdict(1, "bit-exact vs monolithic oracle over shapes x modes",
            not failures and dt < 60.0,
            "%d networks, %.1f s, %d mismatches" % (n_cases, dt,
                                                    len(failures)))


def test_02_peak_performance_figures():
    fast = peak_performance(96, OperatingPoint(frequency=159e6))
    slow = peak_performance(96, OperatingPoint(frequency=3.8e6))
    verdict(2, "peak throughput at 159 MHz / 3.8 MHz",
            fast == 30.528 and slow == 0.7296,
            "%.4g / %.4g GOP/s" % (fast, slow))


def test_03_link_bandwidth_figure():
    bw = link_bandwidth(OperatingPoint(frequency=159e6))
    verdict(3, "per-link bandwidth at 159 MHz", bw == 79.5e6,
            "%.1f MB/s" % (bw / 1e6))


def test_04_time_multiplexed_pin_budget():
    plans = [plan_grid(reference_spec(row)) for row in REFERENCE_ROWS]
    plans.append(plan_grid(LR.NetworkSpec([(123, 192)], 62)))
    pins = {pin_budget(p, time_multiplexed=True).total_min for p in plans}
    verdict(4, "time-multiplexed pin count on every plan", pins == {17},
            "got %s" % sorted(pins))


def test_05_grid_sizing_table():
    got = []
    for row in REFERENCE_ROWS:
        plan = plan_grid(reference_spec(row))
        sides = {g.n for g in plan.layer_grids}
        got.append((sides == {int(row.grid[0])}, plan.total_dies,
                    row.n_dies))
    ok = all(side_ok and dies == ref for side_ok, dies, ref in got)
    verdict(5, "grid side and die totals for all ten table rows", ok,
            "dies %s" % [d for _, d, _ in got])


def _row_reports():
    return [(row, extrapolate(reference_spec(row)))
            for row in REFERENCE_ROWS]


def test_06_inference_time_within_5pct():
    deltas = [(rep.time_us / row.time_us - 1) * 100
              for row, rep in _row_reports()]
    ok = all(abs(d) <= 5.0 for d in deltas)
    verdict(6, "per-inference time within +/-5% on all ten rows", ok,
            "worst %+.2f%%" % max(deltas, key=abs))


def test_07a_core_power_within_5pct():
    deltas = [(rep.core_power_mw / row.p_cores_mw - 1) * 100
              for row, rep in _row_reports()]
    ok = all(abs(d) <= 5.0 for d in deltas)
    verdict(7, "core power within +/-5% on all ten rows", ok,
            "worst %+.2f%%" % max(deltas, key=abs))


def test_07b_core_energy_within_10pct():
    deltas = [(row.n_hidden, (rep.core_energy_uj / row.e_cores_uj - 1) * 100)
              for row, rep in _row_reports() if row.e_cores_uj >= 0.2
              and row.n_hidden != 56]
    ok = all(abs(d) <= 10.0 for _, d in deltas)
    verdict(7, "core energy within +/-10% (nine of ten rows)", ok,
            "worst %+.2f%%" % max((d for _, d in deltas), key=abs))


@pytest.mark.xfail(strict=True, reason=(
    "the 56-unit row publishes a core energy rounded to 0.2 uJ; any model "
    "meeting the row's time band (<= 85.26 us at +5%) and per-die power "
    "band (<= 2.1 mW at +5%) can reach at most 0.179 uJ, below the 0.18 uJ "
    "lower edge of the +/-10% energy band, so the three constraints are "
    "jointly unsatisfiable"))
def test_07c_core_energy_56_row():
    row = REFERENCE_ROWS[1]
    rep = extrapolate(reference_spec(row))
    delta = (rep.core_energy_uj / row.e_cores_uj - 1) * 100
    print("[ 7] core energy on the 56-unit row: FAIL BY CONSTRUCTION "
          "(%+.2f%%; 0.179 uJ ceiling vs 0.18 uJ band edge)" % delta)
    assert abs(delta) <= 10.0


def test_08_io_fraction_and_energy():
    reports = _row_reports()
    frac_ok = all(abs(rep.io_fraction_pct - row.io_pct) <= 4.0
                  for row, rep in reports)
    singles = [rep.io_fraction_pct for row, rep in reports
               if row.n_layers == 1 and row.n_dies > 1]
    monotone = all(a > b for a, b in zip(singles, singles[1:]))
    factor_ok = all(0.5 <= rep.io_energy_uj / row.e_io_uj <= 2.0
                    for row, rep in reports if row.e_io_uj >= 0.1)
    verdict(8, "I/O fraction +/-4 pts, monotone decrease, energy factor 2",
            frac_ok and monotone and factor_ok,
            "fractions %s" % ["%.1f" % s for s in singles])


def test_09_demonstrator_energy():
    from lstmgrid.perf_energy import report
    params = LR.random_network_params(7, [(123, 192)], n_out=62, scale=1.0)
    spec = LR.derive_spec(params)
    feats = LR.random_features(8, n_steps=10, n_features=123)
    _, trace = simulate(plan_grid(spec), params, feats)
    rep = report(trace, OperatingPoint(), EnergyConstants())
    per_step = rep.total_energy_uj / rep.n_steps
    split_ok = (abs(rep.io_fraction_pct - 12.0) <= 4.0
                and abs((100 - rep.io_fraction_pct) - 88.0) <= 4.0)
    total_ok = abs(per_step / 2.97 - 1) <= 0.15
    verdict(9, "demonstrator energy within +/-15%, split within +/-4 pts",
            total_ok and split_ok,
            "%.4f uJ/step, %.1f%% I/O" % (per_step, rep.io_fraction_pct))


def test_10_activation_tables():
    q25, q07 = QFormat(5), QFormat(7)
    grid = np.linspace(-4.0, 4.0, 4096)
    results = {}
    for kind in ("tanh", "sigmoid"):
        lut = build_lut(kind, q25, q07)
        fn = np.tanh if kind == "tanh" else lambda x: 1 / (1 + np.exp(-x))
        scan_ok = all(
            lut[code] == QF.quantize(
                fn(QF.dequantize(np.array([code], np.int8), q25)), q07)[0]
            for code in range(-128, 128))
        results[kind] = (scan_ok, lut_error_stats(lut, grid)["max_se"])
    ok = (results["tanh"][0] and results["sigmoid"][0]
          and results["tanh"][1] <= 4e-4 and results["sigmoid"][1] <= 2e-4)
    verdict(10, "LUT 256-code scan exact, max squared error in band", ok,
            "max_se tanh %.3e sigmoid %.3e"
            % (results["tanh"][1], results["sigmoid"][1]))


def test_11_fixed_point_vs_wide_integer_oracle():
    rng = np.random.default_rng(1234)
    n = 120_000
    acc = rng.integers(-32768, 32768, n)
    a = rng.integers(-128, 128, n)
    b = rng.integers(-128, 128, n)
    q25 = QFormat(5)
    want = [oracles.mac(int(acc[k]), int(a[k]), int(b[k])) for k in range(n)]
    # product form: each case is the chain [acc, a*b] from 0, which clips
    # exactly when the single MAC does; all chains in one call
    got, sat = QF.mac_run(np.stack([acc, a * b], axis=1))
    mac_ok = list(zip(got.tolist(), sat.tolist())) == want
    # factored form: one call per case, reaching the fast and scan tiers
    for k in range(n):
        got, sat = QF.mac_run([[a[k]]], [b[k]], init=acc[k])
        mac_ok &= (int(got[0]), bool(sat[0])) == want[k]
    shift = rng.integers(0, 9, n)
    rq_ok = all(
        QF.requantize(int(acc[k]), 5 + int(shift[k]), q25)
        == oracles.requant(int(acc[k]), 5 + int(shift[k]), 5)
        for k in range(n))
    codes = np.arange(-128, 128, dtype=np.int8)
    round_trip = np.array_equal(
        QF.quantize(QF.dequantize(codes, QFormat(5)), QFormat(5)), codes)
    verdict(11, "mac/requantize vs wide-integer oracle, code round trip",
            mac_ok and rq_ok and round_trip, "%d random cases each" % n)


def test_12_out_of_scope_items():
    print("[12] out of scope at desk scale: speech-corpus phoneme error "
          "rates need full training (replaced by checks 1, 10, 11); the "
          "1.275 V / 159 MHz silicon power point is an input constant, "
          "not a model output: PASS (by definition)")
