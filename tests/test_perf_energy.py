import dataclasses
import math

import numpy as np
import pytest

import oracles as O
from lstmgrid import lstm_ref as LR
from lstmgrid import perf_energy as PE
from lstmgrid.mapper import TileSpec, plan_grid
from lstmgrid.systolic_sim import PhaseTrace, run_reload, simulate

OP = PE.OperatingPoint()  # 10 MHz


def demo_trace(seed=7, n_steps=10):
    params = LR.random_network_params(seed, [(123, 192)], n_out=62,
                                      scale=1.0)
    plan = plan_grid(LR.derive_spec(params), TileSpec())
    feats = LR.random_features(seed + 1, n_steps=n_steps, n_features=123)
    _, trace = simulate(plan, params, feats)
    return trace


# --- closed-form figures ----------------------------------------------------------

def test_peak_performance_figures():
    assert PE.peak_performance(96, PE.OperatingPoint(159e6)) \
        == pytest.approx(30.528, rel=1e-12)
    assert PE.peak_performance(96, PE.OperatingPoint(3.8e6)) \
        == pytest.approx(0.7296, rel=1e-12)
    assert PE.peak_performance(96, PE.OperatingPoint(0.0)) == 0.0


def test_peak_performance_rejects_bad_units():
    with pytest.raises(ValueError):
        PE.peak_performance(0, OP)


def test_link_bandwidth_figures():
    # 4 bits per cycle = half a byte per cycle
    assert PE.link_bandwidth(PE.OperatingPoint(159e6)) == 79.5e6
    assert PE.link_bandwidth(PE.OperatingPoint(10e6)) == 5e6
    assert PE.link_bandwidth(PE.OperatingPoint(0.0)) == 0.0


def test_operating_point_validation():
    for frequency in (-1.0, float("nan"), float("inf"), True, np.True_,
                      np.float32("nan"), np.float64("inf"), np.int64(-1),
                      "1e7", None):
        with pytest.raises(ValueError, match="frequency"):
            PE.OperatingPoint(frequency=frequency)
    # NumPy scalars are stored as Python floats: the same report
    trace = demo_trace(n_steps=2)
    want = PE.report(trace, PE.OperatingPoint(1e7))
    for frequency in (np.int64(10 ** 7), np.float32(1e7), np.float64(1e7),
                      np.uint32(10 ** 7)):
        point = PE.OperatingPoint(frequency)
        assert type(point.frequency) is float and point.frequency == 1e7
        assert PE.report(trace, point) == want
    assert type(PE.OperatingPoint(10 ** 7).frequency) is int


def test_energy_constants_validation():
    for bad in (-0.1, float("nan"), True, np.True_, np.float32("inf"),
                np.int8(-1), "27.8"):
        with pytest.raises(ValueError, match="e_drive_pj_per_bit"):
            PE.EnergyConstants(e_drive_pj_per_bit=bad)
    consts = PE.EnergyConstants(e_drive_pj_per_bit=np.float64(27.8),
                                p_pad_static_mw_per_die=np.float32(0.25),
                                alpha_toggle=np.int16(1))
    assert consts == PE.EnergyConstants(e_drive_pj_per_bit=27.8,
                                        p_pad_static_mw_per_die=0.25,
                                        alpha_toggle=1.0)
    assert all(type(getattr(consts, f.name)) is float
               for f in dataclasses.fields(consts))
    # a wire flips at most once per beat: toggles / bits is at most 1
    assert PE.EnergyConstants(alpha_toggle=1).alpha_toggle == 1.0
    for bad in (1.0000001, 2, np.float64(1.5)):
        with pytest.raises(ValueError, match="alpha_toggle must be at most 1"):
            PE.EnergyConstants(alpha_toggle=bad)


# --- report on traces -------------------------------------------------------------

def test_empty_trace_reports_zero_energy():
    trace = PhaseTrace([], 0, 0, meta={"n_dies": 4, "reload": False,
                                       "chip_select": False})
    rep = PE.report(trace, OP)
    assert rep.total_energy_j == 0.0
    assert rep.io_fraction_pct == 0.0
    assert rep.core_power_w == 0.0


def test_zero_step_run_prices_no_die():
    params = LR.random_network_params(9, [(8, 8), (8, 8)], n_out=3)
    plan = plan_grid(LR.derive_spec(params), TileSpec(nh_capacity=4))
    _, trace = simulate(plan, params, LR.random_features(10, 0, 8))
    rep = PE.report(trace, OP)
    assert rep.die_core_j == {} and rep.core_energy_j == 0.0


def test_nonempty_trace_needs_a_clock():
    trace = demo_trace(n_steps=1)
    with pytest.raises(ValueError):
        PE.report(trace, PE.OperatingPoint(0.0))


def test_energy_additivity_and_time():
    trace = demo_trace(n_steps=2)
    rep = PE.report(trace, OP)
    assert rep.total_energy_j \
        == pytest.approx(rep.core_energy_j + rep.io_energy_j, rel=1e-12)
    assert rep.time_s == pytest.approx(trace.total_cycles / 10e6)
    assert rep.core_energy_j == pytest.approx(sum(rep.die_core_j.values()))
    pad_static = PE.EnergyConstants().p_pad_static_mw_per_die * 1e-3 \
        * rep.n_dies * rep.time_s
    assert rep.io_energy_j \
        == pytest.approx(sum(rep.phase_io_j.values()) + pad_static)


def test_flat_core_power_per_die():
    trace = demo_trace(n_steps=1)
    rep = PE.report(trace, OP)
    # fitted stall power equals active power, so every die burns the same
    assert rep.core_power_mw == pytest.approx(4 * 1.9675, rel=1e-9)


def test_configuration_traffic_is_excluded_by_default():
    trace = demo_trace(n_steps=1)
    assert any(r.kind == "param_load" and r.step is None
               for r in trace.records)
    lean = PE.report(trace, OP)
    assert "param_load" not in lean.phase_io_j
    assert "param_load" not in lean.phase_cycles


def test_reload_report_collapses_to_physical_dies():
    params = LR.random_network_params(31, [(96, 96), (96, 96)])
    plan = plan_grid(LR.derive_spec(params), TileSpec(), reload=True)
    feats = LR.random_features(32, n_steps=2, n_features=96)
    _, trace = run_reload(plan, params, feats)
    rep = PE.report(trace, OP)
    assert rep.n_dies == 1
    # one physical die time-shared across both layer passes
    assert rep.core_power_mw == pytest.approx(1.9675, rel=1e-9)


def test_host_side_pads_are_never_charged():
    trace = demo_trace(n_steps=1)
    rep = PE.report(trace, OP, consts=PE.EnergyConstants(
        e_receive_pj_per_bit=0.0, p_pad_static_mw_per_die=0.0))
    # with receive and static zeroed, what remains is die-driven traffic
    feat = rep.phase_io_j.get("feature_stream", 0.0)
    assert feat == 0.0  # host drives the features; the host pad is free


# --- the columnar report against the record loop ---------------------------------

# (seed, layers, n_out, weight scale, feature scale, steps, plan keywords,
# tile): the three recorded-digest runs of test_systolic_sim, a
# chip-select run of the demonstrator, and a run of zero steps
REPORT_CASES = [
    (3, [(7, 10), (10, 9)], 3, 2.0, 4.0, 4, {}, 4),
    (5, [(9, 12), (12, 12)], None, 1.0, 1.0, 3, {"chip_select": True}, 4),
    (8, [(5, 8), (8, 11), (11, 8)], 4, 2.0, 4.0, 3, {"reload": True}, 4),
    (7, [(123, 192)], 62, 1.0, 1.0, 3, {"chip_select": True}, 96),
    (9, [(8, 8), (8, 8)], None, 1.0, 1.0, 0, {}, 4),
]
PRICES = [(OP, PE.EnergyConstants()),
          (PE.OperatingPoint(3.3e6), PE.EnergyConstants(
              e_drive_pj_per_bit=3.1, e_receive_pj_per_bit=0.7,
              p_pad_static_mw_per_die=0.3, alpha_toggle=0.3))]


def extrapolated_traces(monkeypatch):
    """The one-step traces `extrapolate` prices, with unmeasured toggles."""
    traces, report = [], PE.report
    monkeypatch.setattr(PE, "report", lambda trace, *args: traces.append(
        trace) or report(trace, *args))
    PE.extrapolate(PE.reference_spec(PE.REFERENCE_ROWS[-1]))
    PE.extrapolate(LR.NetworkSpec([(7, 9), (9, 5)], 3),
                   TileSpec(nh_capacity=4))
    monkeypatch.undo()
    assert len(traces) == 2
    return traces


@pytest.mark.parametrize("case", REPORT_CASES + ["extrapolate"],
                         ids=["digest0", "digest1", "digest2", "chip_select",
                              "zero_steps", "extrapolate"])
def test_report_equals_the_record_loop_to_the_last_bit(monkeypatch, case):
    if case == "extrapolate":
        traces = extrapolated_traces(monkeypatch)
    else:
        seed, layers, n_out, scale, f_scale, n_steps, plan_kw, units = case
        params = LR.random_network_params(seed, layers, n_out=n_out,
                                          scale=scale)
        feats = LR.random_features(seed + 1, n_steps, layers[0][0],
                                   scale=f_scale)
        plan = plan_grid(LR.derive_spec(params),
                         TileSpec(nh_capacity=units), **plan_kw)
        traces = [simulate(plan, params, feats)[1]]
    for trace in traces:
        for op, consts in PRICES:
            got, want = PE.report(trace, op, consts), O.report(trace, op,
                                                               consts)
            # repr spells every float exactly and keeps dict key order
            assert got == want and repr(got) == repr(want)
        assert repr(trace.die_activity()) == repr(O.die_activity(trace))


# --- analytic model vs simulation ---------------------------------------------------

@pytest.mark.parametrize("layers", [[(192, 192)], [(96, 96), (96, 96)]])
def test_extrapolation_matches_simulated_step_cycles(layers):
    params = LR.random_network_params(53, layers)
    spec = LR.derive_spec(params)
    plan = plan_grid(spec, TileSpec())
    feats = LR.random_features(54, n_steps=1, n_features=layers[0][0])
    _, trace = simulate(plan, params, feats)
    rep = PE.extrapolate(spec)
    # simulation appends the hidden-state write-out that the published
    # extrapolation window excludes
    writeout = 2 * plan.layer_grids[-1].nh_tile
    assert rep.cycles == trace.total_cycles - writeout


def test_extrapolation_prices_planned_bits_with_alpha():
    spec = LR.NetworkSpec([(192, 192)], None)
    half = PE.extrapolate(spec, consts=PE.EnergyConstants(
        p_pad_static_mw_per_die=0.0))
    full = PE.extrapolate(spec, consts=PE.EnergyConstants(
        p_pad_static_mw_per_die=0.0, alpha_toggle=1.0))
    assert full.io_energy_j == pytest.approx(2 * half.io_energy_j)


# --- published extrapolation table ---------------------------------------------------

ROWS = PE.REFERENCE_ROWS


@pytest.mark.parametrize("ref", ROWS, ids=lambda r: "%dL-%d" % (
    r.n_layers, r.n_hidden))
def test_reference_times_within_five_percent(ref):
    rep = PE.extrapolate(PE.reference_spec(ref))
    assert rep.time_us == pytest.approx(ref.time_us, rel=0.05)


@pytest.mark.parametrize("ref", ROWS, ids=lambda r: "%dL-%d" % (
    r.n_layers, r.n_hidden))
def test_reference_core_power_within_five_percent(ref):
    rep = PE.extrapolate(PE.reference_spec(ref))
    assert rep.core_power_mw == pytest.approx(ref.p_cores_mw, rel=0.05)


@pytest.mark.parametrize("ref", [r for r in ROWS if r.n_hidden != 56],
                         ids=lambda r: "%dL-%d" % (r.n_layers, r.n_hidden))
def test_reference_core_energy_within_ten_percent(ref):
    rep = PE.extrapolate(PE.reference_spec(ref))
    assert rep.core_energy_uj == pytest.approx(ref.e_cores_uj, rel=0.10)


@pytest.mark.xfail(strict=True, reason=(
    "the 56-unit row rounds its published core energy to 0.2 uJ; any model "
    "hitting the row's published time (<=85.26 us at +5%) and per-die power "
    "(<=2.1 mW at +5%) can reach at most 0.179 uJ, short of the 0.18 uJ "
    "lower edge of the +/-10% band — the three constraints are jointly "
    "unsatisfiable"))
def test_reference_core_energy_56_row():
    ref = next(r for r in ROWS if r.n_hidden == 56)
    rep = PE.extrapolate(PE.reference_spec(ref))
    assert rep.core_energy_uj == pytest.approx(ref.e_cores_uj, rel=0.10)


@pytest.mark.parametrize("ref", ROWS, ids=lambda r: "%dL-%d" % (
    r.n_layers, r.n_hidden))
def test_reference_io_fraction_within_four_points(ref):
    rep = PE.extrapolate(PE.reference_spec(ref))
    assert abs(rep.io_fraction_pct - ref.io_pct) <= 4.0


@pytest.mark.parametrize("ref", [r for r in ROWS if r.e_io_uj >= 0.1],
                         ids=lambda r: "%dL-%d" % (r.n_layers, r.n_hidden))
def test_reference_io_energy_within_factor_two(ref):
    rep = PE.extrapolate(PE.reference_spec(ref))
    assert 0.5 <= rep.io_energy_uj / ref.e_io_uj <= 2.0


def test_io_fraction_decreases_with_grid_size():
    singles = [r for r in ROWS if r.n_layers == 1 and r.grid != "1x1"]
    fractions = [PE.extrapolate(PE.reference_spec(r)).io_fraction_pct
                 for r in singles]
    assert fractions == sorted(fractions, reverse=True)
    assert singles[0].io_pct == 12.1 and singles[-1].io_pct == 8.3


def test_table_rows_shape():
    rows = PE.table_rows()
    assert len(rows) == 10
    assert [r["dies"] for r in rows] == [1, 1, 4, 9, 16, 25, 2, 8, 48, 75]
    assert all(math.isfinite(r["e_total_uj"]) for r in rows)


# --- demonstrator -----------------------------------------------------------------

def test_demonstrator_energy_and_split():
    trace = demo_trace(seed=7, n_steps=10)
    rep = PE.report(trace, OP)
    per_step_uj = rep.total_energy_uj / 10
    assert 2.97 * 0.85 <= per_step_uj <= 2.97 * 1.15
    assert abs(rep.io_fraction_pct - 12.0) <= 4.0
    assert abs((100 - rep.io_fraction_pct) - 88.0) <= 4.0
