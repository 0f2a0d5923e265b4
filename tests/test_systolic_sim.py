import collections
import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import oracles as O
from lstmgrid import lstm_ref as LR
from lstmgrid.actlut import build_lut
from lstmgrid.mapper import TileSpec, plan_grid
from lstmgrid.qformat import QFormat
from lstmgrid.systolic_sim import (CycleModel, DeadlockError, GridSim,
                                   build_load_schedule, build_run_schedule,
                                   build_step_schedule, count_toggles,
                                   run_reload, simulate)

TILE = TileSpec()


def blocks_for(grid):
    """The column blocking a grid imposes on the reference computation."""
    return [(slice(j * grid.ni_tile, (j + 1) * grid.ni_tile),
             slice(j * grid.nh_tile, (j + 1) * grid.nh_tile))
            for j in range(grid.n)]


def reference(plan, params, feats):
    spec = plan.spec
    return LR.network_infer(
        spec, params, feats,
        col_blocks_per_layer=[blocks_for(g) for g in plan.layer_grids],
        fc_col_blocks=[s for _, s in blocks_for(plan.layer_grids[-1])]
        if params.fc is not None else None)


def make_case(seed, layer_sizes, n_out=None, scale=1.0, n_steps=3,
              **plan_kw):
    params = LR.random_network_params(seed, layer_sizes, n_out=n_out,
                                      scale=scale)
    spec = LR.derive_spec(params)
    plan = plan_grid(spec, TILE, **plan_kw)
    feats = LR.random_features(seed + 1, n_steps=n_steps,
                               n_features=layer_sizes[0][0])
    return plan, params, feats


# --- beat-level toggle counting ---------------------------------------------------

def test_beat_stream_is_little_endian():
    # from idle 1: beats 1, 2 flip 0 + 2 bits; high nibble first (2, 1)
    # would flip 2 + 2
    assert count_toggles([0x21], 8, idle=1) == 2
    # beats 1, 2, 3, 4 flip 0 + 2 + 1 + 3; big-endian (4, 3, 2, 1) gives 8,
    # big-endian bytes 8 and high nibbles first 9
    assert count_toggles([0x4321], 16, idle=1) == 6


def test_beat_stream_wraps_negative_words():
    # -1 and -2 as 16-bit words are 0xFFFF and 0xFFFE: beats F F F F E F F F
    # flip 3 (from idle 1) + 1 + 1
    assert count_toggles([-1, -2], 16, idle=1) == 5
    # -1 as an 8-bit word is 0xFF; a clamp to 0 would flip 1
    assert count_toggles([-1], 8, idle=1) == 3
    # bits beyond the word width are dropped: 0x1F0 moves as 0xF0
    assert count_toggles([0x1F0], 8, idle=1) == 5


def test_count_toggles_from_idle():
    assert count_toggles([], 8) == 0
    assert count_toggles([0x00], 8) == 0
    assert count_toggles([0xFF], 8) == 4  # 0 -> F flips 4, F -> F none
    assert count_toggles([0x5A], 8) == 6  # 0 -> A (2), A -> 5 (4)


def test_count_toggles_across_words():
    # 0x0F then 0x0F: 0 -> F (4), F -> 0 (4), 0 -> F (4), F -> 0 (4)
    assert count_toggles([0x0F, 0x0F], 8) == 16
    assert count_toggles([0x0F, 0xFF], 8) == 12


def test_byte_wide_toggle_counting_matches_the_int64_reference():
    rng = np.random.default_rng(2024)
    for _ in range(3000):
        word_bits = int(rng.choice([8, 16]))
        n = int(rng.integers(0, 40))
        # negative codes and values beyond the word width wrap alike
        words = rng.integers(-(1 << 20), 1 << 20, size=n)
        idle = int(rng.integers(0, 16))
        expect = O.count_toggles_int64(words, word_bits, idle)
        assert count_toggles(words, word_bits, idle) == expect
        assert O.toggle_count(words, word_bits, idle) == expect


@settings(max_examples=300, deadline=None)
@given(word_bits=st.sampled_from([8, 16]),
       words=st.lists(st.integers(-(1 << 20), 1 << 20), max_size=40),
       idle=st.integers(0, 15))
def test_packed_toggle_counting_matches_the_references(word_bits, words,
                                                       idle):
    # 0-40 words reach every tail of 0-7 bytes short of a packed 64-bit
    # integer (the seeded test above draws every length 0-39 many times)
    expect = O.count_toggles_int64(words, word_bits, idle)
    assert count_toggles(words, word_bits, idle) == expect
    assert O.toggle_count(words, word_bits, idle) == expect


@settings(max_examples=200, deadline=None)
@given(word_bits=st.sampled_from([8, 16]), n_rows=st.integers(0, 5),
       width=st.integers(0, 20), idle=st.integers(0, 15), data=st.data())
def test_batched_toggle_counting_counts_each_row_from_idle(word_bits, n_rows,
                                                            width, idle,
                                                            data):
    words = data.draw(hnp.arrays(np.int64, (n_rows, width),
                                 elements=st.integers(-(1 << 20), 1 << 20)))
    got = count_toggles(words, word_bits, idle)
    assert got.dtype == np.int64 and got.shape == (n_rows,)
    assert got.tolist() == [O.count_toggles_int64(row, word_bits, idle)
                            for row in words]


@pytest.mark.parametrize("word_bits", [4, 12, 24, 32])
def test_count_toggles_rejects_other_widths(word_bits):
    with pytest.raises(ValueError):
        count_toggles([1, 2], word_bits)


# --- bit-exact execution ----------------------------------------------------------

@pytest.mark.parametrize("seed,layers,n_out,scale", [
    (7, [(123, 192)], 62, 1.0),     # 2x2 with projection, ragged input
    (11, [(96, 96), (96, 96)], None, 0.8),   # stacked 1x1 pair
    (13, [(288, 288)], None, 1.2),  # 3x3, saturating scale
    (17, [(100, 100)], 10, 2.0),    # padded tiles + heavy saturation
    (19, [(192, 192), (192, 192)], 62, 1.0),  # stacked 2x2 with projection
])
def test_simulation_matches_blocked_reference(seed, layers, n_out, scale):
    plan, params, feats = make_case(seed, layers, n_out, scale)
    out, _ = simulate(plan, params, feats)
    assert np.array_equal(out, reference(plan, params, feats))


def test_reduction_fold_clips_before_a_column_pulls_back():
    # 3 die columns of 4 inputs each, every feature code 127.  Unit 0's
    # input gate: column 0 clips high (4 x 16129), column 1 pushes on
    # (+16129) and column 2 pulls back (-32258), so the saturating fold
    # gives 509 where a plain sum gives 16638.  Unit 1 mirrors it low.
    # Strong update gates carry the input gates into c and h.
    n = 12
    p = LR.LstmLayerParams(*(np.zeros((n, n), np.int64) for _ in range(8)),
                           *(np.zeros(n, np.int64) for _ in range(7)),
                           formats=LR.DEFAULT_FORMATS)
    p.W_xi[0] = [127] * 4 + [127, 0, 0, 0] + [-127, -127, 0, 0]
    p.W_xi[1] = -p.W_xi[0]
    p.W_xc[:2, 0] = 64
    params = LR.NetworkParams([p])
    plan = plan_grid(LR.derive_spec(params), TINY)
    grid = plan.layer_grids[0]
    assert (grid.n, grid.ni_tile) == (3, 4)
    feats = np.full((2, n), 127)
    out, _ = simulate(plan, params, feats)
    assert np.array_equal(out, reference(plan, params, feats))


def test_single_grid_matches_unblocked_reference():
    # on a 1x1 grid the blocked and flat computations coincide
    plan, params, feats = make_case(23, [(96, 96)], scale=1.0)
    out, _ = simulate(plan, params, feats)
    assert np.array_equal(out, LR.network_infer(plan.spec, params, feats))


def test_state_persists_across_steps():
    plan, params, feats = make_case(29, [(96, 96)], n_steps=6)
    out, _ = simulate(plan, params, feats)
    # running the same features stepwise from zero state must differ from
    # independent single-step runs (memory matters)
    first, _ = simulate(plan, params, feats[:1])
    assert np.array_equal(out[0], first[0])
    later, _ = simulate(plan, params, feats[3:4])
    assert not np.array_equal(out[3], later[0])


def test_reload_execution_is_bit_identical():
    stacked, params, feats = make_case(31, [(96, 96), (96, 96)], n_out=10)
    ref = reference(stacked, params, feats)
    plan = plan_grid(stacked.spec, TILE, reload=True)
    out, trace = run_reload(plan, params, feats)
    assert np.array_equal(out, ref)
    assert trace.meta["reload"] is True


def test_chip_select_changes_only_the_load_timeline():
    plan, params, feats = make_case(37, [(192, 192)], n_out=20)
    plan_cs = plan_grid(plan.spec, TILE, chip_select=True)
    out, trace = simulate(plan, params, feats)
    out_cs, trace_cs = simulate(plan_cs, params, feats)
    assert np.array_equal(out, out_cs)
    assert trace.total_cycles == trace_cs.total_cycles
    loads = [r for r in trace.records if r.kind == "param_load"]
    loads_cs = [r for r in trace_cs.records if r.kind == "param_load"]
    assert len(loads) == 1 and len(loads_cs) == 4  # serialized per die
    assert sum(r.duration for r in loads_cs) \
        == sum(ev.words for r in loads for ev in r.events) * 2


# --- schedule timing --------------------------------------------------------------

# hidden width -> steady-state cycles per step (no projection, no readout)
STEP_CYCLES = {96: 1012, 192: 2952, 288: 4698, 384: 6444, 480: 8190}


@pytest.mark.parametrize("width,cycles", sorted(STEP_CYCLES.items()))
def test_steady_state_step_cycles(width, cycles):
    spec = LR.NetworkSpec([(width, width)], None)
    plan = plan_grid(spec, TILE)
    _, end = build_step_schedule(plan, CycleModel(), readout=False)
    assert end == cycles


def test_small_layer_keeps_the_full_unit_loop():
    # 56 mapped units still sweep all 96 physical units per gate
    spec = LR.NetworkSpec([(56, 56)], None)
    plan = plan_grid(spec, TILE)
    _, end = build_step_schedule(plan, CycleModel(), readout=False)
    assert end == 2 * 56 + 4 * (56 + 96) + 4 * 10 + 12 == 772
    _, trunc = build_step_schedule(plan, CycleModel(
        hidden_loop_mode="truncate"), readout=False)
    assert trunc == 2 * 56 + 4 * (56 + 56) + 4 * 10 + 12 == 612


def test_demonstrator_step_cycles():
    # 2x2 grid, 192 hidden, 123 features, 62 outputs, full readout
    spec = LR.NetworkSpec([(123, 192)], 62)
    plan = plan_grid(spec, TILE)
    _, end = build_step_schedule(plan, CycleModel())
    assert end == 3230


def test_pipelined_stack_cycles():
    for widths, expect in [([96, 96], 1832), ([192, 192], 5520),
                           ([384, 384, 384], 18564),
                           ([480, 480, 480], 23802)]:
        spec = LR.NetworkSpec([(w, w) for w in widths], None)
        plan = plan_grid(spec, TILE)
        _, end = build_step_schedule(plan, CycleModel(), readout=False)
        assert end == expect, widths


def test_schedule_is_identical_for_reload_plans():
    spec = LR.NetworkSpec([(96, 96)], None)
    t_stacked = build_step_schedule(plan_grid(spec, TILE), CycleModel(),
                                    readout=False)[1]
    t_reload = build_step_schedule(plan_grid(spec, TILE, reload=True),
                                   CycleModel(), readout=False)[1]
    assert t_stacked == t_reload


def test_cycle_model_rejects_unknown_mode():
    spec = LR.NetworkSpec([(96, 96)], None)
    plan = plan_grid(spec, TILE)
    with pytest.raises(ValueError):
        build_step_schedule(plan, CycleModel(hidden_loop_mode="bogus"))


# --- traffic accounting -----------------------------------------------------------

def test_parameter_load_beats():
    spec = LR.NetworkSpec([(96, 96)], None)
    plan = plan_grid(spec, TILE)
    die = plan.die((0, 0, 0))
    assert die.footprint_bytes == 74_400
    records, end = build_load_schedule(plan)
    assert end == 2 * 74_400 == 148_800  # two bus beats per byte
    assert sum(ev.bits for r in records for ev in r.events) == 74_400 * 8


def test_param_words_match_footprint_on_every_die():
    plan, params, feats = make_case(41, [(123, 192)], n_out=62)
    sim = GridSim(plan, params)
    for die in plan.dies:
        assert sim._param_words(die).size == die.footprint_bytes


def test_reduction_traffic_per_gate_and_row():
    plan, params, feats = make_case(43, [(288, 288)], n_steps=1)
    _, trace = simulate(plan, params, feats)
    grid = plan.layer_grids[0]
    reduce_recs = [r for r in trace.records if r.kind == "gate_reduce"]
    # 4 gates x (n - 1) hops, each moving one 16-bit partial per unit row
    assert len(reduce_recs) == 4 * (grid.n - 1)
    for rec in reduce_recs:
        assert len(rec.events) == grid.n
        for ev in rec.events:
            assert ev.bits == 16 * grid.nh_tile


def test_hidden_distribution_traffic():
    plan, params, feats = make_case(47, [(288, 288)], n_steps=1)
    _, trace = simulate(plan, params, feats)
    grid = plan.layer_grids[0]
    chain = [r for r in trace.records if r.kind == "hidden_chain"]
    bcast = [r for r in trace.records if r.kind == "hidden_bcast"]
    assert len(chain) == grid.n - 1
    assert all(r.events[0].bits == 8 * grid.nh_tile for r in chain)
    assert len(bcast) == 1
    assert len(bcast[0].events) == grid.n - 1
    assert all(len(ev.receivers) == grid.n for ev in bcast[0].events)


def test_feature_stream_traffic_and_sources():
    plan, params, feats = make_case(53, [(192, 192), (192, 192)], n_steps=1)
    _, trace = simulate(plan, params, feats)
    streams = [r for r in trace.records if r.kind == "feature_stream"]
    assert [r.layer for r in streams] == [0, 1]
    assert all(ev.src == ("host",) for ev in streams[0].events)
    assert {ev.src for ev in streams[1].events} == {(0, 0, 1), (0, 1, 1)}
    for rec in streams:
        grid = plan.layer_grids[rec.layer]
        assert all(ev.bits == 8 * grid.ni_tile for ev in rec.events)


def test_every_simulated_event_measures_toggles():
    plan, params, feats = make_case(59, [(192, 192)], n_out=30, n_steps=2)
    _, trace = simulate(plan, params, feats)
    for rec in trace.records:
        for ev in rec.events:
            assert ev.toggles is not None
            assert 0 <= ev.toggles <= ev.bits


# Digests of the outputs and `to_csv_rows()` (so every link event's bits
# and toggles) of fixed seeded runs, recorded while each transfer still
# counted its own toggles on the spot.  A queued tile read after a later
# record overwrote it, or a count in another integer type, changes them.
@pytest.mark.parametrize("seed,layers,n_out,scale,f_scale,n_steps,plan_kw,"
                         "digest", [
    (3, [(7, 10), (10, 9)], 3, 2.0, 4.0, 4, {}, "5144f5cc89c91314"),
    (5, [(9, 12), (12, 12)], None, 1.0, 1.0, 3, {"chip_select": True},
     "1c3a58b310321ca9"),
    (8, [(5, 8), (8, 11), (11, 8)], 4, 2.0, 4.0, 3, {"reload": True},
     "bd2d91b9c931dbb3"),
])
def test_outputs_and_link_toggles_match_the_recorded_digests(
        seed, layers, n_out, scale, f_scale, n_steps, plan_kw, digest):
    params = LR.random_network_params(seed, layers, n_out=n_out, scale=scale)
    feats = LR.random_features(seed + 1, n_steps, layers[0][0],
                               scale=f_scale)
    plan = plan_grid(LR.derive_spec(params), TINY, **plan_kw)
    out, trace = simulate(plan, params, feats)
    h = hashlib.sha256(np.ascontiguousarray(out, "<i8").tobytes())
    h.update(repr(trace.to_csv_rows()).encode())
    assert h.hexdigest()[:16] == digest


def test_reload_trace_reloads_params_every_pass_and_restores_state():
    def passes(trace, kind):
        return [(r.step, r.layer) for r in trace.records if r.kind == kind]

    plan, params, feats = make_case(61, [(96, 96), (96, 96)], n_out=10,
                                    n_steps=2, reload=True)
    _, trace = run_reload(plan, params, feats)
    # one pass per (step, layer), step-major, each re-loading its layer
    assert passes(trace, "param_load") == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert [sum(ev.words for ev in r.events) for r in trace.records
            if r.kind == "param_load"] == [74_400, 74_400 + 10 * 96 + 10] * 2
    # every pass but the very first restores its layer's state
    assert passes(trace, "state_load") == [(0, 1), (1, 0), (1, 1)]
    assert len(passes(trace, "state_store")) == 4
    # h + c round trip: 2 x 96 bytes each way per pass
    assert all(sum(ev.words for ev in r.events) == 2 * 96
               for r in trace.records if r.kind in ("state_load",
                                                    "state_store"))
    # only last-layer passes write network output
    assert passes(trace, "writeback") == [(0, 1), (1, 1)]

    # a single-layer network runs as one resident pass: one parameter
    # load, features and outputs every step, no state round trips
    plan, params, feats = make_case(62, [(96, 96)], n_steps=10, reload=True)
    _, trace = run_reload(plan, params, feats)
    assert passes(trace, "param_load") == [(None, 0)]
    assert passes(trace, "state_load") == passes(trace, "state_store") == []
    totals = trace.link_totals()
    assert totals["L0.load.0.0"]["words"] == 74_400
    assert totals["L0.feat.col0"]["words"] == 96 * 10
    assert totals["L0.writeback.0"]["words"] == 96 * 10


def test_reload_param_loads_carry_each_die_burst_toggles_on_every_pass():
    plan, params, feats = make_case(64, [(96, 96), (96, 192), (192, 192)],
                                    n_out=10, n_steps=3, reload=True)
    _, trace = run_reload(plan, params, feats)
    fresh = GridSim(plan, params)
    loads = collections.Counter()
    for rec in trace.records:
        if rec.kind != "param_load":
            continue
        for ev in rec.events:
            words = fresh._param_words(plan.die(ev.receivers[0]))
            assert ev.toggles == count_toggles(words, 8) \
                == O.count_toggles_int64(words, 8)
            loads[ev.receivers[0]] += 1
    # every die of all three layers is re-loaded on every step
    assert loads == {d.die_id: 3 for d in plan.dies}


def test_every_reload_transfer_consults_the_plan(monkeypatch):
    plan, params, feats = make_case(65, [(96, 96), (96, 192)], n_out=10,
                                    n_steps=3, reload=True)
    found, checked = [], []
    link, check = plan.link, GridSim._check_transfer

    def spy_link(key):
        found.append(link(key))
        return found[-1]

    def spy_check(sim, event, n_words):
        checked.append(event)
        return check(sim, event, n_words)

    monkeypatch.setattr(plan, "link", spy_link)
    monkeypatch.setattr(GridSim, "_check_transfer", spy_check)
    _, trace = run_reload(plan, params, feats)
    # one plan lookup and one transfer check per event, parameter
    # re-loads on later passes included
    events = [ev for rec in trace.records for ev in rec.events]
    assert [ev.link for ev in events] == found
    assert [id(ev) for ev in events] == [id(ev) for ev in checked]
    assert sum(len(rec.events) for rec in trace.records
               if rec.kind == "param_load") == 3 * len(plan.dies)


# (layers, n_out) on TINY dies: one to three layers, grid sides 1 to 3,
# with and without a projection
LINK_CASES = [
    ([(5, 4)], None),
    ([(6, 12)], 3),
    ([(7, 8), (8, 3)], None),
    ([(3, 12), (12, 6)], 2),
    ([(6, 8), (8, 12), (12, 4)], None),
    ([(9, 3), (3, 9), (9, 8)], 4),
]


@pytest.mark.parametrize("mode", ["stacked", "chip_select", "reload"])
@pytest.mark.parametrize("layers,n_out", LINK_CASES,
                         ids=["layers%d" % k for k in range(len(LINK_CASES))])
def test_every_traced_event_uses_a_planned_link(layers, n_out, mode):
    params = LR.random_network_params(63, layers, n_out=n_out)
    feats = LR.random_features(64, 2, layers[0][0])
    plan = plan_grid(LR.derive_spec(params), TINY, reload=mode == "reload",
                     chip_select=mode == "chip_select")
    _, trace = simulate(plan, params, feats)
    # the run moves words on exactly the plan's links, each the plan's own
    used = {id(ev.link): ev.link for rec in trace.records
            for ev in rec.events}
    assert sorted(used) == sorted(map(id, plan.links))
    # so every planned link carries a transfer the run cannot do without
    for link in plan.links:
        with pytest.raises(DeadlockError, match=link.label):
            simulate(plan, params, feats, dropped_links={link.label})


# --- one run schedule for every load mode -----------------------------------------

@pytest.mark.parametrize("layers,n_out", [
    ([(12, 8), (8, 8)], 3),
    ([(6, 8), (8, 4), (4, 8)], None),
])
def test_simulate_runs_multi_layer_reload_plans_like_run_reload(layers,
                                                                n_out):
    plan, params, feats = make_case(66, layers, n_out=n_out, n_steps=2)
    plan = plan_grid(plan.spec, TINY, reload=True)
    out, trace = simulate(plan, params, feats)
    out_r, trace_r = run_reload(plan, params, feats)
    assert np.array_equal(out, out_r)
    assert np.array_equal(out, reference(plan, params, feats))
    assert trace.records == trace_r.records
    assert trace.total_cycles == trace_r.total_cycles


def _timing(rec):
    return (rec.kind, rec.layer, rec.start, rec.end, rec.step, rec.gate,
            rec.hop, [(ev.label, ev.words) for ev in rec.events])


@pytest.mark.parametrize("layers,mode", [
    ([(6, 8), (8, 8)], "stacked"),
    ([(6, 8), (8, 8)], "chip_select"),
    ([(6, 8)], "reload"),
    ([(6, 8), (8, 8)], "reload"),
])
def test_run_schedule_is_built_before_any_value(layers, mode):
    plan, params, feats = make_case(68, layers, n_out=3, n_steps=3)
    plan = plan_grid(plan.spec, TINY, reload=mode == "reload",
                     chip_select=mode == "chip_select")
    config, steps, end = build_run_schedule(plan, CycleModel(), len(feats))
    assert all(rec.step is None for rec in config)
    assert [{rec.step for rec in recs} for recs in steps] == [{0}, {1}, {2}]
    _, trace = simulate(plan, params, feats)
    assert [_timing(rec) for rec in config + sum(steps, [])] \
        == [_timing(rec) for rec in trace.records]
    assert end == trace.total_cycles


# --- stall accounting -------------------------------------------------------------

def test_active_plus_stall_covers_the_span():
    plan, params, feats = make_case(67, [(288, 288)], n_steps=1)
    _, trace = simulate(plan, params, feats)
    activity = trace.die_activity()
    assert set(activity) == {d.die_id for d in plan.dies}
    for die_id, split in activity.items():
        assert split["active"] + split["stall"] == trace.total_cycles
        assert split["stall"] >= 0
    # slaves idle during activation/element-wise phases, masters do not
    master = activity[(0, 0, 2)]
    slave = activity[(0, 0, 0)]
    assert master["active"] > slave["active"]


def test_single_die_never_stalls():
    plan, params, feats = make_case(71, [(96, 96)], n_steps=1)
    _, trace = simulate(plan, params, feats)
    (split,) = trace.die_activity().values()
    assert split["stall"] == 0


# --- deadlock and fault injection ---------------------------------------------------

def test_dropped_feature_link_deadlocks():
    plan, params, feats = make_case(73, [(192, 192)], n_steps=1)
    sim = GridSim(plan, params, dropped_links={"L0.feat.col0"})
    with pytest.raises(DeadlockError):
        sim.run(feats)


def test_dropped_reduction_link_deadlocks():
    plan, params, feats = make_case(79, [(192, 192)], n_steps=1)
    with pytest.raises(DeadlockError):
        simulate(plan, params, feats,
                 dropped_links={"L0.reduce.0.0"})


def test_unplanned_transfer_deadlocks():
    # a plan without its hidden-distribution links cannot serve the run
    plan, params, feats = make_case(83, [(192, 192)], n_steps=1)
    plan = dataclasses.replace(
        plan, links=[link for link in plan.links if link.kind != "h"])
    sim = GridSim(plan, params)
    with pytest.raises(DeadlockError, match="hchain"):
        sim.run(feats)


@pytest.mark.parametrize("label,reload", [
    ("L9.bogus", False), ("L0.reduce.0.1", False),
    # labels of links the mode never moves a word on
    ("L0.spill.0", False), ("L0.writeback.1", False),
    ("L1.writeback.0", True)])
@pytest.mark.parametrize("drive", ["GridSim", "simulate"])
def test_dropping_a_link_the_plan_lacks_is_rejected(drive, label, reload):
    params = LR.random_network_params(89, [(8, 8), (8, 8)])
    plan = plan_grid(LR.derive_spec(params), TINY, reload=reload)
    with pytest.raises(ValueError, match=label):
        if drive == "GridSim":
            GridSim(plan, params, dropped_links={label})
        else:
            simulate(plan, params, LR.random_features(90, 2, 8),
                     dropped_links=[label])


def test_layer_count_mismatch_is_rejected():
    plan, params, _ = make_case(97, [(96, 96)], n_steps=1)
    two = LR.random_network_params(97, [(96, 96), (96, 96)])
    with pytest.raises(ValueError):
        GridSim(plan, two)


def test_reload_driver_requires_a_reload_plan():
    plan, params, feats = make_case(101, [(96, 96), (96, 96)], n_steps=1)
    with pytest.raises(ValueError):
        run_reload(plan, params, feats)


def _mismatched_input(case):
    """A 2-layer network with a projection, its plan's spec and its
    features; unless `case` is None, one of them is changed so that they
    no longer fit."""
    spec = LR.NetworkSpec([(8, 8), (8, 8)], 3)
    params = LR.random_network_params(127, [(8, 8), (8, 8)], n_out=3)
    feats = LR.random_features(128, 2, 8)
    if case == "plan_projects_params_do_not":
        params = LR.random_network_params(127, [(8, 8), (8, 8)])
    elif case == "params_project_plan_does_not":
        spec = LR.NetworkSpec([(8, 8), (8, 8)], None)
    elif case == "narrow_params":
        params = LR.random_network_params(127, [(5, 8), (8, 8)], n_out=3)
    elif case == "narrow_features":
        feats = feats[:, :5]
    elif case == "one_dim_features":
        feats = feats[0]
    return spec, params, feats


@pytest.mark.parametrize("case", [
    "plan_projects_params_do_not", "params_project_plan_does_not",
    "narrow_params", "narrow_features", "one_dim_features"])
@pytest.mark.parametrize("drive", ["simulate", "run_reload"])
def test_inputs_that_do_not_fit_the_plan_are_rejected(drive, case):
    spec, params, feats = _mismatched_input(case)
    plan = plan_grid(spec, TINY, reload=drive == "run_reload")
    with pytest.raises(ValueError, match="plan|features must be"):
        (run_reload if drive == "run_reload" else simulate)(plan, params,
                                                            feats)


def test_hand_built_spec_may_list_its_layers():
    _, params, feats = _mismatched_input(None)
    plan = plan_grid(LR.NetworkSpec([[8, 8], [8, 8]], 3), TINY)
    out, _ = simulate(plan, params, feats)
    assert np.array_equal(out, reference(plan, params, feats))


# --- trace export -----------------------------------------------------------------

def test_trace_text_and_csv_exports():
    plan, params, feats = make_case(103, [(96, 96)], n_out=5, n_steps=1)
    _, trace = simulate(plan, params, feats)
    text = trace.to_text()
    assert "total cycles: %d over 1 step(s)" % trace.total_cycles in text
    rows = trace.to_csv_rows()
    assert rows[0][0] == "step"
    assert len(rows) > len(trace.records)  # events expand to rows
    totals = trace.link_totals()
    assert totals["L0.writeback"]["host_receive"] is True
    assert totals["L0.load.0.0"]["host_drive"] is True
    assert totals["L0.load.0.0"]["bits"] == trace.records[0].events[0].bits


def test_link_totals_aggregate_over_steps():
    plan, params, feats = make_case(107, [(96, 96)], n_steps=4)
    _, trace = simulate(plan, params, feats)
    feat = trace.link_totals()["L0.feat.col0"]
    assert feat["bits"] == 4 * 8 * 96


# --- whole-pipeline properties ----------------------------------------------------

TINY = TileSpec(nh_capacity=4)


def planned_bits(plan, n_steps):
    """Link bits a run of `n_steps` must move, from the plan's grid shapes
    and die footprints alone."""
    grids = plan.layer_grids
    load = {g.layer: 8 * sum(d.footprint_bytes for d in plan.dies
                             if d.layer == g.layer) for g in grids}

    def step_bits(g, writeback):
        n, nh = g.n, g.nh_tile
        bits = 8 * n * g.ni_tile  # feature stream, one slice per column
        bits += 16 * 4 * (n - 1) * n * nh  # four gates' reduction chains
        bits += 8 * 2 * (n - 1) * nh  # hidden chain and broadcast
        if g.n_out is not None:
            bits += 16 * (n - 1) * g.n_out + 8 * g.n_out
        elif writeback:
            bits += 8 * n * nh
        return bits

    if not plan.reload or len(grids) == 1:
        return sum(load.values()) + n_steps * sum(
            step_bits(g, g.layer == len(grids) - 1) for g in grids)
    # one pass per (step, layer): re-load, restore (not on the very first
    # pass), compute, spill; h and c tiles each way
    passes = [g for _ in range(n_steps) for g in grids]
    state = [16 * g.n * g.nh_tile for g in passes]
    return (sum(load[g.layer] + step_bits(g, False) for g in passes)
            + sum(state) + sum(state[1:]))


@st.composite
def pipeline_cases(draw):
    # wide feature vectors on narrow grids give long chains, and weight
    # scales of 2 and above make one gate round mix chains that stay in
    # int16 with chains that clip
    n_layers = draw(st.integers(1, 3))
    widths = [draw(st.integers(1, 24))] + draw(st.lists(
        st.integers(1, 12), min_size=n_layers, max_size=n_layers))
    return dict(layers=list(zip(widths[:-1], widths[1:])),
                n_out=draw(st.one_of(st.none(), st.integers(1, 4))),
                mode=draw(st.sampled_from(("stacked", "reload",
                                           "chip_select"))),
                scale=draw(st.sampled_from((0.5, 1.0, 2.0, 4.0))),
                f_scale=draw(st.sampled_from((1.0, 4.0))),
                n_steps=draw(st.integers(1, 3)),
                seed=draw(st.integers(0, 2 ** 16)))


@given(case=pipeline_cases())
@example(case=dict(layers=[(24, 10), (10, 10), (10, 6)], n_out=None,
                   mode="stacked", scale=4.0, f_scale=4.0, n_steps=3,
                   seed=0))  # 9 of its 36 gate rounds mix the tiers
@settings(max_examples=40, deadline=None)
def test_any_network_and_mode_is_bit_exact_and_moves_the_planned_bits(case):
    params = LR.random_network_params(case["seed"], case["layers"],
                                      n_out=case["n_out"],
                                      scale=case["scale"])
    feats = LR.random_features(case["seed"] + 1, case["n_steps"],
                               case["layers"][0][0], scale=case["f_scale"])
    reload = case["mode"] == "reload"
    plan = plan_grid(LR.derive_spec(params), TINY, reload=reload,
                     chip_select=case["mode"] == "chip_select")
    out, trace = (run_reload if reload else simulate)(plan, params, feats)
    assert np.array_equal(out, reference(plan, params, feats))
    moved = sum(t["bits"] for t in trace.link_totals().values())
    assert moved == planned_bits(plan, case["n_steps"])


# --- the grid against the scalar oracle --------------------------------------------

OTABLES = {"sigmoid_lut": O.lut_table("sigmoid", 5, 7),
           "tanh_lut": O.lut_table("tanh", 5, 7)}


def scalar_reference(plan, params, feats):
    """`oracles.run_network` over the column blocks `grid.col_blocks()`
    names: scalar Python chains that share no arithmetic with the
    package."""
    blocks = [g.col_blocks() for g in plan.layer_grids]
    layers = [dict(OTABLES, w_x=[m.tolist() for m in p.input_weights()],
                   w_h=[m.tolist() for m in p.recurrent_weights()],
                   peep=[p.w_ci.tolist(), p.w_cf.tolist(), p.w_co.tolist()],
                   bias=[b.tolist() for b in p.biases()])
              for p in params.layers]
    fc = None
    if params.fc is not None:
        fc = {"w_y": params.fc.W_y.tolist(), "b_y": params.fc.b_y.tolist(),
              "sigmoid_lut": OTABLES["sigmoid_lut"],
              "blocks": [h for _, h in blocks[-1]]}
    return O.run_network(layers, fc, feats.tolist(), blocks)[0]


def certificate_edge_case():
    """A 16 -> 5 layer on a 2x2 grid.  At step 0 the output-gate chain of
    unit 0 in die column 0 reads eight weights and features of 64:
    ||w||**2 ||v||**2 == (32767 + 1)**2, just past the certificate's
    32767**2, and the chain clips at 32768.  Column 1 pulls back by
    32272, so the fold leaves 495 where the unclipped sum leaves 496, and
    the two round to different output-gate codes and hidden codes."""
    n_i, n_h = 16, 5
    p = LR.LstmLayerParams(
        *(np.zeros((n_h, n_i if k % 2 == 0 else n_h), np.int64)
          for k in range(8)),
        *(np.zeros(n_h, np.int64) for _ in range(7)),
        formats=LR.DEFAULT_FORMATS)
    p.W_xo[0] = [64] * 8 + [-64] * 7 + [-60]
    p.b_c[0] = 8  # a non-zero update gate, so that c and h are not 0
    params = LR.NetworkParams([p])
    feats = np.array([[64] * 15 + [60]] * 2)
    return params, feats


def scalar_cases():
    """(params, features, saturating) cases: seeded 4x4 grids of 3 layers
    with ragged widths, with and without a projection, some of them
    saturating (weight scale 2 or more, feature scale 4), plus the
    certificate's edge."""
    # seed, layers (13..16 units is a 4x4 grid of TINY dies), n_out,
    # weight scale, feature scale
    for seed, layers, n_out, w_scale, f_scale in [
            (301, [(7, 13), (13, 15), (15, 14)], 3, 1.0, 1.0),
            (302, [(5, 14), (14, 13), (13, 16)], None, 0.5, 1.0),
            (303, [(64, 15), (15, 13), (13, 14)], 2, 2.0, 4.0),
            (304, [(61, 16), (16, 14), (14, 13)], None, 4.0, 4.0)]:
        params = LR.random_network_params(seed, layers, n_out=n_out,
                                          scale=w_scale)
        feats = LR.random_features(seed + 1, 3, layers[0][0], scale=f_scale)
        yield pytest.param(params, feats, w_scale >= 2, id="seed%d" % seed)
    yield pytest.param(*certificate_edge_case(), True, id="certificate_edge")


@pytest.mark.parametrize("params,feats,saturating", list(scalar_cases()))
def test_every_mode_matches_the_scalar_oracle(monkeypatch, params, feats,
                                              saturating):
    # `saturating`: some chain of the scalar oracle clips
    clipped = []
    chain = O.mac_chain

    def spy(pairs, init=0):
        acc, sat = chain(pairs, init)
        clipped.append(sat)
        return acc, sat

    monkeypatch.setattr(O, "mac_chain", spy)
    spec = LR.derive_spec(params)
    want = scalar_reference(plan_grid(spec, TINY), params, feats)
    assert any(clipped) == saturating
    for kw in ({}, {"reload": True}, {"chip_select": True}):
        out, _ = simulate(plan_grid(spec, TINY, **kw), params, feats)
        assert out.tolist() == want, kw


# --- int8 domain at the library boundary ------------------------------------------

def _out_of_range(target, value):
    plan, params, feats = make_case(109, [(6, 8), (8, 8)], n_out=3,
                                    n_steps=2)
    plan = plan_grid(plan.spec, TINY, reload=True)
    if target == "feature":
        feats[1, 2] = value
    elif target == "weight":
        params.layers[1].W_hf[3, 4] = value
    elif target == "peephole":
        params.layers[0].w_co[5] = value
    elif target == "bias":
        params.layers[1].b_c[0] = value
    else:
        params.fc.W_y[2, 7] = value
    return plan, params, feats


@pytest.mark.parametrize("value", [300, -500, 128, -129])
@pytest.mark.parametrize("target", ["feature", "weight", "peephole", "bias",
                                    "projection"])
@pytest.mark.parametrize("drive", ["simulate", "run_reload", "network_infer"])
def test_codes_outside_int8_are_rejected(drive, target, value):
    plan, params, feats = _out_of_range(target, value)
    with pytest.raises(ValueError, match="int8"):
        if drive == "network_infer":
            LR.network_infer(plan.spec, params, feats)
        elif drive == "run_reload":
            run_reload(plan, params, feats)
        else:
            simulate(plan_grid(plan.spec, TINY), params, feats)


@pytest.mark.parametrize("value", [0.5, -0.25, float("nan")])
@pytest.mark.parametrize("target", ["feature", "weight", "projection"])
@pytest.mark.parametrize("drive", ["simulate", "run_reload", "network_infer"])
def test_fractional_codes_are_rejected_not_truncated(drive, target, value):
    plan, params, feats = _out_of_range("feature", 3)
    if target == "feature":
        feats = feats.astype(np.float64)
        feats[1, 2] += value
    elif target == "weight":
        params.layers[1].W_hf = params.layers[1].W_hf + value
    else:
        params.fc.W_y = params.fc.W_y + value
    with pytest.raises(ValueError, match="whole int8"):
        if drive == "network_infer":
            LR.network_infer(plan.spec, params, feats)
        elif drive == "run_reload":
            run_reload(plan, params, feats)
        else:
            simulate(plan_grid(plan.spec, TINY), params, feats)


def test_whole_float_codes_run_like_integer_codes():
    plan, params, feats = _out_of_range("feature", 3)
    out, _ = run_reload(plan, params, feats.astype(np.float64))
    assert np.array_equal(out, run_reload(plan, params, feats)[0])
    assert np.array_equal(out, reference(plan, params,
                                         feats.astype(np.float64)))


@pytest.mark.parametrize("lut_formats", [((4, 7), (5, 7)), ((5, 7), (5, 6))])
@pytest.mark.parametrize("drive", ["simulate", "run_reload", "network_infer"])
def test_luts_of_other_formats_are_rejected(drive, lut_formats):
    (sig_in, sig_out), (tanh_in, tanh_out) = lut_formats
    luts = {"sigmoid": build_lut("sigmoid", QFormat(sig_in), QFormat(sig_out)),
            "tanh": build_lut("tanh", QFormat(tanh_in), QFormat(tanh_out))}
    plan, params, feats = make_case(113, [(6, 8), (8, 8)], n_steps=2)
    with pytest.raises(ValueError, match="LUT formats"):
        if drive == "network_infer":
            LR.network_infer(plan.spec, params, feats, luts=luts)
        elif drive == "run_reload":
            run_reload(plan_grid(plan.spec, TINY, reload=True), params,
                       feats, luts=luts)
        else:
            simulate(plan_grid(plan.spec, TINY), params, feats, luts=luts)


def test_int8_extremes_are_accepted():
    plan, params, feats = _out_of_range("feature", -128)
    feats[0, :2] = 127
    out, _ = run_reload(plan, params, feats)
    assert np.array_equal(out, reference(plan, params, feats))
