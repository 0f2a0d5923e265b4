import json

import pytest

from lstmgrid import lstm_ref as LR
from lstmgrid.lstm_ref import NetworkSpec
from lstmgrid.mapper import (HOST, CapacityError, LinkPlan, TileSpec,
                             memory_footprint, pin_budget, plan_grid,
                             plan_layer_grid, plan_to_dict)
from lstmgrid.systolic_sim import run_reload

TILE = TileSpec()


def spec_for(layer_sizes, n_out=None):
    return NetworkSpec(list(layer_sizes), n_out)


# --- grid sizing ---------------------------------------------------------------

# (layer sizes, expected side length per layer, expected total dies)
SIZINGS = [
    ([(96, 96)], [1], 1),
    ([(56, 56)], [1], 1),
    ([(192, 192)], [2], 4),
    ([(288, 288)], [3], 9),
    ([(384, 384)], [4], 16),
    ([(480, 480)], [5], 25),
    ([(96, 96), (96, 96)], [1, 1], 2),
    ([(192, 192), (192, 192)], [2, 2], 8),
    ([(384, 384), (384, 384), (384, 384)], [4, 4, 4], 48),
    ([(480, 480), (480, 480), (480, 480)], [5, 5, 5], 75),
]


@pytest.mark.parametrize("layers,sides,total", SIZINGS)
def test_reference_grid_sizings(layers, sides, total):
    plan = plan_grid(spec_for(layers), TILE)
    assert [g.n for g in plan.layer_grids] == sides
    assert plan.total_dies == total
    assert len(plan.dies) == sum(n * n for n in sides)


@pytest.mark.parametrize("layers,sides,total", SIZINGS)
def test_reload_needs_only_the_largest_grid(layers, sides, total):
    plan = plan_grid(spec_for(layers), TILE, reload=True)
    assert plan.total_dies == max(n * n for n in sides)


def test_ragged_sizes_pad_to_uniform_tiles():
    grid = plan_layer_grid(0, 123, 100, TILE)
    assert grid.n == 2
    assert grid.nh_tile == 50 and grid.nh_padded == 100
    assert grid.ni_tile == 62 and grid.ni_padded == 124


def test_single_die_handles_small_layers():
    grid = plan_layer_grid(0, 1, 1, TILE)
    assert (grid.n, grid.nh_tile, grid.ni_tile) == (1, 1, 1)


# --- memory footprint ------------------------------------------------------------

def test_footprint_full_die():
    # 4 * 96 * (96 + 96) weights + (3 + 4) * 96 master vectors
    assert memory_footprint(96, 96) == 74_400
    assert memory_footprint(96, 96) <= TILE.sram_bytes


def test_footprint_slave_die():
    # slaves hold only the eight weight tiles
    assert memory_footprint(96, 96, master=False) == 4 * 96 * 192 == 73_728


def test_footprint_vanilla_master_skips_peephole_bytes():
    assert memory_footprint(96, 96, peephole=False) == 73_728 + 4 * 96


def test_footprint_projection_terms():
    base = memory_footprint(96, 96)
    assert memory_footprint(96, 96, fc_out=62) == base + 62 * 96
    assert memory_footprint(96, 96, fc_out=62, fc_bias=True) \
        == base + 62 * 96 + 62


def test_footprint_rejects_negative():
    with pytest.raises(ValueError):
        memory_footprint(-1, 96)


def test_plan_footprints_match_roles():
    plan = plan_grid(spec_for([(192, 192)], n_out=62), TILE)
    for die in plan.dies:
        grid = plan.grid(die.layer)
        expect = memory_footprint(
            grid.ni_tile, grid.nh_tile,
            fc_out=grid.n_out if die.fc_cols else None, fc_bias=die.fc_root,
            master=die.role == "master")
        assert die.footprint_bytes == expect
        assert die.footprint_bytes <= TILE.sram_bytes


def test_capacity_error_when_sram_too_small():
    with pytest.raises(CapacityError):
        plan_grid(spec_for([(96, 96)]), TileSpec(sram_bytes=74_399))
    # one byte more fits
    plan_grid(spec_for([(96, 96)]), TileSpec(sram_bytes=74_400))


def test_capacity_error_when_projection_too_wide():
    with pytest.raises(CapacityError):
        plan_grid(spec_for([(96, 96)], n_out=97), TILE)


# --- placement and links ----------------------------------------------------------

def test_masters_sit_on_the_rightmost_column():
    plan = plan_grid(spec_for([(288, 288)]), TILE)
    for die in plan.dies:
        assert (die.role == "master") == (die.col == 2)
    assert len([d for d in plan.dies
                if d.layer == 0 and d.role == "master"]) == 3


def test_hidden_row_tiles_partition_the_padded_range():
    plan = plan_grid(spec_for([(288, 288)]), TILE)
    grid = plan.grid(0)
    rows = sorted({d.hidden_rows for d in plan.dies})
    assert rows == [(i * grid.nh_tile, (i + 1) * grid.nh_tile)
                    for i in range(grid.n)]
    cols = sorted({d.x_cols for d in plan.dies})
    assert cols == [(j * grid.ni_tile, (j + 1) * grid.ni_tile)
                    for j in range(grid.n)]


def test_projection_slices_cover_the_master_column():
    plan = plan_grid(spec_for([(192, 192)], n_out=62), TILE)
    masters = [d for d in plan.dies
               if d.layer == 0 and d.role == "master"]
    assert all(m.fc_cols == m.hidden_rows for m in masters)
    roots = [m for m in masters if m.fc_root]
    assert [r.die_id for r in roots] == [(0, 1, 1)]


def test_first_layer_feature_streams_come_from_the_host():
    plan = plan_grid(spec_for([(192, 192)]), TILE)
    for j in range(2):
        assert plan.has_link("p", HOST, ((0, 0, j), (0, 1, j)))


def test_stacked_feature_streams_come_from_upstream_masters():
    plan = plan_grid(spec_for([(192, 192), (192, 192)]), TILE)
    for j in range(2):
        assert plan.has_link("p", (0, j, 1), ((1, 0, j), (1, 1, j)))


def test_reload_feature_streams_stay_host_fed():
    plan = plan_grid(spec_for([(192, 192), (192, 192)]), TILE, reload=True)
    for j in range(2):
        assert plan.has_link("p", HOST, ((1, 0, j), (1, 1, j)))


def test_reduction_chain_runs_left_to_right():
    plan = plan_grid(spec_for([(288, 288)]), TILE)
    for i in range(3):
        for j in range(2):
            assert plan.has_link("r", (0, i, j), ((0, i, j + 1),))
        assert not plan.has_link("r", (0, i, 2), ((0, i, 1),))


def test_hidden_distribution_links():
    plan = plan_grid(spec_for([(288, 288)]), TILE)
    # chain climbs the master column
    assert plan.has_link("h", (0, 2, 2), ((0, 1, 2),))
    assert plan.has_link("h", (0, 1, 2), ((0, 0, 2),))
    # masters 0 and 1 broadcast to their namesake columns
    assert plan.has_link("h", (0, 0, 2), ((0, 0, 0), (0, 1, 0), (0, 2, 0)))
    assert plan.has_link("h", (0, 1, 2), ((0, 0, 1), (0, 1, 1), (0, 2, 1)))


def test_every_die_has_a_parameter_stream():
    plan = plan_grid(spec_for([(192, 192), (192, 192)]), TILE)
    for die in plan.dies:
        assert plan.has_link("p", HOST, (die.die_id,))


def test_projection_reduction_and_writeback_links():
    plan = plan_grid(spec_for([(192, 192)], n_out=62), TILE)
    assert plan.has_link("r", (0, 0, 1), ((0, 1, 1),))
    assert plan.has_link("out", (0, 1, 1), (HOST,))


def test_link_kind_is_validated():
    with pytest.raises(ValueError):
        LinkPlan("q", HOST, ((0, 0, 0),), "bad")


def test_tile_spec_is_validated():
    with pytest.raises(ValueError):
        TileSpec(nh_capacity=0)
    with pytest.raises(ValueError):
        TileSpec(word_bits=9)


# --- pin budget -------------------------------------------------------------------

def test_pin_budget_single_die():
    plan = plan_grid(spec_for([(96, 96)]), TILE)
    budget = pin_budget(plan)
    assert budget.total_min == 2 + 3 + 6 + 6 == 17
    assert budget.total_time_multiplexed == 17


def test_pin_budget_two_by_two():
    plan = plan_grid(spec_for([(192, 192)]), TILE)
    assert pin_budget(plan).total_min == 2 + 3 + 12 + 12 == 29
    assert pin_budget(plan, time_multiplexed=True).total_min == 17


def test_pin_budget_alternative_interpretation():
    plan = plan_grid(spec_for([(192, 192)]), TILE)
    budget = pin_budget(plan, interpretation="all_dies")
    assert budget.n_inp_layer == budget.n_out_layer == 4
    assert budget.total_min == 2 + 3 + 24 + 24


# --- reload schedule --------------------------------------------------------------

def reload_passes(seed, layer_sizes, n_steps, n_out=None):
    """Per-pass external bytes of a reload run, read off its trace."""
    params = LR.random_network_params(seed, layer_sizes, n_out=n_out)
    plan = plan_grid(LR.derive_spec(params), TILE, reload=True)
    feats = LR.random_features(seed + 1, n_steps=n_steps,
                               n_features=layer_sizes[0][0])
    _, trace = run_reload(plan, params, feats)
    passes = []
    for rec in trace.records:
        if rec.kind == "param_load":
            passes.append({"step": rec.step, "layer": rec.layer,
                           "param_bytes": 0, "state_load_bytes": 0,
                           "state_store_bytes": 0, "feature_bytes": 0,
                           "output_bytes": 0})
        key = {"param_load": "param_bytes",
               "state_load": "state_load_bytes",
               "state_store": "state_store_bytes",
               "feature_stream": "feature_bytes",
               "writeback": "output_bytes"}.get(rec.kind)
        if key is not None:
            passes[-1][key] += sum(ev.bits for ev in rec.events) // 8
    return passes


def test_single_layer_runs_as_one_resident_pass():
    passes = reload_passes(71, [(96, 96)], n_steps=10)
    assert len(passes) == 1
    p = passes[0]
    assert p["param_bytes"] == 74_400
    assert p["state_load_bytes"] == 0 and p["state_store_bytes"] == 0
    assert p["feature_bytes"] == 96 * 10
    assert p["output_bytes"] == 96 * 10


def test_two_layer_reload_reloads_every_pass():
    passes = reload_passes(72, [(96, 96), (96, 96)], n_steps=2)
    assert len(passes) == 4
    assert all(p["param_bytes"] == 74_400 for p in passes)
    # every pass but the very first restores h and c (2 bytes per unit)
    assert passes[0]["state_load_bytes"] == 0
    assert all(p["state_load_bytes"] == 2 * 96 for p in passes[1:])
    assert all(p["state_store_bytes"] == 2 * 96 for p in passes)
    # without a projection the spilled h of the last layer is the output
    assert all(p["output_bytes"] == 0 for p in passes)
    # with one, only last-layer passes load it and write network output
    passes = reload_passes(72, [(96, 96), (96, 96)], n_steps=2, n_out=10)
    assert [p["param_bytes"] for p in passes] \
        == [74_400, 74_400 + 10 * 96 + 10] * 2
    assert [p["output_bytes"] for p in passes] == [0, 10, 0, 10]


def test_reload_pass_order_is_step_major():
    passes = reload_passes(73, [(96, 96), (96, 96)], n_steps=2)
    assert [(p["step"], p["layer"]) for p in passes] \
        == [(0, 0), (0, 1), (1, 0), (1, 1)]


# --- serialization ----------------------------------------------------------------

def test_plan_serializes_to_json():
    plan = plan_grid(spec_for([(192, 192), (192, 192)], n_out=62), TILE,
                     chip_select=True)
    blob = json.dumps(plan_to_dict(plan), sort_keys=True)
    again = json.loads(blob)
    assert again["total_dies"] == 8
    assert again["chip_select"] is True
    assert len(again["dies"]) == 8
    assert {l["kind"] for l in again["links"]} == {"p", "r", "h", "out"}
