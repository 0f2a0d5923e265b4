"""Peak memory of the instance generator, the grid and the oracle.

tracemalloc counts every NumPy buffer exactly, whatever the host, so
these peaks are deterministic.  On a 3 x 480 network, the largest of
Table 4, parameter codes rest as int8, one byte each: the generator
never holds a float network, and each value engine holds a layer's
float32 MAC operand (four bytes per code) only while that layer steps.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from lstmgrid import cli, lstm_ref, mapper, systolic_sim
from lstmgrid.qformat import QFormat

MB = 1 << 20
LAYERS = [(480, 480)] * 3


def traced_peak(fn, *args, **kwargs):
    """(fn's result, the most bytes it held at once beyond what was
    allocated before the call)."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


@pytest.fixture(scope="module")
def network():
    """(params, stacked plan, two steps of features, each layer's code
    count in the grid's layout)."""
    params = lstm_ref.random_network_params(7, LAYERS)
    plan = mapper.plan_grid(lstm_ref.derive_spec(params), mapper.TileSpec())
    features = lstm_ref.random_features(8, 2, LAYERS[0][0])
    sim = systolic_sim.GridSim(plan, params)
    return params, plan, features, [stack.w.size for stack, _ in sim.layers]


def test_the_generator_quantizes_each_tensor_as_it_draws_it():
    params, peak = traced_peak(lstm_ref.random_network_params, 7, LAYERS)
    codes = sum(getattr(p, name).nbytes for p in params.layers
                for name in lstm_ref._LAYER_TENSORS)
    largest = max(n_h * max(n_i, n_h) for n_i, n_h in LAYERS)
    # the codes it returns, and the float64 temporaries of one tensor
    assert peak < codes + 8 * largest * 8


def test_simulate_holds_one_float32_layer_at_a_time(network):
    params, plan, features, sizes = network
    # what the plan builds on its first use is the plan's, not the run's
    want = systolic_sim.simulate(plan, params, features)[0]
    (outputs, _), peak = traced_peak(systolic_sim.simulate, plan, params,
                                     features)
    assert np.array_equal(outputs, want)
    # every layer's int8 layout, one layer's float32 operand
    assert peak < sum(sizes) + 4 * max(sizes) + MB


def test_the_oracle_holds_one_layer_at_a_time(network):
    params, plan, features, sizes = network
    blocks, _ = cli._plan_blocks(plan)
    outputs, peak = traced_peak(lstm_ref.network_infer,
                                lstm_ref.derive_spec(params), params,
                                features, col_blocks_per_layer=blocks)
    assert np.array_equal(outputs,
                          systolic_sim.simulate(plan, params, features)[0])
    # one layer's int8 layout and its float32 operand
    assert peak < max(sizes) + 4 * max(sizes) + MB


def test_a_layout_build_copies_no_whole_matrix(network):
    params, plan, _, sizes = network
    grid, luts = plan.layer_grids[0], lstm_ref.default_luts()
    # the tail tables are built once per process, before the measurement
    lstm_ref.prepare_layer(params.layers[0], luts, grid.n)
    (stack, _), peak = traced_peak(lstm_ref.prepare_layer, params.layers[0],
                                   luts, grid.n)
    assert grid.n == 5 and stack.w.nbytes == sizes[0]
    # the int8 layout, filled block by block: no padded or transposed
    # copy of a gate matrix on the way
    assert peak < stack.w.nbytes + 512 * 1024


def test_no_step_hands_the_mac_kernel_int8_weights(monkeypatch):
    # the kernel converts other dtypes on every call: each gate call of
    # either engine gets its layer's float32 operand, made once per layer,
    # and only the projection's one call per run may pass the int8 layout
    params = lstm_ref.random_network_params(9, [(6, 10), (10, 7)], n_out=3)
    plan = mapper.plan_grid(lstm_ref.derive_spec(params),
                            mapper.TileSpec(nh_capacity=4))
    features = lstm_ref.random_features(10, 3, 6)
    weights = {"sim": [], "ref": []}
    for module, side in ((systolic_sim, "sim"), (lstm_ref, "ref")):
        def spy(w, *args, mac_run=module.mac_run, seen=weights[side],
                **kwargs):
            head = kwargs.get("head")
            seen.append((np.asarray(w), None if head is None
                         else np.asarray(head[0])))
            return mac_run(w, *args, **kwargs)
        monkeypatch.setattr(module, "mac_run", spy)
    blocks, fc_blocks = cli._plan_blocks(plan)
    want = lstm_ref.network_infer(lstm_ref.derive_spec(params), params,
                                  features, col_blocks_per_layer=blocks,
                                  fc_col_blocks=fc_blocks)
    assert np.array_equal(systolic_sim.simulate(plan, params, features)[0],
                          want)
    for side, seen in weights.items():
        gates = [(w, head) for w, head in seen
                 if w.ndim == 4 and w.shape[0] == 4]
        assert len(gates) == 2 * 3, side  # one per (layer, step)
        # the recurrent half, and the input half of the head
        assert all(w.dtype == np.float32 for w, _ in gates), side
        assert all(head is not None and head.dtype == np.float32
                   for _, head in gates), side
        assert len(seen) - len(gates) == 1, side  # the projection


def test_a_long_run_holds_one_head_chunk_on_each_side():
    # 200 steps, four head chunks: each engine's peak stays within its
    # layer's float32 layout, one chunk's head sums and 1 MiB
    params = lstm_ref.random_network_params(11, [(96, 96)])
    spec = lstm_ref.derive_spec(params)
    plan = mapper.plan_grid(spec, mapper.TileSpec())
    features = lstm_ref.random_features(12, 200, 96)
    (stack, _), = systolic_sim.GridSim(plan, params).layers
    # float32 head sums per step: one per (gate, block, row)
    chunk = lstm_ref.HEAD_CHUNK * 4 * stack.w_sq.size
    bound = 4 * stack.w.size + chunk + MB
    want = systolic_sim.simulate(plan, params, features)[0]
    (outputs, _), peak = traced_peak(systolic_sim.simulate, plan, params,
                                     features)
    assert np.array_equal(outputs, want)
    assert peak < bound
    blocks, _ = cli._plan_blocks(plan)
    outputs, peak = traced_peak(lstm_ref.network_infer, spec, params,
                                features, col_blocks_per_layer=blocks)
    assert np.array_equal(outputs, want)
    assert peak < bound


@pytest.mark.parametrize("fracs", [(5, 5, 7), (4, 5, 5)])
def test_the_tail_tables_take_at_most_1_mib_per_lut_pair_and_formats(fracs):
    # every table the tails read, each in its own buffer, so a region
    # added to them cannot grow unseen
    fmts = lstm_ref.FormatSet(*map(QFormat, fracs))
    tables = lstm_ref.build_tail_tables(lstm_ref.default_luts(fmts), fmts)
    arrays = [getattr(tables, f.name) for f in dataclasses.fields(tables)]
    assert all(a.base is None for a in arrays)
    assert sum(a.nbytes for a in arrays) <= MB
