import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lstmgrid import lstm_ref as lr
from lstmgrid.actlut import Lut256
from lstmgrid.qformat import QFormat, dequantize, requantize

import oracles as O

FMT = lr.DEFAULT_FORMATS
LUTS = lr.default_luts(FMT)
OTAB = {"sigmoid_lut": O.lut_table("sigmoid", 5, 7),
        "tanh_lut": O.lut_table("tanh", 5, 7)}


def zeros_params(n_i, n_h, fixed=True):
    dt = np.int64 if fixed else np.float64
    mats = [np.zeros((n_h, n_i if k % 2 == 0 else n_h), dt) for k in range(8)]
    vecs = [np.zeros(n_h, dt) for _ in range(7)]
    return lr.LstmLayerParams(*mats, *vecs, formats=FMT if fixed else None)


def to_oracle(params):
    d = {
        "w_x": [m.tolist() for m in params.input_weights()],
        "w_h": [m.tolist() for m in params.recurrent_weights()],
        "peep": [params.w_ci.tolist(), params.w_cf.tolist(),
                 params.w_co.tolist()],
        "bias": [b.tolist() for b in params.biases()],
    }
    d.update(OTAB)
    return d


def random_fixed(seed, n_i, n_h, scale=0.8):
    p = lr.random_network_params(seed, [(n_i, n_h)], scale=scale)
    return p.layers[0]


def dequantized_oracle(params):
    """`to_oracle`'s weights, peepholes and biases as the reals their codes
    stand for: the parameters of `O.cell_step_float`."""
    d = to_oracle(params)
    return {k: dequantize(np.array(d[k]), FMT.weight).tolist()
            for k in ("w_x", "w_h", "peep", "bias")}


# --- fixed-point golden model ---------------------------------------------------

def test_fixed_all_zero():
    p = zeros_params(4, 4)
    s = lr.cell_step_fixed(p, lr.LstmState.zeros(4), np.zeros(4, np.int64),
                           LUTS)
    assert s.c.tolist() == [0, 0, 0, 0]
    assert s.h.tolist() == [0, 0, 0, 0]  # o=sigma(0)=code 64, tanh(0)=0


def test_fixed_single_neuron_hand_trace():
    # codes picked so the pre-activation requantization is exact:
    #   in gate:   32*32 + (32<<5) = 2048 -> code 64 -> sigmoid 113
    #   forget:    -32*32          = -1024 -> code -32 -> sigmoid 34
    #   update:    16*32           = 512  -> code 16 -> tanh 59
    #   out gate:  (64<<5)         = 2048 -> code 64 -> sigmoid 113
    #   i*u = 113*59 = 6667 ->(>>2 rnd) 1667; c = (1667+64)>>7 = 13
    #   tanh(13) = 49; h = (113*49 + 256)>>9 = 11
    p = zeros_params(1, 1)
    p.W_xi[0, 0] = 32
    p.b_i[0] = 32
    p.W_xf[0, 0] = -32
    p.W_xc[0, 0] = 16
    p.b_o[0] = 64
    x = np.array([32], np.int64)
    s = lr.cell_step_fixed(p, lr.LstmState.zeros(1), x, LUTS)
    assert s.c.tolist() == [13]
    assert s.h.tolist() == [11]
    oh, oc, gates = O.cell_step(to_oracle(p), [32], [0], [0])
    assert (oh, oc) == ([11], [13])
    assert gates["in"] == [113] and gates["forget"] == [34]
    assert gates["update"] == [59] and gates["out"] == [113]


@pytest.mark.parametrize("seed,n_i,n_h", [(0, 4, 4), (1, 3, 5), (2, 7, 2),
                                          (3, 1, 1), (4, 6, 6)])
def test_fixed_random_vs_scalar_oracle(seed, n_i, n_h):
    p = random_fixed(seed, n_i, n_h)
    rng = np.random.default_rng(seed + 100)
    x = rng.integers(-128, 128, n_i).astype(np.int64)
    h = rng.integers(-128, 128, n_h).astype(np.int64)
    c = rng.integers(-128, 128, n_h).astype(np.int64)
    got = lr.cell_step_fixed(p, lr.LstmState(h, c), x, LUTS)
    want_h, want_c, _ = O.cell_step(to_oracle(p), x.tolist(), h.tolist(),
                                    c.tolist())
    assert got.h.tolist() == want_h
    assert got.c.tolist() == want_c


INT16 = st.one_of(st.sampled_from([-32768, -32767, 32767]),
                  st.integers(-32768, 32767))
INT8 = st.integers(-128, 127)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.tuples(*[INT16] * 4), INT8,
                          st.tuples(*[INT8] * 3), st.tuples(*[INT8] * 4)),
                min_size=1, max_size=8))
def test_cell_tail_matches_scalar_oracle_tail(units):
    # reduced accumulators anywhere in int16, which MAC chains rarely reach
    dots, c, peep, bias = (np.array(v, np.int64).T for v in zip(*units))
    h_new, c_new = lr.cell_tail(dots, c,
                                lr.cell_constants(peep, bias, FMT, LUTS))
    want = [O.cell_tail(*u, OTAB["sigmoid_lut"], OTAB["tanh_lut"])[:2]
            for u in units]
    assert list(zip(h_new.tolist(), c_new.tolist())) == want


# --- the batched tails in every admitted format ----------------------------------

# (weight, state, gate) frac bits; the cell needs gate >= state
FRAC_TRIPLES = [(w, s, g) for w in range(8) for s in range(8)
                for g in range(s, 8)]
CODE8 = st.one_of(st.sampled_from([-128, -127, 127]), INT8)
EXTREMES = [((32767, -32768, 32767, -32768), -128, (-128, -128, -128),
             (127, -128, 127, -128)),
            ((-32768, 32767, -32768, 32767), 127, (-128, 127, -128),
             (-128, 127, -128, 127))]


def format_set(w, s, g):
    return lr.FormatSet(QFormat(w), QFormat(s), QFormat(g))


def tail_luts(fmts, seed=None):
    """The format's activation tables, or two arbitrary int8 tables drawn
    from `seed`."""
    if seed is None:
        return lr.default_luts(fmts)
    tables = np.random.default_rng(seed).integers(-128, 128, (2, 256))
    tables[:, :2] = -128, 127  # the int8 ends, for every seed
    return {kind: Lut256(kind, fmts.state, fmts.gate, table)
            for kind, table in zip(("sigmoid", "tanh"), tables)}


def assert_tails_equal_unbatched(fmts, luts, dots, c, peep, bias):
    got = lr.cell_tail(dots, c, lr.cell_constants(peep, bias, fmts, luts))
    want = O.unbatched_cell_tail(dots, c, peep, bias, fmts, luts)
    assert [a.tolist() for a in got] == [a.tolist() for a in want]
    for acc, b_y in zip(dots, bias):
        assert (lr.fc_tail(acc, b_y, fmts, luts).tolist()
                == O.unbatched_fc_tail(acc, b_y, fmts, luts).tolist())


@settings(max_examples=300, deadline=None)
@given(fracs=st.sampled_from(FRAC_TRIPLES),
       units=st.lists(st.tuples(st.tuples(*[INT16] * 4), CODE8,
                                st.tuples(*[CODE8] * 3),
                                st.tuples(*[CODE8] * 4)),
                      min_size=1, max_size=8),
       table_seed=st.none() | st.integers(0, 2 ** 32 - 1))
@example(fracs=(0, 5, 7), units=EXTREMES, table_seed=None)
@example(fracs=(5, 5, 5), units=EXTREMES, table_seed=None)
@example(fracs=(0, 0, 0), units=EXTREMES, table_seed=None)
@example(fracs=(7, 7, 7), units=EXTREMES, table_seed=0)
def test_batched_tails_equal_the_unbatched_ones(fracs, units, table_seed):
    # reduced accumulators anywhere in int16 and codes at the int8 ends,
    # in any format set with gate frac bits >= state frac bits; arbitrary
    # tables reach gate codes the format's own tables never give
    fmts = format_set(*fracs)
    dots, c, peep, bias = (np.array(v, np.int64).T for v in zip(*units))
    assert_tails_equal_unbatched(fmts, tail_luts(fmts, table_seed), dots, c,
                                 peep, bias)


def test_batched_tails_equal_the_unbatched_ones_in_every_format():
    rng = np.random.default_rng(12)
    n = 256
    for fracs in FRAC_TRIPLES:
        fmts = format_set(*fracs)
        dots = rng.integers(-32768, 32768, (4, n))
        c = rng.integers(-128, 128, n)
        peep = rng.integers(-128, 128, (3, n))
        bias = rng.integers(-128, 128, (4, n))
        for k, (acc, c_k, p_k, b_k) in enumerate(EXTREMES):
            dots[:, k], c[k], peep[:, k], bias[:, k] = acc, c_k, p_k, b_k
        for table_seed in (None, sum(fracs)):
            assert_tails_equal_unbatched(fmts, tail_luts(fmts, table_seed),
                                         dots, c, peep, bias)


def test_cell_state_update_clips_at_the_int16_top():
    # with gf == sf, i*u and f*c are both (-128) * (-128) == 2**14, and
    # their sum 2**15 is one past int16: the c update must clip it
    units = 3
    dots = np.zeros((4, units), np.int64)
    c = np.full(units, -128)
    peep, bias = np.zeros((3, units), np.int64), np.zeros((4, units), np.int64)
    for sf in range(8):
        fmts = format_set(5, sf, sf)
        luts = {kind: Lut256(kind, fmts.state, fmts.gate, [-128] * 256)
                for kind in ("sigmoid", "tanh")}
        h_new, c_new = lr.cell_tail(dots, c, lr.cell_constants(peep, bias,
                                                               fmts, luts))
        want = O.unbatched_cell_tail(dots, c, peep, bias, fmts, luts)
        assert [h_new.tolist(), c_new.tolist()] == [a.tolist() for a in want]
        assert c_new.tolist() == [requantize(32767, 2 * sf, fmts.state)] * 3


# --- the tail tables -------------------------------------------------------------

INT16_VALUES = np.arange(-32768, 32768)


@pytest.mark.parametrize("table_seed", [None, 3])
def test_tail_tables_equal_the_helpers_they_replace(table_seed):
    # every entry of every table, over its whole domain, in every format
    # set; arbitrary tables reach gate codes the format's own never give
    codes = np.arange(-128, 128)
    g_o, c_new = codes[:, None], codes[None, :]
    for fracs in FRAC_TRIPLES:
        fmts = format_set(*fracs)
        sf, gf = fmts.state.frac_bits, fmts.gate.frac_bits
        luts = tail_luts(fmts, table_seed)
        t = lr.build_tail_tables(luts, fmts)
        pre = requantize(INT16_VALUES, fmts.acc_frac_bits, fmts.state)
        want_gates = [luts[kind].lookup(pre) for kind in ("sigmoid", "tanh")]
        # then the same codes as an index's high byte (i, o) and low (u)
        want_gates += [want_gates[0] << 8, want_gates[1] & 0xFF]
        assert np.array_equal(t.gates, np.concatenate(want_gates)), fracs
        assert np.array_equal(t.c, requantize(INT16_VALUES, gf + sf,
                                              fmts.state)), fracs
        # the h entry of (g_o, c_new) sits at their bytes, high then low
        want_h = requantize(g_o * luts["tanh"].lookup(c_new), 2 * gf,
                            fmts.state)
        assert np.array_equal(t.h[((g_o & 0xFF) << 8) | (c_new & 0xFF)],
                              want_h), fracs
        # the i*u entry of (g_i, g_u) sits alike, at f*c's scale, with the
        # c table's offset 32768 added
        g_i, g_u = g_o, c_new
        want_iu = O.np_shift_round(g_i * g_u, gf - sf) + 32768
        assert np.array_equal(t.iu[((g_i & 0xFF) << 8) | (g_u & 0xFF)],
                              want_iu), fracs
        for table in (t.gates, t.c, t.h):
            assert table.dtype == np.int16 and not table.flags.writeable
        assert t.iu.dtype == np.uint16 and not t.iu.flags.writeable


def test_tail_tables_are_memoized_on_the_luts():
    luts = tail_luts(FMT, 5)
    t = lr.tail_tables(luts, FMT)
    assert lr.tail_tables(dict(luts), FMT) is t
    assert lr.tail_tables(luts, format_set(4, 5, 7)) is not t
    assert lr.default_luts(FMT)["tanh"] is lr.default_luts(FMT)["tanh"]
    with pytest.raises(ValueError):
        luts["sigmoid"].table[0] = 0  # a table that could change


@settings(max_examples=200, deadline=None)
@given(s=st.integers(-2 ** 17, 2 ** 17), base=st.sampled_from([0, 65536]))
@example(s=-2 ** 17, base=0)
@example(s=2 ** 17, base=65536)
@example(s=-32768, base=0)
@example(s=32767, base=0)
def test_gate_bounds_fold_the_saturating_bias_add(s, base):
    # sat16(sat16(s) + B) == clip(s + B, -32768 + max(B, 0),
    # 32767 + min(B, 0)), for B = b << sf with every int8 b and every sf
    acc_bias = (np.arange(-128, 128)[:, None] << np.arange(8)).ravel()
    offset, lo, hi = lr.gate_bounds(acc_bias, base)
    got = np.minimum(np.maximum(s + offset, lo), hi) - base - 32768
    assert got.tolist() == O.np_sat16(O.np_sat16(s) + acc_bias).tolist()


def test_gate_format_narrower_than_the_state_format_is_refused():
    with pytest.raises(ValueError, match="fewer fractional bits"):
        lr.FormatSet(state=QFormat(5), gate=QFormat(4))
    assert lr.FormatSet(state=QFormat(5), gate=QFormat(5)).gate.frac_bits == 5


@pytest.mark.parametrize("splits", [2, 3])
def test_fixed_blocked_matches_blocked_oracle(splits, seed=11):
    n_i = n_h = 6
    p = random_fixed(seed, n_i, n_h, scale=3.0)  # big weights: saturation
    rng = np.random.default_rng(seed)
    x = rng.integers(-128, 128, n_i).astype(np.int64)
    h = rng.integers(-128, 128, n_h).astype(np.int64)
    c = rng.integers(-128, 128, n_h).astype(np.int64)
    cuts = np.linspace(0, n_i, splits + 1, dtype=int)
    blocks = [(slice(cuts[k], cuts[k + 1]), slice(cuts[k], cuts[k + 1]))
              for k in range(splits)]
    got = lr.cell_step_fixed(p, lr.LstmState(h, c), x, LUTS,
                             layer=lr.prepare_layer(p, LUTS, splits))
    want_h, want_c, _ = O.cell_step(to_oracle(p), x.tolist(), h.tolist(),
                                    c.tolist(), blocks)
    assert got.h.tolist() == want_h
    assert got.c.tolist() == want_c


def gathered_layout(mats, n_blocks, rows):
    """The stack layout by concatenation and index gather: per gate, the
    matrices side by side, each zero-padded to `rows` and to `n_blocks`
    tiles of ceil(width / n_blocks) columns, then per block tile b of
    each.  Returns (layout, per block the indices of its columns in the
    padded concatenation)."""
    tiles = [math.ceil(m.shape[1] / n_blocks) for m in mats[0]]
    offsets = np.cumsum([0] + [n_blocks * t for t in tiles])
    cols = np.array([np.concatenate([off + np.arange(b * t, (b + 1) * t)
                                     for off, t in zip(offsets, tiles)])
                     for b in range(n_blocks)])
    w = np.zeros((len(mats), n_blocks, rows, sum(tiles)))
    for g, gate_mats in enumerate(mats):
        cat = np.zeros((rows, offsets[-1]))
        for m, off in zip(gate_mats, offsets):
            cat[:m.shape[0], off:off + m.shape[1]] = m
        w[g] = cat[:, cols].swapaxes(0, 1)
    return w, cols


@pytest.mark.parametrize("n_i,n_h,n_blocks,rows", [
    (7, 5, 1, None),  # the oracle's own sizes, one flat block
    (7, 5, 3, 6),  # a grid's padded tiles: 3 columns of 3 inputs, 2 units
    (8, 4, 3, None),  # ragged: h's last tile holds no real column
])
def test_block_stack_layout_and_row_norms(n_i, n_h, n_blocks, rows):
    p = random_fixed(5, n_i, n_h, scale=3.0)
    mats = list(zip(p.input_weights(), p.recurrent_weights()))
    stack = lr.BlockStack(mats, n_blocks, rows=rows)
    want, cols = gathered_layout(mats, n_blocks, rows or n_h)
    assert stack.w.dtype == np.int8 and np.array_equal(stack.w, want)
    assert stack.w_sq.dtype == np.int64
    assert np.array_equal(stack.w_sq, (want.astype(np.int64) ** 2).sum(-1))
    assert stack.widths == tuple(n_blocks * math.ceil(n / n_blocks)
                                 for n in (n_i, n_h))
    # one operand per leading index, none for an empty run
    rng = np.random.default_rng(6)
    for lead in ((), (2,), (0,)):
        vecs = [rng.integers(-128, 128, lead + (n,)) for n in stack.widths]
        got = stack.operand(*vecs)
        assert got.shape == lead + cols.shape
        assert np.array_equal(got, np.concatenate(vecs, axis=-1)[..., cols])


def test_blocked_partials_are_not_associative():
    # three rail-high then three rail-low products: the flat chain clips at
    # a different point than the 3+3 split, so the results must differ
    p = zeros_params(6, 1)
    p.W_xi[0] = [127, 127, 127, -127, -127, -127]
    p.W_xc[0, 5] = 16  # nonzero update gate so the cell state sees the split
    x = np.full(6, 127, np.int64)
    flat = lr.cell_step_fixed(p, lr.LstmState.zeros(1), x, LUTS)
    # two die columns: inputs 0-2 and unit 0, inputs 3-5 and a padded unit
    split = lr.cell_step_fixed(p, lr.LstmState.zeros(2), x, LUTS,
                               layer=lr.prepare_layer(p, LUTS, 2))
    assert flat.h.tolist() != split.h[:1].tolist()
    acc_flat, _ = O.mac_chain([(127, 127)] * 3 + [(-127, 127)] * 3)
    assert acc_flat == -15620  # rails at +32767 on the way
    hi, _ = O.mac_chain([(127, 127)] * 3)
    lo, _ = O.mac_chain([(-127, 127)] * 3)
    assert O.sat_add(hi, lo) == -1  # split version barely recovers


def test_preparation_refuses_float_parameters_and_steps_other_sizes():
    with pytest.raises(ValueError, match="needs quantized parameters"):
        lr.prepare_layer(zeros_params(3, 2, fixed=False), LUTS)
    with pytest.raises(ValueError, match="needs quantized parameters"):
        lr.fc_stack(lr.FcParams(np.zeros((2, 3)), np.zeros(2)))
    p = zeros_params(3, 2)
    for layer in (None, lr.prepare_layer(p, LUTS)):
        for x, h in ((np.zeros(4), np.zeros(2)), (np.zeros(3), np.zeros(3))):
            with pytest.raises(ValueError, match="dimension mismatch"):
                lr.cell_step_fixed(p, lr.LstmState(h, h.copy()), x, LUTS,
                                   layer=layer)


@pytest.mark.parametrize("call,bad", [
    ("prepare_layer", 0), ("prepare_layer", -1), ("prepare_layer", True),
    ("prepare_layer", 2.0), ("prepare_layer", "2"), ("fc_stack", 0),
    ("fc_stack", False), ("fc_stack", None), ("per_layer", [1, 0]),
    ("per_layer", [True, 1]), ("per_layer", []), ("per_layer", [2]),
    ("per_layer", [1, 1, 1]), ("fc", 0), ("fc", 1.0),
])
def test_bad_block_counts_are_refused(call, bad):
    # a count is a positive int, and the per-layer list names every layer
    params = lr.random_network_params(3, [(5, 6), (6, 4)], n_out=2)
    spec, feats = lr.derive_spec(params), lr.random_features(4, 2, 5)
    run = {"prepare_layer": lambda: lr.prepare_layer(params.layers[0],
                                                     LUTS, bad),
           "fc_stack": lambda: lr.fc_stack(params.fc, bad),
           "per_layer": lambda: lr.network_infer(
               spec, params, feats, col_blocks_per_layer=bad),
           "fc": lambda: lr.network_infer(spec, params, feats,
                                          fc_col_blocks=bad)}[call]
    with pytest.raises(ValueError, match="block count"):
        run()


def test_vanilla_degeneration():
    p = random_fixed(21, 5, 5)
    for v in (p.w_ci, p.w_cf, p.w_co):
        v[:] = 0
    rng = np.random.default_rng(22)
    x = rng.integers(-64, 65, 5).astype(np.int64)
    h = rng.integers(-64, 65, 5).astype(np.int64)
    c = rng.integers(-64, 65, 5).astype(np.int64)
    got = lr.cell_step_fixed(p, lr.LstmState(h, c), x, LUTS)
    want_h, want_c, _ = O.cell_step(to_oracle(p), x.tolist(), h.tolist(),
                                    c.tolist())
    assert got.h.tolist() == want_h and got.c.tolist() == want_c


def test_determinism():
    p = random_fixed(31, 4, 4)
    x = lr.random_features(5, 1, 4)[0]
    a = lr.cell_step_fixed(p, lr.LstmState.zeros(4), x, LUTS)
    b = lr.cell_step_fixed(p, lr.LstmState.zeros(4), x, LUTS)
    assert a.h.tolist() == b.h.tolist() and a.c.tolist() == b.c.tolist()


def test_float_fixed_agreement_bound():
    # one step from zero state, small weights, no saturation anywhere:
    # fixed-point error is bounded by LSB propagation through the cell
    lsb_s, lsb_g = FMT.state.lsb, FMT.gate.lsb
    e_sig = 0.25 * 0.5 * lsb_s + 0.5 * lsb_g
    e_tanh = 1.0 * 0.5 * lsb_s + 0.5 * lsb_g
    e_c = e_sig + e_tanh + 0.5 * 2.0 ** -12 + 0.5 * lsb_s
    for seed in range(8):
        p = random_fixed(seed, 4, 4, scale=0.25)
        x = lr.random_features(seed + 50, 1, 4)[0]
        fixed = lr.cell_step_fixed(p, lr.LstmState.zeros(4), x, LUTS)
        flt_h, flt_c = O.cell_step_float(dequantized_oracle(p),
                                         dequantize(x, FMT.state).tolist(),
                                         [0.0] * 4, [0.0] * 4)
        peep_o = float(np.max(np.abs(dequantize(p.w_co, FMT.weight))))
        e_o = 0.25 * (peep_o * e_c + 0.5 * lsb_s) + 0.5 * lsb_g
        e_h = (e_c + 0.5 * lsb_g) + e_o + 0.5 * lsb_s
        assert np.max(np.abs(dequantize(fixed.c, FMT.state) - flt_c)) <= e_c
        assert np.max(np.abs(dequantize(fixed.h, FMT.state) - flt_h)) <= e_h


# --- projection ---------------------------------------------------------------

def test_fc_trivial():
    fc_f = lr.FcParams(np.zeros((3, 4)), np.zeros(3))
    fc_q = lr.FcParams(np.zeros((3, 4), np.int64), np.zeros(3, np.int64),
                       formats=FMT)
    got = lr.fc_step_fixed(fc_q, np.zeros(4, np.int64), LUTS)
    assert got.tolist() == [64, 64, 64]  # sigmoid LUT at 0
    with pytest.raises(ValueError):
        lr.fc_step_fixed(fc_f, np.zeros(4), LUTS)  # float parameters


def test_fc_scalar_and_random_vs_oracle():
    fc = lr.FcParams(np.array([[32]], np.int64), np.array([32], np.int64),
                     formats=FMT)
    got = lr.fc_step_fixed(fc, np.array([32], np.int64), LUTS)
    assert got.tolist() == [O.lut_apply(OTAB["sigmoid_lut"], 64)]
    rng = np.random.default_rng(9)
    w = rng.integers(-127, 128, (5, 7)).astype(np.int64)
    b = rng.integers(-127, 128, 5).astype(np.int64)
    h = rng.integers(-128, 128, 7).astype(np.int64)
    fc = lr.FcParams(w, b, formats=FMT)
    got = lr.fc_step_fixed(fc, h, LUTS)
    want = O.fc_step(w.tolist(), b.tolist(), h.tolist(), OTAB["sigmoid_lut"])
    assert got.tolist() == want
    blocks = [slice(0, 4), slice(4, 7)]  # two die columns of 4 codes
    got_b = lr.fc_step_fixed(fc, np.append(h, 0), LUTS,
                             stack=lr.fc_stack(fc, 2))
    want_b = O.fc_step(w.tolist(), b.tolist(), h.tolist(),
                       OTAB["sigmoid_lut"], blocks)
    assert got_b.tolist() == want_b


@pytest.mark.parametrize("n_blocks", [1, 2], ids=["flat", "blocked"])
def test_fc_step_on_a_matrix_equals_one_call_per_row(n_blocks):
    # full-range codes, so that chains and the block fold clip
    rng = np.random.default_rng(11)
    fc = lr.FcParams(rng.integers(-127, 128, (5, 7)).astype(np.int8),
                     rng.integers(-127, 128, 5).astype(np.int8), formats=FMT)
    stack = lr.fc_stack(fc, n_blocks)
    h = rng.integers(-128, 128, (6, 7))
    padded = np.zeros((6, stack.widths[0]), np.int64)
    padded[:, :7] = h
    got = lr.fc_step_fixed(fc, padded, LUTS, stack=stack)
    assert got.tolist() == [lr.fc_step_fixed(fc, row, LUTS,
                                             stack=stack).tolist()
                            for row in padded]
    assert lr.fc_step_fixed(fc, padded[:0], LUTS,
                            stack=stack).shape == (0, 5)
    for bad in (h[:, :6], h[None]):
        with pytest.raises(ValueError, match="dimension"):
            lr.fc_step_fixed(fc, bad, LUTS)


# --- whole-network runs ---------------------------------------------------------

def test_network_infer_empty_sequence():
    params = lr.random_network_params(1, [(3, 4)], n_out=2)
    spec = lr.derive_spec(params)
    out = lr.network_infer(spec, params, np.zeros((0, 3), np.int64))
    assert out.shape == (0, 2)


def test_network_infer_two_steps_vs_oracle():
    params = lr.random_network_params(13, [(2, 3), (3, 2)], n_out=2)
    spec = lr.derive_spec(params)
    feats = lr.random_features(14, 4, 2)
    got = lr.network_infer(spec, params, feats)
    olayers = [to_oracle(p) for p in params.layers]
    ofc = {"w_y": params.fc.W_y.tolist(), "b_y": params.fc.b_y.tolist(),
           "sigmoid_lut": OTAB["sigmoid_lut"]}
    want, _, _ = O.run_network(olayers, ofc, feats.tolist())
    assert got.tolist() == want


def test_network_state_persistence():
    params = lr.random_network_params(15, [(3, 3)])
    spec = lr.derive_spec(params)
    feats = lr.random_features(16, 5, 3)
    got = lr.network_infer(spec, params, feats)
    state = lr.LstmState.zeros(3)
    for t in range(5):
        state = lr.cell_step_fixed(params.layers[0], state, feats[t], LUTS)
        assert got[t].tolist() == state.h.tolist()


def test_network_shape_errors():
    params = lr.random_network_params(1, [(3, 4)], n_out=2)
    spec = lr.derive_spec(params)
    with pytest.raises(ValueError):
        lr.network_infer(spec, params, np.zeros((2, 5), np.int64))
    with pytest.raises(TypeError):  # the tables are keyword-only
        lr.network_infer(spec, params, np.zeros((2, 3), np.int64), LUTS)
    with pytest.raises(ValueError):
        lr.NetworkSpec([(3, 4), (5, 4)])
    with pytest.raises(ValueError):
        lr.NetworkSpec([])
    for layers, n_out in (([(3, 0)], None), ([(0, 4)], None), ([(3, 4)], 0)):
        with pytest.raises(ValueError):
            lr.NetworkSpec(layers, n_out)
        with pytest.raises(ValueError):
            lr.random_network_params(1, layers, n_out)


# --- quantization ----------------------------------------------------------------

def test_quantize_params_zero_and_lossless():
    p = zeros_params(2, 2, fixed=False)
    q = lr.quantize_params_uniform(p)
    assert q.quantized and not np.any(q.W_xi)
    p.W_xi[...] = [[0.5, -1.25], [3.0, 0.03125]]
    q = lr.quantize_params_uniform(p)
    assert q.W_xi.tolist() == [[16, -40], [96, 1]]
    assert dequantize(q.W_xi, FMT.weight).tolist() == p.W_xi.tolist()


def test_quantize_params_symmetric_clamp():
    p = zeros_params(1, 1, fixed=False)
    p.W_xi[0, 0] = -100.0
    q = lr.quantize_params_uniform(p)
    assert q.W_xi[0, 0] == -127  # never -128: the grid stays symmetric
    assert lr.quantize_features(np.array([[-100.0]]))[0, 0] == -128


@given(st.lists(st.floats(-3.96, 3.96), min_size=1, max_size=9))
@settings(max_examples=100)
def test_quantize_params_half_lsb(vals):
    p = zeros_params(len(vals), 1, fixed=False)
    p.W_xi[0] = vals
    q = lr.quantize_params_uniform(p)
    err = np.abs(dequantize(q.W_xi[0], FMT.weight) - np.array(vals))
    assert np.all(err <= 0.5 * FMT.weight.lsb + 1e-12)
    assert q.W_xi[0].tolist() == [O.quant_param(v, 5) for v in vals]


def test_quantize_rejects_requantizing():
    with pytest.raises(ValueError):
        lr.quantize_params_uniform(random_fixed(0, 2, 2))


def _code_tensors(params):
    return [getattr(p, name) for p in params.layers
            for name in lr._LAYER_TENSORS] + [params.fc.W_y, params.fc.b_y]


def test_quantized_parameters_are_int8_on_the_oracle_grid():
    rng = np.random.default_rng(7)
    p = zeros_params(4, 3, fixed=False)
    for name in lr._LAYER_TENSORS:  # ties, clamps at both ends, zeros
        values = getattr(p, name)
        values[...] = rng.choice([-9.0, -4.0, -0.046875, 0.0, 0.015625,
                                  1.984375, 3.99, 9.0], values.shape)
    floats = lr.NetworkParams([p], lr.FcParams(rng.uniform(-5, 5, (2, 3)),
                                               np.array([-4.5, 4.5])))
    q = lr.quantize_params_uniform(floats)
    for got, values in zip(_code_tensors(q), _code_tensors(floats)):
        assert got.dtype == np.int8
        assert got.tolist() == np.vectorize(
            lambda v: O.quant_param(v, 5))(values).tolist()


def test_random_network_codes_are_int8_with_the_recorded_values():
    # the digest of these codes as int64, recorded when the producers
    # still returned int64 arrays; scale 5.0 clamps codes at -127 and 127
    params = lr.random_network_params(5, [(7, 10), (10, 7)], n_out=3,
                                      scale=5.0)
    digest = hashlib.sha256()
    for codes in _code_tensors(params):
        assert codes.dtype == np.int8
        digest.update(codes.astype("<i8").tobytes())
    assert digest.hexdigest()[:16] == "e70ac7f637a8daac"
    codes = np.concatenate([c.ravel() for c in _code_tensors(params)])
    assert codes.min() == -127 and codes.max() == 127


def drawn_float_network(seed, layer_sizes, n_out, scale):
    """The floats `random_network_params` quantizes, drawn in its order:
    per layer the four gates' (W_x, W_h) pairs, then the seven vectors;
    then W_y and b_y."""
    rng = np.random.default_rng(seed)

    def draw(*shape):
        return rng.uniform(-scale, scale, size=shape)

    layers = []
    for n_i, n_h in layer_sizes:
        tensors = {}
        for gate in "ifco":
            tensors["W_x" + gate] = draw(n_h, n_i)
            tensors["W_h" + gate] = draw(n_h, n_h)
        for name in ("w_ci", "w_cf", "w_co", "b_i", "b_f", "b_c", "b_o"):
            tensors[name] = draw(n_h)
        layers.append(lr.LstmLayerParams(**tensors))
    fc = (lr.FcParams(draw(n_out, layer_sizes[-1][1]), draw(n_out))
          if n_out is not None else None)
    return lr.NetworkParams(layers, fc)


@pytest.mark.parametrize("seed,layer_sizes,n_out,scale,fmts", [
    (3, [(8, 6)], 3, 0.5, FMT),  # with a projection
    (4, [(5, 9), (9, 4), (4, 7)], None, 0.5, FMT),  # ragged, three layers
    (6, [(6, 6), (6, 5)], 2, 3.0, lr.FormatSet(QFormat(3), QFormat(4),
                                                QFormat(6))),
], ids=["projection", "ragged-3-layer", "Q4.3-weights"])
def test_random_network_is_the_uniform_import_of_its_draws(
        seed, layer_sizes, n_out, scale, fmts):
    got = lr.random_network_params(seed, layer_sizes, n_out, scale, fmts)
    want = lr.quantize_params_uniform(
        drawn_float_network(seed, layer_sizes, n_out, scale), fmts)
    assert (got.fc is None) == (n_out is None)
    for g, w in zip(got.layers + [got.fc] * (n_out is not None),
                    want.layers + [want.fc] * (n_out is not None)):
        assert g.formats == w.formats == fmts
        for field in dataclasses.fields(w):
            if field.name != "formats":
                codes = getattr(g, field.name)
                assert codes.dtype == np.int8, field.name
                assert np.array_equal(codes, getattr(w, field.name)), \
                    field.name


# --- container round trips --------------------------------------------------------

Q34 = lr.FormatSet(state=QFormat(4))


@pytest.mark.parametrize("fmts", [FMT, Q34], ids=["default", "state-Q3.4"])
def test_network_container_round_trip(tmp_path, fmts):
    params = lr.random_network_params(33, [(3, 4), (4, 2)], n_out=3,
                                      formats=fmts)
    path = str(tmp_path / "net.json")
    assert lr.derive_spec(params).formats == fmts
    lr.save_network(path, params)
    spec, loaded = lr.load_network(path)
    assert spec.layers == [(3, 4), (4, 2)] and spec.n_out == 3
    assert spec.formats == fmts and loaded.fc.formats == fmts
    assert [p.formats for p in loaded.layers] == [fmts, fmts]
    for a, b in zip(_code_tensors(params), _code_tensors(loaded)):
        assert b.dtype == np.int8 and b.flags.writeable
        assert a.tolist() == b.tolist()
    feats = lr.random_features(34, 6, 3, formats=fmts)
    assert (lr.network_infer(spec, loaded, feats).tolist()
            == lr.network_infer(spec, params, feats).tolist())


def test_unquantized_or_mixed_format_networks_are_refused(tmp_path):
    path = str(tmp_path / "net.json")
    mixed = lr.random_network_params(38, [(3, 4), (4, 2)], n_out=3)
    mixed.layers[1].formats = Q34
    with pytest.raises(ValueError, match="carry layer 0's formats"):
        lr.save_network(path, mixed)
    mixed.layers[1].formats = FMT
    mixed.fc.formats = Q34
    with pytest.raises(ValueError, match="carry layer 0's formats"):
        lr.save_network(path, mixed)
    floats = lr.NetworkParams([zeros_params(2, 2, fixed=False)])
    for refused in (lr.derive_spec, lambda p: lr.save_network(path, p)):
        with pytest.raises(ValueError, match="needs quantized parameters"):
            refused(floats)
    assert not (tmp_path / "net.json").exists()


def test_feature_container_round_trip(tmp_path):
    feats = lr.random_features(35, 4, 5)
    path = str(tmp_path / "feats.json")
    lr.save_features(path, feats)
    assert lr.load_features(path).tolist() == feats.tolist()
    with pytest.raises(ValueError):
        lr.load_network(path)


def test_feature_container_in_another_state_format_is_refused(tmp_path):
    path = str(tmp_path / "feats.json")
    q43 = lr.FormatSet(state=QFormat(3))
    lr.save_features(path, lr.random_features(36, 2, 3, formats=q43), q43)
    assert lr.load_features(path, q43).shape == (2, 3)
    with pytest.raises(ValueError, match="Q4.3, not the network's state "
                       "format Q2.5"):
        lr.load_features(path)


def test_container_blob_is_little_endian_int8(tmp_path):
    path = str(tmp_path / "t.json")
    lr.write_container(path, [("a", "weight",
                               np.array([[1, -2], [3, -128]]), QFormat(5))])
    with open(str(tmp_path / "t.bin"), "rb") as fh:
        assert fh.read() == b"\x01\xfe\x03\x80"
    meta, tensors = lr.read_container(path)
    role, arr, fmt = tensors["a"]
    assert role == "weight" and fmt == QFormat(5)
    assert arr.tolist() == [[1, -2], [3, -128]]


def test_container_rejects_wide_codes(tmp_path):
    with pytest.raises(ValueError):
        lr.write_container(str(tmp_path / "x.json"),
                           [("a", "weight", np.array([200]), QFormat(5))])


def test_random_network_reproducible():
    a = lr.random_network_params(42, [(3, 3)], n_out=2)
    b = lr.random_network_params(42, [(3, 3)], n_out=2)
    assert a.layers[0].W_ho.tolist() == b.layers[0].W_ho.tolist()
    assert a.fc.W_y.tolist() == b.fc.W_y.tolist()
