import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lstmgrid import lstm_ref as lr
from lstmgrid.qformat import QFormat, dequantize

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


# --- float reference ----------------------------------------------------------

def test_float_all_zero():
    p = zeros_params(3, 3, fixed=False)
    s = lr.cell_step_float(p, lr.LstmState.zeros(3, fixed=False), np.zeros(3))
    assert np.allclose(s.c, 0) and np.allclose(s.h, 0)
    # gates sit at 0.5 internally: forcing c=1 with f=0.5 must halve it
    s2 = lr.cell_step_float(p, lr.LstmState(np.zeros(3), np.ones(3)),
                            np.zeros(3))
    assert np.allclose(s2.c, 0.5)


def test_float_forget_gate_limit():
    p = zeros_params(2, 2, fixed=False)
    p.b_f[:] = 50.0  # forget gate pinned at ~1
    p.b_i[:] = -50.0  # input gate pinned at ~0
    state = lr.LstmState(np.zeros(2), np.array([0.7, -1.2]))
    out = lr.cell_step_float(p, state, np.zeros(2))
    assert np.allclose(out.c, [0.7, -1.2], atol=1e-9)


def test_float_random_vs_scalar_oracle():
    rng = np.random.default_rng(7)
    p = zeros_params(3, 3, fixed=False)
    for name in ("W_xi", "W_hi", "W_xf", "W_hf", "W_xc", "W_hc", "W_xo",
                 "W_ho", "w_ci", "w_cf", "w_co", "b_i", "b_f", "b_c", "b_o"):
        arr = getattr(p, name)
        arr[...] = rng.uniform(-1, 1, arr.shape)
    x = rng.uniform(-1, 1, 3)
    h0 = rng.uniform(-1, 1, 3)
    c0 = rng.uniform(-1, 1, 3)
    got = lr.cell_step_float(p, lr.LstmState(h0, c0), x)
    od = to_oracle(p)
    want_h, want_c = O.cell_step_float(od, x.tolist(), h0.tolist(), c0.tolist())
    assert np.allclose(got.h, want_h, atol=1e-12)
    assert np.allclose(got.c, want_c, atol=1e-12)


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
    got = lr.cell_step_fixed(p, lr.LstmState(h, c), x, LUTS, col_blocks=blocks)
    want_h, want_c, _ = O.cell_step(to_oracle(p), x.tolist(), h.tolist(),
                                    c.tolist(), blocks)
    assert got.h.tolist() == want_h
    assert got.c.tolist() == want_c


def test_blocked_partials_are_not_associative():
    # three rail-high then three rail-low products: the flat chain clips at
    # a different point than the 3+3 split, so the results must differ
    p = zeros_params(6, 1)
    p.W_xi[0] = [127, 127, 127, -127, -127, -127]
    p.W_xc[0, 5] = 16  # nonzero update gate so the cell state sees the split
    x = np.full(6, 127, np.int64)
    s0 = lr.LstmState.zeros(1)
    flat = lr.cell_step_fixed(p, s0, x, LUTS)
    split = lr.cell_step_fixed(p, s0, x, LUTS,
                               col_blocks=[(slice(0, 3), slice(0, 1)),
                                           (slice(3, 6), slice(1, 1))])
    assert flat.h.tolist() != split.h.tolist()
    acc_flat, _ = O.mac_chain([(127, 127)] * 3 + [(-127, 127)] * 3)
    assert acc_flat == -15620  # rails at +32767 on the way
    hi, _ = O.mac_chain([(127, 127)] * 3)
    lo, _ = O.mac_chain([(-127, 127)] * 3)
    assert O.sat_add(hi, lo) == -1  # split version barely recovers


def test_vanilla_degeneration():
    p = random_fixed(21, 5, 5)
    for v in (p.w_ci, p.w_cf, p.w_co):
        v[:] = 0
    assert p.vanilla
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
        pf = zeros_params(4, 4, fixed=False)
        for name in ("W_xi", "W_hi", "W_xf", "W_hf", "W_xc", "W_hc", "W_xo",
                     "W_ho", "w_ci", "w_cf", "w_co",
                     "b_i", "b_f", "b_c", "b_o"):
            getattr(pf, name)[...] = dequantize(getattr(p, name), FMT.weight)
        x = lr.random_features(seed + 50, 1, 4)[0]
        fixed = lr.cell_step_fixed(p, lr.LstmState.zeros(4), x, LUTS)
        flt = lr.cell_step_float(pf, lr.LstmState.zeros(4, fixed=False),
                                 dequantize(x, FMT.state))
        peep_o = float(np.max(np.abs(dequantize(p.w_co, FMT.weight))))
        e_o = 0.25 * (peep_o * e_c + 0.5 * lsb_s) + 0.5 * lsb_g
        e_h = (e_c + 0.5 * lsb_g) + e_o + 0.5 * lsb_s
        assert np.max(np.abs(dequantize(fixed.c, FMT.state) - flt.c)) <= e_c
        assert np.max(np.abs(dequantize(fixed.h, FMT.state) - flt.h)) <= e_h


# --- projection ---------------------------------------------------------------

def test_fc_trivial():
    fc_f = lr.FcParams(np.zeros((3, 4)), np.zeros(3))
    assert np.allclose(lr.fc_step(fc_f, np.zeros(4), "float"), 0.5)
    fc_q = lr.FcParams(np.zeros((3, 4), np.int64), np.zeros(3, np.int64),
                       formats=FMT)
    got = lr.fc_step(fc_q, np.zeros(4, np.int64), "fixed", LUTS)
    assert got.tolist() == [64, 64, 64]  # sigmoid LUT at 0
    with pytest.raises(ValueError):
        lr.fc_step(fc_q, np.zeros(4, np.int64), "int")


def test_fc_scalar_and_random_vs_oracle():
    fc = lr.FcParams(np.array([[32]], np.int64), np.array([32], np.int64),
                     formats=FMT)
    got = lr.fc_step(fc, np.array([32], np.int64), "fixed", LUTS)
    assert got.tolist() == [O.lut_apply(OTAB["sigmoid_lut"], 64)]
    rng = np.random.default_rng(9)
    w = rng.integers(-127, 128, (5, 7)).astype(np.int64)
    b = rng.integers(-127, 128, 5).astype(np.int64)
    h = rng.integers(-128, 128, 7).astype(np.int64)
    fc = lr.FcParams(w, b, formats=FMT)
    got = lr.fc_step(fc, h, "fixed", LUTS)
    want = O.fc_step(w.tolist(), b.tolist(), h.tolist(), OTAB["sigmoid_lut"])
    assert got.tolist() == want
    blocks = [slice(0, 3), slice(3, 7)]
    got_b = lr.fc_step(fc, h, "fixed", LUTS, col_blocks=blocks)
    want_b = O.fc_step(w.tolist(), b.tolist(), h.tolist(),
                       OTAB["sigmoid_lut"], blocks)
    assert got_b.tolist() == want_b


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
    with pytest.raises(ValueError, match="mode"):
        lr.network_infer(spec, params, np.zeros((2, 3), np.int64), "int")
    with pytest.raises(ValueError):
        lr.NetworkSpec([(3, 4), (5, 4)])
    with pytest.raises(ValueError):
        lr.NetworkSpec([])


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


# --- container round trips --------------------------------------------------------

def test_network_container_round_trip(tmp_path):
    params = lr.random_network_params(33, [(3, 4), (4, 2)], n_out=3)
    path = str(tmp_path / "net.json")
    lr.save_network(path, params)
    spec, loaded = lr.load_network(path)
    assert spec.layers == [(3, 4), (4, 2)] and spec.n_out == 3
    for a, b in zip(params.layers, loaded.layers):
        for name in lr._LAYER_TENSORS:
            assert getattr(a, name).tolist() == getattr(b, name).tolist()
    assert loaded.fc.W_y.tolist() == params.fc.W_y.tolist()
    feats = lr.random_features(34, 6, 3)
    assert (lr.network_infer(spec, loaded, feats).tolist()
            == lr.network_infer(spec, params, feats).tolist())


def test_feature_container_round_trip(tmp_path):
    feats = lr.random_features(35, 4, 5)
    path = str(tmp_path / "feats.json")
    lr.save_features(path, feats)
    assert lr.load_features(path).tolist() == feats.tolist()
    with pytest.raises(ValueError):
        lr.load_network(path)


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
