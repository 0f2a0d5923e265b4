import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lstmgrid import actlut
from lstmgrid.lstm_ref import DEFAULT_FORMATS, check_luts
from lstmgrid.qformat import QFormat, quantize, dequantize

import oracles as O

Q25 = QFormat(5)
Q07 = QFormat(7)

TANH = actlut.build_lut("tanh", Q25, Q07)
SIG = actlut.build_lut("sigmoid", Q25, Q07)

# spot codes frozen from the scalar-math reference in oracles.py
TANH_SPOT = {-128: -128, -64: -123, -32: -97, -1: -4, 0: 0, 1: 4,
             32: 97, 64: 123, 127: 127}
SIG_SPOT = {-128: 2, -64: 15, -32: 34, -1: 63, 0: 64, 1: 65,
            32: 94, 64: 113, 127: 126}

# stats on np.linspace(-4, 4, 4096, endpoint=False), frozen
TANH_STATS = {"mse": 2.1922461470499164e-05, "max_se": 3.375774723282479e-04}
SIG_STATS = {"mse": 6.665466503490625e-06, "max_se": 5.2052420198292694e-05}


def test_exhaustive_exactness_vs_oracle():
    for kind, lut in (("tanh", TANH), ("sigmoid", SIG)):
        table = O.lut_table(kind, 5, 7)
        for code in range(-128, 128):
            assert lut[code] == O.lut_apply(table, code), (kind, code)


def test_exhaustive_exactness_definition():
    # entry must literally be quantize(act(dequantize(code)))
    fn = {"tanh": math.tanh, "sigmoid": lambda z: 1 / (1 + math.exp(-z))}
    for kind, lut in (("tanh", TANH), ("sigmoid", SIG)):
        for code in range(-128, 128):
            want = quantize(fn[kind](dequantize(code, Q25)), Q07)
            assert lut[code] == want
            assert lut.lookup([code]).tolist() == [want]


def test_frozen_spot_codes():
    for c, want in TANH_SPOT.items():
        assert TANH[c] == want
    for c, want in SIG_SPOT.items():
        assert SIG[c] == want


def test_asymptotes():
    assert TANH[127] == 127  # positive asymptote hits the top code
    assert TANH[-128] == -128  # negative side reaches the full-range minimum
    assert SIG[127] == 126  # sigmoid(3.97) rounds below 1.0
    assert SIG[-128] == 2


def test_monotone_in_signed_code():
    for lut in (TANH, SIG):
        vals = [lut[c] for c in range(-128, 128)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_tanh_odd_symmetry_within_one_code():
    worst = max(abs(TANH[c] + TANH[-c]) for c in range(-127, 128))
    assert worst <= 1


def test_sigmoid_tanh_identity_loose():
    # sigma(2x) = (tanh(x)+1)/2 survives quantization to within 1 code
    for c in range(-64, 64):
        lhs = SIG[quantize(2 * dequantize(c, Q25), Q25)]
        rhs = (TANH[c] + 128) // 2
        assert abs(lhs - rhs) <= 1, c


def test_error_stats_frozen_grid():
    grid = np.linspace(-4.0, 4.0, 4096, endpoint=False)
    ts = actlut.lut_error_stats(TANH, grid)
    ss = actlut.lut_error_stats(SIG, grid)
    assert ts["mse"] == pytest.approx(TANH_STATS["mse"], rel=1e-9)
    assert ts["max_se"] == pytest.approx(TANH_STATS["max_se"], rel=1e-9)
    assert ss["mse"] == pytest.approx(SIG_STATS["mse"], rel=1e-9)
    assert ss["max_se"] == pytest.approx(SIG_STATS["max_se"], rel=1e-9)
    # acceptance bands
    assert ts["max_se"] <= 4.0e-4
    assert ss["max_se"] <= 2.0e-4


def test_triangle_error_bound():
    # |err| <= 0.5*lsb_in*max|act'| + 0.5*lsb_out everywhere
    grid = np.linspace(-4.0, 4.0, 20001)[:-1]
    for lut, slope in ((TANH, 1.0), (SIG, 0.25)):
        stats = actlut.lut_error_stats(lut, grid)
        bound = 0.5 * Q25.lsb * slope + 0.5 * Q07.lsb
        assert math.sqrt(stats["max_se"]) <= bound + 1e-12


@given(st.floats(min_value=-8, max_value=8, allow_nan=False))
@settings(max_examples=300)
def test_apply_matches_oracle_after_quantize(x):
    code = quantize(x, Q25)
    table = O.lut_table("tanh", 5, 7)
    assert TANH[code] == O.lut_apply(table, code)
    assert TANH.lookup(np.array([code])).tolist() == [TANH[code]]


def test_apply_vectorized_and_format_check():
    arr = np.arange(-128, 128)
    out = TANH.lookup(arr)
    assert out.shape == (256,)
    assert out[0] == TANH[-128]
    # the cell accepts only tables that read state codes (Q2.5)
    check_luts({"sigmoid": SIG, "tanh": TANH}, DEFAULT_FORMATS)
    with pytest.raises(ValueError):
        check_luts({"sigmoid": SIG,
                    "tanh": actlut.build_lut("tanh", Q07, Q07)},
                   DEFAULT_FORMATS)


def test_bad_inputs_rejected():
    with pytest.raises(ValueError):
        actlut.build_lut("relu", Q25, Q07)
    with pytest.raises(ValueError):
        actlut.Lut256("tanh", Q25, Q07, [0] * 255)
    with pytest.raises(ValueError):
        actlut.lut_error_stats(TANH, [])


def test_dump_lut_csv_and_txt(tmp_path):
    path = tmp_path / "tanh.csv"
    text = actlut.dump_lut(TANH, str(path), fmt="csv")
    lines = path.read_text(encoding="utf-8").strip().split("\n")
    assert len(lines) == 257  # header + 256 entries
    idx, code, _val, out, _outval = lines[1].split(",")
    assert (int(idx), int(code), int(out)) == (0, 0, TANH[0])
    # row for index 128 must be the signed code -128
    assert lines[129].split(",")[1] == "-128"
    assert text == path.read_text(encoding="utf-8")
    txt = actlut.dump_lut(SIG, str(tmp_path / "sig.txt"), fmt="txt")
    assert txt.count("\n") == 257
    with pytest.raises(ValueError):
        actlut.dump_lut(TANH, str(tmp_path / "tanh.bin"), fmt="bin")
