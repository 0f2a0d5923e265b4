import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from lstmgrid import qformat as qf

import oracles as O

Q25 = qf.QFormat(5)
Q07 = qf.QFormat(7)

codes = st.integers(min_value=-127, max_value=127)
accs = st.integers(min_value=qf.INT16_MIN, max_value=qf.INT16_MAX)


def test_format_basics():
    assert repr(Q25) == "Q2.5"
    assert repr(Q07) == "Q0.7"
    assert Q25.lsb == 1 / 32
    assert Q25.max_value == 127 / 32
    assert Q25.min_value == -4.0
    assert Q25 == qf.QFormat(5) and Q25 != Q07
    with pytest.raises(ValueError):
        qf.QFormat(9)
    with pytest.raises(ValueError):
        qf.QFormat(5, total_bits=16)


def test_q8_and_acc16_range_checks():
    assert qf.Q8(-128, Q25).value == -4.0
    with pytest.raises(ValueError):
        qf.Q8(128, Q25)
    with pytest.raises(ValueError):
        qf.Acc16(40000)
    a = qf.Acc16(-5, 10, saturated=True)
    assert "saturated" in repr(a)


def test_quantize_saturates_at_extremes():
    assert qf.quantize(10.0, Q25) == 127
    assert qf.quantize(-10.0, Q25) == -128
    assert qf.quantize(0.0, Q25) == 0


def test_dequantize_min_code():
    assert qf.dequantize(-128, Q25) == -4.0
    assert qf.dequantize(127, Q07) == 127 / 128


def test_quantize_round_trip_exhaustive():
    # every code of every 8-bit format must survive a dequantize/quantize trip
    all_codes = np.arange(-128, 128)
    for frac in range(8):
        fmt = qf.QFormat(frac)
        back = qf.quantize(qf.dequantize(all_codes, fmt), fmt)
        assert np.array_equal(back, all_codes), fmt


def test_mac_saturates_at_max():
    out = qf.mac(qf.Acc16(32760, 10), qf.Q8(127, Q25), qf.Q8(127, Q25))
    assert out.value == 32767
    assert out.saturated


def test_mac_scale_mismatch_rejected():
    with pytest.raises(ValueError):
        qf.mac(qf.Acc16(5, 12), qf.Q8(1, Q25), qf.Q8(1, Q25))


def test_requantize_spec_points():
    assert qf.requantize(17, 10, Q25) == 1
    assert qf.requantize(32767, 10, Q07) == 127
    assert qf.requantize(-32768, 10, Q07) == -128
    with pytest.raises(ValueError):
        qf.requantize(1, 5, Q07)


@given(acc=accs, a=codes, b=codes)
@settings(max_examples=300)
def test_mac_matches_oracle(acc, a, b):
    got = qf.mac(qf.Acc16(acc, 10), qf.Q8(a, Q25), qf.Q8(b, Q25))
    want, want_sat = O.mac(acc, a, b)
    assert got.value == want
    assert got.saturated == (want_sat or False)


@given(acc=accs, a=codes, b=codes)
@settings(max_examples=200)
def test_mac_exact_below_saturation(acc, a, b):
    raw = acc + a * b
    if qf.INT16_MIN <= raw <= qf.INT16_MAX:
        got = qf.mac(qf.Acc16(acc, 10), qf.Q8(a, Q25), qf.Q8(b, Q25))
        assert got.value == raw
        assert not got.saturated


@given(v=st.integers(min_value=-(1 << 20), max_value=1 << 20),
       shift=st.integers(min_value=0, max_value=12))
@settings(max_examples=300)
def test_shift_round_matches_oracle(v, shift):
    assert qf.shift_round(v, shift) == O.shift_round(v, shift)


@given(v=accs, frac=st.integers(min_value=5, max_value=14))
@settings(max_examples=300)
def test_requantize_matches_oracle(v, frac):
    for tgt in (Q25, Q07):
        if frac < tgt.frac_bits:
            continue
        assert qf.requantize(v, frac, tgt) == O.requant(v, frac, tgt.frac_bits)


@given(v=accs)
@settings(max_examples=200)
def test_requantize_error_below_half_lsb(v):
    # rounding-only error bound; only applies when the clamp is inactive
    got = qf.requantize(v, 10, Q25)
    exact = v / (1 << 10)
    if -128 < got < 127:
        assert abs(got / 32 - exact) <= 0.5 / 32 + 1e-15


@given(vals=st.lists(st.floats(min_value=-6, max_value=6,
                               allow_nan=False, allow_infinity=False),
                     min_size=1, max_size=20))
@settings(max_examples=200)
def test_quantize_matches_oracle(vals):
    fmt = Q25
    got = qf.quantize(np.array(vals), fmt)
    want = [O.quant(x, 5) for x in vals]
    assert got.tolist() == want


def test_round_half_away_ties():
    assert qf.round_half_away(0.5) == 1
    assert qf.round_half_away(-0.5) == -1
    assert qf.round_half_away(2.5) == 3
    assert qf.round_half_away(-2.5) == -3
    assert qf.round_half_away(0.49999) == 0
    got = qf.round_half_away(np.array([1.5, -1.5, 0.5]))
    assert got.tolist() == [2, -2, 1]


@given(st.lists(st.tuples(codes, codes), min_size=0, max_size=40),
       st.integers(min_value=-1000, max_value=1000))
@settings(max_examples=300)
def test_mac_run_matches_chain_oracle(pairs, init):
    products = np.array([a * b for a, b in pairs], dtype=np.int64)
    acc, sat = qf.mac_run(products, init=init)
    want_acc, want_sat = O.mac_chain(pairs, init=init)
    assert int(acc) == want_acc
    assert bool(sat) == want_sat


def test_mac_run_saturating_rows():
    # adversarial rows: one clean, one that rails high then comes back,
    # one that rails low; the clipped rows must not equal the plain sum
    rows = np.array([
        [100, -50, 25, 3],
        [16000, 16000, 16000, -16000],
        [-16000, -16000, -16000, 16000],
    ], dtype=np.int64)
    acc, sat = qf.mac_run(rows)
    assert acc[0] == 78 and not sat[0]
    assert acc[1] == 32767 - 16000 and sat[1]
    assert acc[2] == -32768 + 16000 and sat[2]
    for r in range(3):
        want, _ = O.mac_chain([(1, int(p)) for p in rows[r]])
        assert int(acc[r]) == want


def test_saturation_never_wraps():
    assert qf.sat16(1 << 20) == 32767
    assert qf.sat16(-(1 << 20)) == -32768
    arr = qf.sat16(np.array([40000, -40000, 12]))
    assert arr.tolist() == [32767, -32768, 12]
    assert qf.sat_add16(30000, 30000) == 32767
    assert qf.sat_add16(-30000, -30000) == -32768


def test_requantize_acc_wraps_scalar():
    q = qf.requantize_acc(qf.Acc16(17, 10), Q25)
    assert q.code == 1 and q.format == Q25


# --- factored mac_run: W (..., R, K) against v (..., K) ---------------------------

int8s = st.integers(min_value=qf.INT8_MIN, max_value=qf.INT8_MAX)


def chain_oracle(w, v, init=0):
    """Scalar chains of every row of w (B, R, K) against v (B, K)."""
    acc = np.zeros(w.shape[:-1], np.int64)
    sat = np.zeros(w.shape[:-1], bool)
    for idx in np.ndindex(*w.shape[:-1]):
        acc[idx], sat[idx] = O.mac_chain(zip(w[idx].tolist(),
                                             v[idx[0]].tolist()), init=init)
    return acc, sat


def assert_factored_exact(w, v, init=0):
    w, v = np.asarray(w, np.int64), np.asarray(v, np.int64)
    want = chain_oracle(w, v, init)
    for got in (qf.mac_run(w, v, init=init),
                qf.mac_run(w.astype(np.float32), v, init=init,
                           abs_weights=np.abs(w).astype(np.float32)),
                qf.mac_run(w * v[:, None, :], init=init)):
        assert got[0].dtype == np.int64 and got[0].shape == w.shape[:-1]
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_factored_mac_run_matches_product_form_and_chain_oracle(data):
    b = data.draw(st.integers(1, 3))
    r = data.draw(st.integers(0, 6))
    k = data.draw(st.integers(0, 40))
    # extreme codes often enough that rows clip, come back, and clip again
    code = st.one_of(int8s, st.sampled_from([-128, -127, 126, 127]))
    w = data.draw(hnp.arrays(np.int64, (b, r, k), elements=code))
    v = data.draw(hnp.arrays(np.int64, (b, k), elements=code))
    init = data.draw(st.sampled_from([0, 0, 1000, -32768, 32767]))
    assert_factored_exact(w, v, init)


def _tier_rows(monkeypatch):
    """Rows handed to the wide-integer tiers by each mac_run call."""
    seen = []
    real = qf._chain

    def spy(products, init):
        seen.append(products.copy())
        return real(products, init)

    monkeypatch.setattr(qf, "_chain", spy)
    return seen


def test_bound_32767_stays_in_the_fast_tier(monkeypatch):
    seen = _tier_rows(monkeypatch)
    # |W|.|v| = 2 * 127 * 127 + 127 * 4 + 1 = 32767 exactly, no clipping
    w = [[[127, 127, 127, 1]]]
    v = [[127, 127, 4, 1]]
    assert_factored_exact(w, v)
    acc, sat = qf.mac_run(np.array(w), np.array(v))
    assert acc.tolist() == [[32767]] and not sat.any()
    # only the product-form check reached the wide tiers
    assert [s.shape for s in seen] == [(1, 1, 4)]


def test_bound_32768_leaves_the_fast_tier(monkeypatch):
    seen = _tier_rows(monkeypatch)
    w = np.array([[[127, -127, 127, 2],     # bound 32768, never clips
                   [127, 127, 127, 2],      # bound 32768, clips at the end
                   [127, 127, 127, 1]]])    # bound 32767
    v = np.array([[127, 127, 4, 1]])
    acc, sat = qf.mac_run(w, v)
    assert acc.tolist() == [[510, 32767, 32767]]
    assert sat.tolist() == [[False, True, False]]
    assert [s.tolist() for s in seen] == [[[16129, -16129, 508, 2],
                                           [16129, 16129, 508, 2]]]
    assert_factored_exact(w, v)


def test_rows_that_clip_high_and_come_back():
    w = np.array([[[127, 127, 127, -128, -128, 5],
                   [-128, -128, -128, 127, 127, 5],
                   [127, 127, 127, 127, -128, -128]]])
    v = np.array([[127, 127, 127, 127, 127, -3]])
    acc, sat = qf.mac_run(w, v)
    assert sat.tolist() == [[True, True, True]]
    # back in range after the rail: the chain differs from the plain sum
    assert acc.tolist() == [[32767 - 2 * 16256 - 15, -32768 + 2 * 16129 - 15,
                             32767 - 16256 + 384]]
    assert_factored_exact(w, v)


def test_long_chain_past_float32_integer_range():
    # every term 127 * -128: the float32 bound (32.5e6) exceeds 2**24
    w = np.full((1, 2, 2000), 127)
    w[0, 1, 1000:] = -127  # second row climbs back from the low rail
    v = np.full((1, 2000), -128)
    acc, sat = qf.mac_run(w, v)
    assert acc.tolist() == [[-32768, 32767]]
    assert sat.tolist() == [[True, True]]
    assert_factored_exact(w, v)


def test_zero_rows_and_empty_chains():
    w = np.zeros((2, 3, 5), np.int64)
    w[1, 2] = 127
    v = np.full((2, 5), -128)
    acc, sat = qf.mac_run(w, v)
    assert acc.tolist() == [[0, 0, 0], [0, 0, -32768]]
    assert sat.tolist() == [[False] * 3, [False, False, True]]
    assert_factored_exact(w, v)
    for init in (0, -7):
        acc, sat = qf.mac_run(np.zeros((2, 3, 0)), np.zeros((2, 0)),
                              init=init)
        assert acc.tolist() == [[init] * 3] * 2 and not sat.any()
    assert_factored_exact(np.zeros((1, 0, 4)), np.zeros((1, 4)))
