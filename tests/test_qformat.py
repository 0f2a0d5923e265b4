import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from lstmgrid import lstm_ref, qformat as qf

import oracles as O

Q25 = qf.QFormat(5)
Q07 = qf.QFormat(7)

codes = st.integers(min_value=-127, max_value=127)
accs = st.integers(min_value=qf.INT16_MIN, max_value=qf.INT16_MAX)


def test_format_basics():
    assert repr(Q25) == "Q2.5"
    assert repr(Q07) == "Q0.7"
    assert Q25.lsb == 1 / 32
    assert qf.dequantize(127, Q25) == 127 / 32
    assert qf.dequantize(-128, Q25) == -4.0
    assert Q25 == qf.QFormat(5) and Q25 != Q07
    with pytest.raises(ValueError):
        qf.QFormat(9)


@pytest.mark.parametrize("frac_bits", [5.7, 5.0, True, False, np.True_, "5",
                                       None, -1, np.int64(8)])
def test_frac_bits_is_an_integer_in_range(frac_bits):
    # never truncated: 5.7 is not Q2.5, nor True Q6.1
    with pytest.raises(ValueError, match="frac_bits"):
        qf.QFormat(frac_bits)


@pytest.mark.parametrize("frac_bits", [np.int8(5), np.int64(5), np.uint8(5)])
def test_a_numpy_integer_frac_bits_is_stored_as_an_int(frac_bits):
    fmt = qf.QFormat(frac_bits)
    assert type(fmt.frac_bits) is int and fmt == Q25
    assert hash(fmt) == hash(Q25) and repr(fmt) == "Q2.5"


def test_quantize_saturates_at_extremes():
    assert qf.quantize(10.0, Q25) == 127
    assert qf.quantize(-10.0, Q25) == -128
    assert qf.quantize(0.0, Q25) == 0


def test_quantize_saturates_every_value_to_its_own_end():
    # a scaled value at or past 2**63 once wrapped through the int64 cast
    values = [1e300, 1e18, 2.0 ** 63, np.inf, -1e300, -1e18, -np.inf]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow or invalid cast
        got = qf.quantize(values, Q25)
    assert got.tolist() == [127, 127, 127, 127, -128, -128, -128]


def test_quantize_refuses_nan():
    for values in ([1e300, 1e18, np.inf, np.nan], np.nan):
        with pytest.raises(ValueError, match="NaN"):
            qf.quantize(values, qf.QFormat(5))


@settings(max_examples=300, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False),
       st.integers(0, 7))
@example(1e300, 5)
@example(-2.0 ** 70, 0)
@example(127.5 / 32, 5)
@example(-128.5 / 32, 5)
def test_quantize_matches_the_exact_oracle(x, frac):
    # Fraction(x) is the float's exact value: no rounding, no overflow
    assert qf.quantize(x, qf.QFormat(frac)) == O.quant(Fraction(x), frac)


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


def single_macs(acc, a, b):
    """acc + a * b through `mac_run` in the factored form (one term from
    init acc) and the product form (the chain [acc, a * b] from 0): a
    two-term chain clips exactly when the single MAC does."""
    return [(int(np.ravel(got)[0]), bool(np.ravel(sat)[0]))
            for got, sat in (qf.mac_run([[a]], [b], init=acc),
                             qf.mac_run([acc, a * b]))]


def test_mac_saturates_at_max():
    assert single_macs(32760, 127, 127) == [(32767, True)] * 2
    assert single_macs(-32760, 127, -128) == [(-32768, True)] * 2


def test_requantize_spec_points():
    assert qf.requantize(17, 10, Q25) == 1
    assert qf.requantize(32767, 10, Q07) == 127
    assert qf.requantize(-32768, 10, Q07) == -128
    with pytest.raises(ValueError):
        qf.requantize(1, 5, Q07)


@given(acc=accs, a=codes, b=codes)
@settings(max_examples=300)
def test_mac_matches_oracle(acc, a, b):
    assert single_macs(acc, a, b) == [O.mac(acc, a, b)] * 2


@given(acc=accs, a=codes, b=codes)
@settings(max_examples=200)
def test_mac_exact_below_saturation(acc, a, b):
    raw = acc + a * b
    if qf.INT16_MIN <= raw <= qf.INT16_MAX:
        assert single_macs(acc, a, b) == [(raw, False)] * 2


@given(v=st.integers(min_value=-(1 << 20), max_value=1 << 20),
       shift=st.integers(min_value=0, max_value=12))
@settings(max_examples=300)
def test_shift_round_matches_oracle(v, shift):
    assert qf.shift_round(v, shift) == O.shift_round(v, shift)


def test_shift_round_of_every_int8_product_at_its_own_width():
    # the cell tail rounds g_i * g_u, the int16 product of two int8 codes
    # (at most 2**14 in magnitude), without widening it first
    codes = np.arange(-128, 128, dtype=np.int16)
    products = np.unique(codes[:, None] * codes)
    assert products.dtype == np.int16 and products.max() == 1 << 14
    for shift in range(8):
        got = qf.shift_round(products, shift)
        assert got.dtype == np.int16
        assert got.tolist() == [O.shift_round(v, shift)
                                for v in products.tolist()], shift


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
                           sq_norms=(w * w).sum(axis=-1)),
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


def certificate_oracle(w, v, init):
    """Python-integer certificate per chain of w (B, R, K) against v (B, K):
    ||w_r||**2 * ||v||**2 <= (32767 - |init|)**2, and no room below 0."""
    room = qf.INT16_MAX - abs(init)
    return [[room >= 0 and sum(x * x for x in row) * sum(x * x for x in vec)
             <= room * room for row in rows]
            for rows, vec in zip(w.tolist(), v.tolist())]


@st.composite
def certificate_edges(draw):
    """Chains with one of them on the certificate's edge: |init| leaves a
    room whose square is just below, at or just above ||w||**2 ||v||**2.
    Half the time that chain is parallel to v, where Cauchy-Schwarz is
    tight and a room one short really clips."""
    b, r, k = draw(st.integers(1, 2)), draw(st.integers(1, 4)), \
        draw(st.integers(1, 8))
    code = st.one_of(int8s, st.sampled_from([-128, -127, 126, 127]))
    w = draw(hnp.arrays(np.int64, (b, r, k), elements=code))
    v = draw(hnp.arrays(np.int64, (b, k), elements=code))
    bi, ri = draw(st.integers(0, b - 1)), draw(st.integers(0, r - 1))
    if draw(st.booleans()):
        w[bi, ri] = np.clip(draw(st.sampled_from([1, -1])) * v[bi], -128, 127)
    norms = int((w[bi, ri] ** 2).sum()) * int((v[bi] ** 2).sum())
    room = min(max(math.isqrt(norms) + draw(st.integers(-1, 1)), 0),
               qf.INT16_MAX)
    return w, v, draw(st.sampled_from([1, -1])) * (qf.INT16_MAX - room)


# w == v: room 32258 == ||w|| ||v|| passes and the chain ends on 32767;
# room 32257 fails and the chain clips; |init| 32767 leaves almost no room
@example(case=(np.array([[[127, 127]]]), np.array([[127, 127]]), 509))
@example(case=(np.array([[[127, 127]]]), np.array([[127, 127]]), 510))
@example(case=(np.array([[[-128, 127]]]), np.array([[127, -128]]), -32767))
@given(case=certificate_edges())
@settings(max_examples=300, deadline=None)
def test_certificate_tier_is_exact_at_its_edge(case):
    w, v, init = case
    certified = qf.certified((w * w).sum(axis=-1), (v * v).sum(axis=-1),
                             qf.INT16_MAX - abs(init))
    assert certified.tolist() == certificate_oracle(w, v, init)
    # a certified chain never clips, so its plain float32 sum is exact
    assert not chain_oracle(w, v, init)[1][certified].any()
    assert_factored_exact(w, v, init)


@st.composite
def split_chains(draw):
    """(w, v, cut, init): chains w (..., R, K) against v (..., K), broadcast
    over a leading gate axis half the time, and a cut 0 < cut < K, so a
    head or a tail may hold one term.  Extreme codes are common, so whole
    chains clip where their halves need not."""
    lead = draw(st.sampled_from([(), (2,), (3, 2)]))
    gates = draw(st.sampled_from([(), (2,)]))
    r, k = draw(st.integers(1, 4)), draw(st.integers(2, 24))
    code = st.one_of(int8s, st.sampled_from([-128, -127, 127]))
    w = draw(hnp.arrays(np.int64, gates + lead + (r, k), elements=code))
    v = draw(hnp.arrays(np.int64, lead + (k,), elements=code))
    cut = draw(st.sampled_from([1, k - 1]) | st.integers(1, k - 1))
    init = draw(st.sampled_from([0, 0, 1000, -32767, 32767]))
    return w, v, cut, init


# a head that clips beside a one-term tail the certificate alone passes
@example(case=(np.array([[[127, 127, 127, 1]]]),
               np.array([[127, 127, 127, 1]]), 3, 0))
@example(case=(np.array([[[-128, 1]]]), np.array([[127, 1]]), 1, -32767))
@given(case=split_chains())
@settings(max_examples=300, deadline=None)
def test_a_chain_with_a_head_is_the_whole_chain(case):
    # the head's sums come from one float32 product, as the engines'
    # per-layer GEMM gives them; acc and flags are the whole chain's
    w, v, cut, init = case
    w_head, v_head = w[..., :cut], v[..., :cut]
    sums = np.matmul(w_head.astype(np.float32),
                     v_head.astype(np.float32)[..., None])[..., 0]
    got = qf.mac_run(w[..., cut:].astype(np.float32), v[..., cut:], init,
                     sq_norms=(w * w).sum(axis=-1),
                     head=(w_head.astype(np.float32), v_head, sums,
                           (v_head * v_head).sum(axis=-1)))
    want = qf.mac_run(w, v, init)
    assert got[0].dtype == np.int64 and got[0].shape == w.shape[:-1]
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    rows = np.broadcast_to(v[..., None, :], w.shape)
    for idx in np.ndindex(*w.shape[:-1]):
        assert (got[0][idx], got[1][idx]) == O.mac_chain(
            zip(w[idx].tolist(), rows[idx].tolist()), init), idx


@st.composite
def bound_stacks(draw, case):
    """(stack, x, h, init): a two-gate `BlockStack` of (W_x, W_h) in 1-3
    die columns, inputs x and a state h at its padded widths, and an
    init, drawn so that `case` holds for `mac_run`'s layer bound: it
    "passes"; it fails and so does every chain's certificate
    ("fails_every_row": no zero chain, every tile full); or it fails and
    the certificate passes some chains but not all ("fails_some_rows":
    row 0 is zero, and rows 1 and 4 are small)."""
    blocks = draw(st.integers(1, 3))
    if case == "fails_every_row":
        n_i, n_h = (blocks * draw(st.integers(1, 3)) for _ in range(2))
        code = st.sampled_from([-128, -127, 127])
    else:
        n_i, n_h = draw(st.integers(1, 7)), draw(st.integers(1, 7))
        code = (st.integers(-4, 4) if case == "passes" else
                st.one_of(int8s, st.sampled_from([-128, -127, 127])))
    inits = [0, 1000, -1000] if case == "passes" else [0, 1000, -32767, 32767]
    rows = draw(st.integers(2, 5))
    mats = [tuple(draw(hnp.arrays(np.int64, (rows, n), elements=code))
                  for n in (n_i, n_h)) for _ in range(2)]
    if case == "fails_some_rows":
        for m in mats[0]:
            m[0] = 0
            m[1::3] //= 16
    stack = lstm_ref.BlockStack(mats, blocks)
    x, h = (draw(hnp.arrays(np.int64, width, elements=code))
            for width in stack.widths)
    x[n_i:], h[n_h:] = 0, 0
    return stack, x, h, draw(st.sampled_from(inits))


@pytest.mark.parametrize("case", ["passes", "fails_every_row",
                                  "fails_some_rows"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_the_layer_bound_keeps_every_chain_exact(case, data):
    # the bound, then the certificate, then the exact tiers, with and
    # without a head: each chain's (acc, saturated) is the scalar MAC's
    # over its whole row, head terms first
    stack, x, h, init = data.draw(bound_stacks(case))
    w, v = stack.w.astype(np.int64), stack.operand(x, h)
    room = qf.INT16_MAX - abs(init)
    v_sq = [int(n) for n in (v * v).sum(-1)]
    bound = stack.sq_max * max(v_sq) <= room * room
    certified = stack.w_sq * np.array(v_sq)[:, None] <= room * room
    if case == "passes":
        assert bound
    elif case == "fails_every_row":
        assume(not certified.any())
    else:
        assume(not bound and certified.any() and not certified.all())
    twin = stack.stepping()
    assert twin.sq_max == int((w * w).sum(-1).max())
    calls = [qf.mac_run(twin.halves[1], twin.operand(h, first=1), init,
                        sq_norms=twin.w_sq, head=next(twin.heads(x[None])),
                        sq_max=twin.sq_max),
             qf.mac_run(stack.w, v, init, sq_norms=stack.w_sq,
                        sq_max=stack.sq_max)]
    for idx in np.ndindex(*w.shape[:-1]):
        want = O.mac_chain(zip(w[idx].tolist(), v[idx[1]].tolist()), init)
        for acc, saturated in calls:
            assert (acc[idx], saturated[idx]) == want, (idx, case)


def _spy(monkeypatch, name):
    """Products handed to qformat's `name` tier by each mac_run call."""
    seen = []
    real = getattr(qf, name)

    def spy(products, *rest):
        seen.append(products.copy())
        return real(products, *rest)

    monkeypatch.setattr(qf, name, spy)
    return seen


# The fast tier is everything short of the saturating scan: the
# certificate's float32 matmul and the wide-integer prefix check.


def test_bound_32767_stays_in_the_fast_tier(monkeypatch):
    chained = _spy(monkeypatch, "_chain")
    scanned = _spy(monkeypatch, "_saturating_scan")
    # |W|.|v| = 2 * 127 * 127 + 127 * 4 + 1 = 32767 exactly, no clipping;
    # ||w||**2 ||v||**2 = 48388 * 32275 is above 32767**2, so the chain
    # fails the certificate, and the prefix check settles it without a scan
    w = np.array([[[127, 127, 127, 1]]])
    v = np.array([[127, 127, 4, 1]])
    assert not qf.certified(qf.row_sq_norms(w), (v * v).sum(axis=-1),
                            qf.INT16_MAX).any()
    acc, sat = qf.mac_run(w, v)
    assert acc.tolist() == [[32767]] and not sat.any()
    assert [s.tolist() for s in chained] == [[[16129, 16129, 508, 1]]]
    assert scanned == []
    assert_factored_exact(w, v)


def test_bound_32768_leaves_the_fast_tier(monkeypatch):
    chained = _spy(monkeypatch, "_chain")
    scanned = _spy(monkeypatch, "_saturating_scan")
    # rows 0-2 fail the certificate; only row 1 really clips, so only row 1
    # leaves the fast tier for the scan
    w = np.array([[[127, -127, 127, 2],     # |w|.|v| 32768, never clips
                   [127, 127, 127, 2],      # |w|.|v| 32768, clips at the end
                   [127, 127, 127, 1],      # |w|.|v| 32767, never clips
                   [0, 0, 127, 1]]])        # certified
    v = np.array([[127, 127, 4, 1]])
    passed = qf.certified(qf.row_sq_norms(w), (v * v).sum(axis=-1),
                          qf.INT16_MAX)
    assert passed.tolist() == [[False, False, False, True]]
    acc, sat = qf.mac_run(w, v)
    assert acc.tolist() == [[510, 32767, 32767, 509]]
    assert sat.tolist() == [[False, True, False, False]]
    # one call, with the terms of exactly the failing chains
    assert [s.tolist() for s in chained] == [(w * v[:, None])[~passed]
                                             .tolist()]
    assert [s.tolist() for s in scanned] == [[[16129, 16129, 508, 2]]]
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


# --- the int8 domain check --------------------------------------------------------

@pytest.mark.parametrize("codes", [
    np.array([0, 200], np.uint8),  # one byte, but not an int8 code
    np.array([-3, 300], np.int16),
    np.array([5, -129], np.int64),
], ids=["uint8", "int16", "int64"])
def test_check_int8_refuses_other_dtypes_out_of_range(codes):
    with pytest.raises(ValueError, match="outside the int8 range"):
        qf.check_int8(codes, "test")


@pytest.mark.parametrize("codes", [
    np.array([0, 127], np.uint8),
    np.array([True, False]),
    np.array([-128, 127], np.int16),
    np.array([-128, 127], np.int8),
    np.array([-128.0, 127.0]),
], ids=["uint8", "bool", "int16", "int8", "float"])
def test_check_int8_accepts_in_range_codes_of_any_dtype(codes):
    qf.check_int8(codes, "test")
