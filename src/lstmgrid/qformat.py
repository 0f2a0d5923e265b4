"""Bit-exact signed fixed-point arithmetic.

Everything the accelerator stores is an 8-bit two's-complement code with a
per-role Q-format; everything it accumulates lives in a 16-bit saturating
accumulator.  Saturating adds are order-sensitive, so every reduction in
this package pins its accumulation order explicitly and the helpers here
are written to be reproducible to the bit on any platform.

Rounding convention at every width reduction: round half away from zero.

Every MAC chain of the package runs through `mac_run`, which is exact in
four tiers.  Layer bound: by Cauchy-Schwarz, no partial sum over any
subset of a chain's terms exceeds ||w|| * ||v|| in magnitude, so when the
layer's largest squared row norm times the call's largest squared operand
norm is at most (32767 - |init|)**2, no chain of the call can leave int16
at any prefix, in any summation order.  Each chain then equals its plain
sum, every partial sum is an integer below 2**24, and one float32 matmul
W.v gives it exactly (so does W.v over its tail plus a float32 head sum
made beforehand).  Certificate: when the bound fails, the same test runs
per chain, from the resident squared row norms.  Prefix check: the chains
that fail the certificate take the exact wide-integer prefix sums, and
those whose every prefix stays in int16 keep the last one.  Scan: chains
that really clip run a saturating scan one term at a time, vectorized
across all of those chains.  Every norm is an exact integer below 2**53,
so each tier's decision is exact.
"""

import numpy as np

INT8_MIN = -128
INT8_MAX = 127
INT16_MIN = -32768
INT16_MAX = 32767
# the int16 ends as NumPy scalars: a ufunc takes them faster than ints
_LO, _HI = np.int64(INT16_MIN), np.int64(INT16_MAX)


class QFormat:
    """Signed 8-bit fixed-point format with a declared fractional bit count.

    The representable range is [-2**(7-frac_bits), (127) * 2**-frac_bits];
    an instance with frac_bits=5 prints as ``Q2.5`` (sign + 2 integer + 5
    fractional bits).
    """

    __slots__ = ("frac_bits",)

    def __init__(self, frac_bits):  # an int or a NumPy integer, no bool
        if not isinstance(frac_bits, (int, np.integer)) \
                or isinstance(frac_bits, bool) or not 0 <= frac_bits <= 7:
            raise ValueError("frac_bits must be an integer in [0, 7], got %r"
                             % (frac_bits,))
        self.frac_bits = int(frac_bits)

    @property
    def lsb(self):
        return 2.0 ** -self.frac_bits

    def __eq__(self, other):
        return isinstance(other, QFormat) and other.frac_bits == self.frac_bits

    def __hash__(self):
        return hash(("QFormat", self.frac_bits))

    def __repr__(self):
        return "Q%d.%d" % (7 - self.frac_bits, self.frac_bits)


def round_half_away(x):
    """Round to nearest integer, ties away from zero, as int64."""
    x = np.asarray(x)
    return (np.sign(x) * np.floor(np.abs(x) + 0.5)).astype(np.int64)


def quantize(values, fmt):
    """Real values -> int8 codes (as int64): clamp, scale, round half away.

    The clamp to the format's range comes first, in floating point, so
    every value saturates to its own end, +-inf included, and no scaled
    value can overflow the integer cast.  NaN raises ValueError."""
    values = np.asarray(values, dtype=np.float64)
    if np.isnan(values).any():
        raise ValueError("cannot quantize NaN")
    # the range ends are whole codes: clamping before rounding is exact
    return round_half_away(np.clip(values, INT8_MIN * fmt.lsb,
                                   INT8_MAX * fmt.lsb) * (1 << fmt.frac_bits))


def dequantize(codes, fmt):
    """int8 codes -> exact real values code * 2**-frac_bits."""
    return np.asarray(codes, dtype=np.float64) * fmt.lsb


def sat16(values):
    """Clamp to the signed 16-bit range, as int64."""
    # minimum/maximum: np.clip's per-call bound checks cost more than the
    # clamp itself on the short vectors of a die tile
    return np.minimum(np.maximum(np.asarray(values, dtype=np.int64),
                                 _LO), _HI)


def shift_round(values, shift):
    """Arithmetic right shift by `shift` with round-half-away-from-zero.

    No clamping.  `values` are signed integers, and an array keeps its
    dtype, so v + 2**(shift - 1) must fit it.  shift == 0 is identity.
    """
    if shift < 0:
        raise ValueError("negative shift")
    v = np.asarray(values)
    if shift == 0:
        return v
    # floor((v + half) / 2**shift) rounds ties up; one less below zero
    # (v >> 63 is -1 there, 0 elsewhere) rounds them away from zero
    return (v + (v >> 63) + (1 << (shift - 1))) >> shift


def requantize(value, value_frac_bits, target):
    """16-bit accumulator value -> int8 code in the target format.

    Shift right by the scale difference with round-half-away (ValueError
    if the target has more fractional bits), then clamp to [-128, 127].
    """
    rounded = shift_round(np.asarray(value, np.int64),
                          value_frac_bits - target.frac_bits)
    return np.minimum(np.maximum(rounded, INT8_MIN), INT8_MAX)


def mac_run(weights, vector=None, init=0, sq_norms=None, head=None,
            sq_max=None):
    """Sequential saturating accumulation, one chain per row.

    Each chain is equivalent to a scalar saturating MAC (`tests/oracles.mac`)
    applied term by term from `init`: every intermediate sum is clamped to
    int16 before the next term is added, which makes the result depend on
    term order.  Returns (acc, saturated) as int64 / bool arrays with one
    entry per chain.

    Factored form (`vector` given): `weights` holds int8 codes shaped
    (..., R, K) and `vector` int8 codes shaped (..., K), broadcast over the
    leading axes; chain (..., r) adds weights[..., r, k] * vector[..., k]
    for k ascending.  Weights of another dtype (int8 codes, say) are
    converted to float32 on every call, so a caller that runs many calls
    on one weight stack passes its float32 copy, made once, with
    `sq_norms` = the int64 sums of their squared codes per row, shaped
    (..., R), and `sq_max` = their largest, an int, beside them.  Product
    form (`vector` None): `weights` already holds the int64 terms, shaped
    (..., K); they are copied, never written.

    `head` = (w_head, v_head, sums, v_head_sq) puts the terms
    w_head[..., r, :] * v_head[..., :] before each factored chain's own,
    given as their float32 sums `sums` (..., R) beside v_head's squared
    norm (`lstm_ref.BlockStack.heads`); `sq_norms` are then whole rows'.

    Tiers (see the module docstring): one float32 matmul gives W.v for
    every chain.  When `sq_max` times the largest squared operand norm
    passes the layer bound, every chain keeps it; otherwise the chains
    that pass the per-chain certificate keep it.  Only the chains that
    fail both, and every chain of the product form, take the prefix-check
    and scan tiers (`_chain`), head terms first.
    """
    init = int(init)
    if vector is None:
        products = np.array(weights, dtype=np.int64)  # `_chain` writes it
        return _chain(products.reshape(1, 1) if products.ndim == 0
                      else products, init)
    w = np.asarray(weights, dtype=np.float32)
    v = np.asarray(vector, dtype=np.float32)
    # float32 sums of at most 1024 squared codes are exact (`row_sq_norms`)
    v_sq = np.vecdot(v, v) if v.shape[-1] <= 1024 else row_sq_norms(v)
    if head is not None:
        v_sq = v_sq + head[3]
    room = INT16_MAX - abs(init)
    # the layer bound, exact as `certified` is, and decided before the
    # sums exist: the two never share the peak.  No empty operand reaches
    # max(), a Python one: over a few blocks a NumPy reduction costs more
    passed = None
    if sq_max is None or not v_sq.size \
            or sq_max * max(v_sq.ravel().tolist()) > _limit(room):
        terms = ([] if head is None else [head[:2]]) + [(w, v)]
        if sq_norms is None:
            sq_norms = sum(row_sq_norms(tw) for tw, _ in terms)
        passed = certified(sq_norms, v_sq, room)
    acc = np.matmul(w, v[..., None])[..., 0]
    if head is not None:
        acc += head[2]
    acc = acc.astype(np.int64)
    if init:
        acc += init
    saturated = np.zeros(acc.shape, dtype=bool)
    if passed is None or passed.all():
        return acc, saturated
    slow = np.nonzero(~passed)
    widths = [tw.shape[-1] for tw, _ in terms]
    products = np.empty((len(slow[0]), sum(widths)), np.int64)
    k = 0
    # head terms first, into one buffer; int8 codes as float32, so each
    # product is exact
    for (tw, tv), n in zip(terms, widths):
        np.multiply(np.broadcast_to(tw, acc.shape + (n,))[slow],
                    np.broadcast_to(tv, acc.shape[:-1] + (n,))[slow[:-1]],
                    out=products[:, k:k + n], casting="unsafe")
        k += n
    acc[slow], saturated[slow] = _chain(products, init)
    return acc, saturated


def row_sq_norms(codes):
    """Exact sums of squared int8 codes along the last axis, as int64.

    Float32 sums of integers are exact up to 2**24, so the codes are
    summed in chunks of 1024 terms (1024 * 128**2 == 2**24).
    """
    codes = np.asarray(codes, dtype=np.float32)
    if codes.shape[-1] <= 1024:  # one chunk
        return np.vecdot(codes, codes).astype(np.int64)
    chunks = [codes[..., k:k + 1024]
              for k in range(0, codes.shape[-1], 1024)]
    return sum(np.vecdot(c, c).astype(np.int64) for c in chunks)


def _limit(room):
    """room**2, the bound of a chain's squared norms; -1 for a negative
    room, which nothing passes."""
    return room * room if room >= 0 else -1


def certified(sq_norms, vector_sq_norms, room):
    """Chains whose every partial sum provably stays within +-`room`:
    sq_norms * vector_sq_norms <= room**2 (Cauchy-Schwarz).

    Both norms are exact integers below 2**53, and the product is taken
    in float64, so the decision is exact and cannot overflow: a product
    up to 2**53 is exact, and a larger one never rounds below 2**53,
    which is above any room**2.  `vector_sq_norms` has one entry per
    vector, the leading shape of `sq_norms` without its row axis.
    Nothing passes for a negative room.
    """
    vector_sq_norms = np.asarray(vector_sq_norms, dtype=np.float64)
    return sq_norms * vector_sq_norms[..., None] <= _limit(room)


def _chain(products, init):
    """Prefix-check and scan tiers over int64 terms shaped (..., K), which
    it overwrites with their prefix sums.

    A chain saturates exactly when some plain prefix sum leaves int16: up
    to the first such prefix the chain equals the prefix sums, and there
    it clips.  The scan takes the clipping chains' terms back from their
    prefix sums.
    """
    lead = products.shape[:-1]
    if products.shape[-1] == 0:
        return np.full(lead, init, dtype=np.int64), np.zeros(lead, bool)
    prefixes = np.cumsum(products, axis=-1, out=products)
    prefixes += init
    out = (prefixes < INT16_MIN) | (prefixes > INT16_MAX)
    saturated = np.asarray(out.any(axis=-1))
    acc = prefixes[..., -1].copy()
    if saturated.any():
        clipping = prefixes[saturated]
        acc[saturated] = _saturating_scan(
            np.diff(clipping, axis=-1, prepend=init), clipping,
            out[saturated], init)
    return acc, saturated


def _saturating_scan(products, prefixes, out, init):
    """Exact values of chains (B, K) that clip, one term per iteration,
    vectorized across the chains.  Up to the first term where any of them
    leaves int16 every chain equals its prefix sum, so the scan starts
    there."""
    first = int(out.argmax(axis=1).min())
    acc = (prefixes[:, first - 1].copy() if first
           else np.full(len(products), init, dtype=np.int64))
    lo, hi = np.int64(INT16_MIN), np.int64(INT16_MAX)
    for term in np.ascontiguousarray(products[:, first:].T):
        np.add(acc, term, out=acc)
        np.minimum(acc, hi, out=acc)
        np.maximum(acc, lo, out=acc)
    return acc


def check_int8(codes, what, *args):
    """Raise ValueError unless every entry of `codes` is an int8 code: a
    whole number in [-128, 127].  An int8 array passes at once, as its
    dtype proves the range; any other dtype is checked by value, and a
    fraction (or NaN) is refused, never truncated.  The error names the
    codes `what` % `args`, formatted only then."""
    codes = np.asarray(codes)
    if codes.dtype == np.int8:
        return
    what = what % args if args else what
    if codes.dtype.kind not in "biu" and not np.array_equal(
            codes, np.trunc(codes)):
        raise ValueError("%s codes must be whole int8 codes, not fractions"
                         % what)
    if codes.size and (codes.min() < INT8_MIN or codes.max() > INT8_MAX):
        raise ValueError("%s codes outside the int8 range [%d, %d]"
                         % (what, INT8_MIN, INT8_MAX))


def sat_add16(a, b):
    """Saturating 16-bit add of two accumulator arrays, as int64."""
    total = np.asarray(np.add(a, b, dtype=np.int64))  # 0-d for scalars
    np.maximum(total, _LO, out=total)
    return np.minimum(total, _HI, out=total)
