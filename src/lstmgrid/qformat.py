"""Bit-exact signed fixed-point arithmetic.

Everything the accelerator stores is an 8-bit two's-complement code with a
per-role Q-format; everything it accumulates lives in a 16-bit saturating
accumulator.  Saturating adds are order-sensitive, so every reduction in
this package pins its accumulation order explicitly and the helpers here
are written to be reproducible to the bit on any platform.

Rounding convention at every width reduction: round half away from zero.

Every MAC chain of the package runs through `mac_run`, which is exact in
three tiers.  Fast: for int8 codes, a chain whose bound sum(|w| * |v|) is
at most 32767 cannot leave int16 at any prefix, in any summation order, so
it equals the plain sum; every partial sum of such a chain is an integer
below 2**24, so a float32 matmul gives it exactly.  Middle: chains whose
bound is larger take the exact wide-integer prefix-sum check.  Scan: chains
that really clip run a saturating scan one term at a time, vectorized
across all of those chains.
"""

import numpy as np

INT8_MIN = -128
INT8_MAX = 127
INT16_MIN = -32768
INT16_MAX = 32767


class QFormat:
    """Signed 8-bit fixed-point format with a declared fractional bit count.

    The representable range is [-2**(7-frac_bits), (127) * 2**-frac_bits];
    an instance with frac_bits=5 prints as ``Q2.5`` (sign + 2 integer + 5
    fractional bits).
    """

    __slots__ = ("total_bits", "frac_bits")

    def __init__(self, frac_bits, total_bits=8):
        if total_bits != 8:
            raise ValueError("only 8-bit storage formats are supported")
        if not 0 <= int(frac_bits) <= 7:
            raise ValueError("frac_bits must be in [0, 7], got %r" % (frac_bits,))
        self.total_bits = 8
        self.frac_bits = int(frac_bits)

    @property
    def lsb(self):
        return 2.0 ** -self.frac_bits

    @property
    def min_value(self):
        return INT8_MIN * self.lsb

    @property
    def max_value(self):
        return INT8_MAX * self.lsb

    def __eq__(self, other):
        return isinstance(other, QFormat) and other.frac_bits == self.frac_bits

    def __hash__(self):
        return hash(("QFormat", self.frac_bits))

    def __repr__(self):
        return "Q%d.%d" % (7 - self.frac_bits, self.frac_bits)


class Q8:
    """A single 8-bit code together with its format (scalar convenience)."""

    __slots__ = ("code", "format")

    def __init__(self, code, fmt):
        code = int(code)
        if not INT8_MIN <= code <= INT8_MAX:
            raise ValueError("code %d outside int8 range" % code)
        self.code = code
        self.format = fmt

    @property
    def value(self):
        return self.code * self.format.lsb

    def __repr__(self):
        return "Q8(%d, %r)" % (self.code, self.format)


class Acc16:
    """16-bit saturating accumulator value at a known fractional scale."""

    __slots__ = ("value", "frac_bits", "saturated")

    def __init__(self, value=0, frac_bits=0, saturated=False):
        value = int(value)
        if not INT16_MIN <= value <= INT16_MAX:
            raise ValueError("accumulator %d outside int16 range" % value)
        self.value = value
        self.frac_bits = int(frac_bits)
        self.saturated = bool(saturated)

    def __repr__(self):
        return "Acc16(%d, frac=%d%s)" % (
            self.value, self.frac_bits, ", saturated" if self.saturated else "")


def round_half_away(x):
    """Round to nearest integer, ties away from zero (scalar or ndarray)."""
    x = np.asarray(x)
    out = np.sign(x) * np.floor(np.abs(x) + 0.5)
    if out.ndim == 0:
        return int(out)
    return out.astype(np.int64)


def quantize(values, fmt):
    """Real value(s) -> int8 code(s): scale, round half away, clamp."""
    scaled = np.asarray(values, dtype=np.float64) * (1 << fmt.frac_bits)
    codes = np.clip(round_half_away(scaled), INT8_MIN, INT8_MAX)
    if np.ndim(values) == 0:
        return int(codes)
    return np.asarray(codes, dtype=np.int64)


def dequantize(codes, fmt):
    """int8 code(s) -> exact real value(s) code * 2**-frac_bits."""
    vals = np.asarray(codes, dtype=np.float64) * fmt.lsb
    if np.ndim(codes) == 0:
        return float(vals)
    return vals


def sat16(values):
    """Clamp to the signed 16-bit range (scalar int or ndarray)."""
    if np.ndim(values) == 0:
        return min(max(int(values), INT16_MIN), INT16_MAX)
    # minimum/maximum: np.clip's per-call bound checks cost more than the
    # clamp itself on the short vectors of a die tile
    return np.minimum(np.maximum(np.asarray(values, dtype=np.int64),
                                 INT16_MIN), INT16_MAX)


def mac(acc, a, b):
    """One multiply-accumulate: acc' = sat16(acc + a.code * b.code).

    The product is implicitly at a.frac_bits + b.frac_bits fractional bits;
    an accumulator created by a fresh chain carries that scale.  Saturation
    clamps (never wraps) and is recorded on the returned accumulator.
    """
    prod_frac = a.format.frac_bits + b.format.frac_bits
    if acc.value != 0 and acc.frac_bits != prod_frac:
        raise ValueError("accumulator scale %d does not match product scale %d"
                         % (acc.frac_bits, prod_frac))
    raw = acc.value + a.code * b.code
    clamped = sat16(raw)
    return Acc16(clamped, prod_frac, acc.saturated or clamped != raw)


def shift_round(values, shift):
    """Arithmetic right shift by `shift` with round-half-away-from-zero.

    No clamping; works on scalars and ndarrays.  shift == 0 is identity.
    """
    if shift < 0:
        raise ValueError("negative shift")
    if shift == 0:
        if np.ndim(values) == 0:
            return int(values)
        return np.asarray(values, dtype=np.int64)
    if np.ndim(values) == 0:
        v = int(values)
        mag = (abs(v) + (1 << (shift - 1))) >> shift
        return -mag if v < 0 else mag
    v = np.asarray(values, dtype=np.int64)
    mag = (np.abs(v) + (1 << (shift - 1))) >> shift
    return np.where(v < 0, -mag, mag)


def requantize(value, value_frac_bits, target):
    """16-bit accumulator value -> int8 code in the target format.

    Shift right by the scale difference with round-half-away, then clamp
    to [-128, 127].  Accepts a scalar or an ndarray of raw values.
    """
    shift = value_frac_bits - target.frac_bits
    if shift < 0:
        raise ValueError("cannot requantize to more fractional bits "
                         "(%d -> %d)" % (value_frac_bits, target.frac_bits))
    rounded = shift_round(value, shift)
    if np.ndim(value) == 0:
        return min(max(int(rounded), INT8_MIN), INT8_MAX)
    return np.minimum(np.maximum(rounded, INT8_MIN), INT8_MAX)


def requantize_acc(acc, target):
    """Acc16 -> Q8 in the target format (scalar wrapper around requantize)."""
    return Q8(requantize(acc.value, acc.frac_bits, target), target)


def mac_run(weights, vector=None, init=0, abs_weights=None):
    """Sequential saturating accumulation, one chain per row.

    Each chain is equivalent to repeated `mac` starting from `init`: every
    intermediate sum is clamped to int16 before the next term is added,
    which makes the result depend on term order.  Returns (acc, saturated)
    as int64 / bool arrays with one entry per chain.

    Factored form (`vector` given): `weights` holds int8 codes shaped
    (..., R, K) and `vector` int8 codes shaped (..., K), broadcast over the
    leading axes; chain (..., r) adds weights[..., r, k] * vector[..., k]
    for k ascending.  Resident weights should be passed as float32 with
    `abs_weights` = |weights| beside them.  Product form (`vector` None):
    `weights` already holds the int64 terms, shaped (..., K).

    Tiers (see the module docstring): the fast tier takes W.v and the
    bound |W|.|v| from two float32 matmuls and keeps the chains whose bound
    plus |init| is at most 32767.  A float32 sum of non-negative integers
    never rounds below min(true sum, 2**24), so a bound above 32767 is
    never read as one below it.  The other chains, and every chain of the
    product form, take the middle and scan tiers (`_chain`).
    """
    init = int(init)
    if vector is None:
        products = np.asarray(weights, dtype=np.int64)
        return _chain(products.reshape(1, 1) if products.ndim == 0
                      else products, init)
    w = np.asarray(weights, dtype=np.float32)
    v = np.asarray(vector, dtype=np.float32)
    if abs_weights is None:
        abs_weights = np.abs(w)
    acc = np.matmul(w, v[..., None])[..., 0]
    bound = np.matmul(abs_weights, np.abs(v)[..., None])[..., 0]
    acc = acc.astype(np.int64) + init
    saturated = np.zeros(acc.shape, dtype=bool)
    slow = np.nonzero(bound > INT16_MAX - abs(init))
    if slow[0].size:
        k = w.shape[-1:]
        w_rows = np.broadcast_to(w, acc.shape + k)[slow]
        v_rows = np.broadcast_to(v, acc.shape[:-1] + k)[slow[:-1]]
        products = w_rows.astype(np.int64) * v_rows.astype(np.int64)
        acc[slow], saturated[slow] = _chain(products, init)
    return acc, saturated


def _chain(products, init):
    """Middle and scan tiers over int64 terms shaped (..., K).

    A chain saturates exactly when some plain prefix sum leaves int16: up
    to the first such prefix the chain equals the prefix sums, and there
    it clips.
    """
    lead = products.shape[:-1]
    if products.shape[-1] == 0:
        return np.full(lead, init, dtype=np.int64), np.zeros(lead, bool)
    prefixes = np.cumsum(products, axis=-1)
    prefixes += init
    out = (prefixes < INT16_MIN) | (prefixes > INT16_MAX)
    saturated = np.asarray(out.any(axis=-1))
    acc = prefixes[..., -1].copy()
    if saturated.any():
        acc[saturated] = _saturating_scan(products[saturated],
                                          prefixes[saturated],
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


def check_int8(codes, what):
    """Raise ValueError unless every entry of `codes` is an int8 code."""
    codes = np.asarray(codes)
    if codes.size and (codes.min() < INT8_MIN or codes.max() > INT8_MAX):
        raise ValueError("%s codes outside the int8 range [%d, %d]"
                         % (what, INT8_MIN, INT8_MAX))


def sat_add16(a, b):
    """Saturating 16-bit add of two accumulator arrays/scalars."""
    if np.ndim(a) == 0 and np.ndim(b) == 0:
        return sat16(int(a) + int(b))
    return sat16(np.asarray(a, dtype=np.int64) + np.asarray(b, dtype=np.int64))
