"""Monolithic LSTM inference: the bit-exact fixed-point golden model.

The grid simulator must reproduce it bit for bit.  Saturating
accumulation is order-sensitive, so the evaluation order is pinned:
input-loop ascending, recurrent-loop ascending, peephole, bias —
optionally split into equal column blocks, a grid's die columns
(`BlockStack`), whose partial sums are folded left to right exactly like a
reduction chain of dies.  A layer's layout is written once
(`prepare_layer`), for this model and the grid's dies alike; a step
multiplies only recurrent halves, after the input halves' `heads`.

Cells are peephole LSTMs (three extra diagonal weights); all-zero peephole
vectors reduce the cell to one without peepholes.  Gate order throughout the
package: input, forget, update (cell candidate), output.  The update gate
has no peephole; the output gate's peephole reads the *new* cell state as
stored in 8 bits.

Parameters carry their own Q-formats (`FormatSet`); the default
(`DEFAULT_FORMATS`) is weights/states Q2.5, gate outputs Q0.7,
accumulators 16 bit at 10 fractional bits (bias enters shifted left by
the state's fractional width).

After the reduction, the cell (`cell_tail`) and the projection
(`fc_tail`) address exact int16 tables with the 16-bit accumulator
(`TailTables`), as a master die ends each gate in its activation ROM:
one lookup per requantize -> clamp -> LUT chain.  The saturating bias
add folds into per-unit clamp bounds by sat16(sat16(s) + B) ==
clip(s + B, -32768 + max(B, 0), 32767 + min(B, 0)) (`gate_bounds`).
The gate lookups hand back codes ready to index the next table, so the
aligned i*u is one lookup too.  The tables are built from the helpers
they replace, about 3 ms once per LUT pair and format set, and memoized
on the LUTs (`tail_tables`).
"""

import dataclasses
import functools
import json
import os

import numpy as np

from . import actlut
from .qformat import (QFormat, check_int8, mac_run, quantize, requantize,
                      row_sq_norms, sat_add16, shift_round)


@dataclasses.dataclass(frozen=True)
class FormatSet:
    """Q-formats per tensor role."""
    weight: QFormat = QFormat(5)
    state: QFormat = QFormat(5)
    gate: QFormat = QFormat(7)

    def __post_init__(self):  # the cell aligns i*u down to f*c's scale
        if self.gate.frac_bits < self.state.frac_bits:
            raise ValueError("gate format %r has fewer fractional bits than "
                             "the state format %r" % (self.gate, self.state))

    @property
    def acc_frac_bits(self):
        return self.weight.frac_bits + self.state.frac_bits


DEFAULT_FORMATS = FormatSet()


@dataclasses.dataclass
class LstmLayerParams:
    """One layer's weights: int8 codes in `formats`, as quantized or
    loaded; codes of a wider dtype are accepted too, checked by value.
    Float arrays (`formats` None) exist only before quantization.
    Peephole vectors may be all zero."""
    W_xi: np.ndarray
    W_hi: np.ndarray
    W_xf: np.ndarray
    W_hf: np.ndarray
    W_xc: np.ndarray
    W_hc: np.ndarray
    W_xo: np.ndarray
    W_ho: np.ndarray
    w_ci: np.ndarray
    w_cf: np.ndarray
    w_co: np.ndarray
    b_i: np.ndarray
    b_f: np.ndarray
    b_c: np.ndarray
    b_o: np.ndarray
    formats: FormatSet = None

    def __post_init__(self):
        n_h, n_i = self.W_xi.shape
        shapes = {"W_x": (n_h, n_i), "W_h": (n_h, n_h)}
        for name in _LAYER_TENSORS:
            if getattr(self, name).shape != shapes.get(name[:3], (n_h,)):
                raise ValueError("%s shape mismatch" % name)

    @property
    def n_hidden(self):
        return self.W_xi.shape[0]

    @property
    def n_inputs(self):
        return self.W_xi.shape[1]

    @property
    def quantized(self):
        return self.formats is not None

    def input_weights(self):
        return (self.W_xi, self.W_xf, self.W_xc, self.W_xo)

    def recurrent_weights(self):
        return (self.W_hi, self.W_hf, self.W_hc, self.W_ho)

    def biases(self):
        return (self.b_i, self.b_f, self.b_c, self.b_o)


@dataclasses.dataclass
class FcParams:
    """Output projection y = sigmoid(W_y h + b_y)."""
    W_y: np.ndarray
    b_y: np.ndarray
    formats: FormatSet = None

    def __post_init__(self):
        if self.W_y.ndim != 2 or self.b_y.shape != self.W_y.shape[:1]:
            raise ValueError("b_y shape mismatch")

    @property
    def n_out(self):
        return self.W_y.shape[0]

    @property
    def n_hidden(self):
        return self.W_y.shape[1]

    @property
    def quantized(self):
        return self.formats is not None


@dataclasses.dataclass
class LstmState:
    h: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        if self.h.shape != self.c.shape or self.h.ndim != 1:
            raise ValueError("state vectors must be 1-D and equal length")

    @classmethod
    def zeros(cls, n_hidden):
        return cls(np.zeros(n_hidden, np.int64), np.zeros(n_hidden, np.int64))


@dataclasses.dataclass
class NetworkSpec:
    """Layer sizes (n_inputs, n_hidden) per layer, optional projection."""
    layers: list
    n_out: int = None
    formats: FormatSet = DEFAULT_FORMATS

    def __post_init__(self):
        if not self.layers:
            raise ValueError("need at least one layer")
        for k, (n_i, n_h) in enumerate(self.layers):
            if n_i < 1 or n_h < 1:
                raise ValueError("layer %d needs at least one input and one "
                                 "hidden unit, not %d x %d" % (k, n_i, n_h))
        if self.n_out is not None and self.n_out < 1:
            raise ValueError("n_out must be at least 1, not %r"
                             % (self.n_out,))
        for k in range(1, len(self.layers)):
            if self.layers[k][0] != self.layers[k - 1][1]:
                raise ValueError(
                    "layer %d expects %d inputs but layer %d is %d wide"
                    % (k, self.layers[k][0], k - 1, self.layers[k - 1][1]))

    @property
    def n_layers(self):
        return len(self.layers)

    @property
    def n_features(self):
        return self.layers[0][0]

    @property
    def output_width(self):
        return self.n_out if self.n_out is not None else self.layers[-1][1]


@dataclasses.dataclass
class NetworkParams:
    layers: list
    fc: FcParams = None


def derive_spec(params):
    """The spec of a quantized network, in its layer 0's formats."""
    if not params.layers[0].quantized:
        raise ValueError("a network spec needs quantized parameters")
    layers = [(p.n_inputs, p.n_hidden) for p in params.layers]
    n_out = params.fc.n_out if params.fc is not None else None
    if n_out is not None and params.fc.n_hidden != layers[-1][1]:
        raise ValueError("the projection reads %d hidden units, not %d"
                         % (params.fc.n_hidden, layers[-1][1]))
    return NetworkSpec(layers, n_out, params.layers[0].formats)


_DEFAULT_LUTS = {}  # FormatSet -> its (read-only) sigmoid and tanh tables
HEAD_CHUNK = 64  # steps per head GEMM (`BlockStack.heads`)


def default_luts(formats=DEFAULT_FORMATS):
    """The two activation tables the fixed-point cell needs.  A single tanh
    table serves both the update gate and the cell-output nonlinearity.
    Every call for one format set returns the same two tables, so their
    `tail_tables` are built once per process."""
    if formats not in _DEFAULT_LUTS:
        _DEFAULT_LUTS[formats] = {
            kind: actlut.build_lut(kind, formats.state, formats.gate)
            for kind in ("sigmoid", "tanh")}
    return dict(_DEFAULT_LUTS[formats])


# --- fixed-point golden model -------------------------------------------------

def tile_width(width, n_blocks):
    """ceil(width / n_blocks): a die column's share of `width`, for the
    plan's tiles and the oracle's blocks alike.  ValueError unless
    `n_blocks` is a positive int (a bool is none)."""
    if type(n_blocks) is not int or n_blocks < 1:
        raise ValueError("a block count must be a positive integer, not %r"
                         % (n_blocks,))
    return -(-width // n_blocks)


class BlockStack:
    """Gate matrices laid out in die columns: int8 column-block stacks,
    one byte per code as a die's SRAM holds them.

    `mats` lists per gate the int8 code matrices whose columns one operand
    concatenates: (W_x, W_h) for a cell, (W_y,) for the projection.  Each
    matrix's columns are zero-padded to `n_blocks` equal tiles of
    ceil(width / n_blocks) (`widths`: the padded widths), its rows to
    `rows` (default: its own).  Block b's chains read tile b of every
    matrix in turn; zero padding terms leave a saturating chain
    unchanged.  `w` is shaped (gates, blocks, rows, K), `halves` views
    its chains as head (the first matrix's terms) and tail, `w_sq`
    (gates, blocks, rows) holds each chain's exact sum of squared codes,
    the certificate's weight norm, and `sq_max` the largest of them, the
    layer bound's.  A caller that runs many MAC calls on one stack steps
    on its float32 twin (`stepping`) and then drops it.
    """

    def __init__(self, mats, n_blocks=1, rows=None):
        tiles = [tile_width(m.shape[1], n_blocks) for m in mats[0]]
        self.widths = tuple(n_blocks * t for t in tiles)
        self._tiles = [(n_blocks, t) for t in tiles]  # operand shapes
        rows = mats[0][0].shape[0] if rows is None else rows
        self.w = np.zeros((len(mats), n_blocks, rows, sum(tiles)), np.int8)
        pos = 0
        for k, tile in enumerate(tiles):
            # the k-th matrix of every gate, each copied once, never
            # padded: its full tiles through one strided view, then its
            # ragged last tile
            n_rows, width = mats[0][k].shape
            full, rest = divmod(width, tile)
            blocks = self.w[:, :, :n_rows, pos:pos + tile]
            for g, gate_mats in enumerate(mats):
                m = gate_mats[k]
                blocks[g, :full] = m[:, :full * tile].reshape(
                    n_rows, full, tile).swapaxes(0, 1)
                if rest:
                    blocks[g, full, :, :rest] = m[:, full * tile:]
            pos += tile
        self.halves = self.w[..., :tiles[0]], self.w[..., tiles[0]:]

    @functools.cached_property
    def w_sq(self):
        """Computed on first use: a stack that steps takes it from its
        twin's float32 `halves`, with no conversion of its own.  A
        projection's stack has no tail."""
        return sum(row_sq_norms(half) for half in self.halves
                   if half.shape[-1])

    @functools.cached_property
    def sq_max(self):
        """The largest of `w_sq`, an int (0 for a stack of no chains):
        `mac_run`'s layer bound, taken once per stack, never per call."""
        return int(self.w_sq.max()) if self.w_sq.size else 0

    def stepping(self):
        """A twin whose `halves` are the float32 weights of the factored
        `mac_run`, four bytes per code, contiguous, in one buffer: made
        once for the steps of a layer and dropped after them, so no MAC
        call converts the int8 layout.  The twin shares `w_sq` and
        `sq_max`, once known, and otherwise takes them here."""
        twin, (head, tail) = object.__new__(type(self)), self.halves
        twin.__dict__.update(self.__dict__)  # a shallow copy, made fast
        buf = np.empty(self.w.size, np.float32)
        twin.halves = (buf[:head.size].reshape(head.shape),
                       buf[head.size:].reshape(tail.shape))
        twin.halves[0][...], twin.halves[1][...] = head, tail
        twin.sq_max  # and `w_sq` beside it, from the float32 halves
        return twin

    def operand(self, *vectors, first=0):
        """Per block, the codes its terms multiply: (..., blocks, K) for
        one vector per matrix from `first` on, shaped (..., width) with
        the padded widths `widths`, one operand per leading index."""
        parts = [v.reshape(v.shape[:-1] + tiles)
                 for v, tiles in zip(vectors, self._tiles[first:])]
        return parts[0] if len(parts) == 1 else np.concatenate(parts, -1)

    def heads(self, x):
        """Per step of the inputs `x` (steps, widths[0]), the `mac_run`
        `head` of its chains: (input-half weights, the step's operand, the
        float32 head sums, the operand's squared norm), one GEMM and one
        norm reduction per `HEAD_CHUNK` steps."""
        w_head = self.halves[0]
        for start in range(0, len(x), HEAD_CHUNK):
            v = self.operand(x[start:start + HEAD_CHUNK]).astype(np.float32)
            # (gates, blocks, rows, steps): one product per gate and block
            sums = w_head @ np.ascontiguousarray(v.transpose(1, 2, 0))
            yield from zip([w_head] * len(v), v, sums.transpose(3, 0, 1, 2),
                           (v * v).sum(axis=-1, dtype=np.float64))


def fc_stack(params, n_blocks=1):
    """The projection's W_y in `n_blocks` column blocks of h, its columns
    zero-padded to n_blocks * ceil(n_hidden / n_blocks)."""
    if not params.quantized:
        raise ValueError("a fixed projection needs quantized parameters")
    return BlockStack([(params.W_y,)], n_blocks)


def _blocked_dot(w, sq_norms, sq_max, operand, head=None):
    """Saturating dot products split into column blocks: (..., rows).

    `w`, `sq_norms` and `sq_max` are a `BlockStack`'s layout, (..., blocks,
    rows, K), its (..., blocks, rows) row norms and their largest, and
    `operand` is its `operand` (after a `head`).  Per block: per-MAC
    16-bit saturation over the block's terms in order.  Block partials
    are then folded left to right with saturating adds (the
    reduction-chain order).
    """
    partials, _ = mac_run(w, operand, sq_norms=sq_norms, head=head,
                          sq_max=sq_max)
    acc = partials[..., 0, :]
    for b in range(1, partials.shape[-2]):
        acc = sat_add16(acc, partials[..., b, :])
    return acc


def check_luts(luts, formats):
    """Raise ValueError unless the activation tables read state codes and
    write gate codes of `formats` (the cell's fixed-point contract)."""
    if any(lut.in_format != formats.state or lut.out_format != formats.gate
           for lut in (luts["sigmoid"], luts["tanh"])):
        raise ValueError("LUT formats do not match parameter formats")


# --- tables addressed by the 16-bit accumulator --------------------------------

INT16_CODES = 1 << 16  # one table entry per int16 value
_ZERO = 1 << 15  # index of the value 0 in a table at offset 32768
# where each region of `TailTables.gates` starts
_TANH, _SIGMOID_HI, _TANH_LO = (k * INT16_CODES for k in (1, 2, 3))
_CHUNK = 1 << 13  # entries written per step of a table build
_LOW_BYTE = np.int16(0xFF)  # a NumPy scalar: a ufunc takes it faster


@dataclasses.dataclass(frozen=True)
class TailTables:
    """Exact tables of the cell and projection tails, one entry per
    16-bit value, so that requantize -> clamp -> LUT is one lookup.

    `gates` holds four regions of 65536 int16 entries.  For every int16
    pre-activation v, the first holds the sigmoid code
    `sigmoid.lookup(requantize(v, acc_frac_bits, state))` at v + 32768,
    the second the tanh code at 65536 + v + 32768; the third holds the
    sigmoid code << 8 (i and o, ready as an index's high byte) and the
    fourth the tanh code & 0xFF (u, ready as its low byte), at the same
    offsets from 131072 and 196608.  `c` holds the cell-state
    requantizer `requantize(v, gf + sf, state)` at v + 32768, so a lookup
    with mode="clip" is exactly its sat16.  `h` holds, at the index whose
    high byte is g_o's and low byte c_new's, `requantize(g_o *
    tanh.lookup(c_new), 2 * gf, state)`: the int16 value
    (g_o << 8) | (c_new & 0xFF), looked up with mode="wrap".  `iu` holds,
    indexed alike by (g_i << 8) | (g_u & 0xFF), `shift_round(g_i * g_u,
    gf - sf)`, i*u at the scale of f*c, plus 32768, the offset of `c`'s
    index: uint16, as that sum is at most 2**14 + 2**15.
    """
    gates: np.ndarray
    c: np.ndarray
    h: np.ndarray
    iu: np.ndarray


def _fill(table, entry, first):
    """Write entry(v) for v = first, first + 1, ... into `table`, in
    chunks: no int64 temporary of the table's size."""
    for start in range(0, len(table), _CHUNK):
        table[start:start + _CHUNK] = entry(
            np.arange(first + start, first + start + _CHUNK))


def build_tail_tables(luts, fmts):
    """The `TailTables` of one LUT pair in one format set, from the
    helpers they replace.  About 3 ms; `tail_tables` builds them once."""
    check_luts(luts, fmts)
    sf, gf = fmts.state.frac_bits, fmts.gate.frac_bits
    t = TailTables(np.empty(4 * INT16_CODES, np.int16),
                   *(np.empty(INT16_CODES, dtype)
                     for dtype in (np.int16, np.int16, np.uint16)))
    for lut, half in ((luts["sigmoid"], t.gates[:_TANH]),
                      (luts["tanh"], t.gates[_TANH:_SIGMOID_HI])):
        _fill(half, lambda v, lut=lut: lut.lookup(
            requantize(v, fmts.acc_frac_bits, fmts.state)), -_ZERO)
    # the codes as an index's high and low byte, in place in int16
    np.left_shift(t.gates[:_TANH], 8, out=t.gates[_SIGMOID_HI:_TANH_LO])
    np.bitwise_and(t.gates[_TANH:_SIGMOID_HI], 0xFF, out=t.gates[_TANH_LO:])
    _fill(t.c, lambda v: requantize(v, gf + sf, fmts.state), -_ZERO)

    # the int16 value v sits at v mod 65536; its high byte is g_o or g_i,
    # its low byte c_new's or g_u's, which `lookup` reads
    def h_entry(v):
        return requantize((v >> 8) * luts["tanh"].lookup(v), 2 * gf,
                          fmts.state)

    def iu_entry(v):
        g_i, g_u = v >> 8, ((v & 0xFF) ^ 0x80) - 0x80
        return shift_round(g_i * g_u, gf - sf) + _ZERO

    for entry, table in ((h_entry, t.h), (iu_entry, t.iu)):
        _fill(table[:_ZERO], entry, 0)
        _fill(table[_ZERO:], entry, -_ZERO)
    for table in (t.gates, t.c, t.h, t.iu):
        table.flags.writeable = False
    return t


def tail_tables(luts, fmts):
    """`build_tail_tables(luts, fmts)`, memoized on the sigmoid table per
    (tanh table, format set): built once per process, never per call."""
    memo = luts["sigmoid"].derived
    key = (luts["tanh"], fmts)
    if key not in memo:
        memo[key] = build_tail_tables(luts, fmts)
    return memo[key]


def gate_bounds(acc_bias, base=0):
    """(offset, lo, hi) with min(max(s + offset, lo), hi) the index, in
    a table at `base` + 32768, of sat16(sat16(s) + acc_bias) for any
    wide sum s: by sat16(sat16(s) + B) == clip(s + B, -32768 + max(B, 0),
    32767 + min(B, 0))."""
    return (acc_bias + (base + _ZERO), np.maximum(acc_bias, 0) + base,
            np.minimum(acc_bias, 0) + (base + INT16_CODES - 1))


@dataclasses.dataclass(frozen=True)
class CellConstants:
    """One layer's `cell_tail` preparation.  `peep` (w_ci, w_cf, w_co) and
    `bias` keep the codes; `tables` are the tail tables; `offset` holds
    the four gates' (4, units) table offsets (`gate_bounds`: i and o's in
    the sigmoid << 8 region, f's in the sigmoid one, u's in the tanh &
    0xFF one); `ifu_*` are gates i, f, u's (3, units) peephole codes (u
    has none: zero) and clamp bounds, and `o_*` the output gate's."""
    peep: np.ndarray
    bias: np.ndarray
    tables: TailTables
    offset: np.ndarray
    ifu_peep: np.ndarray
    ifu_lo: np.ndarray
    ifu_hi: np.ndarray
    o_peep: np.ndarray
    o_lo: np.ndarray
    o_hi: np.ndarray


_GATE_BASES = np.array([[_SIGMOID_HI], [0], [_TANH_LO], [_SIGMOID_HI]])


def cell_constants(peep, bias, fmts, luts):
    """`cell_tail`'s per-layer preparation from the (w_ci, w_cf, w_co)
    peephole codes `peep` (3, units) and the four gate bias codes `bias`
    (4, units): each bias at the accumulator scale, with the offset of
    its gate's table region and the clamp bounds folded in
    (`gate_bounds`)."""
    peep, bias = np.asarray(peep, np.int64), np.asarray(bias, np.int64)
    offset, lo, hi = gate_bounds(bias << fmts.state.frac_bits, _GATE_BASES)
    ifu_peep = np.concatenate([peep[:2], np.zeros_like(peep[:1])])
    return CellConstants(peep, bias, tail_tables(luts, fmts), offset,
                         ifu_peep, lo[:3], hi[:3], peep[2], lo[3], hi[3])


def cell_tail(dots, c, consts):
    """The cell arithmetic after the gate reduction, unit by unit: the
    oracle's cell step and the grid's master dies both end in it.

    `dots` holds the four gates' reduced 16-bit accumulators (gates,
    units), `c` the cell state codes and `consts` the layer's
    `cell_constants`.  The output gate's peephole reads the new cell
    state.  Returns (h_new, c_new) as int16 codes.

    Each requantize -> clamp -> LUT chain is one lookup into an exact
    `TailTables` table: a gate's pre-activation is one add, one max and
    one min (the saturating peephole and bias adds folded into clamp
    bounds by sat16(sat16(s) + B) == clip(s + B, -32768 + max(B, 0),
    32767 + min(B, 0)), `gate_bounds`).  The gate lookups hand i and o
    back as index high bytes and u as a low byte, so the aligned i*u is
    one lookup by (g_i, g_u), the cell state one clipped lookup of
    g_f * c + i*u, and h one lookup by (g_o, c_new): 19 array calls a
    step.  The tables cost about 3 ms, once per LUT pair and format set
    (`tail_tables`, called by `cell_constants`).  A product of two int8
    codes, shifted right or not, is at most 128 * 128 == 2**14 in
    magnitude, so no 16-bit clamp of one product alone can bind.
    """
    k, t = consts, consts.tables
    pre = dots + k.offset
    ifu = k.ifu_peep * c
    ifu += pre[:3]
    np.maximum(ifu, k.ifu_lo, out=ifu)
    i_hi, g_f, u_lo = t.gates[np.minimum(ifu, k.ifu_hi, out=ifu)]
    # f*c + i*u in int64: both reach 2**14 when gf == sf (`FormatSet`
    # keeps gf >= sf), so the sum's clamp binds; `iu` adds the c offset
    c_new = t.c.take(np.multiply(g_f, c, dtype=np.int64)
                     + t.iu.take(i_hi | u_lo, mode="wrap"), mode="clip")
    o = k.o_peep * c_new
    o += pre[3]
    np.maximum(o, k.o_lo, out=o)
    o_hi = t.gates[np.minimum(o, k.o_hi, out=o)]
    h_new = t.h.take(o_hi | (c_new & _LOW_BYTE), mode="wrap")
    return h_new, c_new


def fc_tail(acc, b_y, fmts, luts):
    """The projection after its reduction: bias, requantize, sigmoid, one
    `TailTables` lookup.  The oracle's projection and the grid's root
    master both end in it."""
    offset, lo, hi = gate_bounds(
        np.asarray(b_y, np.int64) << fmts.state.frac_bits)
    return tail_tables(luts, fmts).gates.take(
        np.minimum(np.maximum(acc + offset, lo), hi))


def prepare_layer(params, luts, n_blocks=1):
    """The one resident layout of a layer, run by the grid and the
    oracle alike: (the four gates' (W_x, W_h) `BlockStack` in `n_blocks`
    die columns, the `cell_constants` of its peephole and bias codes),
    its units zero-padded to the stack's padded recurrent width.
    ValueError unless the parameters are quantized and the LUTs fit
    their formats."""
    if not params.quantized:
        raise ValueError("a fixed layer needs quantized parameters")
    units = n_blocks * tile_width(params.n_hidden, n_blocks)
    stack = BlockStack(list(zip(params.input_weights(),
                                params.recurrent_weights())),
                       n_blocks, rows=units)
    codes = np.zeros((7, units), np.int64)
    codes[:, :params.n_hidden] = ((params.w_ci, params.w_cf, params.w_co)
                                  + params.biases())
    return stack, cell_constants(codes[:3], codes[3:], params.formats, luts)


def cell_step_fixed(params, state, x, luts, layer=None, head=None):
    """One bit-exact step on int8 codes.

    `layer` is the layer's `prepare_layer(params, luts, n_blocks)`,
    prepared once for many steps (default: one flat block, prepared for
    this step); a caller of many steps passes its stack's `stepping`
    twin, so the MAC kernel reads float32 weights it need not convert,
    and the step's `head` from its `heads` (default: computed here).
    `x` and the state are zero-padded to the stack's `widths`.
    Splitting changes results only when an intermediate sum
    saturates, which is exactly why the grid simulator must run with the
    block structure of its plan.
    """
    stack, consts = layer or prepare_layer(params, luts)
    if x.shape + state.h.shape != stack.widths:  # the state is 1-D
        raise ValueError("dimension mismatch")
    head = head or next(stack.heads(x[None]))
    dots = _blocked_dot(stack.halves[1], stack.w_sq, stack.sq_max,
                        stack.operand(state.h, first=1), head)
    return LstmState(*cell_tail(dots, state.c, consts))


def fc_step_fixed(params, h, luts, stack=None):
    """Fixed-point projection: blocked MAC, bias, requantize, sigmoid.

    `h` is one hidden vector, or a T x width matrix whose rows are
    projected at once (T x n_out), one MAC call for all of them, its
    codes zero-padded to the width of `stack`: `fc_stack(params,
    n_blocks)` prepared once (default: one flat block).
    """
    stack = stack or fc_stack(params)
    if h.ndim not in (1, 2) or h.shape[-1] != stack.widths[0]:
        raise ValueError("dimension mismatch")
    return fc_tail(_blocked_dot(stack.w[0], stack.w_sq[0], stack.sq_max,
                                stack.operand(h)),
                   params.b_y, params.formats, luts)


def network_infer(spec, params, features, *, luts=None,
                  col_blocks_per_layer=None, fc_col_blocks=1):
    """Run T steps through the layer stack and optional projection.

    `features` is a T x n_features matrix of int8 codes; states start at
    zero and persist across steps.  Returns a T x output_width matrix of
    codes.  Every parameter and feature code must be int8 (ValueError
    otherwise); each layer's weight stacks and cell constants are prepared
    once per call (`prepare_layer`).  `luts` defaults to the tables of
    the parameters' formats.  The block arguments are counts, one flat
    block by default: a list of one per layer, and the projection's; a
    plan's are its grids' die columns (`cli._plan_blocks`).

    The layers run one after another: every step of layer 0, one
    `cell_step_fixed` call each, on its inputs and state zero-padded to
    the stack's `widths`, then layer 1 over layer 0's hidden codes of
    every step, and so on; the projection runs once, over every step.
    One layer's layout is held at a time: its float32 `stepping` twin
    lives while the layer steps, and both go before the next layer is
    prepared.
    """
    features = np.asarray(features)
    if features.ndim != 2 or features.shape[1] != spec.n_features:
        raise ValueError("feature matrix must be T x %d" % spec.n_features)
    if len(params.layers) != spec.n_layers:
        raise ValueError("layer count mismatch")
    if (spec.n_out is None) != (params.fc is None):
        raise ValueError("projection presence mismatch")
    counts = col_blocks_per_layer
    counts = [1] * spec.n_layers if counts is None else list(counts)
    if len(counts) != spec.n_layers:
        raise ValueError("need one block count per layer, not %r" % counts)
    check_codes(params, features)
    luts = luts or default_luts(derive_spec(params).formats)
    fc_weights = (fc_stack(params.fc, fc_col_blocks)
                  if params.fc is not None else None)
    feed = features
    for p, n_blocks in zip(params.layers, counts):
        stack, consts = prepare_layer(p, luts, n_blocks)
        layer = stack.stepping(), consts
        x = np.zeros((len(feed), stack.widths[0]), np.int64)
        x[:, :p.n_inputs] = feed
        state = LstmState.zeros(stack.widths[1])
        hidden = np.zeros((len(feed), stack.widths[1]), np.int64)
        heads = layer[0].heads(x)
        for t in range(len(feed)):
            state = cell_step_fixed(p, state, x[t], luts, layer=layer,
                                    head=next(heads))
            hidden[t] = state.h
        feed = hidden[:, :p.n_hidden]
        del stack, layer, heads  # before the next layer is laid out
    if params.fc is not None:
        h = np.zeros((len(feed), fc_weights.widths[0]), np.int64)
        h[:, :params.fc.n_hidden] = feed
        feed = fc_step_fixed(params.fc, h, luts, stack=fc_weights)
    return feed


# --- post-training quantization ------------------------------------------------

def _quantize_param_tensor(values, fmt):
    # parameters stay on the 255-level symmetric grid: code -128 is unused
    codes = quantize(np.atleast_1d(np.asarray(values, np.float64)), fmt)
    return np.maximum(codes, -127).astype(np.int8)


def quantize_params_uniform(float_params, formats=DEFAULT_FORMATS):
    """Import float weights onto the uniform symmetric 8-bit grid, as int8
    arrays."""
    if isinstance(float_params, FcParams):
        return FcParams(_quantize_param_tensor(float_params.W_y, formats.weight),
                        _quantize_param_tensor(float_params.b_y, formats.weight),
                        formats=formats)
    if isinstance(float_params, NetworkParams):
        return NetworkParams(
            [quantize_params_uniform(p, formats) for p in float_params.layers],
            quantize_params_uniform(float_params.fc, formats)
            if float_params.fc is not None else None)
    if float_params.quantized:
        raise ValueError("parameters are already quantized")
    return LstmLayerParams(formats=formats, **{
        name: _quantize_param_tensor(getattr(float_params, name),
                                     formats.weight)
        for name in _LAYER_TENSORS})


def quantize_features(values, formats=DEFAULT_FORMATS):
    """States/activations use the full 256-code range."""
    return quantize(np.asarray(values, np.float64), formats.state)


# --- deterministic random instances (tests, CLI demos) -------------------------

def random_network_params(seed, layer_sizes, n_out=None, scale=0.5,
                          formats=DEFAULT_FORMATS):
    """Seeded random float network quantized onto the 8-bit grid: the
    codes of `quantize_params_uniform` over the floats drawn, per layer,
    matrices (W_x, W_h per gate) then the seven vectors, then W_y and
    b_y.  Each tensor is quantized as soon as it is drawn, so no float
    network is ever held.  Shapes that no `NetworkSpec` admits raise
    ValueError before any draw."""
    NetworkSpec(list(layer_sizes), n_out)
    rng = np.random.default_rng(seed)

    def draw(*shape):
        return _quantize_param_tensor(rng.uniform(-scale, scale, size=shape),
                                      formats.weight)

    layers = []
    for n_i, n_h in layer_sizes:
        mats = [draw(n_h, n) for n in (n_i, n_h) * 4]
        vecs = [draw(n_h) for _ in range(7)]
        layers.append(LstmLayerParams(*mats, *vecs, formats=formats))
    fc = None
    if n_out is not None:
        fc = FcParams(draw(n_out, layer_sizes[-1][1]), draw(n_out),
                      formats=formats)
    return NetworkParams(layers, fc)


def random_features(seed, n_steps, n_features, formats=DEFAULT_FORMATS,
                    scale=1.0):
    rng = np.random.default_rng(seed)
    return quantize_features(
        rng.uniform(-scale, scale, size=(n_steps, n_features)), formats)


# --- tensor container (manifest + flat little-endian blob) ---------------------

_LAYER_TENSORS = [f.name for f in dataclasses.fields(LstmLayerParams)
                  if f.name != "formats"]


def check_codes(params, features=None):
    """Raise ValueError unless every weight, peephole, bias and feature
    code is an int8 code (the domain the exact MAC kernel is proven on)."""
    for li, layer in enumerate(params.layers):
        for name in _LAYER_TENSORS:
            check_int8(getattr(layer, name), "layer %d %s", li, name)
    if params.fc is not None:
        check_int8(params.fc.W_y, "fc W_y")
        check_int8(params.fc.b_y, "fc b_y")
    if features is not None:
        check_int8(features, "feature")


def write_container(manifest_path, tensors, meta=None):
    """Write named int8 code tensors as a UTF-8 JSON manifest plus a
    binary blob.

    `tensors` is a list of (name, role, array, fmt) where fmt is the
    QFormat of the array's int8 codes.  The blob sits next to the manifest
    and is referenced from it by file name.
    """
    blob_path = os.path.splitext(manifest_path)[0] + ".bin"
    entries, chunks, offset = [], [], 0
    for name, role, array, fmt in tensors:
        array = np.asarray(array)
        check_int8(array, name)
        raw = array.astype("<i1").tobytes()
        entries.append({
            "name": name,
            "role": role,
            "shape": list(array.shape),
            "dtype": "int8",
            "frac_bits": fmt.frac_bits,
            "offset": offset,
            "byte_length": len(raw),
        })
        chunks.append(raw)
        offset += len(raw)
    manifest = {
        "container": "tensor-blob",
        "version": 1,
        "blob": os.path.basename(blob_path),
        "meta": meta or {},
        "tensors": entries,
    }
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    with open(blob_path, "wb") as fh:
        fh.write(b"".join(chunks))
    return manifest


# each field of a manifest, its entries and its meta by kind: (rule, as an
# error names it).  A rule is a type (a JSON boolean is no integer), a
# one-item list of a list's item rule, a tuple of rules, or a value.
_MANIFEST_FIELDS = {"container": ("tensor-blob", "'tensor-blob'"),
                    "version": (1, "1"), "blob": (str, "a file name"),
                    "meta": (dict, "an object"), "tensors": (list, "a list")}
_ENTRY_FIELDS = {"name": (str, "a string"), "role": (str, "a string"),
                 "shape": ([int], "a list of integers"),
                 "dtype": ("int8", "'int8'"), "offset": (int, "an integer"),
                 "byte_length": (int, "an integer"),
                 "frac_bits": (int, "an integer")}
_META_FIELDS = {
    "network": {"kind": ("network", "'network'"),
                "layers": ([[int]], "a list of [inputs, hidden] pairs"),
                "n_out": ((int, type(None)), "an integer or null"),
                "state_frac_bits": (int, "an integer"),
                "gate_frac_bits": (int, "an integer")},
    "features": {"kind": ("features", "'features'"),
                 "n_steps": (int, "an integer")}}


def _fits(value, rule):
    if isinstance(rule, list):
        return type(value) is list and all(_fits(v, rule[0]) for v in value)
    if isinstance(rule, tuple):
        return any(_fits(value, r) for r in rule)
    return type(value) is rule or (type(value) is type(rule) and value == rule)


def _check_fields(obj, fields, what):
    """ValueError, naming every rule of `fields`, unless each field of
    the object `obj` keeps its rule."""
    for key, (rule, named) in fields.items():
        if not _fits(obj.get(key), rule):
            raise ValueError("%s%s must be %s, not %r (want %s)" % (
                what, key, named, obj.get(key), ", ".join(
                    "%s %s" % (k, n) for k, (_, n) in fields.items())))


def read_container(manifest_path):
    """(meta, {name: (role, array, fmt)}), the codes as int8 arrays, the
    container's own dtype.  ValueError unless the manifest keeps
    `_MANIFEST_FIELDS`, and each entry `_ENTRY_FIELDS` and is not negative."""
    with open(manifest_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict):
        raise ValueError("not a tensor container: %s" % manifest_path)
    _check_fields(manifest, _MANIFEST_FIELDS, "container ")
    for e in manifest["tensors"]:
        if not isinstance(e, dict):
            raise ValueError("container entry %r is not an object" % (e,))
        _check_fields(e, _ENTRY_FIELDS,
                      "container entry %r: " % (e.get("name"),))
        if e["offset"] < 0 or e["byte_length"] < 0:
            raise ValueError("container entry %r: negative offset or length"
                             % (e["name"],))
    blob_path = os.path.join(os.path.dirname(manifest_path) or ".",
                             manifest["blob"])
    with open(blob_path, "rb") as fh:
        blob = fh.read()
    out = {}
    for e in manifest["tensors"]:
        raw = blob[e["offset"]:e["offset"] + e["byte_length"]]
        arr = np.frombuffer(raw, dtype="<i1").astype(np.int8)
        out[e["name"]] = (e["role"], arr.reshape(e["shape"]),
                          QFormat(e["frac_bits"]))
    return manifest["meta"], out


def save_network(manifest_path, params):
    """Persist a quantized network (layers + optional projection) in the
    formats its parameters carry.  ValueError unless the projection and
    every layer carry layer 0's formats."""
    formats = derive_spec(params).formats
    parts = params.layers + ([params.fc] if params.fc is not None else [])
    if any(p.formats != formats for p in parts):
        raise ValueError("every layer and the projection must carry layer "
                         "0's formats %r" % (formats,))
    tensors = []
    for li, layer in enumerate(params.layers):
        for name in _LAYER_TENSORS:
            role = ("peephole" if name.startswith("w_c") else "bias"
                    if name.startswith("b_") else "weight")
            tensors.append(("layer%d.%s" % (li, name), role,
                            getattr(layer, name), formats.weight))
    if params.fc is not None:
        tensors.append(("fc.W_y", "weight", params.fc.W_y, formats.weight))
        tensors.append(("fc.b_y", "bias", params.fc.b_y, formats.weight))
    meta = {
        "kind": "network",
        "layers": [[p.n_inputs, p.n_hidden] for p in params.layers],
        "n_out": params.fc.n_out if params.fc is not None else None,
        "state_frac_bits": formats.state.frac_bits,
        "gate_frac_bits": formats.gate.frac_bits,
    }
    return write_container(manifest_path, tensors, meta)


def load_network(manifest_path):
    """Inverse of save_network: (spec, NetworkParams) of int8 code arrays;
    ValueError unless the meta keeps `_META_FIELDS` and the tensors fit."""
    meta, tensors = read_container(manifest_path)
    _check_fields(meta, _META_FIELDS["network"], "network meta ")
    wanted = ["fc.W_y", "fc.b_y"] * (meta.get("n_out") is not None) + [
        "layer%d.%s" % (li, t) for li in range(max(len(meta["layers"]), 1))
        for t in _LAYER_TENSORS]  # layer0.W_xi gives the weight format
    missing = [n for n in wanted if n not in tensors]
    if missing:
        raise ValueError("the container lacks the tensors %s that its meta "
                         "names" % ", ".join(missing))
    weight = tensors["layer0.W_xi"][2]
    odd = sorted(k for k, (_, _, fmt) in tensors.items() if fmt != weight)
    if odd:
        raise ValueError("tensors %s are not in the weights' format %r"
                         % (", ".join(odd), weight))
    formats = FormatSet(weight=weight, state=QFormat(meta["state_frac_bits"]),
                        gate=QFormat(meta["gate_frac_bits"]))
    spec = NetworkSpec([tuple(pair) for pair in meta["layers"]],
                       meta.get("n_out"), formats)
    layers = [LstmLayerParams(formats=formats, **{
        n: tensors["layer%d.%s" % (li, n)][1] for n in _LAYER_TENSORS})
        for li in range(spec.n_layers)]
    params = NetworkParams(layers, None if spec.n_out is None else FcParams(
        tensors["fc.W_y"][1], tensors["fc.b_y"][1], formats=formats))
    if derive_spec(params) != spec:
        raise ValueError("the tensors are not of the shapes network meta "
                         "gives: %r" % (spec,))
    return spec, params


def save_features(manifest_path, codes, formats=DEFAULT_FORMATS):
    codes = np.asarray(codes)
    if codes.ndim != 2:
        raise ValueError("feature matrix must be 2-D")
    return write_container(manifest_path,
                           [("features", "features", codes, formats.state)],
                           {"kind": "features", "n_steps": codes.shape[0]})


def load_features(manifest_path, formats=DEFAULT_FORMATS):
    """Feature codes as int8; ValueError unless in the state format of
    `formats`."""
    meta, tensors = read_container(manifest_path)
    _check_fields(meta, _META_FIELDS["features"], "features meta ")
    if "features" not in tensors or tensors["features"][1].ndim != 2:
        raise ValueError("container does not hold a feature matrix")
    _, codes, fmt = tensors["features"]
    if fmt != formats.state:
        raise ValueError("features are in %r, not the network's state "
                         "format %r" % (fmt, formats.state))
    return codes
