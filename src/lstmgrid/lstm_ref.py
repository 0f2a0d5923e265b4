"""Monolithic LSTM inference: float reference and bit-exact fixed-point model.

The fixed-point path is the golden model the grid simulator must reproduce
bit for bit.  Saturating accumulation is order-sensitive, so the evaluation
order is pinned: input-loop ascending, recurrent-loop ascending, peephole,
bias — optionally split into column blocks (`col_blocks`) whose partial
sums are folded left to right exactly like a reduction chain of dies.

Cells are peephole LSTMs (three extra diagonal weights); all-zero peephole
vectors degrade the cell to the vanilla form.  Gate order throughout the
package: input, forget, update (cell candidate), output.  The update gate
has no peephole; the output gate's peephole reads the *new* cell state as
stored in 8 bits.

Fixed-point scales: weights/states Q2.5, gate outputs Q0.7, accumulators
16 bit at 10 fractional bits (bias enters shifted left by the state's
fractional width).
"""

import dataclasses
import json
import os

import numpy as np

from . import actlut
from .qformat import (QFormat, check_int8, mac_run, quantize, requantize,
                      sat16, sat_add16, shift_round)


@dataclasses.dataclass(frozen=True)
class FormatSet:
    """Q-formats per tensor role."""
    weight: QFormat = QFormat(5)
    state: QFormat = QFormat(5)
    gate: QFormat = QFormat(7)

    @property
    def acc_frac_bits(self):
        return self.weight.frac_bits + self.state.frac_bits


DEFAULT_FORMATS = FormatSet()

GATE_NAMES = ("in", "forget", "update", "out")


@dataclasses.dataclass
class LstmLayerParams:
    """One layer's weights.  Arrays are float64 (float mode) or int64 codes
    (fixed mode, `formats` set).  Peephole vectors may be all zero."""
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
        for name in ("W_xi", "W_xf", "W_xc", "W_xo"):
            if getattr(self, name).shape != (n_h, n_i):
                raise ValueError("%s shape mismatch" % name)
        for name in ("W_hi", "W_hf", "W_hc", "W_ho"):
            if getattr(self, name).shape != (n_h, n_h):
                raise ValueError("%s shape mismatch" % name)
        for name in ("w_ci", "w_cf", "w_co", "b_i", "b_f", "b_c", "b_o"):
            if getattr(self, name).shape != (n_h,):
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

    @property
    def vanilla(self):
        return (not np.any(self.w_ci) and not np.any(self.w_cf)
                and not np.any(self.w_co))

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
        if self.b_y.shape != (self.W_y.shape[0],):
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
    def zeros(cls, n_hidden, fixed=True):
        dtype = np.int64 if fixed else np.float64
        return cls(np.zeros(n_hidden, dtype), np.zeros(n_hidden, dtype))


@dataclasses.dataclass
class NetworkSpec:
    """Layer sizes (n_inputs, n_hidden) per layer, optional projection."""
    layers: list
    n_out: int = None
    formats: FormatSet = DEFAULT_FORMATS

    def __post_init__(self):
        if not self.layers:
            raise ValueError("need at least one layer")
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


def derive_spec(params, formats=DEFAULT_FORMATS):
    layers = [(p.n_inputs, p.n_hidden) for p in params.layers]
    n_out = params.fc.n_out if params.fc is not None else None
    return NetworkSpec(layers, n_out, formats)


def default_luts(formats=DEFAULT_FORMATS):
    """The two activation tables the fixed-point cell needs.  A single tanh
    table serves both the update gate and the cell-output nonlinearity."""
    return {
        "sigmoid": actlut.build_lut("sigmoid", formats.state, formats.gate),
        "tanh": actlut.build_lut("tanh", formats.state, formats.gate),
    }


# --- float reference ---------------------------------------------------------

def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def cell_step_float(params, state, x):
    """One full-precision step (the quantization-free reference)."""
    if params.quantized:
        raise ValueError("float step needs float parameters")
    if x.shape != (params.n_inputs,) or state.h.shape != (params.n_hidden,):
        raise ValueError("dimension mismatch")
    h, c = state.h, state.c
    pre_i = params.W_xi @ x + params.W_hi @ h + params.w_ci * c + params.b_i
    pre_f = params.W_xf @ x + params.W_hf @ h + params.w_cf * c + params.b_f
    pre_u = params.W_xc @ x + params.W_hc @ h + params.b_c
    g_i, g_f, g_u = _sigmoid(pre_i), _sigmoid(pre_f), np.tanh(pre_u)
    c_new = g_f * c + g_i * g_u
    pre_o = params.W_xo @ x + params.W_ho @ h + params.w_co * c_new + params.b_o
    h_new = _sigmoid(pre_o) * np.tanh(c_new)
    return LstmState(h_new, c_new)


def fc_step_float(params, h):
    if h.shape != (params.n_hidden,):
        raise ValueError("dimension mismatch")
    return _sigmoid(params.W_y @ h + params.b_y)


# --- fixed-point golden model -------------------------------------------------

class BlockStack:
    """Gate matrices laid out as float32 column-block stacks: the resident
    operand of the factored `mac_run`.

    `mats` lists per gate the int8 code matrices whose columns one operand
    concatenates: (W_x, W_h) for a cell, (W_y,) for the projection.
    `rows` and `widths` zero-pad them to a padded layout (default: their
    own size).  `col_blocks` lists per block one slice per matrix.  The
    chains of block b read the selected columns matrix after matrix,
    ascending; blocks narrower than the widest are padded at the end with
    zero terms, which leave a saturating chain unchanged.  `w` is shaped
    (gates, blocks, rows, K) and `w_abs` holds |w|.
    """

    def __init__(self, mats, col_blocks, rows=None, widths=None):
        rows = mats[0][0].shape[0] if rows is None else rows
        widths = widths or [m.shape[1] for m in mats[0]]
        offsets = np.cumsum([0] + list(widths))
        cols = [np.concatenate([off + np.arange(*sl.indices(width))
                                for sl, off, width in zip(block, offsets,
                                                          widths)])
                for block in col_blocks]
        # padding terms read the zero column appended to the operand
        self.index = np.full((len(cols), max(map(len, cols))), offsets[-1])
        for b, c in enumerate(cols):
            self.index[b, :len(c)] = c
        self.w = np.empty((len(mats), len(cols), rows, self.index.shape[1]),
                          np.float32)
        cat = np.zeros((rows, offsets[-1] + 1), np.float32)
        for g, gate_mats in enumerate(mats):
            for m, off in zip(gate_mats, offsets):
                cat[:m.shape[0], off:off + m.shape[1]] = m
            for b, idx in enumerate(self.index):
                self.w[g, b] = cat[:, idx]
        self.w_abs = np.abs(self.w)

    def operand(self, *vectors):
        """Per block, the codes its terms multiply: (blocks, K)."""
        return np.concatenate(vectors + (np.zeros(1, np.int64),))[self.index]


def cell_stack(params, col_blocks=None):
    """The four gates' (W_x, W_h) column blocks of one layer."""
    if col_blocks is None:
        col_blocks = [(slice(0, params.n_inputs), slice(0, params.n_hidden))]
    return BlockStack(list(zip(params.input_weights(),
                               params.recurrent_weights())), col_blocks)


def fc_stack(params, col_blocks=None):
    """The projection's W_y column blocks (`col_blocks` slices h)."""
    if col_blocks is None:
        col_blocks = [slice(0, params.n_hidden)]
    return BlockStack([(params.W_y,)], [(sl,) for sl in col_blocks])


def _blocked_dot(stack, *vectors):
    """Saturating dot products split into column blocks: (gates, rows).

    Per block: per-MAC 16-bit saturation over the block's terms in order.
    Block partials are then folded left to right with saturating adds
    (the reduction-chain order).
    """
    partials, _ = mac_run(stack.w, stack.operand(*vectors),
                          abs_weights=stack.w_abs)
    acc = partials[:, 0]
    for b in range(1, partials.shape[1]):
        acc = sat_add16(acc, partials[:, b])
    return acc


def cell_step_fixed(params, state, x, luts, col_blocks=None, stack=None):
    """One bit-exact step on int8 codes.

    `col_blocks` optionally lists (x_slice, h_slice) pairs; the default is
    one flat block covering everything.  Splitting changes results only
    when an intermediate sum saturates, which is exactly why the grid
    simulator must run with the block structure of its plan.  `stack`
    passes `cell_stack(params, col_blocks)` prepared once for many steps.
    """
    if not params.quantized:
        raise ValueError("fixed step needs quantized parameters")
    fmts = params.formats
    if luts["sigmoid"].in_format != fmts.state or \
            luts["tanh"].out_format != fmts.gate:
        raise ValueError("LUT formats do not match parameter formats")
    n_i, n_h = params.n_inputs, params.n_hidden
    if x.shape != (n_i,) or state.h.shape != (n_h,):
        raise ValueError("dimension mismatch")
    if stack is None:
        stack = cell_stack(params, col_blocks)
    h, c = state.h, state.c
    acc_frac = fmts.acc_frac_bits
    bias_shift = fmts.state.frac_bits
    gate_frac = fmts.gate.frac_bits
    sig, tanh = luts["sigmoid"], luts["tanh"]

    dots = _blocked_dot(stack, x, h)

    def gate(g, peep_times_c, b):
        acc = dots[g]
        if peep_times_c is not None:
            acc = sat_add16(acc, peep_times_c)
        acc = sat_add16(acc, b.astype(np.int64) << bias_shift)
        return requantize(acc, acc_frac, fmts.state)

    g_i = sig.lookup(gate(0, params.w_ci * c, params.b_i))
    g_f = sig.lookup(gate(1, params.w_cf * c, params.b_f))
    g_u = tanh.lookup(gate(2, None, params.b_c))

    # align the 14-bit i*u product to the 12-bit scale of f*c, accumulate,
    # then store the cell state back at 8 bits
    p_iu = sat16(shift_round(g_i * g_u, gate_frac - fmts.state.frac_bits))
    c_acc = sat16(g_f * c + p_iu)
    c_new = requantize(c_acc, gate_frac + fmts.state.frac_bits, fmts.state)

    g_o = sig.lookup(gate(3, params.w_co * c_new, params.b_o))
    h_new = requantize(sat16(g_o * tanh.lookup(c_new)), 2 * gate_frac,
                       fmts.state)
    return LstmState(np.asarray(h_new, np.int64), np.asarray(c_new, np.int64))


def fc_step_fixed(params, h, luts, col_blocks=None, stack=None):
    """Fixed-point projection: blocked MAC, bias, requantize, sigmoid.
    `stack` passes `fc_stack(params, col_blocks)` prepared once."""
    if not params.quantized:
        raise ValueError("fixed step needs quantized parameters")
    fmts = params.formats
    if h.shape != (params.n_hidden,):
        raise ValueError("dimension mismatch")
    if stack is None:
        stack = fc_stack(params, col_blocks)
    acc = sat_add16(_blocked_dot(stack, h)[0],
                    params.b_y.astype(np.int64) << fmts.state.frac_bits)
    return luts["sigmoid"].lookup(requantize(acc, fmts.acc_frac_bits,
                                             fmts.state))


def fc_step(params, h, mode, luts=None, col_blocks=None):
    if mode == "float":
        return fc_step_float(params, h)
    if mode == "fixed":
        return fc_step_fixed(params, h, luts, col_blocks)
    raise ValueError("mode must be 'float' or 'fixed'")


def network_infer(spec, params, features, mode="fixed", luts=None,
                  col_blocks_per_layer=None, fc_col_blocks=None):
    """Run T steps through the layer stack and optional projection.

    `features` is a T x n_features matrix (int8 codes in fixed mode, reals
    in float mode); states start at zero and persist across steps.
    Returns a T x output_width matrix.  In fixed mode every parameter and
    feature code must be int8 (ValueError otherwise); each layer's weight
    stacks are prepared once per call.
    """
    if mode not in ("float", "fixed"):
        raise ValueError("mode must be 'float' or 'fixed'")
    features = np.asarray(features)
    if features.ndim != 2 or features.shape[1] != spec.n_features:
        raise ValueError("feature matrix must be T x %d" % spec.n_features)
    if len(params.layers) != spec.n_layers:
        raise ValueError("layer count mismatch")
    if (spec.n_out is None) != (params.fc is None):
        raise ValueError("projection presence mismatch")
    fixed = mode == "fixed"
    stacks = [None] * spec.n_layers
    fc_weights = None
    if fixed:
        check_codes(params, features)
        if luts is None:
            luts = default_luts(spec.formats)
        stacks = [cell_stack(p, col_blocks_per_layer[li]
                             if col_blocks_per_layer else None)
                  for li, p in enumerate(params.layers)]
        if params.fc is not None:
            fc_weights = fc_stack(params.fc, fc_col_blocks)
    states = [LstmState.zeros(n_h, fixed) for _, n_h in spec.layers]
    out = np.zeros((features.shape[0], spec.output_width),
                   dtype=np.int64 if fixed else np.float64)
    for t in range(features.shape[0]):
        feed = features[t]
        for li in range(spec.n_layers):
            if fixed:
                states[li] = cell_step_fixed(params.layers[li], states[li],
                                             feed, luts, stack=stacks[li])
            else:
                states[li] = cell_step_float(params.layers[li], states[li],
                                             feed)
            feed = states[li].h
        if params.fc is not None:
            feed = (fc_step_fixed(params.fc, feed, luts, stack=fc_weights)
                    if fixed else fc_step_float(params.fc, feed))
        out[t] = feed
    return out


# --- post-training quantization ------------------------------------------------

def _quantize_param_tensor(values, fmt):
    # parameters stay on the 255-level symmetric grid: code -128 is unused
    return np.clip(quantize(np.atleast_1d(np.asarray(values, np.float64)),
                            fmt), -127, 127)


def quantize_params_uniform(float_params, formats=DEFAULT_FORMATS):
    """Import float weights onto the uniform symmetric 8-bit grid."""
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
    fields = {}
    for f in dataclasses.fields(LstmLayerParams):
        if f.name == "formats":
            continue
        fields[f.name] = _quantize_param_tensor(
            getattr(float_params, f.name), formats.weight)
    return LstmLayerParams(formats=formats, **fields)


def quantize_features(values, formats=DEFAULT_FORMATS):
    """States/activations use the full 256-code range."""
    return quantize(np.asarray(values, np.float64), formats.state)


# --- deterministic random instances (tests, CLI demos) -------------------------

def random_network_params(seed, layer_sizes, n_out=None, scale=0.5,
                          peephole=True, formats=DEFAULT_FORMATS):
    """Seeded random float network quantized onto the 8-bit grid."""
    rng = np.random.default_rng(seed)

    def mat(rows, cols):
        return rng.uniform(-scale, scale, size=(rows, cols))

    def vec(n, on=True):
        return rng.uniform(-scale, scale, size=n) if on else np.zeros(n)

    layers = []
    for n_i, n_h in layer_sizes:
        layers.append(LstmLayerParams(
            mat(n_h, n_i), mat(n_h, n_h), mat(n_h, n_i), mat(n_h, n_h),
            mat(n_h, n_i), mat(n_h, n_h), mat(n_h, n_i), mat(n_h, n_h),
            vec(n_h, peephole), vec(n_h, peephole), vec(n_h, peephole),
            vec(n_h), vec(n_h), vec(n_h), vec(n_h)))
    fc = None
    if n_out is not None:
        fc = FcParams(mat(n_out, layer_sizes[-1][1]), vec(n_out))
    return quantize_params_uniform(NetworkParams(layers, fc), formats)


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
            check_int8(getattr(layer, name), "layer %d %s" % (li, name))
    if params.fc is not None:
        check_int8(params.fc.W_y, "fc W_y")
        check_int8(params.fc.b_y, "fc b_y")
    if features is not None:
        check_int8(features, "feature")


def _role_of(name):
    if name.startswith("w_c"):
        return "peephole"
    if name.startswith("b_"):
        return "bias"
    return "weight"


def write_container(manifest_path, tensors, meta=None):
    """Write named tensors as a UTF-8 JSON manifest plus a binary blob.

    `tensors` is a list of (name, role, array, fmt) where fmt is a QFormat
    for int8 codes or None for float32 payloads.  The blob sits next to the
    manifest and is referenced from it by file name.
    """
    blob_path = os.path.splitext(manifest_path)[0] + ".bin"
    entries, chunks, offset = [], [], 0
    for name, role, array, fmt in tensors:
        array = np.asarray(array)
        if fmt is not None:
            check_int8(array, name)
            raw = array.astype("<i1").tobytes()
            dtype = "int8"
        else:
            raw = array.astype("<f4").tobytes()
            dtype = "float32"
        entries.append({
            "name": name,
            "role": role,
            "shape": list(array.shape),
            "dtype": dtype,
            "frac_bits": fmt.frac_bits if fmt is not None else None,
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


def read_container(manifest_path):
    """Returns (meta, {name: (role, array, fmt)}) with arrays decoded."""
    with open(manifest_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    if manifest.get("container") != "tensor-blob":
        raise ValueError("not a tensor container: %s" % manifest_path)
    blob_path = os.path.join(os.path.dirname(manifest_path) or ".",
                             manifest["blob"])
    with open(blob_path, "rb") as fh:
        blob = fh.read()
    out = {}
    for e in manifest["tensors"]:
        raw = blob[e["offset"]:e["offset"] + e["byte_length"]]
        if e["dtype"] == "int8":
            arr = np.frombuffer(raw, dtype="<i1").astype(np.int64)
            fmt = QFormat(e["frac_bits"])
        elif e["dtype"] == "float32":
            arr = np.frombuffer(raw, dtype="<f4").astype(np.float64)
            fmt = None
        else:
            raise ValueError("unknown dtype %r" % e["dtype"])
        out[e["name"]] = (e["role"], arr.reshape(e["shape"]), fmt)
    return manifest.get("meta", {}), out


def save_network(manifest_path, params, formats=DEFAULT_FORMATS):
    """Persist a quantized network (layers + optional projection)."""
    tensors = []
    for li, layer in enumerate(params.layers):
        for name in _LAYER_TENSORS:
            tensors.append(("layer%d.%s" % (li, name), _role_of(name),
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
    """Inverse of save_network: returns (spec, NetworkParams)."""
    meta, tensors = read_container(manifest_path)
    if meta.get("kind") != "network":
        raise ValueError("container does not hold a network")
    formats = FormatSet(weight=QFormat(tensors["layer0.W_xi"][2].frac_bits),
                        state=QFormat(meta["state_frac_bits"]),
                        gate=QFormat(meta["gate_frac_bits"]))
    layers = []
    for li in range(len(meta["layers"])):
        fields = {name: tensors["layer%d.%s" % (li, name)][1]
                  for name in _LAYER_TENSORS}
        layers.append(LstmLayerParams(formats=formats, **fields))
    fc = None
    if meta.get("n_out") is not None:
        fc = FcParams(tensors["fc.W_y"][1], tensors["fc.b_y"][1],
                      formats=formats)
    params = NetworkParams(layers, fc)
    return derive_spec(params, formats), params


def save_features(manifest_path, codes, formats=DEFAULT_FORMATS):
    codes = np.asarray(codes)
    if codes.ndim != 2:
        raise ValueError("feature matrix must be 2-D")
    return write_container(manifest_path,
                           [("features", "features", codes, formats.state)],
                           {"kind": "features", "n_steps": codes.shape[0]})


def load_features(manifest_path):
    meta, tensors = read_container(manifest_path)
    if meta.get("kind") != "features" or "features" not in tensors:
        raise ValueError("container does not hold features")
    return tensors["features"][1]
