"""Slow, obviously-correct reference implementations.

Everything in here is pure Python (ints and Fractions, scalar loops, no
numpy) so the fast vectorized package code can be checked against an
independent code path.  Deliberately dumb; do not optimize.  Three
sections at the end are previous package implementations, kept as the
references for their replacements: the int64 toggle counter, for the
byte-wide one, the record-loop energy report, for the columnar one, and
the gate-by-gate cell and projection tails, for the batched ones.
"""

import math
from fractions import Fraction

import numpy as np

I8_MIN, I8_MAX = -128, 127
I16_MIN, I16_MAX = -32768, 32767


def sat8(v):
    return max(I8_MIN, min(I8_MAX, int(v)))


def sat16(v):
    return max(I16_MIN, min(I16_MAX, int(v)))


def clamp_param(v):
    # symmetric 255-level clamp: parameters never use code -128
    return max(-I8_MAX, min(I8_MAX, int(v)))


def round_half_away(x):
    """Round to nearest integer, ties away from zero.  Exact for Fraction."""
    if isinstance(x, Fraction):
        sign = -1 if x < 0 else 1
        return sign * int((abs(x) + Fraction(1, 2)) // 1)
    sign = -1.0 if x < 0 else 1.0
    return int(sign * math.floor(abs(x) + 0.5))


def quant(value, frac_bits):
    """Float/Fraction -> signed code; full [-128, 127] range."""
    return sat8(round_half_away(value * (1 << frac_bits)))


def quant_param(value, frac_bits):
    """Parameter quantizer: same grid but clamped to the 255-level range."""
    return clamp_param(round_half_away(value * (1 << frac_bits)))


def dequant(code, frac_bits):
    return Fraction(int(code), 1 << frac_bits)


def shift_round(value, shift):
    """Arithmetic right shift by `shift` with round-half-away-from-zero."""
    if shift == 0:
        return int(value)
    v = int(value)
    sign = -1 if v < 0 else 1
    return sign * ((abs(v) + (1 << (shift - 1))) >> shift)


def requant(value, frac_bits, target_frac_bits):
    assert frac_bits >= target_frac_bits
    return sat8(shift_round(value, frac_bits - target_frac_bits))


def mac(acc, a_code, b_code):
    """One multiply-accumulate with 16-bit saturation after the add."""
    raw = int(acc) + int(a_code) * int(b_code)
    out = sat16(raw)
    return out, out != raw


def mac_chain(pairs, init=0):
    """Fold a list of (a, b) code pairs through `mac` in order."""
    acc, sat = int(init), False
    for a, b in pairs:
        acc, s = mac(acc, a, b)
        sat = sat or s
    return acc, sat


def sat_add(a, b):
    return sat16(int(a) + int(b))


# --- activation tables ------------------------------------------------------

def lut_table(kind, in_frac, out_frac):
    """256 output codes indexed by the input byte reinterpreted unsigned."""
    fn = math.tanh if kind == "tanh" else (lambda z: 1.0 / (1.0 + math.exp(-z)))
    table = [0] * 256
    for code in range(-128, 128):
        x = code / float(1 << in_frac)
        table[code & 0xFF] = sat8(round_half_away(fn(x) * (1 << out_frac)))
    return table


def lut_apply(table, code):
    return table[int(code) & 0xFF]


# --- quantized LSTM cell, scalar loops --------------------------------------
#
# Parameter layout (plain nested lists of int codes):
#   w_x[g][r][k]   input weights,  gate g in (0=in, 1=forget, 2=update, 3=out)
#   w_h[g][r][k]   recurrent weights
#   peep[p][r]     peephole weights, p in (0=in, 1=forget, 2=out)
#   bias[g][r]
# Formats: weights/peephole/bias/state codes are Q2.5, gate outputs Q0.7,
# accumulators are 16 bit at 10 fractional bits (bias enters shifted left 5).

STATE_FRAC = 5
GATE_FRAC = 7
ACC_FRAC = STATE_FRAC + STATE_FRAC  # weight frac + state frac


def _gate_acc(w_x_row, w_h_row, x, h, blocks):
    """Blocked dot product: per-block per-MAC saturation, then a saturating
    left fold over block partials (matches a reduction chain of dies)."""
    partials = []
    for x_sl, h_sl in blocks:
        pairs = [(w_x_row[k], x[k]) for k in range(*x_sl.indices(len(x)))]
        pairs += [(w_h_row[k], h[k]) for k in range(*h_sl.indices(len(h)))]
        p, _ = mac_chain(pairs)
        partials.append(p)
    acc = partials[0]
    for p in partials[1:]:
        acc = sat_add(acc, p)
    return acc


def cell_tail(acc, c, peep, bias, sig, tanh):
    """One unit's arithmetic after the gate reduction.  `acc` holds its four
    reduced gate accumulators, `peep` its three peephole codes and `bias`
    its four bias codes.  Returns (h_new, c_new, (in, forget, update, out)
    gate codes)."""

    def finish(a, b_code, lut):
        a = sat_add(a, int(b_code) << STATE_FRAC)
        pre = requant(a, ACC_FRAC, STATE_FRAC)
        return lut_apply(lut, pre)

    g_in = finish(sat_add(acc[0], peep[0] * c), bias[0], sig)
    g_forget = finish(sat_add(acc[1], peep[1] * c), bias[1], sig)
    g_update = finish(acc[2], bias[2], tanh)

    # i*u is at 14 frac bits; align to the 12-bit scale of f*c
    p_iu = sat16(shift_round(g_in * g_update, GATE_FRAC - STATE_FRAC))
    c_new = sat8(shift_round(sat16(g_forget * c + p_iu), GATE_FRAC))

    # output peephole sees new cell
    g_out = finish(sat_add(acc[3], peep[2] * c_new), bias[3], sig)
    t = lut_apply(tanh, c_new)
    h_new = sat8(shift_round(g_out * t, GATE_FRAC + GATE_FRAC - STATE_FRAC))
    return h_new, c_new, (g_in, g_forget, g_update, g_out)


def cell_step(params, x, h, c, blocks=None):
    """One fixed-point cell step.  Returns (h_new, c_new, gates) where gates
    is a dict of the four Q0.7 gate code lists for cross-checking."""
    n_h = len(h)
    if blocks is None:
        blocks = [(slice(0, len(x)), slice(0, n_h))]
    w_x, w_h, peep, bias = params["w_x"], params["w_h"], params["peep"], params["bias"]

    h_new, c_new = [], []
    gates = {"in": [], "forget": [], "update": [], "out": []}
    for r in range(n_h):
        acc = [_gate_acc(w_x[g][r], w_h[g][r], x, h, blocks) for g in range(4)]
        h_r, c_r, codes = cell_tail(acc, c[r], [p[r] for p in peep],
                                    [b[r] for b in bias],
                                    params["sigmoid_lut"], params["tanh_lut"])
        h_new.append(h_r)
        c_new.append(c_r)
        for name, code in zip(gates, codes):
            gates[name].append(code)
    return h_new, c_new, gates


def fc_step(w_y, b_y, h, sigmoid_lut, blocks=None):
    """Output projection: dot product, bias, requantize, sigmoid."""
    n_h = len(h)
    if blocks is None:
        blocks = [slice(0, n_h)]
    y = []
    for r in range(len(w_y)):
        partials = []
        for sl in blocks:
            p, _ = mac_chain([(w_y[r][k], h[k]) for k in range(*sl.indices(n_h))])
            partials.append(p)
        acc = partials[0]
        for p in partials[1:]:
            acc = sat_add(acc, p)
        acc = sat_add(acc, int(b_y[r]) << STATE_FRAC)
        y.append(lut_apply(sigmoid_lut, requant(acc, ACC_FRAC, STATE_FRAC)))
    return y


def run_network(layer_params, fc_params, x_seq, blocks_per_layer=None):
    """Run a stack of cells plus the output projection over a code sequence.

    Returns (y_seq, h_states, c_states) with all states zero-initialized.
    """
    n_layers = len(layer_params)
    hs = [[0] * len(p["bias"][0]) for p in layer_params]
    cs = [[0] * len(p["bias"][0]) for p in layer_params]
    y_seq = []
    for x in x_seq:
        feed = x
        for li, p in enumerate(layer_params):
            blocks = blocks_per_layer[li] if blocks_per_layer else None
            hs[li], cs[li], _ = cell_step(p, feed, hs[li], cs[li], blocks)
            feed = hs[li]
        if fc_params is not None:
            y_seq.append(fc_step(fc_params["w_y"], fc_params["b_y"], feed,
                                 fc_params["sigmoid_lut"],
                                 fc_params.get("blocks")))
        else:
            y_seq.append(list(feed))
    return y_seq, hs, cs


# --- float reference (sanity only, not bit-exact) ---------------------------

def cell_step_float(params, x, h, c):
    def sigm(z):
        return 1.0 / (1.0 + math.exp(-z))

    w_x, w_h, peep, bias = params["w_x"], params["w_h"], params["peep"], params["bias"]
    n_h = len(h)
    h_new, c_new = [0.0] * n_h, [0.0] * n_h
    pre = [[0.0] * n_h for _ in range(4)]
    for g in range(4):
        for r in range(n_h):
            s = bias[g][r]
            s += sum(w_x[g][r][k] * x[k] for k in range(len(x)))
            s += sum(w_h[g][r][k] * h[k] for k in range(n_h))
            pre[g][r] = s
    for r in range(n_h):
        gi = sigm(pre[0][r] + peep[0][r] * c[r])
        gf = sigm(pre[1][r] + peep[1][r] * c[r])
        gu = math.tanh(pre[2][r])
        c_new[r] = gf * c[r] + gi * gu
        go = sigm(pre[3][r] + peep[2][r] * c_new[r])
        h_new[r] = go * math.tanh(c_new[r])
    return h_new, c_new


# --- link toggle counting ----------------------------------------------------

def nibbles(word, width_bits):
    """Little-endian 4-bit beats of a two's-complement word."""
    u = int(word) & ((1 << width_bits) - 1)
    return [(u >> (4 * i)) & 0xF for i in range(width_bits // 4)]


def toggle_count(words, width_bits, idle=0):
    """Total bit flips seen on a 4-bit bus carrying `words` back to back."""
    prev, total = idle, 0
    for w in words:
        for beat in nibbles(w, width_bits):
            total += bin(prev ^ beat).count("1")
            prev = beat
    return total


def beat_stream_int64(words, word_bits):
    """Little-endian 4-bit beats of each word, one flat int64 array."""
    words = np.asarray(words, dtype=np.int64)
    n_beats = word_bits // 4
    u = words & ((1 << word_bits) - 1)
    beats = np.empty(words.size * n_beats, dtype=np.int64)
    for b in range(n_beats):
        beats[b::n_beats] = (u >> (4 * b)) & 0xF
    return beats


_POPCOUNT4 = np.array([bin(v).count("1") for v in range(16)], dtype=np.int64)


def count_toggles_int64(words, word_bits, idle=0):
    """Bit flips on a 4-bit bus carrying `words` back to back from idle."""
    beats = beat_stream_int64(words, word_bits)
    if beats.size == 0:
        return 0
    prev = np.concatenate(([idle], beats[:-1]))
    return int(_POPCOUNT4[beats ^ prev].sum())


# --- energy report over the trace's records, one event at a time --------------
# `perf_energy.report` over the trace's records as it was before the trace
# became templates and a toggle array, and `PhaseTrace.die_activity` as a
# set of busy cycles per die; the library must equal them to the last bit
# and in dict key order.
# `link_totals` is now the only link-total reduction: the tests measure
# per-link bits, words and toggles with it.

_PJ = 1e-12


def link_totals(trace):
    totals = {}
    for rec in trace.records:
        for ev in rec.events:
            agg = totals.setdefault(ev.label, {
                "kind": ev.kind, "bits": 0, "words": 0, "toggles": 0,
                "host_drive": ev.host_drive,
                "host_receive": ev.host_receive,
                "n_receivers": len(ev.receivers)})
            agg["bits"] += ev.bits
            agg["words"] += ev.words
            agg["toggles"] += ev.toggles if ev.toggles is not None else 0
    return totals


def die_activity(trace):
    """Per die, the cycles of the inference span in which any of its
    records runs, collected one cycle at a time."""
    busy = {}
    for rec in trace.records:
        if rec.step is None:
            continue
        for die in rec.dies:
            busy.setdefault(die, set()).update(range(rec.start, rec.end))
    return {die: {"active": len(cycles),
                  "stall": trace.total_cycles - len(cycles)}
            for die, cycles in busy.items()}


def _event_io_energy_j(ev, consts):
    toggles = (ev.toggles if ev.toggles is not None
               else consts.alpha_toggle * ev.bits)
    energy = 0.0
    if not ev.host_drive:
        energy += toggles * consts.e_drive_pj_per_bit
    if not ev.host_receive:
        energy += toggles * consts.e_receive_pj_per_bit * len(ev.receivers)
    return energy * _PJ


def report(trace, op, consts):
    """`perf_energy.report` over `trace.records`; an EnergyReport."""
    from lstmgrid.perf_energy import EnergyReport
    if trace.total_cycles and not op.frequency:
        raise ValueError("cannot report a non-empty trace at 0 Hz")
    time_s = trace.total_cycles / op.frequency if trace.total_cycles else 0.0

    phase_cycles, phase_io = {}, {}
    io_j = 0.0
    for rec in trace.records:
        if rec.step is None:
            continue
        phase_cycles[rec.kind] = phase_cycles.get(rec.kind, 0) + rec.duration
        e = sum(_event_io_energy_j(ev, consts) for ev in rec.events)
        phase_io[rec.kind] = phase_io.get(rec.kind, 0.0) + e
        io_j += e
    io_j += consts.p_pad_static_mw_per_die * 1e-3 * trace.meta["n_dies"] \
        * time_s

    # reload mode time-shares physical dies across layer passes
    collapse = trace.meta.get("reload", False)
    die_core = {}
    active = {}
    for die, split in die_activity(trace).items():
        key = die[1:] if collapse else die
        active[key] = active.get(key, 0) + split["active"]
    p_act = consts.p_core_active_mw_per_die * 1e-3
    p_stl = consts.p_core_stall_mw_per_die * 1e-3
    cycle_s = 1.0 / op.frequency if op.frequency else 0.0
    for key, act in active.items():
        die_core[key] = (p_act * act
                         + p_stl * (trace.total_cycles - act)) * cycle_s
    core_j = sum(die_core.values())
    return EnergyReport(trace.total_cycles, trace.n_steps,
                        trace.meta["n_dies"], time_s, core_j, io_j,
                        phase_cycles, phase_io, die_core)


# --- cell and projection tails, one gate at a time ----------------------------
# `lstm_ref.cell_tail` and `lstm_ref.fc_tail` as they were before the first
# three gates were batched and the rounding shift lost its np.where, with
# the `qformat` helpers and `Lut256.lookup` they called (renamed `np_*`
# here, next to the scalar helpers of the same names above).  The batched
# tails must equal them for every format set with gate frac bits >= state
# frac bits.

def np_sat16(values):
    return np.minimum(np.maximum(np.asarray(values, dtype=np.int64),
                                 I16_MIN), I16_MAX)


def np_sat_add16(a, b):
    return np_sat16(np.asarray(a, dtype=np.int64)
                    + np.asarray(b, dtype=np.int64))


def np_shift_round(values, shift):
    if shift < 0:
        raise ValueError("negative shift")
    v = np.asarray(values, dtype=np.int64)
    if shift == 0:
        return v
    mag = (np.abs(v) + (1 << (shift - 1))) >> shift
    return np.where(v < 0, -mag, mag)


def np_lookup(lut, codes):
    return lut.table[np.asarray(codes, dtype=np.int64) & 0xFF]


def np_requantize(value, value_frac_bits, target):
    shift = value_frac_bits - target.frac_bits
    if shift < 0:
        raise ValueError("cannot requantize to more fractional bits "
                         "(%d -> %d)" % (value_frac_bits, target.frac_bits))
    rounded = np_shift_round(value, shift)
    return np.minimum(np.maximum(rounded, I8_MIN), I8_MAX)


def unbatched_cell_tail(dots, c, peep, bias, fmts, luts):
    sf, gf = fmts.state.frac_bits, fmts.gate.frac_bits
    sig, tanh = luts["sigmoid"], luts["tanh"]

    def gate(g, lut, peep_times_c=None):
        acc = dots[g]
        if peep_times_c is not None:
            acc = np_sat_add16(acc, peep_times_c)
        acc = np_sat_add16(acc, np.asarray(bias[g], np.int64) << sf)
        return np_lookup(lut, np_requantize(acc, fmts.acc_frac_bits,
                                            fmts.state))

    g_i = gate(0, sig, peep[0] * c)
    g_f = gate(1, sig, peep[1] * c)
    g_u = gate(2, tanh)

    # align the 14-bit i*u product to the 12-bit scale of f*c, accumulate,
    # then store the cell state back at 8 bits
    p_iu = np_sat16(np_shift_round(g_i * g_u, gf - sf))
    c_new = np_requantize(np_sat16(g_f * c + p_iu), gf + sf, fmts.state)

    g_o = gate(3, sig, peep[2] * c_new)
    h_new = np_requantize(np_sat16(g_o * np_lookup(tanh, c_new)), 2 * gf,
                          fmts.state)
    return np.asarray(h_new, np.int64), np.asarray(c_new, np.int64)


def unbatched_fc_tail(acc, b_y, fmts, luts):
    acc = np_sat_add16(acc, np.asarray(b_y, np.int64) << fmts.state.frac_bits)
    return np_lookup(luts["sigmoid"], np_requantize(acc, fmts.acc_frac_bits,
                                                    fmts.state))
