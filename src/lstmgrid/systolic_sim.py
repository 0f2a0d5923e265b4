"""Grid execution: phase-accurate timing, 4-bit links, bit-exact values.

The timing side lives in `build_*_schedule` and `build_state_record`: pure
functions from a plan to an ordered list of PhaseRecords with cycle spans
and planned link traffic.  The value side (`GridSim`) walks those records
and performs the actual distributed arithmetic — per-die partial MACs,
saturating reduction chains, master-side activation and element-wise
updates, hidden-state distribution, optional output projection — counting
real beat-level toggles on every link.  The analytic energy model consumes
the very same records, so simulated and extrapolated cycle counts agree by
construction.

One record walker executes every load mode.  Stacked and chip-select runs
load parameters once and then walk one step schedule per inference step;
reload runs (`run_reload`) walk one pass per (step, layer), in which the
parameter re-load, the state restore (`state_load`) and the state spill
(`state_store`) are ordinary records whose traffic passes the same link
checks as every other transfer.

Value semantics never depend on the schedule's overlap decisions: the
accumulation order is pinned (input slice, recurrent slice, block fold
left to right, peephole, bias) no matter how phases interleave in time.
"""

import dataclasses

import numpy as np

from . import lstm_ref
from .mapper import HOST
from .qformat import (check_int8, mac_run, requantize, sat16, sat_add16,
                      shift_round)

LINK_BITS = 4


class DeadlockError(RuntimeError):
    """A transfer found no planned (or surviving) link to hand-shake with."""


@dataclasses.dataclass(frozen=True)
class CycleModel:
    """Calibrated per-step timing constants.

    c_gate: fixed cycles per gate for activation lookup/drain.
    c_fixed: fixed cycles for the element-wise state update.
    hidden_loop_mode: 'fixed_capacity' runs the recurrent MAC loop over
    all physical units regardless of the mapped tile height (the fitted
    behaviour); 'truncate' shortens it to the tile height.
    """
    c_gate: int = 10
    c_fixed: int = 12
    hidden_loop_mode: str = "fixed_capacity"

    def __post_init__(self):
        if self.hidden_loop_mode not in ("fixed_capacity", "truncate"):
            raise ValueError("unknown hidden_loop_mode %r"
                             % (self.hidden_loop_mode,))

    def h_loop(self, plan, grid):
        if self.hidden_loop_mode == "truncate":
            return grid.nh_tile
        return max(grid.nh_tile, plan.tile.nh_capacity)


@dataclasses.dataclass
class LinkEvent:
    """Planned (and, after simulation, measured) traffic on one link."""
    label: str
    kind: str
    src: tuple
    receivers: tuple
    words: int
    word_bits: int
    toggles: int = None  # filled in by the simulator

    @property
    def bits(self):
        return self.words * self.word_bits

    @property
    def host_drive(self):
        return self.src == HOST

    @property
    def host_receive(self):
        return self.receivers == (HOST,)


@dataclasses.dataclass
class PhaseRecord:
    kind: str
    layer: int
    start: int
    end: int
    dies: tuple
    events: list
    gate: int = None
    hop: int = None
    step: int = None

    @property
    def duration(self):
        return self.end - self.start


@dataclasses.dataclass
class PhaseTrace:
    records: list
    total_cycles: int
    n_steps: int
    step_spans: list  # (start, end) per inference step
    meta: dict

    def link_totals(self):
        totals = {}
        for rec in self.records:
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

    def die_activity(self, inference_only=True):
        """Per-die active/stall cycle split over the inference span.

        Configuration records (step None) lie on a separate timeline and
        are excluded by default so active + stall == total_cycles holds.
        """
        active = {}
        for rec in self.records:
            if inference_only and rec.step is None:
                continue
            for die in rec.dies:
                active[die] = active.get(die, 0) + rec.duration
        return {die: {"active": act, "stall": self.total_cycles - act}
                for die, act in active.items()}

    def to_csv_rows(self):
        rows = [("step", "phase", "layer", "gate", "hop", "start", "end",
                 "link", "bits", "toggles")]
        for rec in self.records:
            base = (rec.step, rec.kind, rec.layer,
                    rec.gate if rec.gate is not None else "",
                    rec.hop if rec.hop is not None else "",
                    rec.start, rec.end)
            if not rec.events:
                rows.append(base + ("", 0, ""))
            for ev in rec.events:
                rows.append(base + (ev.label, ev.bits,
                                    "" if ev.toggles is None else ev.toggles))
        return rows

    def to_text(self):
        lines = ["%6d..%-6d step=%s %-18s L%d%s%s  %s" % (
            rec.start, rec.end, rec.step, rec.kind, rec.layer,
            " g%d" % rec.gate if rec.gate is not None else "",
            " hop%d" % rec.hop if rec.hop is not None else "",
            " ".join("%s:%db" % (ev.label, ev.bits) for ev in rec.events))
            for rec in self.records]
        lines.append("total cycles: %d over %d step(s)"
                     % (self.total_cycles, self.n_steps))
        return "\n".join(lines) + "\n"


# --- schedule construction ------------------------------------------------------


def _die_ids(grid, rows=None, cols=None):
    rows = range(grid.n) if rows is None else rows
    cols = range(grid.n) if cols is None else cols
    return tuple((grid.layer, i, j) for i in rows for j in cols)


def _word_beats(word_bits):
    return word_bits // LINK_BITS


def build_load_schedule(plan, start=0, layers=None):
    """Configuration phase: every die's parameters over its p stream.

    Streams run in parallel (duration = the largest die's beat count)
    unless the plan uses chip-select sharing, which serializes all dies of
    a grid onto one stream (same total beats, n^2 segments back to back).
    """
    records = []
    cursor = start
    for grid in plan.layer_grids:
        if layers is not None and grid.layer not in layers:
            continue
        dies = [plan.die(d) for d in _die_ids(grid)]
        beats = {d.die_id: d.footprint_bytes
                 * _word_beats(plan.tile.word_bits) for d in dies}
        if plan.chip_select:
            for d in dies:
                ev = LinkEvent("L%d.load.%d.%d" % d.die_id, "p", HOST,
                               (d.die_id,), beats[d.die_id] // 2, 8)
                records.append(PhaseRecord(
                    "param_load", grid.layer, cursor,
                    cursor + beats[d.die_id], (d.die_id,), [ev]))
                cursor = records[-1].end
        else:
            events = [LinkEvent("L%d.load.%d.%d" % d.die_id, "p", HOST,
                                (d.die_id,), beats[d.die_id] // 2, 8)
                      for d in dies]
            records.append(PhaseRecord(
                "param_load", grid.layer, cursor,
                cursor + max(beats.values()), tuple(beats), events))
            cursor = records[-1].end
    return records, cursor


def _schedule_gate_phases(plan, grid, cm, cursor, x_cycles, records, step):
    """The four gate rounds (compute, reduction chain, activation) plus
    the element-wise phase.  Returns the element-wise end cycle."""
    n, nh = grid.n, grid.nh_tile
    all_dies = _die_ids(grid)
    masters = _die_ids(grid, cols=[n - 1])
    for g in range(4):
        records.append(PhaseRecord("gate_compute", grid.layer, cursor,
                                   cursor + x_cycles, all_dies, [],
                                   gate=g, step=step))
        cursor += x_cycles
        for hop in range(1, n):
            events = [LinkEvent("L%d.reduce.%d.%d" % (grid.layer, i, hop - 1),
                                "r", (grid.layer, i, hop - 1),
                                ((grid.layer, i, hop),), nh, 16)
                      for i in range(n)]
            dies = _die_ids(grid, cols=[hop - 1, hop])
            records.append(PhaseRecord("gate_reduce", grid.layer, cursor,
                                       cursor + 4 * nh + 4, dies, events,
                                       gate=g, hop=hop, step=step))
            cursor += 4 * nh + 4
        records.append(PhaseRecord("gate_activate", grid.layer, cursor,
                                   cursor + cm.c_gate, masters, [],
                                   gate=g, step=step))
        cursor += cm.c_gate
    records.append(PhaseRecord("elementwise", grid.layer, cursor,
                               cursor + cm.c_fixed, masters, [], step=step))
    return cursor + cm.c_fixed


def _schedule_distribution(plan, grid, cm, cursor, records, step):
    """Hidden-state distribution: chain up the master column, then the
    masters broadcast their own tiles to their namesake columns."""
    n, nh = grid.n, grid.nh_tile
    if n == 1:
        return cursor
    hop_cycles = 2 * nh + 2
    for k, i in enumerate(range(n - 1, 0, -1), start=1):
        src = (grid.layer, i, n - 1)
        dst = (grid.layer, i - 1, n - 1)
        records.append(PhaseRecord(
            "hidden_chain", grid.layer, cursor, cursor + hop_cycles,
            (src, dst),
            [LinkEvent("L%d.hchain.%d" % (grid.layer, i), "h", src, (dst,),
                       nh, 8)], hop=k, step=step))
        cursor += hop_cycles
    events, dies = [], set()
    for i in range(n - 1):
        src = (grid.layer, i, n - 1)
        receivers = _die_ids(grid, cols=[i])
        events.append(LinkEvent("L%d.hcast.%d" % (grid.layer, i), "h", src,
                                receivers, nh, 8))
        dies.add(src)
        dies.update(receivers)
    records.append(PhaseRecord("hidden_bcast", grid.layer, cursor,
                               cursor + hop_cycles, tuple(sorted(dies)),
                               events, step=step))
    return cursor + hop_cycles


def _schedule_fc(plan, grid, cm, cursor, records, step, include_writeback):
    n, n_out = grid.n, grid.n_out
    masters = _die_ids(grid, cols=[n - 1])
    records.append(PhaseRecord("fc_compute", grid.layer, cursor,
                               cursor + grid.nh_tile, masters, [], step=step))
    cursor += grid.nh_tile
    for i in range(n - 1):
        src = (grid.layer, i, n - 1)
        dst = (grid.layer, i + 1, n - 1)
        records.append(PhaseRecord(
            "fc_reduce", grid.layer, cursor, cursor + 4 * n_out + 4,
            (src, dst),
            [LinkEvent("L%d.fcreduce.%d" % (grid.layer, i), "r", src, (dst,),
                       n_out, 16)], hop=i + 1, step=step))
        cursor += 4 * n_out + 4
    root = (grid.layer, n - 1, n - 1)
    records.append(PhaseRecord("fc_activate", grid.layer, cursor,
                               cursor + cm.c_gate, (root,), [], step=step))
    cursor += cm.c_gate
    if include_writeback:
        records.append(PhaseRecord(
            "writeback", grid.layer, cursor, cursor + 2 * n_out, (root,),
            [LinkEvent("L%d.writeback" % grid.layer, "out", root, (HOST,),
                       n_out, 8)], step=step))
        cursor += 2 * n_out
    return cursor


def build_step_schedule(plan, cm=CycleModel(), start=0, step=None,
                        include_fc=True, include_writeback=True, layers=None):
    """One inference step across the (stacked) layer grids in `layers`
    (default: all of them).

    The first scheduled grid streams its features from the host before
    computing.  Deeper grids run their recurrent MAC loops as soon as the
    upstream element-wise phase ends (their own previous hidden state is
    resident), overlapping the upstream hidden-state distribution and the
    feature stream; their input MAC loops start once both finish.  Overlap
    shortens the schedule only — computed values are identical either way.
    """
    records = []
    e_prev = None
    dist_cycles_prev = 0
    for grid in plan.layer_grids:
        if layers is not None and grid.layer not in layers:
            continue
        n, nh, ni = grid.n, grid.nh_tile, grid.ni_tile
        h_loop = cm.h_loop(plan, grid)
        all_dies = _die_ids(grid)
        if e_prev is None:
            feat_start = start
        else:
            up = plan.layer_grids[grid.layer - 1]
            records.append(PhaseRecord("recurrent_compute", grid.layer,
                                       e_prev, e_prev + 4 * h_loop, all_dies,
                                       [], step=step))
            feat_start = e_prev + dist_cycles_prev
        feat_events = [
            LinkEvent("L%d.feat.col%d" % (grid.layer, j), "p",
                      HOST if e_prev is None
                      else (up.layer, min(j, up.n - 1), up.n - 1),
                      _die_ids(grid, cols=[j]), ni, 8)
            for j in range(n)]
        records.append(PhaseRecord("feature_stream", grid.layer, feat_start,
                                   feat_start + 2 * ni, all_dies, feat_events,
                                   step=step))
        if e_prev is None:
            cursor = _schedule_gate_phases(plan, grid, cm, start + 2 * ni,
                                           ni + h_loop, records, step)
        else:
            x_start = max(e_prev + 4 * h_loop, feat_start + 2 * ni)
            cursor = _schedule_gate_phases(plan, grid, cm, x_start, ni,
                                           records, step)
        e_prev = cursor
        dist_start = cursor
        cursor = _schedule_distribution(plan, grid, cm, cursor, records, step)
        dist_cycles_prev = cursor - dist_start
        if grid.n_out is not None and include_fc:
            cursor = _schedule_fc(plan, grid, cm, cursor, records, step,
                                  include_writeback)
        elif grid.layer == len(plan.layer_grids) - 1 and include_writeback \
                and grid.n_out is None:
            masters = _die_ids(grid, cols=[n - 1])
            events = [LinkEvent("L%d.writeback.%d" % (grid.layer, i), "out",
                                (grid.layer, i, n - 1), (HOST,), nh, 8)
                      for i in range(n)]
            records.append(PhaseRecord("writeback", grid.layer, cursor,
                                       cursor + 2 * nh, masters, events,
                                       step=step))
            cursor += 2 * nh
    return records, cursor


def build_state_record(grid, kind, cursor, step):
    """Spill (`state_store`) or restore (`state_load`) one layer's h/c tiles.

    Restoring sends each hidden tile down its column's feature stream (all
    dies in column j consume recurrent slice j), then each cell tile to its
    master over the parameter stream; spilling runs master write-outs, h
    tile then c tile per master.
    """
    n, nh = grid.n, grid.nh_tile
    masters = _die_ids(grid, cols=[n - 1])
    if kind == "state_load":
        events = [LinkEvent("L%d.feat.col%d" % (grid.layer, j), "p", HOST,
                            _die_ids(grid, cols=[j]), nh, 8)
                  for j in range(n)]
        events += [LinkEvent("L%d.load.%d.%d" % die, "p", HOST, (die,), nh, 8)
                   for die in masters]
        dies = _die_ids(grid)
    else:
        events = [LinkEvent("L%d.spill.%d" % (grid.layer, i), "out", die,
                            (HOST,), nh, 8)
                  for i, die in enumerate(masters) for _ in "hc"]
        dies = masters
    return PhaseRecord(kind, grid.layer, cursor, cursor + 4 * nh, dies,
                       events, step=step)


# --- toggle counting -------------------------------------------------------------

def beat_stream(words, word_bits):
    """Little-endian 4-bit beats of each word, one flat uint8 array per
    burst: the low nibble, then the high nibble of each little-endian byte
    of the word's two's-complement code."""
    if word_bits % 8:
        raise ValueError("words must be whole bytes, not %d bits"
                         % (word_bits,))
    data = np.ascontiguousarray(words, dtype="<i8").view(np.uint8)
    data = data.reshape(-1, 8)[:, :word_bits // 8]
    beats = np.empty(data.shape + (2,), np.uint8)
    np.bitwise_and(data, 0xF, out=beats[..., 0])
    np.right_shift(data, 4, out=beats[..., 1])
    return beats.reshape(-1)


_POPCOUNT4 = np.array([bin(v).count("1") for v in range(16)], dtype=np.uint8)


def count_toggles(words, word_bits, idle=0):
    """Bit flips on a 4-bit bus carrying `words` back to back from idle."""
    beats = beat_stream(words, word_bits)
    if beats.size == 0:
        return 0
    flips = np.empty_like(beats)
    flips[0] = beats[0] ^ idle
    np.bitwise_xor(beats[1:], beats[:-1], out=flips[1:])
    np.take(_POPCOUNT4, flips, out=flips)
    return int(flips.sum(dtype=np.int64))


# --- value execution --------------------------------------------------------------

GATES = ("in", "forget", "update", "out")


class _LayerEngine:
    """Distributed state and arithmetic for one layer grid.

    Each gate's weights stay resident as column-block stacks, block j
    holding die column j's input slice then recurrent slice
    (`lstm_ref.BlockStack`: w is (gate, j, nh_padded, ni_tile + nh_tile)).
    """

    def __init__(self, plan, grid, params, luts):
        self.plan = plan
        self.grid = grid
        self.luts = luts
        self.formats = params.formats
        nhp, nip = grid.nh_padded, grid.ni_padded
        self.stack = lstm_ref.BlockStack(
            list(zip(params.input_weights(), params.recurrent_weights())),
            grid.col_blocks(), rows=nhp, widths=(nip, nhp))
        self.peep = np.zeros((3, nhp), np.int64)
        self.bias = np.zeros((4, nhp), np.int64)
        for p, vec in enumerate((params.w_ci, params.w_cf, params.w_co)):
            self.peep[p, :grid.n_hidden] = vec
        for g, vec in enumerate(params.biases()):
            self.bias[g, :grid.n_hidden] = vec
        self.h = np.zeros(nhp, np.int64)
        self.c = np.zeros(nhp, np.int64)
        self.x = np.zeros(nip, np.int64)
        # running partial per (gate, die column j, padded row), plus
        # master-side gate codes
        self.partials = np.zeros((4, grid.n, nhp), np.int64)
        self.gate_codes = np.zeros((4, nhp), np.int64)
        self.acc = np.zeros((4, nhp), np.int64)

    def rows(self, i):
        return slice(i * self.grid.nh_tile, (i + 1) * self.grid.nh_tile)

    def set_features(self, x):
        self.x[:] = 0
        self.x[:len(x)] = x

    def gate_round(self, gate):
        """Every die's partial MAC of one gate: one kernel call."""
        self.partials[gate], _ = mac_run(
            self.stack.w[gate], self.stack.operand(self.x, self.h),
            abs_weights=self.stack.w_abs[gate])

    def param_codes(self, gate, die):
        """Die's input-slice then recurrent-slice weight codes of a gate."""
        block = self.stack.w[gate, die.col, self.rows(die.row)]
        ni = self.grid.ni_tile
        return block[:, :ni].ravel(), block[:, ni:].ravel()

    def reduce_hop(self, gate, i, hop):
        # die `hop` folds the incoming chain value into its own partial
        rows = self.rows(i)
        incoming = self.partials[gate, hop - 1, rows]
        own = self.partials[gate, hop, rows]
        self.partials[gate, hop, rows] = sat_add16(incoming, own)
        return incoming  # the transferred words

    def finish_gate(self, gate):
        """Master-side peephole + bias + requantize + LUT for gates that
        do not read the new cell state (everything except the output)."""
        fmts = self.formats
        for i in range(self.grid.n):
            rows = self.rows(i)
            acc = self.partials[gate, self.grid.n - 1, rows]
            if gate == 0:
                acc = sat_add16(acc, self.peep[0, rows] * self.c[rows])
            elif gate == 1:
                acc = sat_add16(acc, self.peep[1, rows] * self.c[rows])
            self.acc[gate, rows] = acc
            if gate == 3:
                continue  # deferred: output peephole needs the new c
            acc = sat_add16(acc, self.bias[gate, rows]
                            << fmts.state.frac_bits)
            pre = requantize(acc, fmts.acc_frac_bits, fmts.state)
            lut = self.luts["tanh"] if gate == 2 else self.luts["sigmoid"]
            self.gate_codes[gate, rows] = lut.lookup(pre)

    def elementwise(self):
        fmts = self.formats
        gf, sf = fmts.gate.frac_bits, fmts.state.frac_bits
        tanh, sig = self.luts["tanh"], self.luts["sigmoid"]
        h_new = np.zeros_like(self.h)
        for i in range(self.grid.n):
            rows = self.rows(i)
            g_i, g_f = self.gate_codes[0, rows], self.gate_codes[1, rows]
            g_u = self.gate_codes[2, rows]
            p_iu = sat16(shift_round(g_i * g_u, gf - sf))
            c_acc = sat16(g_f * self.c[rows] + p_iu)
            c_new = requantize(c_acc, gf + sf, fmts.state)
            acc_o = sat_add16(self.acc[3, rows], self.peep[2, rows] * c_new)
            acc_o = sat_add16(acc_o, self.bias[3, rows] << sf)
            g_o = sig.lookup(requantize(acc_o, fmts.acc_frac_bits,
                                        fmts.state))
            self.gate_codes[3, rows] = g_o
            self.c[rows] = c_new
            h_new[rows] = requantize(sat16(g_o * tanh.lookup(c_new)),
                                     2 * gf, fmts.state)
        # master row i now owns h tile i; distribution fills self.h
        self.h_tiles = h_new
        return h_new

    def hidden_tile(self, i):
        return self.h_tiles[self.rows(i)]

    def commit_hidden(self):
        self.h[:] = self.h_tiles

    def output_codes(self):
        return self.h_tiles[:self.grid.n_hidden]


class _FcEngine:
    """Projection slices on the master column of the last grid: master i
    holds W_y's columns of hidden tile i as block i of a resident stack."""

    def __init__(self, grid, fc_params, luts):
        self.grid = grid
        self.luts = luts
        self.formats = fc_params.formats
        self.n_out = fc_params.n_out
        self.stack = lstm_ref.BlockStack(
            [(fc_params.W_y,)], [(h,) for _, h in grid.col_blocks()],
            widths=(grid.nh_padded,))
        self.b_y = fc_params.b_y.astype(np.int64)
        self.partials = None  # (master row i, n_out) after `compute`

    def param_codes(self, i):
        return self.stack.w[0, i].ravel()

    def compute(self, engine):
        """Every master's projection partial: one kernel call."""
        self.partials, _ = mac_run(
            self.stack.w[0], self.stack.operand(engine.h_tiles),
            abs_weights=self.stack.w_abs[0])

    def reduce_hop(self, hop):
        incoming = self.partials[hop - 1]
        self.partials[hop] = sat_add16(incoming, self.partials[hop])
        return incoming

    def activate(self):
        fmts = self.formats
        acc = sat_add16(self.partials[self.grid.n - 1],
                        self.b_y << fmts.state.frac_bits)
        self.y = self.luts["sigmoid"].lookup(
            requantize(acc, fmts.acc_frac_bits, fmts.state))
        return self.y


class GridSim:
    """Executes a schedule over real parameter/feature codes."""

    def __init__(self, plan, params, luts=None, cycle_model=CycleModel(),
                 dropped_links=()):
        if len(params.layers) != len(plan.layer_grids):
            raise ValueError("parameter/plan layer count mismatch")
        lstm_ref.check_codes(params)
        self.plan = plan
        self.cm = cycle_model
        self.luts = luts or lstm_ref.default_luts(params.layers[0].formats)
        self.params = params
        self.engines = [_LayerEngine(plan, g, p, self.luts)
                        for g, p in zip(plan.layer_grids, params.layers)]
        self.fc = None
        if params.fc is not None:
            self.fc = _FcEngine(plan.layer_grids[-1], params.fc, self.luts)
        self.dropped = set(dropped_links)
        self.loaded = False
        # h and c of each layer as last spilled to the host (reload mode)
        self.host_state = [np.zeros((2, g.nh_padded), np.int64)
                           for g in plan.layer_grids]

    # -- link layer --

    def _transfer(self, event, words):
        words = np.asarray(words, dtype=np.int64)
        if event.label in self.dropped or not self.plan.has_link(
                event.kind, event.src, event.receivers):
            raise DeadlockError(
                "transfer on %s (%s -> %s) found no ready sink: link absent"
                % (event.label, event.src, event.receivers))
        if words.size != event.words:
            raise AssertionError("planned %d words on %s, moved %d"
                                 % (event.words, event.label, words.size))
        event.toggles = count_toggles(words, event.word_bits)

    # -- phases --

    def _param_words(self, die):
        eng = self.engines[die.layer]
        rows = eng.rows(die.row)
        x_codes, h_codes = zip(*(eng.param_codes(g, die) for g in range(4)))
        chunks = list(x_codes) + list(h_codes)
        if die.role == "master":
            chunks += [eng.peep[p, rows] for p in range(3)]
            chunks += [eng.bias[g, rows] for g in range(4)]
            if die.fc_cols is not None and self.fc is not None:
                chunks.append(self.fc.param_codes(die.row))
                if die.fc_root:
                    chunks.append(self.fc.b_y)
        return np.concatenate(chunks).astype(np.int64)

    def load_parameters(self, start=0):
        records, _ = build_load_schedule(self.plan, start)
        for rec in records:
            self._exec_record(rec, None)
        self.loaded = True
        return records

    def _exec_record(self, rec, x_t):
        eng = self.engines[rec.layer]
        n = eng.grid.n
        kind = rec.kind
        if kind == "param_load":
            for ev in rec.events:
                die = self.plan.die(ev.receivers[0])
                self._transfer(ev, self._param_words(die))
        elif kind == "state_load":
            eng.h[:], eng.c[:] = self.host_state[rec.layer]
            tiles = [eng.h[eng.rows(j)] for j in range(n)]
            tiles += [eng.c[eng.rows(i)] for i in range(n)]
            for ev, words in zip(rec.events, tiles):
                self._transfer(ev, words)
        elif kind == "state_store":
            spill = np.zeros_like(self.host_state[rec.layer])
            real = slice(0, eng.grid.n_hidden)
            spill[0, real], spill[1, real] = eng.h[real], eng.c[real]
            self.host_state[rec.layer] = spill
            tiles = [vec[eng.rows(i)] for i in range(n) for vec in spill]
            for ev, words in zip(rec.events, tiles):
                self._transfer(ev, words)
        elif kind == "feature_stream":
            if rec.layer == 0:
                eng.set_features(x_t)
            else:
                up = self.engines[rec.layer - 1]
                eng.set_features(up.h[:eng.grid.n_inputs])
            for j, ev in enumerate(rec.events):
                xs = slice(j * eng.grid.ni_tile, (j + 1) * eng.grid.ni_tile)
                self._transfer(ev, eng.x[xs])
        elif kind == "recurrent_compute":
            pass  # timing only: MACs are evaluated in pinned order below
        elif kind == "gate_compute":
            eng.gate_round(rec.gate)
        elif kind == "gate_reduce":
            for i, ev in enumerate(rec.events):
                self._transfer(ev, eng.reduce_hop(rec.gate, i, rec.hop))
        elif kind == "gate_activate":
            eng.finish_gate(rec.gate)
        elif kind == "elementwise":
            eng.elementwise()
            if n == 1:
                eng.commit_hidden()  # no distribution phase on a 1x1 grid
        elif kind == "hidden_chain":
            # tile n-1 codes travel up the master column unchanged
            self._transfer(rec.events[0], eng.hidden_tile(n - 1))
        elif kind == "hidden_bcast":
            for i, ev in enumerate(rec.events):
                self._transfer(ev, eng.hidden_tile(i))
            eng.commit_hidden()
        elif kind == "fc_compute":
            self.fc.compute(eng)
        elif kind == "fc_reduce":
            self._transfer(rec.events[0], self.fc.reduce_hop(rec.hop))
        elif kind == "fc_activate":
            self.fc.activate()
        elif kind == "writeback":
            if self.fc is not None:
                self._transfer(rec.events[0], self.fc.y)
            else:
                for i, ev in enumerate(rec.events):
                    self._transfer(ev, eng.hidden_tile(i))
        else:
            raise AssertionError("unhandled phase kind %r" % (kind,))

    def _output(self):
        if self.fc is not None:
            return self.fc.y.copy()
        return self.engines[-1].output_codes().copy()

    def _result(self, records, end, spans, outputs):
        trace = PhaseTrace(records, end, len(spans), spans,
                           meta={"n_dies": self.plan.total_dies,
                                 "reload": self.plan.reload,
                                 "chip_select": self.plan.chip_select})
        width = (self.fc.n_out if self.fc is not None
                 else self.plan.layer_grids[-1].n_hidden)
        out = np.zeros((len(outputs), width), np.int64)
        for t, o in enumerate(outputs):
            out[t] = o
        return out, trace

    def step(self, x_t, start=0, step_index=None):
        """One inference step; returns (output codes, records)."""
        if not self.loaded:
            raise RuntimeError("parameters not loaded")
        records, end = build_step_schedule(
            self.plan, self.cm, start, step_index,
            include_fc=self.fc is not None)
        x_t = np.asarray(x_t, dtype=np.int64)
        for rec in records:
            self._exec_record(rec, x_t)
        return self._output(), records, end

    def run_sequence(self, features):
        """Load every grid once, then run the steps over the resident
        parameters and states."""
        features = np.asarray(features, dtype=np.int64)
        check_int8(features, "feature")
        records = self.load_parameters()
        cursor = 0  # configuration time is traced separately from inference
        spans, outputs = [], []
        for t in range(features.shape[0]):
            out, recs, end = self.step(features[t], cursor, t)
            outputs.append(out)
            records.extend(recs)
            spans.append((cursor, end))
            cursor = end
        return self._result(records, cursor, spans, outputs)

    def run_passes(self, features):
        """One pass per (step, layer), step-major.  Every pass re-loads the
        layer's parameters, restores its h/c tiles from the host (except
        the very first pass), computes one step of that layer alone and
        spills its h/c tiles back to the host."""
        features = np.asarray(features, dtype=np.int64)
        check_int8(features, "feature")
        has_fc = self.fc is not None
        records, spans, outputs = [], [], []
        cursor = 0
        for t in range(features.shape[0]):
            step_start = cursor
            for grid in self.plan.layer_grids:
                recs, cursor = build_load_schedule(self.plan, cursor,
                                                   layers=[grid.layer])
                for rec in recs:
                    rec.step = t
                if t or grid.layer:
                    recs.append(build_state_record(grid, "state_load",
                                                   cursor, t))
                    cursor = recs[-1].end
                step_recs, cursor = build_step_schedule(
                    self.plan, self.cm, cursor, t, include_fc=has_fc,
                    include_writeback=has_fc, layers=[grid.layer])
                recs += step_recs
                recs.append(build_state_record(grid, "state_store", cursor,
                                               t))
                cursor = recs[-1].end
                for rec in recs:
                    self._exec_record(rec, features[t])
                records += recs
            outputs.append(self._output())
            spans.append((step_start, cursor))
        return self._result(records, cursor, spans, outputs)


def simulate(plan, params, features, luts=None, cycle_model=CycleModel(),
             dropped_links=()):
    """Plan + params + features -> (outputs, PhaseTrace)."""
    sim = GridSim(plan, params, luts, cycle_model, dropped_links)
    return sim.run_sequence(features)


def run_reload(plan, params, features, luts=None, cycle_model=CycleModel(),
               dropped_links=()):
    """Single-grid execution, re-loading parameters layer by layer.

    States spill to the host between passes; outputs are bit-identical to
    the stacked execution because every pass performs the same pinned
    arithmetic.  The trace carries the full external traffic (parameter
    re-loads, state round trips) so the energy model sees the true cost.
    """
    if not plan.reload:
        raise ValueError("plan was not built for reload mode")
    sim = GridSim(plan, params, luts, cycle_model, dropped_links)
    if len(plan.layer_grids) == 1:
        # nothing to re-load: parameters stay resident, states on-die
        return sim.run_sequence(features)
    return sim.run_passes(features)
