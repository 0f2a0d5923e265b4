"""Grid execution: phase-accurate timing, 4-bit links, bit-exact values.

The timing side lives in `build_*_schedule` and `build_state_record`: pure
functions from a plan to an ordered list of PhaseRecords with cycle spans
and planned link traffic.  The value side (`GridSim`) walks those records
and performs the actual distributed arithmetic — per-die partial MACs,
saturating reduction chains, master-side activation and element-wise
updates, hidden-state distribution, optional output projection — counting
real beat-level toggles on every link.  The analytic energy model
consumes the very same records, so simulated and extrapolated cycle
counts agree by construction.

Master-side activation and the element-wise update are one call to
`lstm_ref.cell_tail`, the oracle's own cell arithmetic after reduction,
in the `elementwise` phase; `gate_activate` records carry timing only.

One record walker executes every load mode: `GridSim.run` walks the
records `build_run_schedule` builds before any value is computed.  In
multi-layer reload runs, the per-pass parameter re-load, state restore
(`state_load`) and state spill (`state_store`) are ordinary records whose
traffic passes the same link checks as every other transfer.

Value semantics never depend on the schedule's overlap decisions: the
accumulation order is pinned (input slice, recurrent slice, block fold
left to right, peephole, bias) no matter how phases interleave in time.
"""

import dataclasses

import numpy as np

from . import lstm_ref
from .mapper import HOST
from .qformat import check_int8, mac_run, requantize, sat_add16

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
        for name in ("c_gate", "c_fixed"):
            value = getattr(self, name)
            if type(value) is not int or value < 0:  # no bool, float, str
                raise ValueError("%s must be a non-negative integer, not %r"
                                 % (name, value))
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

    def die_activity(self):
        """Per-die active/stall cycle split over the inference span.

        Configuration records (step None) lie on a separate timeline and
        are excluded so active + stall == total_cycles holds.
        """
        active = {}
        for rec in self.records:
            if rec.step is None:
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


def _die_ids(grid, cols=None):
    cols = range(grid.n) if cols is None else cols
    return tuple((grid.layer, i, j) for i in range(grid.n) for j in cols)


def build_load_schedule(plan, start=0, layers=None, step=None):
    """Configuration phase: every die's parameters over its p stream.

    A die's burst is its footprint in 8-bit words, 8 // LINK_BITS beats
    each.  Streams run in parallel (duration = the largest die's beat
    count) unless the plan uses chip-select sharing, which serializes all
    dies of a grid onto one stream (same total beats, n^2 segments back to
    back).
    """
    records = []
    cursor = start
    for grid in plan.layer_grids:
        if layers is not None and grid.layer not in layers:
            continue
        events = [LinkEvent("L%d.load.%d.%d" % die, "p", HOST, (die,),
                            plan.die(die).footprint_bytes, 8)
                  for die in _die_ids(grid)]
        groups = [[ev] for ev in events] if plan.chip_select else [events]
        for group in groups:
            beats = max(ev.words for ev in group) * (8 // LINK_BITS)
            records.append(PhaseRecord(
                "param_load", grid.layer, cursor, cursor + beats,
                tuple(ev.receivers[0] for ev in group), group, step=step))
            cursor += beats
    return records, cursor


def _schedule_gate_phases(grid, cm, cursor, x_cycles, records, step):
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


def _schedule_distribution(grid, cursor, records, step):
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


def _schedule_fc(grid, cm, cursor, records, step):
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
    records.append(PhaseRecord(
        "writeback", grid.layer, cursor, cursor + 2 * n_out, (root,),
        [LinkEvent("L%d.writeback" % grid.layer, "out", root, (HOST,),
                   n_out, 8)], step=step))
    return cursor + 2 * n_out


def build_step_schedule(plan, cm=CycleModel(), start=0, step=None,
                        readout=True, layers=None):
    """One inference step across the (stacked) layer grids in `layers`
    (default: all of them).

    With `readout`, the network's last grid ends in its output: the
    projection and the write-back of y when the plan has one, else the
    write-back of its hidden tiles.

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
            cursor = _schedule_gate_phases(grid, cm, start + 2 * ni,
                                           ni + h_loop, records, step)
        else:
            x_start = max(e_prev + 4 * h_loop, feat_start + 2 * ni)
            cursor = _schedule_gate_phases(grid, cm, x_start, ni, records,
                                           step)
        e_prev = cursor
        dist_start = cursor
        cursor = _schedule_distribution(grid, cursor, records, step)
        dist_cycles_prev = cursor - dist_start
        if not readout or grid.layer != len(plan.layer_grids) - 1:
            continue
        if grid.n_out is not None:
            cursor = _schedule_fc(grid, cm, cursor, records, step)
        else:
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


def build_run_schedule(plan, cm, n_steps):
    """Every record of an `n_steps` run, built before any value exists:
    (configuration records, one record list per step, end cycle).

    Resident parameters (stacked, chip-select, one-layer reload) load once
    on a timeline of their own (step None).  A multi-layer reload plan runs
    one pass per (step, layer), step-major: parameter re-load, state
    restore (not on the very first pass), one step of that layer alone,
    state spill.  The spilled h of the last layer is already the output.
    """
    steps, cursor = [], 0
    if not plan.reload or len(plan.layer_grids) == 1:
        config, _ = build_load_schedule(plan)
        for t in range(n_steps):
            records, cursor = build_step_schedule(plan, cm, cursor, t)
            steps.append(records)
        return config, steps, cursor
    for t in range(n_steps):
        records = []
        for grid in plan.layer_grids:
            loads, cursor = build_load_schedule(plan, cursor, [grid.layer], t)
            records += loads
            if t or grid.layer:
                records.append(build_state_record(grid, "state_load",
                                                  cursor, t))
                cursor = records[-1].end
            recs, cursor = build_step_schedule(
                plan, cm, cursor, t, readout=grid.n_out is not None,
                layers=[grid.layer])
            records += recs
            records.append(build_state_record(grid, "state_store", cursor,
                                              t))
            cursor = records[-1].end
        steps.append(records)
    return [], steps, cursor


# --- toggle counting -------------------------------------------------------------

_NARROW = {8: "<u1", 16: "<u2"}


def count_toggles(words, word_bits, idle=0):
    """Bit flips on a 4-bit bus carrying `words` back to back from idle.

    The beats are the little-endian bytes of each word's two's-complement
    code, low nibble first.  Narrowed to `word_bits` and read as
    little-endian 64-bit integers, those bytes hold 16 beats each in bus
    order, so one integer's flips are the bits set in it XOR itself
    shifted up one beat, with the previous integer's top beat shifted in.
    A leading integer whose top beat is `idle` starts the stream, and
    copies of the last beat pad the tail without flipping anything.

    2-D `words` count every row as a stream of its own from idle, in one
    pass, and return one int64 count per row; 1-D `words` return an int.
    """
    if word_bits not in _NARROW:
        raise ValueError("words must be 8 or 16 bits wide, not %d"
                         % (word_bits,))
    words = np.asarray(words, dtype=np.int64)
    streams = words if words.ndim == 2 else words.reshape(1, -1)
    n_bytes = streams.shape[1] * (word_bits // 8)
    if n_bytes == 0:
        counts = np.zeros(len(streams), np.int64)
    else:
        raw = np.empty((len(streams), 8 + -(-n_bytes // 8) * 8), np.uint8)
        raw[:, 7] = idle << 4
        raw[:, 8:8 + n_bytes].view(_NARROW[word_bits])[:] = streams
        raw[:, 8 + n_bytes:] = (raw[:, 7 + n_bytes, None] >> 4) * 0x11
        packed = raw.view("<u8")
        beats = packed[:, 1:]
        flips = (beats << 4) | (packed[:, :-1] >> 60)
        flips ^= beats
        counts = np.bitwise_count(flips).sum(axis=1, dtype=np.int64)
    return counts if words.ndim == 2 else int(counts[0])


# --- value execution --------------------------------------------------------------

class _LayerEngine:
    """Distributed state and arithmetic for one layer grid.

    Each gate's weights stay resident as column-block stacks, block j
    holding die column j's input slice then recurrent slice
    (`lstm_ref.BlockStack`: w is (gate, j, nh_padded, ni_tile + nh_tile)).
    """

    def __init__(self, grid, params, luts):
        lstm_ref.check_luts(luts, params.formats)
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
        # running partial per (gate, die column j, padded row)
        self.partials = np.zeros((4, grid.n, nhp), np.int64)

    def rows(self, i):
        return slice(i * self.grid.nh_tile, (i + 1) * self.grid.nh_tile)

    def set_features(self, x):
        self.x[:] = 0
        self.x[:len(x)] = x

    def gate_round(self, gate):
        """Every die's partial MAC of one gate: one kernel call."""
        self.partials[gate], _ = mac_run(
            self.stack.w[gate], self.stack.operand(self.x, self.h),
            sq_norms=self.stack.w_sq[gate])

    def param_codes(self, gate, die):
        """Die's input-slice then recurrent-slice weight codes of a gate."""
        block = self.stack.w[gate, die.col, self.rows(die.row)]
        ni = self.grid.ni_tile
        return block[:, :ni].ravel(), block[:, ni:].ravel()

    def reduce_hop(self, gate, hop):
        """Die column `hop` folds the arriving partials into its own, all
        row tiles at once; returns the arriving partials."""
        incoming, own = self.partials[gate, hop - 1], self.partials[gate, hop]
        own[:] = sat_add16(incoming, own)
        return incoming

    def elementwise(self):
        """Every master's peepholes, biases, activations and state update
        (`lstm_ref.cell_tail`) over the gates' reduced partials in the
        last die column.  Padded rows stay zero: their weights, peepholes
        and biases are zero."""
        # master row i now owns h tile i; distribution fills self.h
        self.h_tiles, self.c[:] = lstm_ref.cell_tail(
            self.partials[:, self.grid.n - 1], self.c, self.peep, self.bias,
            self.formats, self.luts)

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
            sq_norms=self.stack.w_sq[0])

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


class GridSim:
    """Executes a plan's run schedule over real parameter/feature codes."""

    def __init__(self, plan, params, luts=None, cycle_model=CycleModel(),
                 dropped_links=()):
        # (layer shapes, projection width) of the parameters and the plan
        got = ([(p.n_inputs, p.n_hidden) for p in params.layers],
               params.fc.n_out if params.fc is not None else None)
        want = ([tuple(layer) for layer in plan.spec.layers], plan.spec.n_out)
        if got != want:
            raise ValueError("parameters %s do not fit the plan's %s"
                             % (got, want))
        lstm_ref.check_codes(params)
        self.plan = plan
        self.cm = cycle_model
        self.luts = luts or lstm_ref.default_luts(params.layers[0].formats)
        self.engines = [_LayerEngine(g, p, self.luts)
                        for g, p in zip(plan.layer_grids, params.layers)]
        self.fc = None
        if params.fc is not None:
            self.fc = _FcEngine(plan.layer_grids[-1], params.fc, self.luts)
        self.dropped = set(dropped_links)
        # h and c of each layer as last spilled to the host (reload mode)
        self.host_state = [np.zeros((2, g.nh_padded), np.int64)
                           for g in plan.layer_grids]
        # die id -> (word count, toggles) of its parameter burst; the
        # resident parameters, and so the burst, never change
        self._param_bursts = {}
        # (word width, word count) -> (events, their words) awaiting one
        # batched toggle count at the end of the timeline or step
        self._pending = {}

    # -- link layer --

    def _check_transfer(self, event, n_words):
        if event.label in self.dropped or not self.plan.has_link(
                event.kind, event.src, event.receivers):
            raise DeadlockError(
                "transfer on %s (%s -> %s) found no ready sink: link absent"
                % (event.label, event.src, event.receivers))
        if n_words != event.words:
            raise AssertionError("planned %d words on %s, moved %d"
                                 % (event.words, event.label, n_words))

    def _transfer(self, event, words):
        # a copy: tiles are views of engine state that later records
        # overwrite before the batched count reads them
        words = np.array(words, dtype=np.int64)
        self._check_transfer(event, words.size)
        events, rows = self._pending.setdefault(
            (event.word_bits, words.size), ([], []))
        events.append(event)
        rows.append(words)

    def _count_pending(self):
        """Fill in the toggles of every queued transfer: one 2-D
        `count_toggles` call per (word width, word count) group."""
        for (word_bits, _), (events, rows) in self._pending.items():
            counts = count_toggles(np.stack(rows), word_bits).tolist()
            for event, toggles in zip(events, counts):
                event.toggles = toggles
        self._pending = {}

    def _load_die(self, event):
        """A die's parameter burst: the same words, from idle, on every
        load, so its size and toggles are counted on the first only."""
        die_id = event.receivers[0]
        burst = self._param_bursts.get(die_id)
        if burst is None:
            words = self._param_words(self.plan.die(die_id))
            burst = (words.size, count_toggles(words, event.word_bits))
            self._param_bursts[die_id] = burst
        self._check_transfer(event, burst[0])
        event.toggles = burst[1]

    # -- phases --

    def _param_words(self, die):
        eng = self.engines[die.layer]
        rows = eng.rows(die.row)
        x_codes, h_codes = zip(*(eng.param_codes(g, die) for g in range(4)))
        chunks = list(x_codes) + list(h_codes)
        if die.role == "master":
            chunks += [eng.peep[p, rows] for p in range(3)]
            chunks += [eng.bias[g, rows] for g in range(4)]
            if die.fc_cols is not None:
                chunks.append(self.fc.param_codes(die.row))
                if die.fc_root:
                    chunks.append(self.fc.b_y)
        return np.concatenate(chunks).astype(np.int64)

    def _exec_record(self, rec, x_t):
        eng = self.engines[rec.layer]
        n = eng.grid.n
        kind = rec.kind
        if kind == "param_load":
            for ev in rec.events:
                self._load_die(ev)
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
        elif kind in ("recurrent_compute", "gate_activate"):
            # timing only: MACs are evaluated in pinned order by
            # gate_compute, and the activations by elementwise from the
            # reduced partials every gate leaves in place
            pass
        elif kind == "gate_compute":
            eng.gate_round(rec.gate)
        elif kind == "gate_reduce":
            incoming = eng.reduce_hop(rec.gate, rec.hop)
            for i, ev in enumerate(rec.events):
                self._transfer(ev, incoming[eng.rows(i)])
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

    def run(self, features):
        """Walk the plan's run schedule over `features` (T x n_features
        int8 codes); returns (T x output width codes, PhaseTrace)."""
        features = np.asarray(features)
        n_features = self.plan.spec.n_features
        if features.ndim != 2 or features.shape[1] != n_features:
            raise ValueError("features must be T x %d, not %s"
                             % (n_features, features.shape))
        check_int8(features, "feature")
        features = features.astype(np.int64)
        config, steps, end = build_run_schedule(self.plan, self.cm,
                                                len(features))
        for rec in config:
            self._exec_record(rec, None)
        self._count_pending()
        outputs = np.zeros((len(features), self.plan.spec.output_width),
                           np.int64)
        for t, records in enumerate(steps):
            for rec in records:
                self._exec_record(rec, features[t])
            self._count_pending()
            outputs[t] = (self.fc.y if self.fc is not None
                          else self.engines[-1].output_codes())
        return outputs, PhaseTrace(
            config + [rec for recs in steps for rec in recs], end,
            len(features), meta={"n_dies": self.plan.total_dies,
                                 "reload": self.plan.reload,
                                 "chip_select": self.plan.chip_select})


def simulate(plan, params, features, luts=None, cycle_model=CycleModel(),
             dropped_links=()):
    """Plan + params + features -> (outputs, PhaseTrace), in the load mode
    the plan was built for."""
    sim = GridSim(plan, params, luts, cycle_model, dropped_links)
    return sim.run(features)


def run_reload(plan, params, features, luts=None):
    """Single-grid execution, re-loading parameters layer by layer.

    States spill to the host between passes; outputs are bit-identical to
    the stacked execution because every pass performs the same pinned
    arithmetic.  The trace carries the full external traffic (parameter
    re-loads, state round trips) so the energy model sees the true cost.
    """
    if not plan.reload:
        raise ValueError("plan was not built for reload mode")
    return simulate(plan, params, features, luts)
