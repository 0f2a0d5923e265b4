"""Grid execution: phase-accurate timing, 4-bit links, bit-exact values.

The timing side lives in `build_*_schedule` and `build_state_record`: pure
functions from a plan to an ordered list of PhaseRecords with cycle spans
and planned link traffic.  Every parameter stays resident, so the steps of
a run repeat one step shape (two in multi-layer reload runs); `run_templates`
builds each shape once as a `StepTemplate`, records with cycle offsets and
events on the plan's `LinkPlan` objects, before any value is computed.

The value side (`GridSim`) keeps what is resident on the dies: each
layer's `prepare_layer` layout, the projection and every die's burst.
Each `run` first checks every template event against the dropped links,
then performs the actual distributed arithmetic from zero state,
layer-major.  Only the recurrence runs step by step (the input halves
run as one GEMM per chunk of steps): per layer step, the per-die partial
MACs of all four gates in one kernel call, the column fold of all four
gates (one saturating add per hop) and the master-side
activation and element-wise update, one call to `lstm_ref.cell_tail`, the
oracle's own cell arithmetic after reduction.  A layer keeps its
histories (step inputs, the partials each hop receives, h and c), the
next layer reads its hidden codes as features, and the optional output
projection runs once over every step.  Records without transfers (the
compute, activation and element-wise phases) carry timing only; every
other record's words, over all of its template's steps at once, are
slices of those histories.  One pass over a template concatenates them
per (word width, word count) group and counts each group's beat-level
toggles in one call, into an int64 (steps x template events) array that
also holds each parameter burst's toggles.  The analytic energy model
prices the very same templates, so simulated and extrapolated cycle
counts agree by construction.

One engine serves every load mode.  In multi-layer reload runs, the
per-pass parameter re-load, state restore (`state_load`) and state spill
(`state_store`) are ordinary records whose traffic passes the same link
checks as every other transfer; their words are the h and c histories,
since spilling and restoring never change a value.

Value semantics never depend on the schedule's overlap decisions: the
accumulation order is pinned (input slice, recurrent slice, block fold
left to right, peephole, bias) no matter how phases interleave in time.
"""

import dataclasses

import numpy as np

from . import lstm_ref
from .mapper import HOST, layer_io, links_labelled
# perfbench/tracing.py wraps requantize in this module by name
from .qformat import check_int8, mac_run, requantize, sat_add16  # noqa: F401

LINK_BITS = 4
# the fitted timing constants: cycles per gate for the activation lookup
# and drain, and cycles for the element-wise state update
C_GATE = 10
C_FIXED = 12


class DeadlockError(RuntimeError):
    """A transfer found no planned (or surviving) link to hand-shake with."""


@dataclasses.dataclass
class LinkEvent:
    """Planned (and, after simulation, measured) traffic on one link of
    the plan (`mapper.LinkPlan`), which names its ends and word width."""
    link: object
    words: int
    toggles: int = None  # filled in by the simulator

    label = property(lambda self: self.link.label)
    kind = property(lambda self: self.link.kind)
    src = property(lambda self: self.link.src)
    receivers = property(lambda self: self.link.receivers)
    bits = property(lambda self: self.words * self.link.word_bits)
    host_drive = property(lambda self: self.link.src == HOST)
    host_receive = property(lambda self: self.link.receivers == (HOST,))


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


@dataclasses.dataclass(eq=False)
class StepTemplate:
    """One step shape of a run, built once, and the steps that replay it.

    `records` are the builders' PhaseRecords, scheduled from cycle 0, so
    their cycles count from the step's start.  Record r's events are the
    indices `spans[r]`: event e moves `words[e]` words on `links[e]`, a
    link of the plan (`mapper.LinkPlan`).  Steps `first`, `first + 1`,
    ... (None: the configuration timeline) start at the cycles `starts`;
    `toggles` holds their events' toggles, int64 (steps x events), or None
    when unmeasured (priced at alpha_toggle).
    """
    records: list
    first: int
    starts: list
    toggles: np.ndarray = None

    def __post_init__(self):
        self.spans, self.links, self.words = [], [], []
        for rec in self.records:
            self.spans.append(range(len(self.links),
                                    len(self.links) + len(rec.events)))
            self.links += [ev.link for ev in rec.events]
            self.words += [ev.words for ev in rec.events]

    def steps(self):
        """(step, start cycle, toggles of each event or None) per step."""
        rows = ([None] * len(self.starts) if self.toggles is None
                else self.toggles.tolist())
        return [(None if self.first is None else self.first + k, start, row)
                for k, (start, row) in enumerate(zip(self.starts, rows))]


@dataclasses.dataclass
class PhaseTrace:
    templates: list
    total_cycles: int
    n_steps: int
    meta: dict

    @property
    def records(self):
        """Every record of the run in order, built on demand."""
        out = []
        for tpl in self.templates:
            for step, start, toggles in tpl.steps():
                for rec, span in zip(tpl.records, tpl.spans):
                    events = [LinkEvent(tpl.links[i], tpl.words[i],
                                        None if toggles is None
                                        else toggles[i]) for i in span]
                    out.append(PhaseRecord(
                        rec.kind, rec.layer, start + rec.start,
                        start + rec.end, rec.dies, events, rec.gate, rec.hop,
                        step))
        return out

    def die_activity(self):
        """Per-die active/stall cycle split over the inference span.

        A die is active in the cycles any of its records spans, so records
        that overlap on it (a deeper grid's feature stream and recurrent
        MAC loop) count once.  The configuration timeline (step None) lies
        apart and is excluded so active + stall == total_cycles holds.
        """
        active = {}
        for tpl in self.templates:
            if tpl.first is None:  # the configuration timeline
                continue
            spans = {}
            for rec in tpl.records:
                span = (rec.start, rec.end)
                for die in rec.dies:
                    spans.setdefault(die, []).append(span)
            for die, die_spans in spans.items():
                busy = reach = 0  # the union of the spans, in start order
                for start, end in sorted(die_spans):
                    if end > reach:
                        busy, reach = busy + end - max(start, reach), end
                active[die] = active.get(die, 0) + len(tpl.starts) * busy
        return {die: {"active": act, "stall": self.total_cycles - act}
                for die, act in active.items()}

    def to_csv_rows(self):
        rows = [("step", "phase", "layer", "gate", "hop", "start", "end",
                 "link", "bits", "toggles")]
        for tpl in self.templates:
            # per row: kind, layer, gate, hop, start, end, link, bits, and
            # the event index (None: a record without events)
            static = []
            for rec, span in zip(tpl.records, tpl.spans):
                base = (rec.kind, rec.layer,
                        "" if rec.gate is None else rec.gate,
                        "" if rec.hop is None else rec.hop, rec.start, rec.end)
                static += [base + (ev.label, ev.bits, i)
                           for ev, i in zip(rec.events, span)] \
                    or [base + ("", 0, None)]
            for step, t0, toggles in tpl.steps():
                rows += [(step, kind, layer, gate, hop, t0 + s, t0 + e, label,
                          bits, "" if i is None or toggles is None
                          else toggles[i])
                         for kind, layer, gate, hop, s, e, label, bits, i
                         in static]
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


def _event(plan, key, words):
    """`words` on the plan's link of `key` (layer, name, index...)."""
    try:
        link = plan.link(key)
    except KeyError:
        raise DeadlockError("the plan has no link %s to carry %d words"
                            % (key, words)) from None
    return LinkEvent(link, words)


def _ends(event):
    return (event.src,) + event.receivers


def build_load_schedule(plan, start=0, layers=None):
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
        events = [_event(plan, (grid.layer, "load") + die[1:],
                         plan.die(die).footprint_bytes)
                  for die in _die_ids(grid)]
        groups = [[ev] for ev in events] if plan.chip_select else [events]
        for group in groups:
            beats = max(ev.words for ev in group) * (8 // LINK_BITS)
            records.append(PhaseRecord(
                "param_load", grid.layer, cursor, cursor + beats,
                tuple(ev.receivers[0] for ev in group), group))
            cursor += beats
    return records, cursor


def _schedule_gate_phases(plan, grid, cursor, x_cycles, records):
    """The four gate rounds (compute, reduction chain, activation) plus
    the element-wise phase.  Returns the element-wise end cycle."""
    n, nh, ell = grid.n, grid.nh_tile, grid.layer
    all_dies = _die_ids(grid)
    masters = _die_ids(grid, cols=[n - 1])
    for g in range(4):
        records.append(PhaseRecord("gate_compute", ell, cursor,
                                   cursor + x_cycles, all_dies, [],
                                   gate=g))
        cursor += x_cycles
        for hop in range(1, n):
            events = [_event(plan, (ell, "reduce", i, hop - 1), nh)
                      for i in range(n)]
            dies = _die_ids(grid, cols=[hop - 1, hop])
            records.append(PhaseRecord("gate_reduce", ell, cursor,
                                       cursor + 4 * nh + 4, dies, events,
                                       gate=g, hop=hop))
            cursor += 4 * nh + 4
        records.append(PhaseRecord("gate_activate", ell, cursor,
                                   cursor + C_GATE, masters, [], gate=g))
        cursor += C_GATE
    records.append(PhaseRecord("elementwise", ell, cursor,
                               cursor + C_FIXED, masters, []))
    return cursor + C_FIXED


def _schedule_distribution(plan, grid, cursor, records):
    """Hidden-state distribution: chain up the master column, then the
    masters broadcast their own tiles to their namesake columns."""
    n, nh, ell = grid.n, grid.nh_tile, grid.layer
    if n == 1:
        return cursor
    hop_cycles = 2 * nh + 2
    for k, i in enumerate(range(n - 1, 0, -1), start=1):
        ev = _event(plan, (ell, "hchain", i), nh)
        records.append(PhaseRecord(
            "hidden_chain", ell, cursor, cursor + hop_cycles, _ends(ev),
            [ev], hop=k))
        cursor += hop_cycles
    events = [_event(plan, (ell, "hcast", i), nh) for i in range(n - 1)]
    dies = sorted({die for ev in events for die in _ends(ev)})
    records.append(PhaseRecord("hidden_bcast", ell, cursor,
                               cursor + hop_cycles, tuple(dies), events))
    return cursor + hop_cycles


def _schedule_readout(plan, grid, cursor, records):
    """The projection and the write-back of y, or of the hidden tiles."""
    n, ell = grid.n, grid.layer
    masters = _die_ids(grid, cols=[n - 1])
    if grid.n_out is None:
        events = [_event(plan, (ell, "writeback", i), grid.nh_tile)
                  for i in range(n)]
        records.append(PhaseRecord("writeback", ell, cursor,
                                   cursor + 2 * grid.nh_tile, masters,
                                   events))
        return cursor + 2 * grid.nh_tile
    n_out = grid.n_out
    records.append(PhaseRecord("fc_compute", ell, cursor,
                               cursor + grid.nh_tile, masters, []))
    cursor += grid.nh_tile
    for i in range(n - 1):
        ev = _event(plan, (ell, "fcreduce", i), n_out)
        records.append(PhaseRecord(
            "fc_reduce", ell, cursor, cursor + 4 * n_out + 4, _ends(ev),
            [ev], hop=i + 1))
        cursor += 4 * n_out + 4
    ev = _event(plan, (ell, "writeback"), n_out)
    records.append(PhaseRecord("fc_activate", ell, cursor, cursor + C_GATE,
                               (ev.src,), []))
    cursor += C_GATE
    records.append(PhaseRecord("writeback", ell, cursor, cursor + 2 * n_out,
                               (ev.src,), [ev]))
    return cursor + 2 * n_out


def build_step_schedule(plan, start=0, readout=True, layers=None):
    """One inference step across the (stacked) layer grids in `layers`
    (default: all of them).

    With `readout`, a grid that reads out (`mapper.layer_io`) ends in its
    output: the projection and the write-back of y when the plan has one,
    else the write-back of its hidden tiles.

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
        n, ni = grid.n, grid.ni_tile
        # the recurrent MAC loop sweeps every physical unit of a die, even
        # when the tile maps fewer: only this capacity loop matches the
        # published timings (looping over the mapped units alone puts
        # Table 4's 56-unit row 25% fast)
        h_loop = max(grid.nh_tile, plan.tile.nh_capacity)
        all_dies = _die_ids(grid)
        if e_prev is None:  # both MAC loops run once the features are in
            feat_start, x_start, x_cycles = start, start + 2 * ni, ni + h_loop
        else:
            records.append(PhaseRecord("recurrent_compute", grid.layer,
                                       e_prev, e_prev + 4 * h_loop, all_dies,
                                       []))
            feat_start = e_prev + dist_cycles_prev
            x_start = max(e_prev + 4 * h_loop, feat_start + 2 * ni)
            x_cycles = ni
        feat_events = [_event(plan, (grid.layer, "feat", j), ni)
                       for j in range(n)]
        records.append(PhaseRecord("feature_stream", grid.layer, feat_start,
                                   feat_start + 2 * ni, all_dies,
                                   feat_events))
        e_prev = _schedule_gate_phases(plan, grid, x_start, x_cycles, records)
        cursor = _schedule_distribution(plan, grid, e_prev, records)
        dist_cycles_prev = cursor - e_prev
        _, reads_out = layer_io(plan.reload, len(plan.layer_grids), grid)
        if readout and reads_out:
            cursor = _schedule_readout(plan, grid, cursor, records)
    return records, cursor


def build_state_record(plan, grid, kind, cursor):
    """Spill (`state_store`) or restore (`state_load`) one layer's h/c tiles.

    Restoring sends each hidden tile down its column's feature stream (all
    dies in column j consume recurrent slice j), then each cell tile to its
    master over the parameter stream; spilling runs master write-outs, h
    tile then c tile per master.
    """
    n, nh, ell = grid.n, grid.nh_tile, grid.layer
    if kind == "state_load":
        events = [_event(plan, (ell, "feat", j), nh) for j in range(n)]
        events += [_event(plan, (ell, "load", i, n - 1), nh)
                   for i in range(n)]
        dies = _die_ids(grid)
    else:
        events = [_event(plan, (ell, "spill", i), nh)
                  for i in range(n) for _ in "hc"]
        dies = _die_ids(grid, cols=[n - 1])
    return PhaseRecord(kind, ell, cursor, cursor + 4 * nh, dies, events)


def _step_records(plan, spills, first_restores):
    """One step of a run from cycle 0: (records, end cycle).  A run that
    spills runs one pass per layer: parameter re-load, state restore (on
    the first pass only if `first_restores`), one step of that layer
    alone, state spill."""
    if not spills:
        return build_step_schedule(plan)
    records, cursor = [], 0
    for grid in plan.layer_grids:
        loads, cursor = build_load_schedule(plan, cursor, [grid.layer])
        records += loads
        if first_restores or grid.layer:
            records.append(build_state_record(plan, grid, "state_load",
                                              cursor))
            cursor = records[-1].end
        recs, cursor = build_step_schedule(plan, cursor, layers=[grid.layer])
        records += recs
        records.append(build_state_record(plan, grid, "state_store", cursor))
        cursor = records[-1].end
    return records, cursor


def run_templates(plan, n_steps):
    """The schedule of an `n_steps` run, built before any value exists:
    (StepTemplates in run order, end cycle).

    Resident parameters (stacked, chip-select, one-layer reload) load once
    on a timeline of their own (step None), and every step replays one
    template.  A run that spills (`mapper.layer_io`: a multi-layer reload
    plan) runs one pass per (step, layer), step-major, so it has two step
    shapes: step 0, whose first pass restores no state, and every later
    step.
    """
    spills, _ = layer_io(plan.reload, len(plan.layer_grids),
                         plan.layer_grids[0])
    templates, cursor = [], 0
    if not spills:
        templates.append(StepTemplate(build_load_schedule(plan)[0], None,
                                      [0]))
    shapes = [(0, min(n_steps, 1)), (1, n_steps - 1)] if spills \
        else [(0, n_steps)]
    for first, count in shapes:
        if count > 0:
            records, length = _step_records(plan, spills, first > 0)
            templates.append(StepTemplate(records, first, [
                cursor + k * length for k in range(count)]))
            cursor += count * length
    return templates, cursor


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
    Integer words of any width are narrowed as they are (the low bytes of
    their two's-complement codes); other words go through int64 first.
    """
    if word_bits not in _NARROW:
        raise ValueError("words must be 8 or 16 bits wide, not %d"
                         % (word_bits,))
    words = np.asarray(words)
    if words.dtype.kind not in "iu":
        words = words.astype(np.int64)
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

def reduce_hop(partials, hop):
    """Row `hop` of `partials` folds the partials arriving from row
    `hop - 1` into its own with saturating adds, in place; returns the
    arriving partials.  Rows are die columns of a gate reduction (every
    gate and row tile at once) or the master rows of the projection
    reduction (every step at once)."""
    incoming = partials[hop - 1]
    partials[hop] = sat_add16(incoming, partials[hop])
    return incoming


@dataclasses.dataclass
class _History:
    """One layer grid's values over a run.  `x` holds each step's input
    codes (T, ni_padded); `incoming` the partials each gate reduction hop
    receives (T, gate, hop - 1, nh_padded); and `hc` row t the (h, c)
    codes that enter step t (T + 1, 2, nh_padded), row 0 the zero state.
    Padded rows stay zero, as their parameters are zero."""
    x: np.ndarray
    incoming: np.ndarray
    hc: np.ndarray


def _history(grid, stack, consts, x):
    """A layer grid's `_History` over the step inputs `x` (T x ni_padded
    codes), from zero state, on its resident layout (`stack`, `consts`).
    Each step runs only the recurrence: the recurrent halves' partial
    MACs (after the head sums of `BlockStack.heads`), the column fold and
    the cell update.  The steps read the stack's float32 `stepping`
    twin, made here and dropped on return."""
    n, nhp = grid.n, grid.nh_padded
    incoming = np.empty((len(x), 4, n - 1, nhp), np.int16)
    hc = np.zeros((len(x) + 1, 2, nhp), np.int8)
    stack = stack.stepping()
    for t, head in enumerate(stack.heads(x)):
        h, c = hc[t]
        # the four gates read the same h: every die's partial MACs of the
        # step in one kernel call, after their input halves' head sums
        partials, _ = mac_run(stack.halves[1], stack.operand(h, first=1),
                              sq_norms=stack.w_sq, head=head,
                              sq_max=stack.sq_max)
        # the fold of all four gates at once, on the (die column, gate,
        # row) view, keeping what each hop receives
        cols = partials.swapaxes(0, 1)
        for hop in range(1, n):
            incoming[t, :, hop - 1] = reduce_hop(cols, hop)
        # every master's peepholes, biases, activations and state update
        # over the reduced partials in the last die column
        hc[t + 1, 0], hc[t + 1, 1] = lstm_ref.cell_tail(cols[n - 1], c,
                                                        consts)
        del partials, cols  # not held through the next step's MAC call
    return _History(x, incoming, hc)


class GridSim:
    """A plan's die array configured with a network's parameters.

    Construction keeps only what stays resident on the dies, one byte
    per parameter code as their SRAM holds it: each layer's
    `prepare_layer` layout at its tiles (int8 stacks), the projection
    (master i of the last grid holds W_y's columns of hidden tile i as
    block i of a stack) and every die's parameter burst with its toggles.
    `run` computes over real feature codes from zero state, so every run
    of one GridSim is alike.  It runs layer-major: layer by layer, the
    step loop runs only the recurrence on the layer's float32 `stepping`
    twin, held only while that layer steps, and keeps the layer's
    histories; the projection runs once over every step; then each
    template record's words, over all of the template's steps at once,
    are slices of those histories.
    """

    def __init__(self, plan, params, luts=None, dropped_links=()):
        # (layer shapes, projection width) of the parameters and the plan
        got = ([(p.n_inputs, p.n_hidden) for p in params.layers],
               params.fc.n_out if params.fc is not None else None)
        want = ([tuple(layer) for layer in plan.spec.layers], plan.spec.n_out)
        if got != want:
            raise ValueError("parameters %s do not fit the plan's %s"
                             % (got, want))
        lstm_ref.check_codes(params)
        self.plan = plan
        self.luts = luts or lstm_ref.default_luts(
            lstm_ref.derive_spec(params).formats)
        self.layers = [lstm_ref.prepare_layer(p, self.luts, g.n)
                       for g, p in zip(plan.layer_grids, params.layers)]
        self.fc = params.fc
        if self.fc is not None:
            self.fc_stack = lstm_ref.fc_stack(self.fc, plan.layer_grids[-1].n)
        self.dropped = links_labelled(plan, dropped_links)
        # load link -> (word count, toggles) of its die's parameter burst:
        # the same words from idle on every load
        self.bursts = {}
        for link in plan.links:
            if link.key[1] == "load":
                words = self._param_words(plan.die(link.receivers[0]))
                self.bursts[link] = (words.size,
                                     count_toggles(words, link.word_bits))

    # -- link layer --

    def _check_transfer(self, link):
        if link in self.dropped:
            raise DeadlockError(
                "transfer on %s (%s -> %s) found no ready sink: link dropped"
                % (link.label, link.src, link.receivers))

    # -- values --

    def _param_words(self, die):
        """A die's parameter burst, cut from the resident stacks: its four
        gates' input-slice codes, then their recurrent-slice codes, then a
        master's peephole, bias and projection rows."""
        grid, (stack, consts) = (self.plan.layer_grids[die.layer],
                                 self.layers[die.layer])
        nh, ni = grid.nh_tile, grid.ni_tile
        rows = slice(die.row * nh, (die.row + 1) * nh)
        block = stack.w[:, die.col, rows]
        chunks = [block[..., :ni], block[..., ni:]]
        if die.role == "master":
            chunks += [consts.peep[:, rows], consts.bias[:, rows]]
            if die.fc_cols is not None:
                chunks.append(self.fc_stack.w[0, die.row])
                if die.fc_root:
                    chunks.append(self.fc.b_y)
        # the stacks hold int8 codes and the constants int64 ones: an
        # integer cast to the burst's bytes, which refuses a float chunk
        return np.concatenate([c.ravel() for c in chunks], dtype=np.int8,
                              casting="same_kind")

    def _histories(self, features):
        """Every layer's `_History`, layer by layer: layer k + 1 reads
        layer k's hidden codes of the same step as its inputs."""
        hist, feed = [], features
        for grid, layer in zip(self.plan.layer_grids, self.layers):
            x = np.zeros((len(features), grid.ni_padded), np.int8)
            x[:, :feed.shape[1]] = feed
            hist.append(_history(grid, *layer, x))
            feed = hist[-1].hc[1:, 0, :grid.n_hidden]
        return hist

    def _project(self, h):
        """The projection of every step's hidden codes `h` (T x nh_padded)
        at once: every master's partials in one kernel call, then the
        fold up the master column.  Returns (the partials each hop
        receives, T x (n - 1) x n_out; y, T x n_out)."""
        partials, _ = mac_run(self.fc_stack.w[0], self.fc_stack.operand(h),
                              sq_norms=self.fc_stack.w_sq[0],
                              sq_max=self.fc_stack.sq_max)
        rows = partials.swapaxes(0, 1)  # (master row, step, output)
        n = len(rows)
        incoming = np.empty((len(h), n - 1, self.fc.n_out), np.int16)
        for hop in range(1, n):
            incoming[:, hop - 1] = reduce_hop(rows, hop)
        return incoming, lstm_ref.fc_tail(rows[n - 1], self.fc.b_y,
                                          self.fc.formats, self.luts)

    def _words(self, rec, ts, hist, proj):
        """The words a record's events carry in the steps `ts` (a slice),
        cut from the run's histories: (steps, events, word count)."""
        lay, grid = hist[rec.layer], self.plan.layer_grids[rec.layer]
        n, nh, kind = grid.n, grid.nh_tile, rec.kind
        steps = ts.stop - ts.start
        after = slice(ts.start + 1, ts.stop + 1)  # the states steps leave
        if kind == "feature_stream":
            return lay.x[ts].reshape(steps, n, -1)
        if kind == "gate_reduce":
            return lay.incoming[ts, rec.gate, rec.hop - 1].reshape(steps, n,
                                                                   nh)
        if kind == "state_load":  # what the step before left: h, c tiles
            return lay.hc[ts].reshape(steps, 2 * n, nh)
        if kind == "state_store":  # master i spills its h, then its c tile
            return lay.hc[after].reshape(steps, 2, n, nh).swapaxes(1, 2) \
                .reshape(steps, 2 * n, nh)
        if kind == "fc_reduce":
            return proj[0][ts, rec.hop - 1, None]
        if kind == "writeback" and proj is not None:
            return proj[1][ts, None]
        tiles = lay.hc[after, 0].reshape(steps, n, nh)
        if kind == "hidden_chain":  # tile n-1 travels up the master column
            return tiles[:, n - 1:]
        if kind == "hidden_bcast":
            return tiles[:, :n - 1]
        if kind == "writeback":
            return tiles
        raise AssertionError("unhandled phase kind %r" % (kind,))

    def _fill(self, tpl, hist, proj):
        """Count a template's toggles over its steps: each parameter
        burst's from `bursts`, every other transfer's words cut from the
        histories, concatenated per (word width, word count) group and
        counted with one 2-D `count_toggles` call per group."""
        n, links = len(tpl.starts), tpl.links
        tpl.toggles = np.zeros((n, len(links)), np.int64)
        groups = {}  # (word width, word count) -> (event indices, words)
        for rec, span in zip(tpl.records, tpl.spans):
            if not span:  # no transfer: timing only
                continue
            if rec.kind == "param_load":
                for e in span:
                    size, toggles = self.bursts[links[e]]
                    if size != tpl.words[e]:
                        raise AssertionError(
                            "planned %d words on %s, moved %d"
                            % (tpl.words[e], links[e].label, size))
                    tpl.toggles[:, e] = toggles
                continue
            keys = {(links[e].word_bits, tpl.words[e]) for e in span}
            if len(keys) != 1:
                raise AssertionError("a %s record mixes word shapes %s"
                                     % (rec.kind, sorted(keys)))
            (key,) = keys
            ts = slice(tpl.first, tpl.first + n)
            words = self._words(rec, ts, hist, proj)
            if words.shape != (n, len(span), key[1]):
                raise AssertionError(
                    "planned %s words on a %s record, moved %s"
                    % ((n, len(span), key[1]), rec.kind, words.shape))
            events, parts = groups.setdefault(key, ([], []))
            events += span
            parts.append(words)
        # partial sums are clamped to int16, every other word is an int8
        # code: each fits its link's word width
        for (word_bits, width), (events, parts) in groups.items():
            tpl.toggles[:, events] = count_toggles(
                np.concatenate(parts, axis=1).reshape(-1, width),
                word_bits).reshape(n, -1)

    def run(self, features):
        """The plan's run over `features` (T x n_features int8 codes) from
        zero state; returns (T x output width codes, PhaseTrace).

        Every template event meets its link checks before any value is
        computed; then the layers run one after another over all steps,
        the projection runs once, and the templates' words are cut from
        the histories.
        """
        features = np.asarray(features)
        n_features = self.plan.spec.n_features
        if features.ndim != 2 or features.shape[1] != n_features:
            raise ValueError("features must be T x %d, not %s"
                             % (n_features, features.shape))
        check_int8(features, "feature")
        templates, end = run_templates(self.plan, len(features))
        for tpl in templates:
            for link in tpl.links:
                self._check_transfer(link)
        hist = self._histories(features)
        h_last = hist[-1].hc[1:, 0]
        proj = self._project(h_last) if self.fc is not None else None
        for tpl in templates:
            self._fill(tpl, hist, proj)
        width = self.plan.spec.output_width
        outputs = proj[1] if proj is not None else h_last[:, :width]
        return outputs.astype(np.int64), PhaseTrace(
            templates, end, len(features),
            meta={"n_dies": self.plan.total_dies, "reload": self.plan.reload})


def simulate(plan, params, features, luts=None, dropped_links=()):
    """Plan + params + features -> (outputs, PhaseTrace), in the load mode
    the plan was built for."""
    sim = GridSim(plan, params, luts, dropped_links)
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
