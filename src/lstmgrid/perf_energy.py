"""Latency, power, and energy reporting for grid executions.

`report` turns a finished PhaseTrace into wall-clock time and a core/IO
energy split at a given operating point, reducing each step template over
its steps' toggle array.  `extrapolate` produces the same report
analytically for any network shape by building the steady-state step
template (no value execution) and pricing its planned traffic with a
constant toggle factor — because both paths share the exact same phase
records, the analytic and simulated cycle counts agree identically.

Core power is modelled per die and is deliberately flat: the fitted
stall-power equals the active power (clock and SRAM stay enabled while a
die waits), which is what makes total core power scale linearly with the
die count.  IO energy has three parts: pad drive energy on toggled bits,
pad receive energy on every listening die's toggled bits, and a static
per-die pad term.  Host-side pads are not part of the device, so traffic
the host drives is charged only at the receiving dies and traffic the
host receives is charged only at the driving die.
"""

import dataclasses
import sys

import numpy as np

from .mapper import HOST, TileSpec, plan_grid
from .systolic_sim import PhaseTrace, StepTemplate, build_step_schedule

_PJ = 1e-12


def _check_numbers(obj):
    """Every field of the frozen dataclass `obj` is a finite non-negative
    number: a Python int or float, kept as it is, or a NumPy integer or
    floating scalar, stored as a Python float.  ValueError otherwise,
    for a bool or a NumPy bool too."""
    for f in dataclasses.fields(obj):
        given = value = getattr(obj, f.name)
        if isinstance(value, (np.integer, np.floating)):
            value = float(value)
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not 0 <= value <= sys.float_info.max):
            raise ValueError("%s must be a finite non-negative number, "
                             "not %r" % (f.name, given))
        object.__setattr__(obj, f.name, value)


@dataclasses.dataclass(frozen=True)
class OperatingPoint:
    """Clock and supply corner.  The demonstrator point is the default."""
    frequency: float = 10e6

    def __post_init__(self):
        _check_numbers(self)


@dataclasses.dataclass(frozen=True)
class EnergyConstants:
    """Calibrated energy/power constants at the 10 MHz, 1.2 V/2.5 V point.

    e_drive/e_receive are measured pad costs per toggled bit.  Of the
    three fitted constants of the timing/power model, two are cycle counts
    (`systolic_sim.C_GATE` and `C_FIXED`); the third is the stall power
    here, equal to the active power (a fitted stall fraction of 1.0).
    p_pad_static covers pad leakage and bias per die; alpha_toggle prices
    planned traffic when no simulated toggle counts exist (random data
    toggles half the bits).
    """
    e_drive_pj_per_bit: float = 27.8
    e_receive_pj_per_bit: float = 4.7
    p_core_active_mw_per_die: float = 1.9675
    p_core_stall_mw_per_die: float = 1.9675
    p_pad_static_mw_per_die: float = 0.14
    alpha_toggle: float = 0.5

    def __post_init__(self):  # a wire flips at most once per beat
        _check_numbers(self)
        if self.alpha_toggle > 1:
            raise ValueError("alpha_toggle must be at most 1, not %r"
                             % (self.alpha_toggle,))


@dataclasses.dataclass
class EnergyReport:
    cycles: int
    n_steps: int
    n_dies: int
    time_s: float
    core_energy_j: float
    io_energy_j: float
    phase_cycles: dict  # phase kind -> cycles
    phase_io_j: dict  # phase kind -> link energy (excl. static pad)
    die_core_j: dict  # physical die -> core energy

    @property
    def total_energy_j(self):
        return self.core_energy_j + self.io_energy_j

    @property
    def io_fraction_pct(self):
        total = self.total_energy_j
        return 100.0 * self.io_energy_j / total if total else 0.0

    @property
    def core_power_w(self):
        return self.core_energy_j / self.time_s if self.time_s else 0.0

    @property
    def io_power_w(self):
        return self.io_energy_j / self.time_s if self.time_s else 0.0

    # display helpers (reports print µs/µJ/mW)
    @property
    def time_us(self):
        return self.time_s * 1e6

    @property
    def core_energy_uj(self):
        return self.core_energy_j * 1e6

    @property
    def io_energy_uj(self):
        return self.io_energy_j * 1e6

    @property
    def total_energy_uj(self):
        return self.total_energy_j * 1e6

    @property
    def core_power_mw(self):
        return self.core_power_w * 1e3


def _record_io_energy_j(tpl, consts):
    """Link energy of every record of a template's steps (steps x records).

    Each event's energy is the per-event formula evaluated elementwise in
    its own order, and `np.add.at` adds each record's events to 0.0 one
    at a time, in event order, so every entry equals pricing the record
    event by event."""
    links, toggles = tpl.links, tpl.toggles
    if toggles is None:  # unmeasured: the planned bits at alpha_toggle
        toggles = np.broadcast_to(consts.alpha_toggle * np.array(
            [w * link.word_bits for w, link in zip(tpl.words, links)]),
            (len(tpl.starts), len(links)))
    drive = np.array([link.src != HOST for link in links])
    listeners = np.array([0 if link.receivers == (HOST,)
                          else len(link.receivers) for link in links])
    energy = (toggles * consts.e_drive_pj_per_bit * drive
              + toggles * consts.e_receive_pj_per_bit * listeners) * _PJ
    owner = np.repeat(np.arange(len(tpl.records)), list(map(len, tpl.spans)))
    per_record = np.zeros((len(tpl.starts), len(tpl.records)))
    np.add.at(per_record, (slice(None), owner), energy)
    return per_record


def _running_sum(parts):
    """0.0 plus every value in order, one add at a time: `np.sum` adds
    pairwise, which can change the last bits."""
    values = np.concatenate(parts) if parts else np.zeros(0)
    return float(np.cumsum(values)[-1]) if values.size else 0.0


def report(trace, op=OperatingPoint(), consts=EnergyConstants()):
    """Price a finished trace at an operating point.

    Per-inference figures exclude the one-time configuration stream (it
    amortizes over the deployment); parameter re-loads inside reload-mode
    steps are part of steady state and always counted.
    """
    if trace.total_cycles and not op.frequency:
        raise ValueError("cannot report a non-empty trace at 0 Hz")
    time_s = trace.total_cycles / op.frequency if trace.total_cycles else 0.0

    # records in run order: every step of a template, every record of a step
    phase_cycles, phase_parts, all_parts = {}, {}, []
    for tpl in trace.templates:
        if tpl.first is None:
            continue
        uses, columns = len(tpl.starts), {}
        for r, rec in enumerate(tpl.records):
            phase_cycles[rec.kind] = (phase_cycles.get(rec.kind, 0)
                                      + uses * rec.duration)
            columns.setdefault(rec.kind, []).append(r)
        energy = _record_io_energy_j(tpl, consts)
        all_parts.append(energy.ravel())
        for kind, recs in columns.items():
            phase_parts.setdefault(kind, []).append(energy[:, recs].ravel())
    phase_io = {kind: _running_sum(parts)
                for kind, parts in phase_parts.items()}
    io_j = _running_sum(all_parts)
    io_j += consts.p_pad_static_mw_per_die * 1e-3 * trace.meta["n_dies"] \
        * time_s

    # reload mode time-shares physical dies across layer passes
    collapse = trace.meta.get("reload", False)
    die_core = {}
    active = {}
    for die, split in trace.die_activity().items():
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


def extrapolate(spec, tile=TileSpec(), op=OperatingPoint(),
                consts=EnergyConstants()):
    """Analytic steady-state report for one inference step.

    Matches the published extrapolation window: the configuration phase,
    the output projection, and the result write-out are excluded; planned
    traffic is priced with the constant toggle factor.
    """
    plan = plan_grid(spec, tile)
    records, end = build_step_schedule(plan, readout=False)
    trace = PhaseTrace([StepTemplate(records, 0, [0])], end, 1,
                       meta={"n_dies": plan.total_dies})
    return report(trace, op, consts)


def peak_performance(n_units, op):
    """GOP/s with every unit doing one MAC (2 ops) per cycle."""
    if n_units <= 0:
        raise ValueError("unit count must be positive")
    return 2.0 * n_units * op.frequency / 1e9


def link_bandwidth(op):
    """Bytes per second over one 4-bit handshaked link."""
    return op.frequency / 2.0


# --- published extrapolation table ---------------------------------------------------

@dataclasses.dataclass(frozen=True)
class ReferenceRow:
    n_layers: int
    n_hidden: int
    grid: str
    n_dies: int
    time_us: float
    p_cores_mw: float
    e_cores_uj: float
    e_io_uj: float
    e_total_uj: float
    io_pct: float


REFERENCE_ROWS = [
    ReferenceRow(1, 96, "1x1", 1, 101.2, 2.0, 0.2, 0.0, 0.2, 5.9),
    ReferenceRow(1, 56, "1x1", 1, 81.2, 2.0, 0.2, 0.0, 0.2, 6.1),
    ReferenceRow(1, 192, "2x2", 4, 295.2, 7.9, 2.3, 0.3, 2.6, 12.1),
    ReferenceRow(1, 288, "3x3", 9, 469.8, 17.7, 8.3, 1.0, 9.3, 10.4),
    ReferenceRow(1, 384, "4x4", 16, 644.4, 31.5, 20.3, 2.1, 22.3, 9.2),
    ReferenceRow(1, 480, "5x5", 25, 819.0, 49.2, 40.3, 3.7, 43.9, 8.3),
    ReferenceRow(2, 96, "1x1", 2, 182.8, 3.9, 0.7, 0.1, 0.8, 7.3),
    ReferenceRow(2, 192, "2x2", 8, 532.0, 15.7, 8.4, 0.8, 9.2, 8.6),
    ReferenceRow(3, 384, "4x4", 48, 1933.2, 94.4, 182.6, 11.2, 193.8, 5.8),
    ReferenceRow(3, 480, "5x5", 75, 2457.0, 147.6, 362.6, 21.0, 383.5, 5.5),
]


def reference_spec(row):
    """Network shape behind a table row (feature width = hidden width)."""
    from .lstm_ref import NetworkSpec
    return NetworkSpec([(row.n_hidden, row.n_hidden)] * row.n_layers, None)


def table_rows(op=OperatingPoint()):
    """Model-vs-published comparison rows (the CLI table output)."""
    rows = []
    for ref in REFERENCE_ROWS:
        rep = extrapolate(reference_spec(ref), op=op)
        rows.append({
            "layers": ref.n_layers, "n_hidden": ref.n_hidden,
            "grid": ref.grid, "dies": rep.n_dies,
            "time_us": rep.time_us, "ref_time_us": ref.time_us,
            "p_cores_mw": rep.core_power_mw, "ref_p_cores_mw": ref.p_cores_mw,
            "e_cores_uj": rep.core_energy_uj, "ref_e_cores_uj": ref.e_cores_uj,
            "e_io_uj": rep.io_energy_uj, "ref_e_io_uj": ref.e_io_uj,
            "e_total_uj": rep.total_energy_uj,
            "ref_e_total_uj": ref.e_total_uj,
            "io_pct": rep.io_fraction_pct, "ref_io_pct": ref.io_pct,
        })
    return rows
