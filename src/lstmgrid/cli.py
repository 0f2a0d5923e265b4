"""Command-line front end.

Subcommands: `plan` (placement summary + serialized plan), `run` (full
simulation with oracle cross-check, trace, and energy report), `table4`
(model vs published extrapolation table), `sweep` (frequency / grid /
LUT-precision sweeps), `lut-dump` (activation table contents).

Configs are YAML with an explicit schema_version.  Every output is
deterministic — identical config and seed produce byte-identical files.

Exit codes: 0 success; 1 usage or config error; 2 constraint violation
(a die over its SRAM or unit budget); 3 correctness failure (simulated
output diverged from the oracle, or a dropped link deadlocked the run).
"""

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np
import yaml

from . import actlut, lstm_ref, mapper, perf_energy, systolic_sim
from .mapper import CapacityError, TileSpec
from .perf_energy import EnergyConstants, OperatingPoint
from .qformat import QFormat
from .systolic_sim import DeadlockError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONSTRAINT = 2
EXIT_CORRECTNESS = 3

SCHEMA_VERSION = 1
_SECTIONS = ("schema_version", "network", "features", "tile", "mode",
             "operating_point", "energy", "faults", "sweep")


class ConfigError(Exception):
    """Bad command line or config document (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are 1
        raise ConfigError(message)


@dataclasses.dataclass
class RunConfig:
    """Everything a run needs, merged from the YAML document and flags."""
    params: object  # NetworkParams
    features: object  # T x n_features int codes
    spec: object  # NetworkSpec
    tile: TileSpec
    mode: str  # 'stacked' | 'reload' | 'chip-select'
    op: OperatingPoint
    consts: EnergyConstants
    dropped_links: tuple
    sweep: dict

    @property
    def reload(self):
        return self.mode == "reload"

    @property
    def chip_select(self):
        return self.mode == "chip-select"


def _require(cond, message):
    if not cond:
        raise ConfigError(message)


def _frequency(value, what="the clock frequency"):
    """`value` in Hz if it is positive and finite, else a config error."""
    _require(math.isfinite(value) and value > 0,
             "%s must be positive and finite, not %r" % (what, value))
    return value


def _number(value, what):
    """`value` as a float if it is a number (a bool is not; YAML floats
    like 1.0e7, with no exponent sign, arrive as strings), else a config
    error."""
    try:
        if not isinstance(value, bool):
            return float(value)
    except (TypeError, ValueError):
        pass
    raise ConfigError("%s must be a number, not %r" % (what, value))


MAX_SCALE = 128.0  # 2**7: no 8-bit Q-format code stands for more


def _scale(value, what):
    """`value` as a float if it is a number from 0 to `MAX_SCALE`, else a
    config error: a wider uniform draw only adds saturated codes, and a
    non-finite one cannot be drawn."""
    scale = _number(value, what)
    _require(0.0 <= scale <= MAX_SCALE, "%s must be from 0 to %g, not %r"
             % (what, MAX_SCALE, value))
    return scale


def _whole(value, what):
    """`value` if it is an integer (a bool is not), else a config error."""
    _require(isinstance(value, int) and not isinstance(value, bool),
             "%s must be an integer, not %r" % (what, value))
    return value


def load_config_doc(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError("cannot read config: %s" % exc)
    except yaml.YAMLError as exc:
        raise ConfigError("config is not valid YAML: %s" % exc)
    _require(isinstance(doc, dict), "config must be a mapping")
    version = doc.get("schema_version")
    _require(type(version) is int and version == SCHEMA_VERSION,
             "config schema_version must be %d" % SCHEMA_VERSION)
    return doc


def _section(doc, name, keys):
    """Section `name` of the config ({} when absent; None: the config
    itself), a mapping of only `keys`, where a `container` stands alone.
    A key that nothing reads is a config error."""
    section = (doc if name is None else doc.get(name)) or {}
    what = "%s settings" % (name or "config").replace("_", " ")
    _require(isinstance(section, dict), "bad %s: not a mapping" % what)
    if "container" in section and "container" in keys:
        keys = ("container",)
    unread = sorted(set(map(str, section)) - set(keys))
    _require(not unread, "bad %s: %s is never read" % (what, ", ".join(
        k if name is None else "%s.%s" % (name, k) for k in unread)))
    return section


def _build_dataclass(cls, doc, what):
    try:
        return cls(**(doc or {}))
    except (TypeError, ValueError) as exc:
        raise ConfigError("bad %s settings: %s" % (what, exc))


def build_run_config(args):
    doc = load_config_doc(args.config)
    _section(doc, None, _SECTIONS)
    tile = _build_dataclass(TileSpec, doc.get("tile"), "tile")
    consts = _build_dataclass(EnergyConstants, doc.get("energy"), "energy")

    frequency = _number(_section(doc, "operating_point", (
        "frequency_hz",)).get("frequency_hz", OperatingPoint.frequency),
        "operating_point.frequency_hz")
    if getattr(args, "freq", None) is not None:
        frequency = args.freq
    op = OperatingPoint(_frequency(frequency))

    mode = doc.get("mode", "stacked")
    _require(mode in ("stacked", "reload", "chip-select", "chip_select"),
             "mode must be stacked, reload, or chip_select")
    mode = mode.replace("_", "-")
    if getattr(args, "reload", False):
        mode = "reload"
    if getattr(args, "chip_select", False):
        mode = "chip-select"

    net = _section(doc, "network",
                   ("container", "layers", "n_out", "seed", "scale"))
    seed = getattr(args, "seed", None)
    if "container" in net:
        try:
            spec, params = lstm_ref.load_network(net["container"])
        except (OSError, ValueError, KeyError) as exc:
            raise ConfigError("cannot load network container: %s" % exc)
    else:
        layers = net.get("layers")
        _require(layers, "config needs network.layers or network.container")
        try:
            sizes = [tuple(_whole(v, "a network.layers width") for v in pair)
                     for pair in layers]
            n_out = net.get("n_out")
            if n_out is not None:
                _whole(n_out, "network.n_out")
            params = lstm_ref.random_network_params(
                seed if seed is not None
                else _whole(net.get("seed", 0), "network.seed"), sizes,
                n_out=n_out, scale=_scale(net.get("scale", 0.5),
                                          "network.scale"))
        except (TypeError, ValueError) as exc:
            raise ConfigError("bad network settings: %s" % exc)
        spec = lstm_ref.derive_spec(params)

    feat = _section(doc, "features", ("container", "n_steps", "seed", "scale"))
    if "container" in feat:
        try:
            features = lstm_ref.load_features(feat["container"],
                                              spec.formats)
        except (OSError, ValueError, KeyError) as exc:
            raise ConfigError("cannot load feature container: %s" % exc)
    else:
        try:
            n_steps = _whole(feat.get("n_steps", 1), "features.n_steps")
            _require(n_steps >= 0, "features.n_steps must not be negative")
            features = lstm_ref.random_features(
                seed + 1 if seed is not None
                else _whole(feat.get("seed", 1), "features.seed"),
                n_steps=n_steps, n_features=spec.n_features,
                formats=spec.formats,
                scale=_scale(feat.get("scale", 1.0), "features.scale"))
        except (TypeError, ValueError) as exc:
            raise ConfigError("bad features settings: %s" % exc)
    _require(features.shape[1] == spec.n_features,
             "features are %d wide, network expects %d"
             % (features.shape[1], spec.n_features))

    drops = _section(doc, "faults", ("drop_links",)).get("drop_links") or []
    _require(isinstance(drops, list)
             and all(isinstance(label, str) for label in drops),
             "faults.drop_links must be a list of link labels")
    return RunConfig(params, features, spec, tile, mode, op, consts,
                     tuple(drops), _section(doc, "sweep", ("axis", "values")))


def plan_run(cfg):
    """The grid plan of a run; a `faults.drop_links` label of a link the
    plan lacks is a config error."""
    plan = mapper.plan_grid(cfg.spec, cfg.tile, reload=cfg.reload,
                            chip_select=cfg.chip_select)
    try:
        mapper.links_labelled(plan, cfg.dropped_links)
    except ValueError as exc:
        raise ConfigError("faults.drop_links: %s" % exc)
    return plan


def _out_path(args, name):
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return os.path.join(out, name)


def _write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _csv(rows):
    return "\n".join(",".join(str(v) for v in row) for row in rows) + "\n"


def _plan_blocks(plan):
    counts = [grid.n for grid in plan.layer_grids]  # die columns per layer
    return counts, counts[-1]


# --- subcommands -----------------------------------------------------------------

def cmd_plan(args):
    cfg = build_run_config(args)
    plan = plan_run(cfg)
    budget = mapper.pin_budget(plan, time_multiplexed=args.time_multiplexed)
    lines = ["mode: %s" % cfg.mode]
    for grid in plan.layer_grids:
        lines.append(
            "layer %d: %dx%d, %d dies, tile %d units x %d inputs"
            % (grid.layer, grid.n, grid.n, grid.n * grid.n, grid.nh_tile,
               grid.ni_tile))
    lines.append("total dies: %d" % plan.total_dies)
    worst = max(plan.dies, key=lambda d: d.footprint_bytes)
    lines.append("largest footprint: %d / %d bytes (die %s)"
                 % (worst.footprint_bytes, cfg.tile.sram_bytes,
                    "L%d.%d.%d" % worst.die_id))
    lines.append("pins: %d" % budget.total_min)
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.out:
        _write_text(_out_path(args, "plan.json"),
                    json.dumps(mapper.plan_to_dict(plan), indent=1,
                               sort_keys=True) + "\n")
        _write_text(_out_path(args, "plan.txt"), text)
    return EXIT_OK


def _report_text(rep, n_steps):
    steps = max(n_steps, 1)
    lines = [
        "dies: %d" % rep.n_dies,
        "steps: %d" % n_steps,
        "cycles total: %d" % rep.cycles,
        "time per inference [us]: %.4f" % (rep.time_us / steps),
        "core power [mW]: %.4f" % rep.core_power_mw,
        "io power [mW]: %.4f" % (rep.io_power_w * 1e3),
        "total power [mW]: %.4f" % ((rep.core_power_w + rep.io_power_w)
                                    * 1e3),
        "core energy per inference [uJ]: %.4f" % (rep.core_energy_uj
                                                  / steps),
        "io energy per inference [uJ]: %.4f" % (rep.io_energy_uj / steps),
        "total energy per inference [uJ]: %.4f" % (rep.total_energy_uj
                                                   / steps),
        "io fraction [%%]: %.2f" % rep.io_fraction_pct,
    ]
    return "\n".join(lines) + "\n"


def cmd_run(args):
    cfg = build_run_config(args)
    plan = plan_run(cfg)
    outputs, trace = systolic_sim.simulate(plan, cfg.params, cfg.features,
                                           dropped_links=cfg.dropped_links)

    blocks, fc_blocks = _plan_blocks(plan)
    oracle = lstm_ref.network_infer(
        cfg.spec, cfg.params, cfg.features, col_blocks_per_layer=blocks,
        fc_col_blocks=fc_blocks if cfg.params.fc is not None else None)
    exact = bool(np.array_equal(outputs, oracle))

    rep = perf_energy.report(trace, cfg.op, cfg.consts)
    n_steps = cfg.features.shape[0]

    header = ["step"] + ["y%d" % k for k in range(outputs.shape[1])]
    rows = [header] + [[t] + list(map(int, outputs[t]))
                       for t in range(n_steps)]
    _write_text(_out_path(args, "outputs.csv"), _csv(rows))
    if args.format == "csv":
        _write_text(_out_path(args, "trace.csv"),
                    _csv(trace.to_csv_rows()))
    else:
        _write_text(_out_path(args, "trace.txt"), trace.to_text())
    report_text = _report_text(rep, n_steps)
    _write_text(_out_path(args, "report.txt"), report_text)

    sys.stdout.write(report_text)
    sys.stdout.write("BIT-EXACT: %s\n" % ("yes" if exact else "no"))
    return EXIT_OK if exact else EXIT_CORRECTNESS


def cmd_table4(args):
    op = OperatingPoint(frequency=10e6 if args.freq is None
                        else _frequency(args.freq))
    rows = perf_energy.table_rows(op=op)
    header = ["layers", "n_hidden", "grid", "dies",
              "time_us", "ref_time_us", "time_delta_pct",
              "p_cores_mw", "ref_p_cores_mw", "p_delta_pct",
              "e_total_uj", "ref_e_total_uj",
              "io_pct", "ref_io_pct"]
    table = [header]
    for r in rows:
        table.append([
            r["layers"], r["n_hidden"], r["grid"], r["dies"],
            "%.1f" % r["time_us"], "%.1f" % r["ref_time_us"],
            "%+.2f" % (100 * (r["time_us"] / r["ref_time_us"] - 1)),
            "%.2f" % r["p_cores_mw"], "%.1f" % r["ref_p_cores_mw"],
            "%+.2f" % (100 * (r["p_cores_mw"] / r["ref_p_cores_mw"] - 1)),
            "%.2f" % r["e_total_uj"], "%.1f" % r["ref_e_total_uj"],
            "%.1f" % r["io_pct"], "%.1f" % r["ref_io_pct"]])
    if args.format == "csv":
        text = _csv(table)
    else:
        widths = [max(len(str(row[i])) for row in table)
                  for i in range(len(header))]
        text = "\n".join(
            "  ".join(str(v).rjust(w) for v, w in zip(row, widths))
            for row in table) + "\n"
    sys.stdout.write(text)
    if args.out:
        _write_text(_out_path(args, "table4.%s" % args.format), text)
    return EXIT_OK


def _sweep_rows(cfg):
    axis = cfg.sweep.get("axis")
    _require(axis in ("frequency", "grid", "frac_bits"),
             "sweep.axis must be frequency, grid, or frac_bits")
    values = cfg.sweep.get("values") or []
    _require(isinstance(values, list), "sweep.values must be a list")
    values = sorted(_number(v, "a sweep frequency") if axis == "frequency"
                    else _whole(v, "a sweep %s value" % axis)
                    for v in values)
    if axis == "frequency":
        rows = [["frequency_hz", "gops", "link_bw_mb_s",
                 "time_per_inference_us"]]
        for f in values:
            op = OperatingPoint(frequency=_frequency(f, "a sweep frequency"))
            rep = perf_energy.extrapolate(cfg.spec, cfg.tile, op, cfg.consts)
            rows.append(["%g" % f,
                         "%.2f" % perf_energy.peak_performance(
                             cfg.tile.nh_capacity, op),
                         "%.2f" % (perf_energy.link_bandwidth(op) / 1e6),
                         "%.4f" % rep.time_us])
        return rows
    if axis == "grid":
        rows = [["n", "n_hidden", "dies", "time_per_inference_us",
                 "e_total_uj", "io_pct"]]
        for n in values:
            _require(n >= 1, "sweep grid sizes must be positive, not %d" % n)
            width = n * cfg.tile.nh_capacity
            spec = lstm_ref.NetworkSpec([(width, width)], None)
            rep = perf_energy.extrapolate(spec, cfg.tile, cfg.op, cfg.consts)
            rows.append([n, width, rep.n_dies, "%.4f" % rep.time_us,
                         "%.4f" % rep.total_energy_uj,
                         "%.2f" % rep.io_fraction_pct])
        return rows
    rows = [["frac_bits", "tanh_mse", "tanh_max_se", "sigmoid_mse",
             "sigmoid_max_se"]]
    grid = np.linspace(-4.0, 4.0, 4096, endpoint=False)
    for fb in values:
        in_fmt = QFormat(fb)
        row = [fb]
        for kind in ("tanh", "sigmoid"):
            lut = actlut.build_lut(kind, in_fmt, QFormat(7))
            stats = actlut.lut_error_stats(lut, grid)
            row += ["%.3e" % stats["mse"], "%.3e" % stats["max_se"]]
        rows.append(row)
    return rows


def cmd_sweep(args):
    cfg = build_run_config(args)
    if cfg.dropped_links:
        plan_run(cfg)  # the sweep runs no grid, but refuses bad labels
    try:
        rows = _sweep_rows(cfg)
    except CapacityError as exc:
        raise CapacityError("sweep point failed: %s" % exc)
    except ValueError as exc:  # e.g. an out-of-range frac_bits value
        raise ConfigError("sweep point failed: %s" % exc)
    text = _csv(rows)
    sys.stdout.write(text)
    if args.out:
        _write_text(_out_path(args, "sweep.csv"), text)
    return EXIT_OK


def cmd_lut_dump(args):
    for kind in ("tanh", "sigmoid"):
        lut = actlut.build_lut(kind, QFormat(5), QFormat(7))
        path = _out_path(args, "%s.%s" % (kind, args.format))
        actlut.dump_lut(lut, path, fmt=args.format)
        sys.stdout.write("wrote %s\n" % path)
    return EXIT_OK


# --- argument plumbing -------------------------------------------------------------

# the flags each subcommand reads; "modes" is the --reload / --chip-select
# pair, of which a run takes at most one
_FLAGS = {
    "--config": dict(required=True, help="YAML run configuration"),
    "--out": dict(help="output directory"),
    "--seed": dict(type=int, help="override generator seed"),
    "--freq": dict(type=float, help="clock frequency in Hz"),
    "--format": dict(choices=("csv", "txt"), default="csv"),
    "--time-multiplexed": dict(
        action="store_true",
        help="share one stream per direction at the package"),
}
_MODE_FLAGS = {
    "--reload": "single grid, parameters re-loaded per layer",
    "--chip-select": "share one parameter stream per grid",
}
_SUBCOMMANDS = [
    ("plan", cmd_plan, "place a network onto die grids",
     ("--config", "--out", "modes", "--time-multiplexed")),
    ("run", cmd_run, "simulate and cross-check a network",
     ("--config", "--out", "--seed", "modes", "--freq", "--format")),
    ("table4", cmd_table4, "model vs published extrapolations",
     ("--out", "--freq", "--format")),
    ("sweep", cmd_sweep, "frequency/grid/precision sweeps",
     ("--config", "--out", "--freq")),
    ("lut-dump", cmd_lut_dump, "write activation table contents",
     ("--out", "--format")),
]


def build_parser():
    parser = _Parser(prog="lstmgrid",
                     description="grid mapping and simulation toolchain")
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True
    for name, func, help_text, flags in _SUBCOMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        for flag in flags:
            if flag == "modes":
                modes = p.add_mutually_exclusive_group()
                for mode, mode_help in _MODE_FLAGS.items():
                    modes.add_argument(mode, action="store_true",
                                       help=mode_help)
            else:
                p.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_USAGE
    except CapacityError as exc:
        sys.stderr.write("constraint violated: %s\n" % exc)
        return EXIT_CONSTRAINT
    except DeadlockError as exc:
        sys.stderr.write("deadlock: %s\n" % exc)
        return EXIT_CORRECTNESS
    except SystemExit as exc:  # argparse --help
        return exc.code if isinstance(exc.code, int) else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
