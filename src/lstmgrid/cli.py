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
import collections
import dataclasses
import json
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

# Every key of a run config: section -> key -> (type, least, most,
# default), the document's own keys under None.  Types: int (no bool),
# float (finite, or a string spelling one, as PyYAML leaves 1.0e7), str
# (non-empty), list, a tuple of the strings allowed, or a one-item list
# of its items' type.  A null key takes its default.  A library type's
# section takes its fields, defaults and checks.  5e-324 is the least
# float above 0 Hz; 128 = 2**7 is the most an 8-bit code stands for.
_CLOCK = (float, 5e-324, None, OperatingPoint.frequency)
_CONFIG = {
    None: {"schema_version": (int, SCHEMA_VERSION, SCHEMA_VERSION, None),
           "mode": (("stacked", "reload", "chip-select", "chip_select"),
                    None, None, "stacked")},
    "network": {"container": (str, None, None, None),
                "layers": ([[int]], None, None, None),
                "n_out": (int, None, None, None),
                "seed": (int, None, None, 0),
                "scale": (float, 0.0, 128.0, 0.5)},
    "features": {"container": (str, None, None, None),
                 "n_steps": (int, 0, None, 1),
                 "seed": (int, None, None, 1),
                 "scale": (float, 0.0, 128.0, 1.0)},
    "tile": TileSpec,
    "operating_point": {"frequency_hz": _CLOCK},
    "energy": EnergyConstants,
    "faults": {"drop_links": ([str], None, None, ())},
    "sweep": {"axis": (("frequency", "grid", "frac_bits"), None, None, None),
              "values": (list, None, None, ())},  # by `_SWEEP_VALUES`
}
_SWEEP_VALUES = {"frequency": _CLOCK, "grid": (int, 1, None, None),
                 "frac_bits": (int, None, None, None)}


class ConfigError(Exception):
    """Bad command line or config document (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are 1
        raise ConfigError(message)


# everything a run needs, merged from the YAML document and flags; mode
# is 'stacked', 'reload' or 'chip-select'
RunConfig = collections.namedtuple("RunConfig", "params features spec tile "
                                   "mode op consts dropped_links sweep")


def _typed(value, kind):
    """`value` as a `kind` of `_CONFIG`, or None if it is not one."""
    if isinstance(kind, list):
        items = ([_typed(v, kind[0]) for v in value]
                 if type(value) is list else [None])
        return None if None in items else items
    if isinstance(kind, tuple):
        return value if value in kind else None
    if kind is float and type(value) in (int, float, str):
        try:
            value = float(value)
        except (ValueError, OverflowError):  # not a number, or past floats
            return None
        return value if abs(value) <= sys.float_info.max else None
    return value if type(value) is kind and value != "" else None


def _spell(kind, many=False):
    """A `kind` of `_CONFIG` as an error names it: one, or `many`."""
    if isinstance(kind, tuple):
        return "one of " + ", ".join(kind)
    if isinstance(kind, list):
        return ("lists of " if many else "a list of ") + _spell(kind[0], True)
    word = {int: "an integer", float: "a finite number",
            str: "a non-empty string", list: "a list"}[kind]
    return word.split(" ", 1)[1] + "s" if many else word


def _value(name, value, rule):
    """`value` read by `rule`, a `_CONFIG` entry; a config error naming
    the key `name` if it breaks the rule."""
    kind, least, most, _ = rule
    got = _typed(value, kind)
    if got is None or (least is not None and got < least) \
            or (most is not None and got > most):
        raise ConfigError("%s must be %s%s%s, not %r" % (
            name, _spell(kind), "" if least is None else " from %r" % least,
            "" if most is None else " to %r" % most, value))
    return got


def _read(doc, section):
    """Section `section` of the config `doc` (None: its own keys) read by
    `_CONFIG` with defaults: a dict, or the section's library type.  Null
    is {}; other non-mappings, keys beside a container and keys nothing
    reads are config errors."""
    rules = _CONFIG[section]
    values = doc if section is None else doc.get(section)
    values = {} if values is None else values
    what = "bad %s settings: " % (section or "config").replace("_", " ")
    if not isinstance(values, dict):
        raise ConfigError(what + "not a mapping, but %r" % (values,))
    kinds = ({f.name: f.type for f in dataclasses.fields(rules)}
             if isinstance(rules, type) else
             {key: rule[0] for key, rule in rules.items()})
    keys = set(kinds) | (set(_CONFIG) - {None} if section is None else set())
    if "container" in values and "container" in kinds:
        keys = {"container"}
    unread = sorted(set(map(str, values)) - keys)
    if unread:
        raise ConfigError(what + "%s is never read" % ", ".join(
            k if section is None else "%s.%s" % (section, k) for k in unread))
    given = {key: v for key, v in values.items() if v is not None}
    if isinstance(rules, type):  # the type checks its own fields
        for key, v in given.items():
            number = _typed(v, float) if type(v) is str else None
            if number is not None and kinds[key] is float:
                given[key] = number
        try:
            return rules(**given)
        except ValueError as exc:
            raise ConfigError(what + str(exc))
    return {key: rule[3] if key not in given else _value(
        key if section is None else "%s.%s" % (section, key), given[key], rule)
            for key, rule in rules.items()}


def load_config_doc(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError("cannot read config: %s" % exc)
    except yaml.YAMLError as exc:
        raise ConfigError("config is not valid YAML: %s" % exc)
    if not isinstance(doc, dict):
        raise ConfigError("config must be a mapping")
    _value("schema_version", doc.get("schema_version"),
           _CONFIG[None]["schema_version"])
    return doc


def build_run_config(args):
    doc = load_config_doc(args.config)
    mode = _read(doc, None)["mode"].replace("_", "-")
    mode = ("reload" if getattr(args, "reload", False) else "chip-select"
            if getattr(args, "chip_select", False) else mode)
    frequency = _read(doc, "operating_point")["frequency_hz"]
    if getattr(args, "freq", None) is not None:
        frequency = _value("the --freq clock frequency", args.freq, _CLOCK)

    net, seed = _read(doc, "network"), getattr(args, "seed", None)
    if net["container"] is not None:
        try:
            spec, params = lstm_ref.load_network(net["container"])
        except (OSError, ValueError, KeyError) as exc:
            raise ConfigError("cannot load network container: %s" % exc)
    elif not net["layers"]:
        raise ConfigError("config needs network.layers or network.container")
    else:
        try:
            params = lstm_ref.random_network_params(
                net["seed"] if seed is None else seed,
                [tuple(pair) for pair in net["layers"]], n_out=net["n_out"],
                scale=net["scale"])
        except ValueError as exc:
            raise ConfigError("bad network settings: %s" % exc)
        spec = lstm_ref.derive_spec(params)

    feat = _read(doc, "features")
    if feat["container"] is not None:
        try:
            features = lstm_ref.load_features(feat["container"],
                                              spec.formats)
        except (OSError, ValueError, KeyError) as exc:
            raise ConfigError("cannot load feature container: %s" % exc)
    else:
        try:
            features = lstm_ref.random_features(
                feat["seed"] if seed is None else seed + 1, feat["n_steps"],
                spec.n_features, spec.formats, feat["scale"])
        except ValueError as exc:
            raise ConfigError("bad features settings: %s" % exc)
    if features.shape[1] != spec.n_features:
        raise ConfigError("features are %d wide, network expects %d"
                          % (features.shape[1], spec.n_features))

    sweep = _read(doc, "sweep")
    if sweep["axis"] is not None:
        sweep["values"] = sorted(
            _value("a %s sweep value" % sweep["axis"], v,
                   _SWEEP_VALUES[sweep["axis"]]) for v in sweep["values"])
    return RunConfig(params, features, spec, _read(doc, "tile"), mode,
                     OperatingPoint(frequency), _read(doc, "energy"),
                     tuple(_read(doc, "faults")["drop_links"]), sweep)


def plan_run(cfg):
    """The grid plan of a run; a `faults.drop_links` label of a link the
    plan lacks is a config error."""
    plan = mapper.plan_grid(cfg.spec, cfg.tile, reload=cfg.mode == "reload",
                            chip_select=cfg.mode == "chip-select")
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
    op = OperatingPoint(_CLOCK[3] if args.freq is None else _value(
        "the --freq clock frequency", args.freq, _CLOCK))
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
    axis, values = cfg.sweep["axis"], cfg.sweep["values"]
    _value("sweep.axis", axis, _CONFIG["sweep"]["axis"])
    if axis == "frequency":
        rows = [["frequency_hz", "gops", "link_bw_mb_s",
                 "time_per_inference_us"]]
        for f in values:
            op = OperatingPoint(frequency=f)
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
