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
import os
import sys

import numpy as np
import yaml

from . import actlut, lstm_ref, mapper, perf_energy, systolic_sim
from .mapper import CapacityError, TileSpec
from .perf_energy import EnergyConstants, OperatingPoint
from .qformat import QFormat
from .systolic_sim import CycleModel, DeadlockError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONSTRAINT = 2
EXIT_CORRECTNESS = 3

SCHEMA_VERSION = 1


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
    cycle_model: CycleModel
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


def load_config_doc(path):
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError("cannot read config: %s" % exc)
    except yaml.YAMLError as exc:
        raise ConfigError("config is not valid YAML: %s" % exc)
    _require(isinstance(doc, dict), "config must be a mapping")
    _require(doc.get("schema_version") == SCHEMA_VERSION,
             "config schema_version must be %d" % SCHEMA_VERSION)
    return doc


def _build_dataclass(cls, doc, what):
    try:
        return cls(**(doc or {}))
    except (TypeError, ValueError) as exc:
        raise ConfigError("bad %s settings: %s" % (what, exc))


def build_run_config(args):
    doc = load_config_doc(getattr(args, "config", None))
    tile = _build_dataclass(TileSpec, doc.get("tile"), "tile")
    cm = _build_dataclass(CycleModel, doc.get("cycle_model"), "cycle model")
    consts = _build_dataclass(EnergyConstants, doc.get("energy"), "energy")

    op_doc = dict(doc.get("operating_point") or {})
    if "frequency_hz" in op_doc:
        try:  # YAML floats like 1.0e7 (no exponent sign) arrive as strings
            op_doc["frequency"] = float(op_doc.pop("frequency_hz"))
        except (TypeError, ValueError):
            raise ConfigError("operating_point.frequency_hz must be a number")
    if getattr(args, "freq", None) is not None:
        op_doc["frequency"] = args.freq
    op = _build_dataclass(OperatingPoint, op_doc, "operating point")
    _require(op.frequency > 0, "the clock frequency must be positive")

    mode = doc.get("mode", "stacked")
    _require(mode in ("stacked", "reload", "chip-select", "chip_select"),
             "mode must be stacked, reload, or chip_select")
    mode = mode.replace("_", "-")
    if getattr(args, "reload", False):
        mode = "reload"
    if getattr(args, "chip_select", False):
        mode = "chip-select"

    net = doc.get("network") or {}
    seed = getattr(args, "seed", None)
    if "container" in net:
        try:
            _, params = lstm_ref.load_network(net["container"])
        except (OSError, ValueError, KeyError) as exc:
            raise ConfigError("cannot load network container: %s" % exc)
    else:
        layers = net.get("layers")
        _require(layers, "config needs network.layers or network.container")
        layers = [tuple(int(v) for v in pair) for pair in layers]
        params = lstm_ref.random_network_params(
            seed if seed is not None else int(net.get("seed", 0)),
            layers, n_out=net.get("n_out"),
            scale=float(net.get("scale", 0.5)))
    spec = lstm_ref.derive_spec(params)

    feat = doc.get("features") or {}
    if "container" in feat:
        try:
            features = lstm_ref.load_features(feat["container"])
        except (OSError, ValueError, KeyError) as exc:
            raise ConfigError("cannot load feature container: %s" % exc)
    else:
        features = lstm_ref.random_features(
            seed + 1 if seed is not None else int(feat.get("seed", 1)),
            n_steps=int(feat.get("n_steps", 1)),
            n_features=spec.n_features,
            scale=float(feat.get("scale", 1.0)))
    _require(features.shape[1] == spec.n_features,
             "features are %d wide, network expects %d"
             % (features.shape[1], spec.n_features))

    faults = doc.get("faults") or {}
    dropped = tuple(faults.get("drop_links") or ())
    if dropped:
        plan = mapper.plan_grid(spec, tile, reload=mode == "reload",
                                chip_select=mode == "chip-select")
        labels = {link.label for link in plan.links}
        unknown = [str(label) for label in dropped if label not in labels]
        _require(not unknown, "faults.drop_links names links the plan does "
                 "not have: %s" % ", ".join(unknown))
    return RunConfig(params, features, spec, tile, mode, op, consts, cm,
                     dropped, doc.get("sweep") or {})


def _out_path(args, name):
    out = getattr(args, "out", None) or "."
    os.makedirs(out, exist_ok=True)
    return os.path.join(out, name)


def _write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _csv(rows):
    return "\n".join(",".join(str(v) for v in row) for row in rows) + "\n"


def _plan_blocks(plan):
    per_layer = [grid.col_blocks() for grid in plan.layer_grids]
    return per_layer, [h for _, h in per_layer[-1]]


# --- subcommands -----------------------------------------------------------------

def cmd_plan(args):
    cfg = build_run_config(args)
    plan = mapper.plan_grid(cfg.spec, cfg.tile, reload=cfg.reload,
                            chip_select=cfg.chip_select)
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
    pins = 17 if args.time_multiplexed else budget.total_min
    lines.append("pins: %d" % pins)
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
    plan = mapper.plan_grid(cfg.spec, cfg.tile, reload=cfg.reload,
                            chip_select=cfg.chip_select)
    execute = systolic_sim.run_reload if cfg.reload else systolic_sim.simulate
    outputs, trace = execute(plan, cfg.params, cfg.features,
                             cycle_model=cfg.cycle_model,
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
    op = OperatingPoint(frequency=args.freq or 10e6)
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
    try:  # YAML floats like 1.59e8 (no exponent sign) arrive as strings
        cast = float if axis == "frequency" else int
        values = sorted(cast(v) for v in cfg.sweep.get("values") or [])
    except (TypeError, ValueError):
        raise ConfigError("sweep.values must be numbers")
    if axis == "frequency":
        rows = [["frequency_hz", "gops", "link_bw_mb_s",
                 "time_per_inference_us"]]
        for f in values:
            op = OperatingPoint(frequency=float(f))
            rep = perf_energy.extrapolate(cfg.spec, cfg.tile, op, cfg.consts,
                                          cfg.cycle_model)
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
            width = int(n) * cfg.tile.nh_capacity
            spec = lstm_ref.NetworkSpec([(width, width)], None)
            rep = perf_energy.extrapolate(spec, cfg.tile, cfg.op, cfg.consts,
                                          cfg.cycle_model)
            rows.append([int(n), width, rep.n_dies, "%.4f" % rep.time_us,
                         "%.4f" % rep.total_energy_uj,
                         "%.2f" % rep.io_fraction_pct])
        return rows
    rows = [["frac_bits", "tanh_mse", "tanh_max_se", "sigmoid_mse",
             "sigmoid_max_se"]]
    grid = np.linspace(-4.0, 4.0, 4096, endpoint=False)
    for fb in values:
        in_fmt = QFormat(int(fb))
        row = [int(fb)]
        for kind in ("tanh", "sigmoid"):
            lut = actlut.build_lut(kind, in_fmt, QFormat(7))
            stats = actlut.lut_error_stats(lut, grid)
            row += ["%.3e" % stats["mse"], "%.3e" % stats["max_se"]]
        rows.append(row)
    return rows


def cmd_sweep(args):
    cfg = build_run_config(args)
    try:
        rows = _sweep_rows(cfg)
    except (CapacityError, ValueError) as exc:
        raise type(exc)("sweep point failed: %s" % exc)
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

def build_parser():
    parser = _Parser(prog="lstmgrid",
                     description="grid mapping and simulation toolchain")
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True

    def common(p, config_required=False):
        p.add_argument("--config", required=config_required,
                       help="YAML run configuration")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", type=int, help="override generator seed")
        p.add_argument("--reload", action="store_true",
                       help="single grid, parameters re-loaded per layer")
        p.add_argument("--chip-select", action="store_true",
                       help="share one parameter stream per grid")
        p.add_argument("--freq", type=float,
                       help="clock frequency in Hz")
        p.add_argument("--format", choices=("csv", "txt"), default="csv")

    p = sub.add_parser("plan", help="place a network onto die grids")
    common(p, config_required=True)
    p.add_argument("--time-multiplexed", action="store_true",
                   help="share one stream per direction at the package")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("run", help="simulate and cross-check a network")
    common(p, config_required=True)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("table4", help="model vs published extrapolations")
    common(p)
    p.set_defaults(func=cmd_table4)

    p = sub.add_parser("sweep", help="frequency/grid/precision sweeps")
    common(p, config_required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("lut-dump", help="write activation table contents")
    common(p)
    p.set_defaults(func=cmd_lut_dump)
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
