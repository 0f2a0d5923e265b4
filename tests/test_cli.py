import json
import os

import numpy as np
import pytest
import yaml

from lstmgrid import cli, lstm_ref, systolic_sim
from lstmgrid.qformat import QFormat

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def write_config(path, **doc):
    doc.setdefault("schema_version", 1)
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return str(path)


@pytest.fixture
def demo_config(tmp_path):
    return write_config(
        tmp_path / "demo.yaml",
        network={"layers": [[123, 192]], "n_out": 62, "seed": 7,
                 "scale": 1.0},
        features={"n_steps": 4, "seed": 8})


@pytest.fixture
def small_config(tmp_path):
    return write_config(
        tmp_path / "small.yaml",
        network={"layers": [[96, 96]], "seed": 5},
        features={"n_steps": 3, "seed": 6})


# --- plan ------------------------------------------------------------------------

def test_plan_summary(demo_config, tmp_path, capsys):
    out = tmp_path / "out"
    rc = cli.main(["plan", "--config", demo_config, "--out", str(out),
                   "--time-multiplexed"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "2x2, 4 dies" in text
    assert "pins: 17" in text
    plan = json.loads((out / "plan.json").read_text())
    assert plan["total_dies"] == 4


def test_plan_full_pin_count(demo_config, capsys):
    assert cli.main(["plan", "--config", demo_config]) == 0
    assert "pins: 29" in capsys.readouterr().out


def test_plan_capacity_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.yaml",
                       network={"layers": [[96, 96]], "seed": 1},
                       tile={"sram_bytes": 60000})
    assert cli.main(["plan", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "74400" in err and "60000" in err


# --- run -------------------------------------------------------------------------

def test_run_bit_exact_and_outputs(demo_config, tmp_path, capsys):
    out = tmp_path / "run"
    rc = cli.main(["run", "--config", demo_config, "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "BIT-EXACT: yes" in stdout
    assert "[us]" in stdout and "[mW]" in stdout and "[uJ]" in stdout
    lines = (out / "outputs.csv").read_text().strip().splitlines()
    assert lines[0].startswith("step,y0,")
    assert len(lines) == 1 + 4
    assert (out / "trace.csv").exists()
    assert (out / "report.txt").exists()


def test_run_is_byte_deterministic(demo_config, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", "--config", demo_config, "--out", str(a)]) == 0
    assert cli.main(["run", "--config", demo_config, "--out", str(b)]) == 0
    for name in ("outputs.csv", "trace.csv", "report.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_run_seed_override_changes_data(demo_config, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    cli.main(["run", "--config", demo_config, "--out", str(a)])
    cli.main(["run", "--config", demo_config, "--out", str(b),
              "--seed", "99"])
    assert (a / "outputs.csv").read_bytes() != (b / "outputs.csv").read_bytes()


@pytest.mark.parametrize("flag", ["--reload", "--chip-select"])
def test_run_modes_stay_bit_exact(small_config, tmp_path, capsys, flag):
    rc = cli.main(["run", "--config", small_config,
                   "--out", str(tmp_path / "m"), flag])
    assert rc == 0
    assert "BIT-EXACT: yes" in capsys.readouterr().out


def test_run_empty_sequence(tmp_path, capsys):
    cfg = write_config(tmp_path / "t0.yaml",
                       network={"layers": [[96, 96]], "seed": 5},
                       features={"n_steps": 0, "seed": 6})
    rc = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 0
    lines = (tmp_path / "o" / "outputs.csv").read_text().splitlines()
    assert len(lines) == 1  # header only


def test_run_fault_injection_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path / "f.yaml",
                       network={"layers": [[192, 192]], "seed": 2},
                       features={"n_steps": 2, "seed": 3},
                       faults={"drop_links": ["L0.reduce.0.0"]})
    rc = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "L0.reduce.0.0" in capsys.readouterr().err


def test_run_reload_fault_injection_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path / "f.yaml",
                       network={"layers": [[96, 96], [96, 96]], "seed": 2},
                       features={"n_steps": 2, "seed": 3},
                       faults={"drop_links": ["L1.feat.col0"]})
    rc = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o"),
                   "--reload"])
    assert rc == 3
    assert "L1.feat.col0" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [[], ["--reload"]])
def test_run_rejects_unknown_fault_label(tmp_path, capsys, flags):
    # a 1x1 grid has no reduction links
    cfg = write_config(tmp_path / "f.yaml",
                       network={"layers": [[96, 96]], "seed": 2},
                       features={"n_steps": 1, "seed": 3},
                       faults={"drop_links": ["L0.reduce.0.0"]})
    rc = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]
                  + flags)
    assert rc == 1
    assert "L0.reduce.0.0" in capsys.readouterr().err


@pytest.mark.parametrize("flags,labels", [
    ([], ["L0.spill.0", "L0.writeback.1"]),
    (["--reload"], ["L1.writeback.0"])])
def test_run_rejects_labels_of_links_the_mode_never_uses(tmp_path, capsys,
                                                         flags, labels):
    # stacked runs never spill and only the last layer writes back; a
    # two-layer reload run without a projection outputs its last spill
    cfg = write_config(tmp_path / "f.yaml",
                       network={"layers": [[8, 8], [8, 8]], "seed": 2},
                       features={"n_steps": 2, "seed": 3},
                       tile={"nh_capacity": 4},
                       faults={"drop_links": labels})
    rc = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]
                  + flags)
    assert_config_error(rc, capsys, ", ".join(labels))


def test_run_oracle_mismatch_exit_code(small_config, tmp_path, capsys,
                                       monkeypatch):
    real = systolic_sim.simulate

    def corrupted(*a, **kw):
        out, trace = real(*a, **kw)
        out = out.copy()
        out[0, 0] ^= 1
        return out, trace

    monkeypatch.setattr(systolic_sim, "simulate", corrupted)
    rc = cli.main(["run", "--config", small_config,
                   "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "BIT-EXACT: no" in capsys.readouterr().out


def test_run_demo_headline_numbers(demo_config, tmp_path, capsys):
    cli.main(["run", "--config", demo_config, "--out", str(tmp_path / "o")])
    report = (tmp_path / "o" / "report.txt").read_text()
    fields = {line.split(":")[0]: float(line.rsplit(" ", 1)[1])
              for line in report.strip().splitlines()}
    assert abs(fields["total power [mW]"] - 9.0) / 9.0 <= 0.15
    total_uj = fields["total energy per inference [uJ]"]
    assert abs(total_uj - 2.97) / 2.97 <= 0.15


# --- table4 ----------------------------------------------------------------------

def test_table4_csv(tmp_path, capsys):
    rc = cli.main(["table4", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "table4.csv").read_text().strip().splitlines()
    assert len(lines) == 11
    dies = [int(line.split(",")[3]) for line in lines[1:]]
    assert dies == [1, 1, 4, 9, 16, 25, 2, 8, 48, 75]
    deltas = [abs(float(line.split(",")[6])) for line in lines[1:]]
    assert max(deltas) <= 5.0


def test_table4_txt_format(capsys):
    assert cli.main(["table4", "--format", "txt"]) == 0
    out = capsys.readouterr().out
    assert "ref_time_us" in out
    assert "295.2" in out


# --- sweep -----------------------------------------------------------------------

def test_frequency_sweep_throughput_column(tmp_path, capsys):
    cfg = write_config(tmp_path / "s.yaml",
                       network={"layers": [[96, 96]], "seed": 3},
                       sweep={"axis": "frequency",
                              "values": ["1.59e8", "3.8e6", "1.0e7"]})
    assert cli.main(["sweep", "--config", cfg]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    gops = [line.split(",")[1] for line in lines[1:]]
    assert gops == ["0.73", "1.92", "30.53"]  # ordered by axis value


def test_grid_sweep_matches_reference_times(tmp_path, capsys):
    cfg = write_config(tmp_path / "s.yaml",
                       network={"layers": [[96, 96]], "seed": 3},
                       sweep={"axis": "grid", "values": [2, 1, 3, 5, 4]})
    assert cli.main(["sweep", "--config", cfg]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    times = [float(line.split(",")[3]) for line in lines[1:]]
    for got, ref in zip(times, [101.2, 295.2, 469.8, 644.4, 819.0]):
        assert abs(got / ref - 1) <= 0.05


def test_frac_bits_sweep(tmp_path, capsys):
    cfg = write_config(tmp_path / "s.yaml",
                       network={"layers": [[96, 96]], "seed": 3},
                       sweep={"axis": "frac_bits", "values": [5, 3]})
    assert cli.main(["sweep", "--config", cfg]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("frac_bits,")
    assert [line.split(",")[0] for line in lines[1:]] == ["3", "5"]


def test_empty_sweep_is_header_only(tmp_path, capsys):
    cfg = write_config(tmp_path / "s.yaml",
                       network={"layers": [[96, 96]], "seed": 3},
                       sweep={"axis": "grid", "values": []})
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert (tmp_path / "sweep.csv").read_text().strip() \
        == "n,n_hidden,dies,time_per_inference_us,e_total_uj,io_pct"


def test_sweep_rejects_unknown_axis(tmp_path, capsys):
    cfg = write_config(tmp_path / "s.yaml",
                       network={"layers": [[96, 96]], "seed": 3},
                       sweep={"axis": "voltage", "values": [1]})
    assert cli.main(["sweep", "--config", cfg]) == 1


# --- lut-dump --------------------------------------------------------------------

def test_lut_dump_writes_both_tables(tmp_path):
    assert cli.main(["lut-dump", "--out", str(tmp_path)]) == 0
    for kind in ("tanh", "sigmoid"):
        lines = (tmp_path / ("%s.csv" % kind)).read_text().splitlines()
        assert len(lines) == 257  # header + 256 codes


# --- containers ------------------------------------------------------------------

def test_run_from_containers(tmp_path, capsys):
    params = lstm_ref.random_network_params(41, [(96, 96)], n_out=10)
    feats = lstm_ref.random_features(42, n_steps=3, n_features=96)
    net_path = tmp_path / "net.json"
    feat_path = tmp_path / "feats.json"
    lstm_ref.save_network(str(net_path), params)
    lstm_ref.save_features(str(feat_path), feats)
    cfg = write_config(tmp_path / "c.yaml",
                       network={"container": str(net_path)},
                       features={"container": str(feat_path)})
    rc = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 0
    assert "BIT-EXACT: yes" in capsys.readouterr().out


def test_run_from_container_with_other_formats(tmp_path, capsys):
    fmts = lstm_ref.FormatSet(weight=QFormat(4), state=QFormat(4))
    params = lstm_ref.random_network_params(43, [(8, 8)], formats=fmts)
    net_path = tmp_path / "net.json"
    lstm_ref.save_network(str(net_path), params, formats=fmts)
    cfg = write_config(tmp_path / "c.yaml",
                       network={"container": str(net_path)},
                       features={"n_steps": 2})
    rc = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 0, capsys.readouterr().err
    assert "BIT-EXACT: yes" in capsys.readouterr().out


def reencode_as_float32(manifest_path, name):
    """Re-write tensor `name` of a saved container as a float32 payload,
    the only other dtype the container format names."""
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    blob_path = os.path.join(os.path.dirname(manifest_path), manifest["blob"])
    with open(blob_path, "rb") as fh:
        blob = fh.read()
    entry = next(e for e in manifest["tensors"] if e["name"] == name)
    codes = np.frombuffer(blob, "<i1", entry["byte_length"], entry["offset"])
    raw = codes.astype("<f4").tobytes()
    entry.update(dtype="float32", frac_bits=None, offset=len(blob),
                 byte_length=len(raw))
    with open(blob_path, "wb") as fh:
        fh.write(blob + raw)
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)


@pytest.mark.parametrize("name", ["layer0.W_xi", "layer0.b_i"])
def test_float32_container_entry_is_refused(tmp_path, capsys, name):
    params = lstm_ref.random_network_params(45, [(8, 8)])
    net_path = str(tmp_path / "net.json")
    lstm_ref.save_network(net_path, params)
    reencode_as_float32(net_path, name)
    with pytest.raises(ValueError, match="int8"):
        lstm_ref.load_network(net_path)
    cfg = write_config(tmp_path / "c.yaml", network={"container": net_path},
                       features={"n_steps": 2})
    rc = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
    assert_config_error(rc, capsys, "cannot load network container")
    assert not (tmp_path / "o").exists()  # nothing ran


@pytest.mark.parametrize("name", ["layer0.b_i", "fc.W_y"])
def test_container_entry_in_another_format_is_refused(tmp_path, capsys,
                                                      name):
    params = lstm_ref.random_network_params(46, [(8, 8)], n_out=3)
    net_path = str(tmp_path / "net.json")
    lstm_ref.save_network(net_path, params)
    with open(net_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    next(e for e in manifest["tensors"] if e["name"] == name)["frac_bits"] = 2
    with open(net_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    with pytest.raises(ValueError, match=name):
        lstm_ref.load_network(net_path)
    cfg = write_config(tmp_path / "c.yaml", network={"container": net_path},
                       features={"n_steps": 2})
    rc = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
    assert_config_error(rc, capsys, "cannot load network container")
    assert not (tmp_path / "o").exists()  # nothing ran


# --- usage and config errors --------------------------------------------------------

def test_unknown_command_is_usage_error(capsys):
    assert cli.main(["bogus"]) == 1


def test_missing_config_file(capsys):
    assert cli.main(["run", "--config", "/nonexistent.yaml"]) == 1


def test_run_requires_config(capsys):
    assert cli.main(["run"]) == 1


def test_wrong_schema_version(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.yaml", schema_version=99,
                       network={"layers": [[96, 96]]})
    assert cli.main(["plan", "--config", cfg]) == 1
    assert "schema_version" in capsys.readouterr().err


def test_bad_tile_settings(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.yaml",
                       network={"layers": [[96, 96]]},
                       tile={"nh_capacity": -1})
    assert cli.main(["plan", "--config", cfg]) == 1


@pytest.mark.parametrize("tile", [{"word_bits": 16}, {"link_data_bits": 8},
                                  {"sram_banks": 0}],
                         ids=["word_bits", "link_data_bits", "sram_banks"])
def test_unmodelled_tile_keys_are_rejected(tmp_path, capsys, tile):
    # 8-bit words, 4-bit links and the SRAM banking are fixed by the model
    cfg = write_config(tmp_path / "c.yaml",
                       network={"layers": [[96, 96]], "seed": 5},
                       features={"n_steps": 1, "seed": 6}, tile=tile)
    rc = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
    assert_config_error(rc, capsys, "bad tile settings")
    assert not (tmp_path / "o").exists()  # nothing ran


@pytest.mark.parametrize("argv", [
    ["plan", "--config", "CFG", "--seed", "3"],
    ["plan", "--config", "CFG", "--freq", "2e7"],
    ["plan", "--config", "CFG", "--format", "txt"],
    ["plan", "--config", "CFG", "--reload", "--chip-select"],
    ["run", "--config", "CFG", "--reload", "--chip-select"],
    ["table4", "--config", "CFG"],
    ["table4", "--seed", "3"],
    ["table4", "--reload"],
    ["table4", "--chip-select"],
    ["sweep", "--config", "CFG", "--seed", "3"],
    ["sweep", "--config", "CFG", "--reload"],
    ["sweep", "--config", "CFG", "--chip-select"],
    ["sweep", "--config", "CFG", "--format", "txt"],
    ["lut-dump", "--config", "CFG"],
    ["lut-dump", "--seed", "3"],
    ["lut-dump", "--reload"],
    ["lut-dump", "--chip-select"],
    ["lut-dump", "--freq", "0"],
], ids=lambda argv: "-".join(a.strip("-") for a in argv if a != "CFG"))
def test_flags_a_subcommand_does_not_read_are_refused(tmp_path, capsys,
                                                      argv):
    # a config every subcommand that reads one accepts
    cfg = write_config(tmp_path / "c.yaml",
                       network={"layers": [[8, 8]], "seed": 5},
                       features={"n_steps": 1, "seed": 6},
                       sweep={"axis": "grid", "values": [1]})
    argv = [cfg if a == "CFG" else a for a in argv]
    rc = cli.main(argv + ["--out", str(tmp_path / "o")])
    assert_config_error(rc, capsys, "argument")
    assert not (tmp_path / "o").exists()  # nothing ran


def test_config_without_network(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.yaml")
    assert cli.main(["plan", "--config", cfg]) == 1


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0


# --- config boundary --------------------------------------------------------------

def readme_example_config():
    """The example configuration block of README.md, verbatim."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    start = text.index("Example configuration:")
    start = text.index("```yaml\n", start) + len("```yaml\n")
    return text[start:text.index("```", start)]


def test_readme_example_config_runs(tmp_path, capsys):
    cfg = tmp_path / "readme.yaml"
    cfg.write_text(readme_example_config(), encoding="utf-8")
    rc = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 0, capsys.readouterr().err
    assert "BIT-EXACT: yes" in capsys.readouterr().out


def test_mode_chip_select_spelling_is_accepted(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.yaml",
                       network={"layers": [[96, 96]], "seed": 5},
                       features={"n_steps": 1, "seed": 6},
                       mode="chip_select")
    rc = cli.main(["plan", "--config", cfg])
    assert rc == 0, capsys.readouterr().err
    assert capsys.readouterr().out.startswith("mode: chip-select\n")


def test_frequency_with_unsigned_exponent_is_a_number(tmp_path, capsys):
    # PyYAML reads 1.0e7 (no exponent sign) as the string "1.0e7"
    cfg = tmp_path / "c.yaml"
    cfg.write_text("schema_version: 1\n"
                   "network: {layers: [[96, 96]], seed: 5}\n"
                   "features: {n_steps: 1, seed: 6}\n"
                   "operating_point:\n  frequency_hz: 2.0e7\n",
                   encoding="utf-8")
    assert isinstance(yaml.safe_load(cfg.read_text())["operating_point"]
                      ["frequency_hz"], str)
    args = cli.build_parser().parse_args(["run", "--config", str(cfg)])
    assert cli.build_run_config(args).op.frequency == 2.0e7


@pytest.mark.parametrize("doc,needle", [
    ({"cycle_model": {"hidden_loop_mode": "bogus"}}, "hidden_loop_mode"),
    ({"operating_point": {"frequency_hz": 0}}, "frequency"),
    ({"operating_point": {"frequency_hz": "fast"}}, "frequency"),
    ({"tile": {"nh_capacity": 7.5}}, "bad tile settings"),
    ({"tile": {"nh_capacity": True}}, "bad tile settings"),
    # PyYAML reads 1.5e5 (no exponent sign) as the string "1.5e5"
    ({"tile": {"sram_bytes": "1.5e5"}}, "bad tile settings"),
    ({"tile": {"sram_bytes": -5}}, "bad tile settings"),
    ({"cycle_model": {"c_gate": -100}}, "bad cycle model settings"),
    ({"cycle_model": {"c_fixed": 2.5}}, "bad cycle model settings"),
    # energy is priced from constants calibrated at 1.2 V core, 2.5 V pads
    ({"operating_point": {"v_core": 0.9}}, "bad operating point settings"),
])
def test_bad_run_settings_fail_at_config_load(tmp_path, capsys, doc, needle):
    cfg = write_config(tmp_path / "c.yaml",
                       network={"layers": [[96, 96]], "seed": 5},
                       features={"n_steps": 1, "seed": 6}, **doc)
    rc = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert needle in err
    assert not (tmp_path / "o").exists()  # nothing ran


def test_zero_frequency_flag_is_rejected(small_config, tmp_path, capsys):
    rc = cli.main(["run", "--config", small_config,
                   "--out", str(tmp_path / "o"), "--freq", "0"])
    assert rc == 1
    assert "frequency" in capsys.readouterr().err


def assert_config_error(rc, capsys, needle):
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert needle in err


@pytest.mark.parametrize("freq", ["0", "inf", "nan", "-1e6"])
def test_table4_rejects_bad_frequency(capsys, freq):
    # "--freq=" form: argparse takes a bare "-1e6" for an option
    assert_config_error(cli.main(["table4", "--freq=" + freq]), capsys,
                        "frequency")


@pytest.mark.parametrize("freq", ["inf", "nan", "-1e6"])
def test_run_rejects_bad_frequency_flag(small_config, tmp_path, capsys,
                                        freq):
    rc = cli.main(["run", "--config", small_config,
                   "--out", str(tmp_path / "o"), "--freq=" + freq])
    assert_config_error(rc, capsys, "frequency")
    assert not (tmp_path / "o").exists()  # nothing ran


@pytest.mark.parametrize("value", [-1, 0, "inf", "nan"])
def test_frequency_sweep_rejects_bad_values(tmp_path, capsys, value):
    cfg = write_config(tmp_path / "s.yaml",
                       network={"layers": [[96, 96]], "seed": 3},
                       sweep={"axis": "frequency", "values": [1e7, value]})
    assert_config_error(cli.main(["sweep", "--config", cfg]), capsys,
                        "frequency")


@pytest.mark.parametrize("axis,value", [("frac_bits", 9), ("grid", 0)])
def test_sweep_rejects_bad_points(tmp_path, capsys, axis, value):
    cfg = write_config(tmp_path / "s.yaml",
                       network={"layers": [[96, 96]], "seed": 3},
                       sweep={"axis": axis, "values": [value]})
    assert_config_error(cli.main(["sweep", "--config", cfg]), capsys, axis)


@pytest.mark.parametrize("command", ["run", "plan"])
@pytest.mark.parametrize("network,features,needle", [
    ({"layers": [[4, 8], [9, 8]]}, {}, "layer 1 expects 9 inputs"),
    ({"layers": [[4, 0]]}, {}, "hidden unit"),
    ({"layers": [[4, 8]], "n_out": 0}, {}, "n_out"),
    ({"layers": [[4, 8]]}, {"n_steps": -1}, "n_steps"),
    ({"layers": [[4, 8.7]]}, {"n_steps": 2}, "network.layers"),
    ({"layers": [[4.0, 8]]}, {}, "network.layers"),
    ({"layers": [[4, True]]}, {}, "network.layers"),
    ({"layers": [[4, 8]], "n_out": True}, {}, "network.n_out"),
    ({"layers": [[4, 8]]}, {"n_steps": 2.5}, "features.n_steps"),
    ({"layers": [[4, 8]], "seed": 1.9}, {}, "network.seed"),
    ({"layers": [[4, 8]], "seed": "7"}, {}, "network.seed"),
    ({"layers": [[4, 8]]}, {"seed": 1.5}, "features.seed"),
], ids=["layer_mismatch", "zero_hidden", "zero_n_out", "negative_steps",
        "fractional_width", "float_width", "bool_width", "bool_n_out",
        "fractional_steps", "fractional_seed", "string_seed",
        "fractional_feature_seed"])
def test_bad_network_shapes_fail_at_config_load(tmp_path, capsys, command,
                                                network, features, needle):
    cfg = write_config(tmp_path / "c.yaml", network=network,
                       features=features)
    rc = cli.main([command, "--config", cfg, "--out", str(tmp_path / "o")])
    assert_config_error(rc, capsys, needle)
    assert not (tmp_path / "o").exists()  # nothing ran


def test_table4_frequency_flag_scales_times(capsys):
    assert cli.main(["table4", "--format", "csv", "--freq", "2e7"]) == 0
    fast = capsys.readouterr().out.splitlines()
    assert cli.main(["table4", "--format", "csv"]) == 0
    slow = capsys.readouterr().out.splitlines()
    t_fast = float(fast[1].split(",")[4])
    t_slow = float(slow[1].split(",")[4])
    assert t_fast == pytest.approx(t_slow / 2, rel=1e-3)
