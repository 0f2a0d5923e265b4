import copy
import dataclasses
import json
import os
import pathlib
import tempfile

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings, strategies as st

from lstmgrid import cli, lstm_ref, systolic_sim
from lstmgrid.qformat import QFormat

import oracles as O

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


@pytest.mark.parametrize("command,rc", [("run", 3), ("plan", 0)])
def test_dropped_labels_are_checked_against_the_one_plan(
        tmp_path, capsys, monkeypatch, command, rc):
    plans = []
    plan_grid = cli.mapper.plan_grid

    def counted(*args, **kwargs):
        plans.append(plan_grid(*args, **kwargs))
        return plans[-1]

    monkeypatch.setattr(cli.mapper, "plan_grid", counted)
    cfg = write_config(tmp_path / "f.yaml",
                       network={"layers": [[8, 8], [8, 8]], "seed": 2},
                       features={"n_steps": 2, "seed": 3},
                       tile={"nh_capacity": 4},
                       faults={"drop_links": ["L1.hcast.0"]})
    assert cli.main([command, "--config", cfg, "--out",
                     str(tmp_path / "o"), "--reload"]) == rc
    assert len(plans) == 1


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
    lstm_ref.save_network(str(net_path), params)
    cfg = write_config(tmp_path / "c.yaml",
                       network={"container": str(net_path)},
                       features={"n_steps": 2})
    rc = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 0, capsys.readouterr().err
    assert "BIT-EXACT: yes" in capsys.readouterr().out


def test_random_features_take_the_container_state_format(tmp_path, capsys,
                                                        monkeypatch):
    # a Q3.4 state network draws its random features as Q3.4 codes
    fmts = lstm_ref.FormatSet(state=QFormat(4))
    params = lstm_ref.random_network_params(45, [(8, 8)], formats=fmts)
    net_path = tmp_path / "net.json"
    lstm_ref.save_network(str(net_path), params)
    cfg = write_config(tmp_path / "c.yaml",
                       network={"container": str(net_path)},
                       features={"n_steps": 3, "seed": 5, "scale": 1.5})
    simulated = []
    simulate = systolic_sim.simulate

    def spy(plan, params, features, **kw):
        simulated.append(features)
        return simulate(plan, params, features, **kw)

    monkeypatch.setattr(systolic_sim, "simulate", spy)
    rc = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 0, capsys.readouterr().err
    assert "BIT-EXACT: yes" in capsys.readouterr().out
    (features,) = simulated
    assert features.tolist() == lstm_ref.random_features(
        5, 3, 8, formats=fmts, scale=1.5).tolist()


# a weight format without fractional bits requantizes by a shift of 0, and
# equal gate and state formats align i*u to f*c by a shift of 0
EDGE_FORMATS = {
    "weight-frac-0": lstm_ref.FormatSet(weight=QFormat(0)),
    "gate-equals-state": lstm_ref.FormatSet(state=QFormat(5),
                                            gate=QFormat(5)),
}


@pytest.mark.parametrize("mode", ["stacked", "reload", "chip_select"])
@pytest.mark.parametrize("formats", sorted(EDGE_FORMATS))
def test_run_in_the_tails_edge_formats_equals_the_unbatched_tails(
        tmp_path, capsys, monkeypatch, formats, mode):
    fmts = EDGE_FORMATS[formats]
    params = lstm_ref.random_network_params(47, [(6, 8), (8, 8)], n_out=3,
                                            scale=3.0, formats=fmts)
    feats = lstm_ref.random_features(48, 4, 6, formats=fmts)
    net_path, feat_path = str(tmp_path / "net.json"), str(tmp_path / "f.json")
    lstm_ref.save_network(net_path, params)
    lstm_ref.save_features(feat_path, feats, formats=fmts)
    cfg = write_config(tmp_path / "c.yaml", network={"container": net_path},
                       features={"container": feat_path}, mode=mode,
                       tile={"nh_capacity": 4})
    written = {}
    luts = lstm_ref.default_luts(fmts)  # the tables a run defaults to
    for tails in ("batched", "unbatched"):
        if tails == "unbatched":
            monkeypatch.setattr(lstm_ref, "cell_tail", lambda dots, c, k:
                                O.unbatched_cell_tail(dots, c, k.peep, k.bias,
                                                      fmts, luts))
            monkeypatch.setattr(lstm_ref, "fc_tail", O.unbatched_fc_tail)
        out = tmp_path / tails
        rc = cli.main(["run", "--config", cfg, "--out", str(out)])
        assert rc == 0 and "BIT-EXACT: yes" in capsys.readouterr().out
        written[tails] = {name: (out / name).read_bytes()
                          for name in ("outputs.csv", "report.txt",
                                       "trace.csv")}
    assert written["batched"] == written["unbatched"]


def test_network_with_a_gate_format_narrower_than_its_state_is_refused(
        tmp_path, capsys):
    net_path = str(tmp_path / "net.json")
    lstm_ref.save_network(net_path,
                          lstm_ref.random_network_params(49, [(8, 8)]))
    with open(net_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    manifest["meta"]["gate_frac_bits"] = 4  # the state format is Q2.5
    with open(net_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    cfg = write_config(tmp_path / "c.yaml", network={"container": net_path},
                       features={"n_steps": 2})
    rc = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
    assert_config_error(rc, capsys, "cannot load network container")
    assert not (tmp_path / "o").exists()  # nothing ran


@pytest.mark.parametrize("version", [7, 1.0, True, None])
def test_container_of_another_version_is_refused(tmp_path, capsys, version):
    net_path = str(tmp_path / "net.json")
    lstm_ref.save_network(net_path,
                          lstm_ref.random_network_params(51, [(8, 8)]))
    with open(net_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    manifest["version"] = version
    with open(net_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    with pytest.raises(ValueError, match="container version must be 1"):
        lstm_ref.load_network(net_path)
    cfg = write_config(tmp_path / "c.yaml", network={"container": net_path},
                       features={"n_steps": 2})
    rc = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
    assert_config_error(rc, capsys, "cannot load network container")
    assert not (tmp_path / "o").exists()  # nothing ran


@pytest.mark.parametrize("key,value,message", [
    ("manifest", [], "not a tensor container"),
    ("blob", 5, "blob must be a file name"),
    ("meta", ["network"], "meta an object"),
    ("tensors", 5, "tensors must be a list"),
    ("tensors", "layer0.W_xi", "tensors must be a list"),
    ("tensors", {"name": "layer0.W_xi"}, "tensors must be a list"),
    ("entry", "layer0.W_xi", "is not an object"),
    ("entry", 3, "is not an object"),
    ("name", 5, "name must be a string"),
    ("role", None, "role must be a string"),
    ("shape", "8x8", "shape must be a list of integers"),
    ("shape", [8, "8"], "shape must be a list of integers"),
    ("shape", [8, True], "shape must be a list of integers"),
    ("offset", "0", "offset must be an integer"),
    ("offset", "missing", "offset must be an integer"),
    ("offset", -64, "negative offset"),
    ("byte_length", 64.0, "byte_length must be an integer"),
    ("frac_bits", "5", "frac_bits must be an integer"),
    ("frac_bits", True, "frac_bits must be an integer"),
])
def test_container_of_another_structure_is_refused(tmp_path, capsys, key,
                                                   value, message):
    net_path = str(tmp_path / "net.json")
    lstm_ref.save_network(net_path,
                          lstm_ref.random_network_params(52, [(8, 8)]))
    with open(net_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    if key == "manifest":
        manifest = value
    elif key in ("blob", "meta", "tensors"):
        manifest[key] = value
    elif key == "entry":
        manifest["tensors"][0] = value
    elif value == "missing":
        del manifest["tensors"][0][key]
    else:
        manifest["tensors"][0][key] = value
    with open(net_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    with pytest.raises(ValueError, match=message):
        lstm_ref.load_network(net_path)
    cfg = write_config(tmp_path / "c.yaml", network={"container": net_path},
                       features={"n_steps": 2})
    rc = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
    assert_config_error(rc, capsys, "cannot load network container")
    assert not (tmp_path / "o").exists()  # nothing ran


def test_feature_container_in_another_format_is_refused(tmp_path, capsys):
    feat_path = str(tmp_path / "f.json")
    q43 = lstm_ref.FormatSet(state=QFormat(3))
    lstm_ref.save_features(feat_path,
                           lstm_ref.random_features(50, 2, 8, formats=q43),
                           formats=q43)
    cfg = write_config(tmp_path / "c.yaml",
                       network={"layers": [[8, 8]], "seed": 5},
                       features={"container": feat_path})
    rc = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
    assert_config_error(rc, capsys, "cannot load feature container")
    assert not (tmp_path / "o").exists()  # nothing ran


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


@pytest.mark.parametrize("edit,missing", [
    # a network saved without a projection whose meta names one
    (lambda m: m["meta"].update(n_out=3), "fc.W_y, fc.b_y"),
    # a layer tensor dropped from the manifest
    (lambda m: m.update(tensors=[e for e in m["tensors"]
                                 if e["name"] != "layer0.b_i"]),
     "layer0.b_i"),
    (lambda m: m.update(tensors=[e for e in m["tensors"]
                                 if e["name"] != "layer0.W_xi"]),
     "layer0.W_xi")], ids=["projection", "layer0.b_i", "layer0.W_xi"])
def test_a_tensor_the_manifest_lacks_is_a_value_error(tmp_path, capsys, edit,
                                                      missing):
    net_path = str(tmp_path / "net.json")
    lstm_ref.save_network(net_path,
                          lstm_ref.random_network_params(47, [(8, 8)]))
    with open(net_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    edit(manifest)
    with open(net_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    with pytest.raises(ValueError, match="lacks the tensors %s " % missing):
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
    # the timing constants are fixed; no section sets them
    ({"cycle_model": {"hidden_loop_mode": "fixed_capacity"}}, "cycle_model"),
    ({"operating_point": {"frequency_hz": 0}}, "frequency"),
    ({"operating_point": {"frequency_hz": "fast"}}, "frequency"),
    ({"tile": {"nh_capacity": 7.5}}, "bad tile settings"),
    ({"tile": {"nh_capacity": True}}, "bad tile settings"),
    # PyYAML reads 1.5e5 (no exponent sign) as the string "1.5e5"
    ({"tile": {"sram_bytes": "1.5e5"}}, "bad tile settings"),
    ({"tile": {"sram_bytes": -5}}, "bad tile settings"),
    # the clock is frequency_hz, with no other spelling
    ({"operating_point": {"frequency": 2e7}}, "operating_point.frequency"),
    ({"faults": {"drop_links": [["L0.feat.col0"]]}}, "faults.drop_links"),
    # energy is priced from constants calibrated at 1.2 V core, 2.5 V pads
    ({"operating_point": {"v_core": 0.9}}, "bad operating point settings"),
    ({"operating_point": {"frequency_hz": True}}, "frequency"),
    # energy constants are finite non-negative numbers, and no bool is one
    ({"energy": {"e_drive_pj_per_bit": True}},
     "bad energy settings: e_drive_pj_per_bit"),
    ({"energy": {"alpha_toggle": float("nan")}},
     "bad energy settings: alpha_toggle"),
    ({"energy": {"e_drive_pj_per_bit": float("inf")}},
     "bad energy settings: e_drive_pj_per_bit"),
    # PyYAML reads 1e400 (no dot) as the string "1e400"
    ({"energy": {"p_core_active_mw_per_die": "1e400"}},
     "bad energy settings: p_core_active_mw_per_die"),
    ({"schema_version": True}, "schema_version"),
    ({"schema_version": 1.0}, "schema_version"),
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


# (section or None for the top level, key, value, whether the section
# names a container): a key no section reads, or one that the section's
# container makes unread
UNREAD_KEYS = [
    (None, "extras", 1, False),
    ("network", "n_outs", 3, False),
    ("features", "nsteps", 3, False),
    ("faults", "drop_link", ["L0.feat.col0"], False),
    ("sweep", "value", [2e7], False),
    ("network", "layers", [[8, 8]], True),
    ("network", "n_out", 2, True),
    ("network", "seed", 9, True),
    ("network", "scale", 1.0, True),
    ("features", "n_steps", 3, True),
    ("features", "seed", 9, True),
    ("features", "scale", 0.5, True),
]


@pytest.mark.parametrize("command", ["run", "plan", "sweep"])
@pytest.mark.parametrize(
    "section,key,value,container", UNREAD_KEYS,
    ids=["%s%s%s" % (section + "." if section else "", key,
                     "+container" if container else "")
         for section, key, _, container in UNREAD_KEYS])
def test_keys_nothing_reads_fail_at_config_load(tmp_path, capsys, command,
                                                section, key, value,
                                                container):
    doc = {"network": {"layers": [[8, 8]], "seed": 5},
           "features": {"n_steps": 2, "seed": 6},
           "faults": {"drop_links": []},
           "sweep": {"axis": "frequency", "values": [1e7]}}
    if container:
        path = str(tmp_path / ("%s.json" % section))
        if section == "network":
            lstm_ref.save_network(
                path, lstm_ref.random_network_params(5, [(8, 8)]))
        else:
            lstm_ref.save_features(path, lstm_ref.random_features(6, 2, 8))
        doc[section] = {"container": path}
    (doc[section] if section else doc)[key] = value
    cfg = write_config(tmp_path / "c.yaml", **doc)
    rc = cli.main([command, "--config", cfg, "--out", str(tmp_path / "o")])
    assert_config_error(rc, capsys,
                        "%s.%s" % (section, key) if section else key)
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


@pytest.mark.parametrize("value", [-1, 0, "inf", "nan", True])
def test_frequency_sweep_rejects_bad_values(tmp_path, capsys, value):
    cfg = write_config(tmp_path / "s.yaml",
                       network={"layers": [[96, 96]], "seed": 3},
                       sweep={"axis": "frequency", "values": [1e7, value]})
    assert_config_error(cli.main(["sweep", "--config", cfg]), capsys,
                        "frequency")


@pytest.mark.parametrize("axis,value", [
    ("frac_bits", 9), ("grid", 0), ("grid", True), ("grid", 2.5),
    ("frac_bits", 2.7), ("frac_bits", True), ("frac_bits", "5")])
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
    ({"layers": [[4, 8]], "scale": float("nan")}, {}, "network.scale"),
    ({"layers": [[4, 8]], "scale": float("inf")}, {}, "network.scale"),
    # PyYAML reads 1e400 (no dot) as the string "1e400": inf as a float
    ({"layers": [[4, 8]], "scale": "1e400"}, {}, "network.scale"),
    ({"layers": [[4, 8]], "scale": True}, {}, "network.scale"),
    ({"layers": [[4, 8]], "scale": -0.5}, {}, "network.scale"),
    ({"layers": [[4, 8]]}, {"scale": float("nan")}, "features.scale"),
    ({"layers": [[4, 8]]}, {"scale": float("-inf")}, "features.scale"),
    ({"layers": [[4, 8]]}, {"scale": "1e400"}, "features.scale"),
    ({"layers": [[4, 8]]}, {"scale": 1e300}, "features.scale"),
    ({"layers": [[4, 8]]}, {"scale": True}, "features.scale"),
], ids=["layer_mismatch", "zero_hidden", "zero_n_out", "negative_steps",
        "fractional_width", "float_width", "bool_width", "bool_n_out",
        "fractional_steps", "fractional_seed", "string_seed",
        "fractional_feature_seed", "nan_scale", "inf_scale",
        "overflowing_scale", "bool_scale", "negative_scale",
        "nan_feature_scale", "inf_feature_scale",
        "overflowing_feature_scale", "huge_feature_scale",
        "bool_feature_scale"])
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


# --- the config schema ---------------------------------------------------------------

def tiny_doc(**sections):
    """A run config of one 6 -> 8 layer and a 3-wide projection at a
    4-unit die capacity, run for 2 steps, with `sections` in place."""
    doc = {"network": {"layers": [[6, 8]], "n_out": 3, "seed": 5},
           "features": {"n_steps": 2, "seed": 6}, "tile": {"nh_capacity": 4}}
    doc.update(sections)
    return doc


@pytest.mark.parametrize("section,value", [
    ("tile", 0), ("energy", False), ("operating_point", []), ("faults", 0),
    ("sweep", 0), ("network", "layers"), ("features", 3)])
def test_a_section_that_is_no_mapping_is_refused(tmp_path, capsys, section,
                                                 value):
    cfg = write_config(tmp_path / "c.yaml", **tiny_doc(**{section: value}))
    rc = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
    assert_config_error(rc, capsys, "bad %s settings: not a mapping"
                        % section.replace("_", " "))
    assert not (tmp_path / "o").exists()  # nothing ran


@pytest.mark.parametrize("section", ["network", "features"])
@pytest.mark.parametrize("path", [[1], 5, 0, True, ""])
def test_a_container_path_is_a_non_empty_string(tmp_path, capsys, section,
                                                path):
    # 5 would name a file descriptor, 0 standard input
    cfg = write_config(tmp_path / "c.yaml",
                       **tiny_doc(**{section: {"container": path}}))
    rc = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
    assert_config_error(rc, capsys, "%s.container must be a non-empty string"
                        % section)
    assert not (tmp_path / "o").exists()  # nothing ran


def save_mutated(tmp_path, kind, mutate):
    """The manifest path of a tiny saved network or feature container
    whose manifest JSON `mutate` has changed in place."""
    path = str(tmp_path / ("%s.json" % kind))
    if kind == "network":
        lstm_ref.save_network(path, lstm_ref.random_network_params(
            53, [(6, 8)], n_out=3))
    else:
        lstm_ref.save_features(path, lstm_ref.random_features(54, 2, 6))
    with open(path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    mutate(manifest)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    return path


@pytest.mark.parametrize("key,value", [
    ("layers", 5), ("layers", [[6]]), ("layers", [[6, 8, 8]]),
    ("layers", []), ("layers", [[6, 9]]), ("layers", [[6, True]]),
    ("n_out", 4), ("n_out", "3"), ("kind", "features"),
    ("gate_frac_bits", None), ("gate_frac_bits", 8),
    ("state_frac_bits", True), ("state_frac_bits", "5"),
    ("state_frac_bits", 5.0)])
def test_network_meta_of_another_structure_is_refused(tmp_path, capsys, key,
                                                      value):
    path = save_mutated(tmp_path, "network",
                        lambda manifest: manifest["meta"].update({key: value}))
    with pytest.raises(ValueError):
        lstm_ref.load_network(path)
    cfg = write_config(tmp_path / "c.yaml",
                       **tiny_doc(network={"container": path}))
    rc = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
    assert_config_error(rc, capsys, "cannot load network container")
    assert not (tmp_path / "o").exists()  # nothing ran


@pytest.mark.parametrize("key,value", [
    ("n_steps", None), ("n_steps", "2"), ("kind", "network"),
    ("shape", [12]), ("shape", [2, 3, 2])])
def test_feature_container_of_another_structure_is_refused(tmp_path, capsys,
                                                           key, value):
    def mutate(manifest):
        (manifest["tensors"][0] if key == "shape" else manifest["meta"])[
            key] = value

    path = save_mutated(tmp_path, "features", mutate)
    with pytest.raises(ValueError):
        lstm_ref.load_features(path)
    cfg = write_config(tmp_path / "c.yaml",
                       **tiny_doc(features={"container": path}))
    rc = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
    assert_config_error(rc, capsys, "cannot load feature container")


def test_a_float_with_an_unsigned_exponent_is_a_number_in_every_section(
        tmp_path, capsys):
    # PyYAML reads 2.5e1 (no exponent sign) as the string "2.5e1"
    reports = []
    for spelling in ("2.5e1", "25.0"):
        cfg = tmp_path / ("%s.yaml" % spelling)
        cfg.write_text("schema_version: 1\n"
                       "network: {layers: [[6, 8]], seed: 5, scale: 5e-1}\n"
                       "features: {n_steps: 2, seed: 6, scale: 1.0e0}\n"
                       "tile: {nh_capacity: 4}\n"
                       "energy: {e_drive_pj_per_bit: %s}\n" % spelling,
                       encoding="utf-8")
        out = tmp_path / spelling
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert "BIT-EXACT: yes" in capsys.readouterr().out
        reports.append((out / "report.txt").read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("command", ["run", "plan"])
@pytest.mark.parametrize("doc,needle", [
    ({"sweep": {"axis": "bogus"}}, "sweep.axis"),
    ({"sweep": {"axis": "grid", "values": [0]}}, "grid sweep value"),
    ({"sweep": {"axis": "frequency", "values": 5}}, "sweep.values"),
    ({"energy": {"alpha_toggle": 2}}, "bad energy settings: alpha_toggle"),
    ({"mode": "chip select"}, "mode"),
    ({"features": {"n_steps": None, "seed": False}}, "features.seed")])
def test_every_section_is_read_whatever_the_command(tmp_path, capsys,
                                                    command, doc, needle):
    cfg = write_config(tmp_path / "c.yaml", **tiny_doc(**doc))
    rc = cli.main([command, "--config", cfg, "--out", str(tmp_path / "o")])
    assert_config_error(rc, capsys, needle)
    assert not (tmp_path / "o").exists()  # nothing ran


def test_a_null_key_takes_its_default(tmp_path, capsys):
    runs = {}
    for name, doc in (("null", tiny_doc(mode=None, faults={"drop_links": None},
                                        features={"n_steps": 2, "seed": None},
                                        energy={"alpha_toggle": None})),
                      ("default", tiny_doc(features={"n_steps": 2}))):
        cfg = write_config(tmp_path / ("%s.yaml" % name), **doc)
        out = tmp_path / name
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
        runs[name] = [(out / f).read_bytes()
                      for f in ("outputs.csv", "trace.csv", "report.txt")]
    assert runs["null"] == runs["default"]


# --- generated inputs ----------------------------------------------------------------

def schema_rules():
    """{(section, key): (type, least, most, default)} of every config key:
    `cli._CONFIG`'s, a library section's from its type's fields."""
    rules = {}
    for section, keys in cli._CONFIG.items():
        if isinstance(keys, type):  # the type owns the range
            keys = {f.name: (f.type, None, None, f.default)
                    for f in dataclasses.fields(keys)}
        rules.update(((section, key), rule) for key, rule in keys.items())
    return rules


SCHEMA = schema_rules()
# a wrong type, a non-finite number, a negative and a zero; no value asks
# for more than a few codes
WRONG = [True, False, 2.5, "x", "", [1], {"k": 1}, None, float("nan"),
         float("inf"), float("-inf"), -1, 0, 0.0]


def wrong(values):
    """A strategy of fresh copies of `values`, so no change edits another's
    value in place."""
    return st.sampled_from(values).map(copy.deepcopy)


def wrong_values(rule):
    _, least, most, _ = rule
    return wrong(WRONG + [bound + step for bound, step in ((least, -1),
                                                            (most, 1))
                          if bound is not None])


@st.composite
def config_docs(draw):
    """A valid tiny run config (widths <= 12, n_steps <= 4), then up to
    three changes: a key set to a value its rule refuses, a key nothing
    reads, a container beside generator keys, or a section that is no
    mapping."""
    widths = draw(st.lists(st.integers(1, 12), min_size=2, max_size=3))
    doc = {"schema_version": 1,
           "network": {"layers": [list(p) for p in zip(widths, widths[1:])],
                       "seed": draw(st.integers(0, 9)),
                       "n_out": draw(st.sampled_from([None, 1, 5]))},
           "features": {"n_steps": draw(st.integers(0, 4)),
                        "scale": draw(st.sampled_from([0.0, 1.0, "1.5e0"]))},
           "tile": {"nh_capacity": draw(st.integers(2, 12))},
           "mode": draw(st.sampled_from(["stacked", "reload", "chip_select"])),
           "operating_point": {"frequency_hz": draw(st.sampled_from(
               [5e-324, "1.0e7", 3e9]))},
           "sweep": {"axis": "grid", "values": [2, 1]}}
    for _ in range(draw(st.integers(0, 3))):
        change = draw(st.sampled_from(["value", "width", "unread",
                                       "container", "section"]))
        if change == "value":
            (section, key), rule = draw(st.sampled_from(list(SCHEMA.items())))
            place = doc if section is None else doc.setdefault(section, {})
            if isinstance(place, dict):
                place[key] = draw(wrong_values(rule))
        elif change == "width" and isinstance(doc.get("network"), dict) \
                and isinstance(doc["network"].get("layers"), list) \
                and doc["network"]["layers"]:
            pair = draw(st.sampled_from(doc["network"]["layers"]))
            if isinstance(pair, list) and pair:
                pair[draw(st.integers(0, len(pair) - 1))] = draw(wrong(WRONG))
        elif change == "unread":
            section = draw(st.sampled_from(list(cli._CONFIG)))
            place = doc if section is None else doc.setdefault(section, {})
            if isinstance(place, dict):
                place["bogus"] = 1
        elif change == "container":  # alone or beside generator keys
            section = draw(st.sampled_from(["network", "features"]))
            place = doc.get(section)
            path = draw(wrong(WRONG + ["net.json"]))
            if draw(st.booleans()) and isinstance(place, dict):
                place["container"] = path
            else:
                doc[section] = {"container": path}
        else:
            section = draw(st.sampled_from(list(cli._CONFIG)[1:]))
            doc[section] = draw(wrong([0, False, [], "x", [1]]))
    return doc


def assert_clean_outcome(rc, capsys):
    """Exit 0 with a bit-exact run, or exit 1 or 2 with one message line;
    an escaping exception has already failed the caller."""
    out, err = capsys.readouterr()
    if rc == 0:
        assert "BIT-EXACT: yes" in out and err == ""
    else:
        assert rc in (1, 2), (rc, err)
        assert err.count("\n") == 1 and err.startswith(
            "error: " if rc == 1 else "constraint violated: "), err


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=config_docs())
def test_no_config_document_ends_in_a_traceback(capsys, doc):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "c.yaml")
        with open(cfg, "w", encoding="utf-8") as fh:
            yaml.safe_dump(doc, fh)
        rc = cli.main(["run", "--config", cfg, "--out",
                       os.path.join(tmp, "o")])
    assert_clean_outcome(rc, capsys)


MISSING = Ellipsis  # a field deleted, not set (deepcopy keeps it)
MANIFEST_FIELDS = (
    [("manifest", f) for f in ("container", "version", "blob", "meta",
                               "tensors")]
    + [("meta", f) for f in ("kind", "layers", "n_out", "state_frac_bits",
                             "gate_frac_bits", "n_steps")]
    + [("entry", f) for f in ("name", "role", "shape", "dtype", "offset",
                              "byte_length", "frac_bits", None)])


@st.composite
def manifest_changes(draw):
    """(kind, changes): one or two fields of a tiny saved network or
    feature container's manifest, its meta or one entry (None: the whole
    entry), each set to a wrong value or deleted."""
    changes = [draw(st.sampled_from(MANIFEST_FIELDS))
               + (draw(st.integers(0, 15)),
                  draw(wrong(WRONG + [MISSING, 1, 7, 8, [[6]],
                                      [[6, 8], [8, 2]], [2, 3]])))
               for _ in range(draw(st.integers(1, 2)))]
    return draw(st.sampled_from(["network", "features"])), changes


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutation=manifest_changes())
def test_no_container_manifest_ends_in_a_traceback(capsys, mutation):
    kind, changes = mutation

    def mutate(manifest):
        for where, field, index, value in changes:
            place = manifest
            if where != "manifest":
                place = manifest.get("meta" if where == "meta" else "tensors")
                if where == "entry" and isinstance(place, list) and place:
                    if field is None:  # the whole entry
                        place[index % len(place)] = value
                        if value is MISSING:
                            del place[index % len(place)]
                        continue
                    place = place[index % len(place)]
            if not isinstance(place, dict):
                continue
            if value is MISSING:
                place.pop(field, None)
            else:
                place[field] = value

    with tempfile.TemporaryDirectory() as tmp:
        path = save_mutated(pathlib.Path(tmp), kind, mutate)
        cfg = write_config(pathlib.Path(tmp) / "c.yaml",
                           **tiny_doc(**{kind: {"container": path}}))
        rc = cli.main(["run", "--config", cfg, "--out",
                       os.path.join(tmp, "o")])
    assert_clean_outcome(rc, capsys)


def readme_key_table():
    """{key: (type, least, most, default)}: the cells of README.md's
    config key table, code spans unwrapped."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    start = lines.index("| key | type | least | most | default |") + 2
    rows = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        key, *cells = [cell.strip().replace("`", "")
                       for cell in line.strip("|").split("|")]
        rows[key] = tuple(cells)
    return rows


def spelled(kind):
    """A schema type as README.md's key table writes it."""
    if isinstance(kind, tuple):
        return "one of " + ", ".join(kind)
    if isinstance(kind, list):
        return "[%s]" % spelled(kind[0])
    return kind.__name__


def test_readme_key_table_is_the_schema():
    # a library type's section leaves its range to the type
    want = {}
    for (section, key), (kind, least, most, default) in SCHEMA.items():
        owner = cli._CONFIG[section]
        bounds = (["by " + owner.__name__] * 2 if isinstance(owner, type) else
                  ["" if b is None else json.dumps(b) for b in (least, most)])
        want[key if section is None else "%s.%s" % (section, key)] = (
            spelled(kind), *bounds, json.dumps(default))
    assert readme_key_table() == want
