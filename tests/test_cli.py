"""Command-line wiring: CSV formats, determinism, exit codes, JSON config."""

import gc
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import coulomb_sc as cs
from coulomb_sc.cli import _scan_config, build_parser, main
from coulomb_sc.scan import ScanConfig, eigenvalue_table, fmt, run_cut, run_scan


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


def test_eigenvalues_table(capsys):
    code, out, _ = run_cli(["eigenvalues", "--kmax", "2"], capsys)
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
    rows = [ln.split() for ln in lines[1:]]
    assert float(rows[0][1]) == pytest.approx(-0.5)
    assert float(rows[1][1]) == pytest.approx(-0.125)
    assert float(rows[2][1]) == pytest.approx(-1.0 / 18.0)
    assert float(rows[0][2]) / (2 * math.pi) == pytest.approx(1.0)


def test_eigenvalues_two_dimensional(capsys):
    code, out, _ = run_cli(["eigenvalues", "--kmax", "0", "--ndim", "2"], capsys)
    assert code == 0
    row = out.splitlines()[-1].split()
    assert float(row[1]) == pytest.approx(-2.0)


def test_scan_csv_roundtrip(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    args = ["scan", "--nu", "9.7", "--source", "50,0,0",
            "--grid", "x:40:120:5", "--grid", "y:10:60:4",
            "--method", "sc", "--out", str(out)]
    code, _, _ = run_cli(args, capsys)
    assert code == 0
    text = out.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "x,y,re,im,method,region,reason"
    assert len(lines) == 1 + 5 * 4
    # deterministic output
    code, _, _ = run_cli(args, capsys)
    assert text == out.read_text()
    # 17 significant digits, scientific notation
    field = lines[1].split(",")[2]
    mantissa = field.split("e")[0].replace("-", "").replace(".", "")
    assert len(mantissa) == 17
    # region column carries the classification
    regions = {ln.split(",")[5] for ln in lines[1:]}
    assert regions <= {"Allowed", "OnCaustic", "Forbidden"}


def test_scan_without_out_writes_csv_to_stdout(tmp_path, capsys):
    args = ["scan", "--nu", "9.7", "--source", "50,0,0",
            "--grid", "x:40:120:5", "--grid", "y:10:60:4"]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    path = tmp_path / "scan.csv"
    code, msg, _ = run_cli(args + ["--out", str(path)], capsys)
    assert code == 0 and msg == f"scan written to {path}\n"
    assert out == path.read_text()
    assert out.startswith("x,y,re,im,method,region,reason\n") and out.count("\n") == 21


def test_scan_method_all_has_rows_per_method(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    code, _, _ = run_cli(["scan", "--nu", "5.3", "--source", "20,0,0",
                          "--grid", "x:10:40:3", "--grid", "y:5:25:3",
                          "--method", "all", "--out", str(out)], capsys)
    assert code == 0
    lines = out.read_text().strip().split("\n")[1:]
    assert len(lines) == 3 * 3 * 3
    methods = [ln.split(",")[4] for ln in lines[:3]]
    assert methods == ["sc", "ua", "qm"]
    # per-point method agreement where everything is defined: the uniform
    # value tracks the exact one to the semiclassical accuracy at nu = 5.3
    rows = [ln.split(",") for ln in lines]
    by_point = {}
    for r in rows:
        by_point.setdefault((r[0], r[1]), {})[r[4]] = (float(r[2]), r[5], r[6])
    scale = max(abs(v["qm"][0]) for v in by_point.values()
                if np.isfinite(v["qm"][0]))
    for v in by_point.values():
        ua, qm = v["ua"][0], v["qm"][0]
        if np.isfinite(ua) and np.isfinite(qm) and v["ua"][1] == "Allowed":
            assert abs(ua - qm) < 0.2 * scale


def test_scan_survives_caustic_points(tmp_path, capsys):
    # a grid line pinned exactly on the caustic must yield NaN+reason rows,
    # not a failure
    spec = cs.energy_from_nu(5.3, cs.AU)
    x_on = 2.0 * spec.a  # on-axis caustic point for source at (20,0,0)...
    out = tmp_path / "scan.csv"
    code, _, _ = run_cli(["scan", "--nu", "5.3", "--source", "20,0,0",
                          "--grid", f"x:{2 * spec.a - 20:.0f}:{2 * spec.a + 20:.0f}:5",
                          "--grid", "y:0:30:3", "--method", "sc",
                          "--out", str(out)], capsys)
    assert code == 0
    rows = [ln.split(",") for ln in out.read_text().strip().split("\n")[1:]]
    regions = {r[5] for r in rows}
    # the window straddles the caustic: both sides present, nothing aborted
    assert "Allowed" in regions and "Forbidden" in regions
    nan_rows = [r for r in rows if r[2] == "nan"]
    assert all(r[6] != "" for r in nan_rows)


def test_cut_csv(tmp_path, capsys):
    out = tmp_path / "cut.csv"
    code, _, err = run_cli(["cut", "--nu", "5.3", "--source", "20,0,0",
                            "--cut", "x:-15:40:12", "--fix", "y:10",
                            "--out", str(out)], capsys)
    assert code == 0
    assert "exclude" in err
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "x,G_qm,G_sc,G_ua,dev_sc,dev_ua"
    assert len(lines) == 13
    data = np.genfromtxt(out, delimiter=",", names=True)
    # deviations are small away from caustic/source for most points
    finite = np.isfinite(data["dev_ua"])
    assert finite.sum() >= 8
    assert np.nanmedian(np.abs(data["dev_ua"][finite])) < 0.2


def test_eigenvalues_out_file(tmp_path, capsys):
    out = tmp_path / "eig.csv"
    code, _, _ = run_cli(["eigenvalues", "--kmax", "4", "--ndim", "4", "--out", str(out)],
                         capsys)
    assert code == 0
    rows = eigenvalue_table(4, cs.SystemParams(ndim=4))
    want = "k,E,W_2pi\n" + "".join(f"{k},{fmt(e)},{fmt(w)}\n" for k, e, w in rows)
    assert out.read_bytes() == want.encode("ascii")


def test_numerical_failure_exits_three(capsys):
    # alpha_+ = 177.9 lies beyond the caustic 4a = 16 at nu = 2
    code, out, err = run_cli(["tof", "--nu", "2", "--source", "50,0,0", "--r", "80,30,0"],
                             capsys)
    assert code == 3
    assert "numerical failure: endpoint pair lies beyond the caustic" in err


def test_tof_table(capsys):
    code, out, _ = run_cli(["tof", "--nu", "9.7", "--source", "50,0,0",
                            "--r", "80,30,0", "--loops", "1"], capsys)
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
    rows = [ln.split() for ln in lines[1:]]
    assert len(rows) == 8  # 4 paths x (0, 1) loops
    w = {(int(r[0]), int(r[1])): float(r[2]) for r in rows}
    t = {(int(r[0]), int(r[1])): float(r[3]) for r in rows}
    m = {(int(r[0]), int(r[1])): int(r[4]) for r in rows}
    spec = cs.energy_from_nu(9.7, cs.AU)
    w2pi, t2pi = cs.round_trip(spec, cs.AU)
    assert t[(3, 0)] + t[(1, 0)] == pytest.approx(t2pi, rel=1e-12)
    assert t[(4, 0)] + t[(2, 0)] == pytest.approx(t2pi, rel=1e-12)
    assert w[(1, 1)] - w[(1, 0)] == pytest.approx(w2pi, rel=1e-12)
    assert m[(1, 1)] == 4
    assert all(v >= 0 for v in t.values())


def test_tof_degenerate_touch(capsys):
    # alpha_minus = 0 goes through the force center: T1 = T2
    code, out, _ = run_cli(["tof", "--energy", "-0.5", "--source", "0.5,0,0",
                            "--r=-1.0,0,0"], capsys)
    assert code == 0
    rows = [ln.split() for ln in out.splitlines() if ln.strip()[:1].isdigit()]
    assert float(rows[0][3]) == pytest.approx(float(rows[1][3]), rel=1e-12)


def test_config_errors_exit_two(capsys, tmp_path):
    bad = [
        ["scan", "--nu", "9.7", "--grid", "x:0:1:5"],                       # one grid
        ["scan", "--nu", "9.7", "--energy", "-0.1", "--grid", "x:0:1:5",
         "--grid", "y:0:1:5"],                                              # both nu and E
        ["scan", "--grid", "x:0:1:5", "--grid", "y:0:1:5"],                 # neither
        ["scan", "--nu", "9.7", "--grid", "x:0:1:1", "--grid", "y:0:1:5"],  # count < 2
        ["scan", "--nu", "9.0", "--grid", "x:0:1:5", "--grid", "y:0:1:5"],  # pole
        ["cut", "--nu", "9.7", "--cut", "q:0:1:5"],                         # bad axis
        ["scan", "--nu", "9.7", "--ndim", "2", "--method", "qm",
         "--grid", "x:0:1:5", "--grid", "y:0:1:5"],                         # qm needs 3d
        ["scan", "--nu", "9.7", "--source", "nan,0,0",
         "--grid", "x:0:1:5", "--grid", "y:0:1:5"],                         # NaN source
        ["scan", "--nu", "9.7", "--source", "50,-inf,0",
         "--grid", "x:0:1:5", "--grid", "y:0:1:5"],                         # infinite source
        ["scan", "--nu", "9.7", "--grid", "x:0:1:5", "--grid", "x:2:3:5"],  # axis twice
        ["scan", "--nu", "9.7", "--grid", "x:0:1:5", "--grid", "y:0:1:5",
         "--fix", "x:0.5"],                                                 # fix a swept axis
        ["cut", "--nu", "9.7", "--cut", "x:0:1:5", "--fix", "x:0.5"],       # the same, cut
        ["scan", "--nu", "9.7", "--grid", "x:0:1:5", "--grid", "y:0:1:5",
         "--fix", "q:0.5"],                                                 # bad fixed axis
        ["scan", "--nu", "9.7", "--grid", "x:0:1:5", "--grid", "y:0:1:5",
         "--fix", "z:nan"],                                                 # NaN fixed value
        ["tof", "--nu", "9.7", "--source", "50,0,0", "--r", "80,30,0",
         "--loops", "-1"],                                                  # negative loops
        ["scan", "--energy", "0.5", "--grid", "x:0:1:5", "--grid", "y:0:1:5"],  # E > 0
        ["cut", "--energy", "0.5", "--cut", "x:0:1:5"],                     # E > 0, cut
        ["tof", "--energy", "0.5", "--r", "80,30,0"],                       # E > 0, tof
        ["scan", "--energy", "inf", "--grid", "x:0:1:5", "--grid", "y:0:1:5"],  # E infinite
        ["scan", "--nu", "1e-300", "--grid", "x:0:1:5", "--grid", "y:0:1:5"],  # E = -inf
        ["cut", "--nu", "1e300", "--cut", "x:0:1:5"],                       # E = 0
        ["tof", "--nu", "1e-300", "--r", "80,30,0"],                        # E = -inf, tof
        ["tof", "--nu", "9.7", "--r", "nan,2,3"],                           # NaN endpoint
        ["tof", "--nu", "9.7", "--source", "50,inf,0", "--r", "80,30,0"],   # infinite source
        ["eigenvalues", "--ndim", "1"],                                     # ndim < 2
        ["tof", "--nu", "9.7", "--ndim", "1", "--source", "50", "--r", "80"],  # ndim < 2, tof
        ["cut", "--nu", "5.3", "--source", "20,0,0", "--cut", "x:-15:40:12",
         "--fix", "y:10", "--exclude-radius", "nan"],                       # NaN exclusion
        ["cut", "--nu", "5.3", "--source", "20,0,0", "--cut", "x:-15:40:12",
         "--fix", "y:10", "--exclude-radius", "-1"],                        # negative exclusion
        ["scan", "--nu", "9.7", "--ndim", "4", "--method", "sc", "--source", "50,0,0,0",
         "--grid", "x:0:1:5", "--grid", "y:0:1:5"],                         # ndim 4
        ["scan", "--nu", "9.7", "--ndim", "2", "--source", "50,0,7",
         "--grid", "x:0:1:5", "--grid", "y:0:1:5"],                         # source not 2-D
        ["scan", "--ndim", "2", "--nu", "9.7", "--source", "50,0", "--grid=x:-30:80:4",
         "--grid=y:20:21:2", "--method", "sc"],                             # ndim 2, SC
        ["cut", "--nu", "5.3", "--source", "20,0,0", "--cut", "x:-15:40:12",
         "--fix", "y:10", "--exclude-radius", "1000"],                      # all excluded
        ["tof", "--r", "80,30,0"],                                          # neither, tof
        ["tof", "--nu", "9.7", "--r", "80,30"],                             # r not 3-D
        ["scan", "--nu", "9.7", "--grid", "x:1:0:5", "--grid", "y:0:1:5"],  # hi < lo
        ["scan", "--nu", "9.7", "--grid", "x:1:1:5", "--grid", "y:0:1:5"],  # hi = lo
        ["scan", "--nu", "9.7", "--grid", "x:0:inf:5", "--grid", "y:0:1:5"],  # infinite range
        ["cut", "--nu", "9.7", "--cut", "x:nan:1:5"],                       # NaN range
        ["scan", "--nu", "9.7", "--source", "50,0",
         "--grid", "x:0:1:5", "--grid", "y:0:1:5"],                         # source not 3-D
        ["eigenvalues", "--kmax", "-1"],                                    # negative kmax
        # squared lengths that overflow: every point would be NaN with status OK
        ["scan", "--nu", "5.3", "--grid=x:1e200:2e200:2", "--grid=y:1:2:2"],   # |x|^2
        ["scan", "--nu", "5.3", "--source", "1e200,0,0",
         "--grid=x:1:2:2", "--grid=y:1:2:2"],                               # |x'|^2
        ["scan", "--nu", "5.3", "--source=-1e154,0,0",
         "--grid=x:0:1e154:2", "--grid=y:1:2:2"],                           # |x - x'|^2 only
        ["scan", "--nu", "5.3", "--method", "all",
         "--grid=x:1e200:2e200:2", "--grid=y:1:2:2"],                       # every method
        ["scan", "--nu", "5.3", "--method", "qm",
         "--grid=x:1e200:2e200:2", "--grid=y:1:2:2"],                       # exact reference
        ["cut", "--nu", "5.3", "--cut=x:1e200:2e200:3"],                    # cut
        ["cut", "--nu", "5.3", "--cut=x:0:1:3", "--fix=y:1e200"],           # fixed axis
        # unparsable text, named in the message
        (["scan", "--nu", "9.7", "--grid", "x:0:1", "--grid", "y:0:1:5"], "'x:0:1'"),
        (["scan", "--nu", "9.7", "--grid", "x:0:one:5", "--grid", "y:0:1:5"], "'x:0:one:5'"),
        (["cut", "--nu", "9.7", "--cut", "x:0:1:2.5"], "'x:0:1:2.5'"),
        (["cut", "--nu", "9.7", "--cut", "x:0:1:5", "--fix", "y"], "'y'"),
        (["cut", "--nu", "9.7", "--cut", "x:0:1:5", "--fix", "y:1:2"], "'y:1:2'"),
        (["cut", "--nu", "9.7", "--cut", "x:0:1:5", "--fix", "y:ten"], "'y:ten'"),
        (["scan", "--nu", "9.7", "--source", "50,zero,0",
          "--grid", "x:0:1:5", "--grid", "y:0:1:5"], "'50,zero,0'"),
        (["tof", "--nu", "9.7", "--r", "80,,0"], "'80,,0'"),
    ]
    for args in bad:
        args, named = (args, "") if isinstance(args, list) else args
        code, out, err = run_cli(args, capsys)
        assert code == 2, args
        assert "config error" in err and named in err and out == "", args

    # --config values of the wrong JSON type
    scan_cfg = {"nu": 5.3, "source": [20, 0, 0], "grid": ["x:10:40:3", "y:5:25:3"]}
    cut_cfg = {"nu": 5.3, "source": [20, 0, 0], "cut": "x:-15:40:12", "fix": ["y:10"]}
    bad_configs = [
        ("scan", scan_cfg, "nu", "5.3"),
        ("scan", scan_cfg, "nu", True),
        ("scan", {**scan_cfg, "nu": None}, "energy", "-0.1"),
        ("cut", cut_cfg, "exclude_radius", "5"),
        ("cut", cut_cfg, "exclude_radius", None),
        ("scan", scan_cfg, "ndim", 3.0),
        ("scan", scan_cfg, "ndim", True),
        ("scan", scan_cfg, "method", 1),
        ("scan", scan_cfg, "out", 5),
        ("scan", scan_cfg, "source", "20,0,0"),
        ("scan", scan_cfg, "source", [20, False, 0]),
        ("scan", scan_cfg, "grid", "x:-20:40:5"),
        ("scan", scan_cfg, "grid", ["x:10:40:3", 5]),
        ("scan", scan_cfg, "fix", "z:1"),
        ("cut", cut_cfg, "cut", ["x:-15:40:12"]),
    ]
    for cmd, base, key, value in bad_configs:
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**base, key: value}))
        code, out, err = run_cli([cmd, "--config", str(path)], capsys)
        assert code == 2, (key, value)
        assert f"config error: config key {key!r} must be" in err and out == "", (key, value)
    # a key the command does not read, misspelled or another command's, is
    # refused by name, not dropped in favour of the default or of the flags
    grids = ["--grid", "x:10:40:3", "--grid", "y:5:25:3"]
    unread = [
        ("cut", {**cut_cfg, "cut": "x:-40:60:25", "exclude_radus": 1000}, "exclude_radus", []),
        ("scan", {**scan_cfg, "exclude_radius": 1000}, "exclude_radius", []),
        ("scan", {**scan_cfg, "cut": "x:10:40:3"}, "cut", []),
        ("scan", {**scan_cfg, "cut": "x:10:40:3"}, "cut", grids),
        ("cut", {**cut_cfg, "method": "ua"}, "method", []),
        ("cut", {**cut_cfg, "grid": ["y:5:25:3"]}, "grid", []),
        ("scan", {**scan_cfg, "config": "other.json"}, "config", []),
    ]
    for cmd, data, key, flags in unread:
        path = tmp_path / "unread.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli([cmd, "--config", str(path), *flags], capsys)
        assert code == 2 and out == "", key
        assert f"config error: unknown config key(s) {key!r}" in err, key
    for cmd, base in (("scan", scan_cfg), ("cut", cut_cfg)):  # integers are numbers
        path = tmp_path / "good.json"
        path.write_text(json.dumps(base))
        code, out, _ = run_cli([cmd, "--config", str(path)], capsys)
        assert code == 0 and out.count("\n") > 1


@pytest.mark.parametrize("content", [b'{"nu": 5.3,', b"\xff\xfe{}", b"[5.3]"],
                         ids=["truncated", "not_utf8", "not_an_object"])
def test_malformed_config_file_exits_two(capsys, tmp_path, content):
    # a file that is not a UTF-8 JSON object is the configuration's fault,
    # named as such, not a numerical failure (exit 3)
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    code, out, err = run_cli(["scan", "--config", str(path)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("config error: ") and repr(str(path)) in err


def test_lmax_retired_exits_two(capsys, tmp_path):
    # the exact reference has no partial-wave truncation left to set
    code, _, _ = run_cli(["cut", "--nu", "5.3", "--source", "20,0,0",
                          "--cut", "x:-15:40:12", "--fix", "y:10", "--lmax", "40"],
                         capsys)
    assert code == 2
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"nu": 5.3, "source": [20.0, 0.0, 0.0],
                                "cut": "x:-15:40:12", "fix": ["y:10"], "lmax": 40}))
    code, _, err = run_cli(["cut", "--config", str(path)], capsys)
    assert code == 2
    assert "lmax" in err


def test_io_error_exit_four(capsys):
    code, _, _ = run_cli(["scan", "--nu", "9.7", "--source", "50,0,0",
                          "--grid", "x:40:120:3", "--grid", "y:10:60:3",
                          "--out", "/nonexistent-dir/x.csv"], capsys)
    assert code == 4


def test_json_config_with_flag_override(tmp_path, capsys):
    cfg = {
        "nu": 5.3, "method": "sc", "source": [20.0, 0.0, 0.0],
        "grid": ["x:10:40:3", "y:5:25:3"], "out": str(tmp_path / "a.csv"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, _, _ = run_cli(["scan", "--config", str(path)], capsys)
    assert code == 0
    assert (tmp_path / "a.csv").exists()
    # a flag overrides the file
    code, _, _ = run_cli(["scan", "--config", str(path),
                          "--out", str(tmp_path / "b.csv")], capsys)
    assert code == 0
    assert (tmp_path / "b.csv").exists()
    # ... also when the flag's value is its default
    path.write_text(json.dumps({**cfg, "method": "ua", "out": None}))
    code, out, _ = run_cli(["scan", "--config", str(path), "--method", "sc"], capsys)
    assert code == 0
    assert {ln.split(",")[4] for ln in out.splitlines()[1:]} == {"sc"}
    path.write_text(json.dumps({**cfg, "ndim": 2, "source": [20.0, 0.0], "out": None}))
    code, _, _ = run_cli(["scan", "--config", str(path), "--method", "ua"], capsys)
    assert code == 2  # the uniform approximation needs ndim = 3
    code, _, _ = run_cli(["scan", "--config", str(path), "--method", "ua", "--ndim", "3",
                          "--source", "20,0,0"], capsys)
    assert code == 0
    path.write_text(json.dumps({"nu": 5.3, "source": [20.0, 0.0, 0.0], "cut": "x:-15:40:12",
                                "fix": ["y:10"], "exclude_radius": 30.0}))
    code, out, err = run_cli(["cut", "--config", str(path), "--exclude-radius", "5.0"],
                             capsys)
    assert code == 0 and "< 5.0 Bohr" in err
    dev_ua = np.genfromtxt(out.splitlines(), delimiter=",", names=True)["dev_ua"]
    assert np.isfinite(dev_ua).sum() >= 8  # the file's 30-Bohr exclusion leaves two


def test_config_file_and_flags_merge(tmp_path):
    # a given flag replaces the file's value; --nu/--energy replace both
    # energy keys, --cut the swept axis, and --fix entries the file's per axis
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"nu": 5.3, "source": [20, 0, 0], "cut": "x:-15:40:12",
                                "fix": ["y:10", "z:1"], "exclude_radius": 30.0,
                                "out": "a.csv"}))
    args = build_parser().parse_args(["cut", "--config", str(path), "--energy", "-0.03",
                                      "--cut", "x:0:1:5", "--fix", "z:2", "--ndim", "3"])
    assert _scan_config(args, want_grids=1) == ScanConfig(
        energy=-0.03, source=(20.0, 0.0, 0.0), grids=[("x", 0.0, 1.0, 5)],
        fixes={"y": 10.0, "z": 2.0}, exclude_radius=30.0, out="a.csv")


def test_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "coulomb_sc.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "coulomb-sc" in proc.stdout


SCAN_ALL = ["scan", "--nu", "9.7", "--source", "50,0,0", "--grid=x:-40:100:4",
            "--grid=y:-40:40:3", "--method", "all"]
CUT = ["cut", "--nu", "5.3", "--source", "20,0,0", "--cut=x:-15:40:12", "--fix=y:10"]


def run_module(args, unbuffered=False):
    """``python -m coulomb_sc.cli`` in a fresh interpreter that imports the
    package from where this one does."""
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    src = str(Path(cs.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.Popen([sys.executable, "-m", "coulomb_sc.cli", *args], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


@pytest.mark.parametrize("args", [
    ["eigenvalues", "--kmax", "2"],
    SCAN_ALL,
    CUT,
    ["tof", "--nu", "9.7", "--source", "50,0,0", "--r", "80,30,0"],
    ["scan", "--nu", "9.7", "--method", "xyz"],
], ids=["eigenvalues", "scan", "cut", "tof", "refused"])
def test_main_leaves_the_collector_as_it_finds_it(args, capsys):
    # only the process entry (`run`) turns the collector off and freezes the heap
    before = gc.isenabled(), gc.get_freeze_count()
    run_cli(args, capsys)
    assert (gc.isenabled(), gc.get_freeze_count()) == before


@pytest.mark.parametrize("args", [
    CUT + ["--method", "sc"],
    SCAN_ALL[:-2] + ["--exclude-radius", "5"],
    CUT + ["--grid", "y:5:25:3"],
    SCAN_ALL + ["--cut", "x:-15:40:12"],
], ids=["cut_method", "scan_exclude_radius", "cut_grid", "scan_cut"])
def test_another_commands_flag_exits_two(args, capsys):
    # each command's parser declares the flags it reads and refuses the rest
    code, out, err = run_cli(args, capsys)
    assert code == 2 and out == ""
    assert f"unrecognized arguments: {' '.join(args[-2:])}" in err


@pytest.mark.parametrize("args, cfg", [
    (SCAN_ALL,
     ScanConfig(method="all", nu=9.7, source=(50.0, 0.0, 0.0),
                grids=[("x", -40.0, 100.0, 4), ("y", -40.0, 40.0, 3)])),
    (CUT,
     ScanConfig(nu=5.3, source=(20.0, 0.0, 0.0), grids=[("x", -15.0, 40.0, 12)],
                fixes={"y": 10.0})),
], ids=["scan", "cut"])
def test_module_entry_writes_the_library_bytes(args, cfg):
    # the process entry runs without the cyclic collector: same CSV bytes
    proc = run_module(args)
    out, err = proc.communicate()
    assert proc.returncode == 0, err
    want = run_scan(cfg) if args[0] == "scan" else run_cut(cfg)
    assert out == bytes(want)


@pytest.mark.parametrize("args, code, prefix", [
    (["scan", "--nu", "9.7", "--grid=x:0:1:2", "--grid=y:0:1:2", "--method", "xyz"],
     2, b"usage: coulomb-sc scan"),
    (["tof", "--nu", "2", "--source", "50,0,0", "--r", "80,30,0"],
     3, b"numerical failure: endpoint pair lies beyond the caustic"),
    (["scan", "--nu", "9.7", "--source", "50,0,0", "--grid=x:40:120:3",
      "--grid=y:10:60:3", "--out", "/nonexistent-dir/x.csv"], 4, b"i/o error: "),
], ids=["config", "numeric", "io"])
def test_module_entry_exit_codes(args, code, prefix):
    proc = run_module(args)
    _, err = proc.communicate()
    assert proc.returncode == code
    assert err.startswith(prefix), err


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_stdout_closed_early_exits_four(unbuffered):
    # 3 600 rows, well over a pipe's 64 KiB: the reader leaves after 10 bytes
    proc = run_module(["scan", "--nu", "9.7", "--source", "50,0,0",
                       "--grid=x:-40:100:60", "--grid=y:-40:40:60"], unbuffered=unbuffered)
    assert proc.stdout.read(10) == b"x,y,re,im,"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 4
    assert err.startswith(b"i/o error: "), err
