"""Tests of the benchmark's own checks: each accepts a real output of the
program and rejects a perturbed copy of it.

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import oracle as O  # noqa: E402
import run as R  # noqa: E402

SMALL_UA = dict(R.WORKLOADS["scan_ua"], exclude=R.EXCLUDE,
                axes=[("x", -600.0, 1900.0, 60), ("y", -1300.0, 1300.0, 60)])
SMALL_SC = dict(SMALL_UA, method="sc")
CUT = dict(R.WORKLOADS["cut_all"], exclude=R.EXCLUDE)


def cli_output(name: str, spec: dict, tmp_path: Path) -> str:
    out = tmp_path / f"{name}.csv"
    args = R.cli_args(name, spec, ROOT / "perfbench" / "out" / "x.csv")[:-2]
    subprocess.run([sys.executable, "-m", "coulomb_sc.cli", *args, "--out", str(out)],
                   cwd=ROOT, env=R.child_env(), check=True, capture_output=True)
    return out.read_text(encoding="utf-8")


def edit(text: str, row: int, col: int, fn) -> str:
    """Apply ``fn`` to one field (row 0 is the first data row)."""
    lines = text.split("\n")
    fields = lines[row + 1].split(",")
    fields[col] = fn(fields[col])
    lines[row + 1] = ",".join(fields)
    return "\n".join(lines)


def scale_column(text: str, col: int, factor: float) -> str:
    lines = text.split("\n")
    for i in range(1, len(lines) - 1):
        fields = lines[i].split(",")
        fields[col] = checks.fmt(float(fields[col]) * factor)
        lines[i] = ",".join(fields)
    return "\n".join(lines)


@pytest.fixture(scope="module")
def scan_ua(tmp_path_factory):
    return cli_output("ua", SMALL_UA, tmp_path_factory.mktemp("ua"))


@pytest.fixture(scope="module")
def scan_sc(tmp_path_factory):
    return cli_output("sc", SMALL_SC, tmp_path_factory.mktemp("sc"))


@pytest.fixture(scope="module")
def cut(tmp_path_factory):
    return cli_output("cut", CUT, tmp_path_factory.mktemp("cut"))


@pytest.fixture(scope="module")
def pair_records():
    import pairs

    res = pairs.run(seed=3, seconds=0.0, trace=False)
    return res["records"]


def scan_tally(text, spec):
    return checks.check_scan(text, spec, np.random.default_rng(0))


# --- the oracle ----------------------------------------------------------------

def test_contiguous_relations_match_numerical_derivatives():
    nu, z = 7.3, mp.mpf(11.5)
    with mp.workdps(30):
        dw = ((z / 2 - nu) * mp.whitw(nu, 0.5, z) - mp.whitw(nu + 1, 0.5, z)) / z
        dm = ((z / 2 - nu) * mp.whitm(nu, 0.5, z) + (1 + nu) * mp.whitm(nu + 1, 0.5, z)) / z
        assert abs(dw - mp.diff(lambda t: mp.whitw(nu, 0.5, t), z)) < 1e-12 * abs(dw)
        assert abs(dm - mp.diff(lambda t: mp.whitm(nu, 0.5, t), z)) < 1e-12 * abs(dm)


def test_hostler_matches_free_source_limit():
    # G -> -1/(2 pi s) as s -> 0 in atomic units
    rp = (30.0, 0.0, 0.0)
    for s in (1e-3, 1e-4):
        g, env = O.hostler((30.0, s, 0.0), rp, 8.6)
        assert g == pytest.approx(-1.0 / (2.0 * np.pi * s), rel=10 * s)
        assert env >= abs(g)


def test_classical_zeta_matches_package():
    import coulomb_sc as cs

    nu, rp = 12.3, np.array([100.0, 0.0, 0.0])
    spec = cs.energy_from_nu(nu, cs.AU)
    for r in ([50.0, 80.0, 0.0], [-300.0, 40.0, 0.0], [400.0, 200.0, 0.0]):
        _, ap, _ = O.lambert(r, rp)
        want = cs.uniform_inputs(np.array(r), rp, spec, cs.AU)[0].zeta
        assert O.airy_zeta(ap, nu) == pytest.approx(want, rel=1e-9, abs=1e-9)


# --- scan ------------------------------------------------------------------------

def test_scan_outputs_pass(scan_sc, scan_ua):
    for text, spec in ((scan_sc, SMALL_SC), (scan_ua, SMALL_UA)):
        t = scan_tally(text, spec)
        assert t.attempted == 3600 and not t.failed, t.failed


def test_scan_rejects_values_scaled(scan_ua):
    t = scan_tally(scale_column(scan_ua, 2, 1.05), SMALL_UA)
    assert t.failed["scan.oracle_ua"] > 0


def test_scan_rejects_row_dropped(scan_sc):
    lines = scan_sc.split("\n")
    t = scan_tally("\n".join(lines[:500] + lines[501:]), SMALL_SC)
    assert t.failed["scan.shape"] == 3600 and not t.correct


def test_scan_rejects_region_flipped(scan_sc):
    flip = {"Allowed": "Forbidden", "Forbidden": "Allowed"}
    t = scan_tally(edit(scan_sc, 1234, 5, flip.get), SMALL_SC)
    assert t.failed == {"scan.region": 1}


def test_scan_rejects_broken_mirror(scan_sc):
    t = scan_tally(edit(scan_sc, 1234, 2, lambda v: checks.fmt(float(v) * (1 + 1e-6))),
                   SMALL_SC)
    assert t.failed["scan.mirror_symmetry"] == 2


def test_scan_rejects_wrong_format(scan_sc):
    t = scan_tally(edit(scan_sc, 10, 2, lambda v: f"{float(v):.6e}"), SMALL_SC)
    assert t.failed == {"scan.format": 1}


# --- cut -------------------------------------------------------------------------

def test_cut_output_passes_but_for_the_known_fault(cut):
    t = checks.check_cut(cut, CUT)
    assert t.attempted == 3 * 251
    assert t.failed == {"cut.G_qm_nan_unconverged": 17} and t.correct


def test_cut_rejects_values_scaled(cut):
    t = checks.check_cut(scale_column(cut, 2, 1.05), CUT)
    assert t.failed["cut.dev_sc_recompute"] > 200 and not t.correct


def test_cut_rejects_exact_value_moved(cut):
    qm = np.array([float(line.split(",")[1]) for line in cut.split("\n")[1:-1]])
    i = int(np.nanargmax(np.abs(qm)))
    moved = edit(cut, i, 1, lambda v: checks.fmt(float(v) * (1 + 1e-4)))
    t = checks.check_cut(moved, CUT)
    assert t.failed["cut.oracle_qm"] == 1 and not t.correct


def test_cut_rejects_row_dropped(cut):
    lines = cut.split("\n")
    t = checks.check_cut("\n".join(lines[:100] + lines[101:]), CUT)
    assert t.failed["cut.shape"] == 3 * 251


# --- library pairs ----------------------------------------------------------------

def test_pairs_pass_but_for_the_known_faults(pair_records):
    t = checks.check_pairs(pair_records)
    assert t.correct, t.failed
    assert t.failed["pairs.green_uniform_raises_doubly_forbidden"] == 2 * 4


def in_window_n3(rec, method, bound):
    s, ap, am = O.lambert(rec["r"], rec["rp"])
    return (rec["n"] == 3 and "error" not in rec.get(method, {"error": 1})
            and am < 4 * rec["nu"] ** 2
            and checks.in_window(method, ap, am, s, rec["nu"], bound, 0.0))


def perturbed(records, pick, change):
    recs = copy.deepcopy(records)
    rec = next(r for r in recs if pick(r))
    change(rec)
    return checks.check_pairs(recs)


def test_pairs_reject_values_scaled(pair_records):
    def scale(rec):
        rec["ua"]["value"] = [1.05 * v for v in rec["ua"]["value"]]
        rec["ua"]["swapped"] = rec["ua"]["rotated"] = rec["ua"]["value"]

    t = perturbed(pair_records, lambda r: in_window_n3(r, "ua", checks.UA_BOUND)
                  and abs(O.hostler(r["r"], r["rp"], r["nu"])[0])
                  > 0.5 * O.hostler(r["r"], r["rp"], r["nu"])[1], scale)
    assert t.failed["pairs.oracle_ua"] == 1


def test_pairs_reject_region_flipped(pair_records):
    def flip(rec):
        rec["region"] = "Forbidden" if rec["region"] == "Allowed" else "Allowed"

    assert perturbed(pair_records, lambda r: True, flip).failed["pairs.classify_region"] == 1


def test_pairs_reject_travel_time_off(pair_records):
    def shift(rec):
        rec["paths"][1][1] *= 1 + 1e-4

    t = perturbed(pair_records, lambda r: "paths" in r, shift)
    assert t.failed["pairs.four_paths_T_not_dW_dE"] == 1


def test_pairs_reject_broken_reciprocity_and_rotation(pair_records):
    def swap(rec):
        rec["sc"]["swapped"] = [v * (1 + 1e-6) for v in rec["sc"]["swapped"]]
        rec["sc"]["rotated"] = [v * (1 - 1e-6) for v in rec["sc"]["rotated"]]

    t = perturbed(pair_records, lambda r: "error" not in r["sc"], swap)
    assert t.failed["pairs.sc_reciprocity"] == 1 and t.failed["pairs.sc_rotation"] == 1
