"""What a command loads: the package exports its names lazily, and a scan
imports the UA and exact-reference modules only for the methods it runs.

The module sets are read in fresh interpreters, because the test process
has imported every module already."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import coulomb_sc as cs

ROOT = Path(__file__).resolve().parents[1]
# the modules `import coulomb_sc.cli` loads, which are all an SC scan runs
SC_SCAN_MODULES = {"coulomb_sc", "coulomb_sc.errors", "coulomb_sc.cli", "coulomb_sc.scan",
                   "coulomb_sc._kernels", "coulomb_sc.geometry", "coulomb_sc.model",
                   "coulomb_sc.semiclassical"}
TINY_SCAN = ["scan", "--nu", "9.7", "--source", "50,0,0", "--grid=x:-40:100:4",
             "--grid=y:-40:40:3"]
TINY_CUT = ["cut", "--nu", "5.3", "--source", "20,0,0", "--cut=x:-15:40:12", "--fix=y:10"]

PROBE = """
import gc, json, sys
def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "coulomb_sc")
import coulomb_sc
stages = {"package": loaded()}
import coulomb_sc.cli as cli
stages["cli"] = loaded()
stages["numpy"] = "numpy" in sys.modules
stages["collector_on"] = gc.isenabled()
for method in ("sc", "ua"):
    code = cli.main(sys.argv[2:] + ["--method", method, "--out", sys.argv[1]])
    stages[method] = [code, loaded()]
print(json.dumps(stages))
"""


def run_python(args, **kw):
    """A fresh interpreter that imports coulomb_sc from where this one does."""
    env = dict(os.environ)
    src = str(Path(cs.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          **kw)


@pytest.fixture(scope="module")
def stages(tmp_path_factory):
    out = tmp_path_factory.mktemp("startup") / "scan.csv"
    proc = run_python(["-c", PROBE, str(out), *TINY_SCAN])
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])  # after the scans' "written to"


def test_package_import_loads_only_the_errors(stages):
    assert stages["package"] == ["coulomb_sc", "coulomb_sc.errors"]


def test_cli_import_loads_what_an_sc_scan_runs_and_no_more(stages):
    assert set(stages["cli"]) == SC_SCAN_MODULES
    assert stages["numpy"]


def test_cli_import_leaves_the_collector_on(stages):
    # only the process entry (`run`, `python -m coulomb_sc.cli`) turns it off
    assert stages["collector_on"]


def test_sc_scan_loads_no_further_module(stages):
    assert stages["sc"] == [0, stages["cli"]]


def test_ua_scan_loads_uniform_but_not_the_exact_reference(stages):
    code, modules = stages["ua"]
    assert code == 0
    assert "coulomb_sc.uniform" in modules and "coulomb_sc.qm_oracle" not in modules


# with the collector off, the cyclic garbage each command leaves behind
CYCLES = """
import gc, json, sys
gc.disable()
import coulomb_sc.cli as cli
found = {}
for name, args in json.loads(sys.argv[1]).items():
    gc.collect()
    cli.main(args)
    found[name] = gc.collect()
print(json.dumps(found))
"""


def test_commands_leave_no_more_cycles_than_eigenvalues(tmp_path):
    # the process entry runs a command without the cyclic collector: what a
    # command leaves to collect is its argparse parser, which eigenvalues
    # builds too (278 objects on Python 3.11)
    commands = {
        "eigenvalues": ["eigenvalues", "--kmax", "3"],
        "scan": TINY_SCAN + ["--method", "all", "--out", str(tmp_path / "scan.csv")],
        "cut": TINY_CUT + ["--out", str(tmp_path / "cut.csv")],
        "tof": ["tof", "--nu", "9.7", "--source", "50,0,0", "--r", "80,30,0", "--loops", "1"],
    }
    proc = run_python(["-c", CYCLES, json.dumps(commands)])
    assert proc.returncode == 0, proc.stderr
    found = json.loads(proc.stdout.splitlines()[-1])
    assert found["eigenvalues"] > 0
    assert all(found[name] <= found["eigenvalues"] for name in commands), found


# numerical cross-checks that no evaluator or command calls: they live in
# tests/oracles.py, not in the package
ORACLES = ("action_via_anomalies", "dimensional_factor", "green_sc_bound_product",
           "green_sc_bound_sum", "kepler_transfer_time", "radial_green", "vvpm_det_numeric")


def test_every_public_name_resolves():
    assert len(cs.__all__) == 42
    for name in cs.__all__:
        assert getattr(cs, name) is not None, name
    assert set(cs.__all__) <= set(dir(cs))
    # the scalar Airy wrappers are gone: uniform.airy_ai_both gives both
    for name in ("no_such_name", *ORACLES, "airy_ai", "airy_ai_prime"):
        with pytest.raises(AttributeError, match=name):
            getattr(cs, name)


@pytest.mark.parametrize("args", [TINY_SCAN + ["--method", "all"], TINY_CUT],
                         ids=["scan_all", "cut"])
def test_traced_cli_still_sees_the_exact_reference(tmp_path, args):
    # perfbench's traced run wraps scan.qm_field and qm_oracle.solve_radial
    # in place, so both must stay names that their callers look up
    spans = tmp_path / "spans.json"
    proc = run_python([str(ROOT / "perfbench" / "tracing.py"), str(spans), *args,
                       "--out", str(tmp_path / "out.csv")])
    assert proc.returncode == 0, proc.stderr
    names = {span[0] for span in json.loads(spans.read_text())["spans"]}
    assert {"scan.eval_qm", "qm_oracle.qm_field", "qm_oracle.solve_radial"} <= names
