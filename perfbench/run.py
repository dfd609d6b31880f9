#!/usr/bin/env python3
"""coulomb-sc benchmark: three CLI workloads and one library workload.

    python3 perfbench/run.py --workload scan_sc --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout, never from an installed copy.  Every CLI call is
``python -m coulomb_sc.cli`` in a fresh process, one at a time; the
library workload runs in one worker process (``pairs.py``).  Outputs are
checked against Hostler's closed form (``oracle.py``) and the properties in
``checks.py``.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from timing import wait_sampled  # noqa: E402
from tracing import self_times, total_times  # noqa: E402

SETUP_REPEATS = 7
MIN_CALLS = 3
EXCLUDE = 5.0  # the CLI's default --exclude-radius (Bohr)

NU53 = (5.3 / 29.2) ** 2  # criterion-8 scaling of the nu = 29.2 cut

WORKLOADS = {
    "scan_sc": {
        "kind": "scan", "method": "sc", "nu": 29.2, "source": (1232.0, 0.0, 0.0),
        "axes": [("x", -600.0, 1900.0, 300), ("y", -1300.0, 1300.0, 300)],
    },
    "scan_ua": {
        "kind": "scan", "method": "ua", "nu": 29.2, "source": (1232.0, 0.0, 0.0),
        "axes": [("x", -600.0, 1900.0, 200), ("y", -1300.0, 1300.0, 200)],
    },
    "cut_all": {
        "kind": "cut", "nu": 5.3, "source": (1232.0 * NU53, 0.0, 0.0),
        "axes": [("x", -500.0 * NU53, 2000.0 * NU53, 251)],
        "fix": {"y": 400.0 * NU53},
    },
    "pairs_scalar": {"kind": "pairs"},
}

CLI_LAYERS = {  # metric -> (unit, how it is read from one traced call)
    "cli.self_s": ("s", "self", ["cli.main"]),
    "scan.eval_sc_s": ("s", "total", ["scan.eval_sc"]),
    "scan.eval_ua_s": ("s", "total", ["scan.eval_ua"]),
    "scan.eval_qm_s": ("s", "total", ["scan.eval_qm"]),
    "scan.csv_s": ("s", "self", ["scan.run_scan", "scan.run_cut"]),
    "scan.points": ("count", "count", ["scan.points"]),
    "scan.csv_bytes": ("bytes", "count", ["scan.csv_bytes"]),
    "qm_oracle.qm_field_s": ("s", "total", ["qm_oracle.qm_field"]),
    "qm_oracle.solve_radial_calls": ("count", "count", ["qm_oracle.solve_radial_calls"]),
    "qm_oracle.solve_radial_s": ("s", "total", ["qm_oracle.solve_radial"]),
    "qm_oracle.mesh_points": ("count", "count", ["qm_oracle.mesh_points"]),
    "qm_oracle.channel_sum_s": ("s", "self", ["qm_oracle.qm_field"]),
    "qm_oracle.unconverged_points": ("count", "count", ["qm_oracle.unconverged_points"]),
}

PAIR_LAYERS = ["geometry.lambert_variables", "geometry.classify_region",
               "actions.four_paths", "vvpm.vvpm_det", "semiclassical.green_sc_bound",
               "semiclassical.green_sc_tunnel", "uniform.green_uniform"]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # one process, no extra threads
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(argv: list[str], log: Path) -> tuple[float, float, float]:
    """Run one process to its end; (wall seconds scaled to the reference
    speed, unscaled wall seconds, peak RSS in MB)."""
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=fh,
                                stderr=subprocess.STDOUT)
        wall, raw, status, usage = wait_sampled(proc.pid, t0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(argv[1:3])} exited with {proc.returncode}; "
                 f"see {log.relative_to(ROOT)}:\n{log.read_text(errors='replace')[-2000:]}")
    return wall, raw, usage.ru_maxrss / 1024.0


def measure_setup() -> float:
    """Median wall time of a fresh interpreter importing coulomb_sc.cli,
    scaled to the reference machine speed."""
    probe = OUT / "import.log"
    spawn([sys.executable, "-c", "import coulomb_sc.cli, sys; "
           "print(sys.modules['coulomb_sc'].__file__)"], probe)
    where = Path(probe.read_text().strip()).resolve()
    if ROOT / "src" not in where.parents:
        sys.exit(f"coulomb_sc imported from {where}, not from this checkout")
    return statistics.median(
        spawn([sys.executable, "-c", "import coulomb_sc.cli"], probe)[0]
        for _ in range(SETUP_REPEATS))


def cli_args(name: str, wl: dict, out: Path) -> list[str]:
    def num(v):
        return repr(float(v))

    args = [wl["kind"], "--nu", num(wl["nu"]),
            "--source", ",".join(num(v) for v in wl["source"])]
    if wl["kind"] == "scan":
        args += [f"--grid={ax}:{num(lo)}:{num(hi)}:{n}" for ax, lo, hi, n in wl["axes"]]
        args += ["--method", wl["method"]]
    else:
        (ax, lo, hi, n), = wl["axes"]
        args += [f"--cut={ax}:{num(lo)}:{num(hi)}:{n}"]
        args += [f"--fix={k}:{num(v)}" for k, v in wl["fix"].items()]
    return args + ["--out", str(out.relative_to(ROOT))]


def run_cli(name: str, wl: dict, seed: int, seconds: float, trace: bool):
    """Calls until ``seconds`` have passed (whole calls, at least MIN_CALLS);
    with ``trace`` untraced and traced calls alternate."""
    csv = OUT / f"{name}.csv"
    args = cli_args(name, wl, csv)
    plain = [sys.executable, "-m", "coulomb_sc.cli"] + args
    spans_path = OUT / f"{name}-spans.json"
    traced = [sys.executable, str(HERE / "tracing.py"), str(spans_path)] + args
    first, digests = None, []
    walls, raw_walls, rss, traced_walls, traced_calls = [], [], [], [], []
    t_end = time.perf_counter() + seconds
    i = 0
    while i < MIN_CALLS * (2 if trace else 1) or time.perf_counter() < t_end:
        use_trace = trace and i % 2 == 1
        wall, raw, peak = spawn(traced if use_trace else plain, OUT / f"{name}.log")
        data = csv.read_bytes()
        if first is None:
            first = data
        digests.append(hashlib.sha256(data).hexdigest())
        if use_trace:
            traced_walls.append(wall)
            with open(spans_path, encoding="utf-8") as fh:
                traced_calls.append(json.load(fh))
        else:
            walls.append(wall)
            raw_walls.append(raw)
            rss.append(peak)
        i += 1

    spec = dict(wl, exclude=EXCLUDE)
    if wl["kind"] == "scan":
        per_call = checks.check_scan(first.decode("utf-8"), spec, np.random.default_rng(seed))
    else:
        per_call = checks.check_cut(first.decode("utf-8"), spec)
    tally = checks.Tally(notes=per_call.notes + [
        f"unscaled wall time per call: median {statistics.median(raw_walls):.4g} s"])
    for d in digests:
        tally.attempted += per_call.attempted
        if d == digests[0]:
            tally.failed.update(per_call.failed)
        else:
            tally.fail("output_differs_between_calls", per_call.attempted)
    metrics = {"call_s": (statistics.median(walls), "s"),
               "peak_rss_mb": (statistics.median(rss), "MB")}
    if trace:
        metrics = cli_layers(traced_calls)
        metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                       - statistics.median(walls), "s")
    return tally, metrics, len(digests)


def cli_layers(calls: list[dict]) -> dict:
    """Per-layer metrics: the median over traced calls of each call's sum."""
    values = {m: [] for m in CLI_LAYERS}
    for call in calls:
        tables = {"self": self_times(call["spans"]), "total": total_times(call["spans"]),
                  "count": call["counts"]}
        for metric, (_, how, names) in CLI_LAYERS.items():
            values[metric].append(sum(tables[how].get(n, 0) for n in names))
    return {m: (statistics.median(v), CLI_LAYERS[m][0]) for m, v in values.items()}


def idle_layers() -> dict:
    """Every per-layer metric at 0, for the layers a workload does not run."""
    out = {m: (0, unit) for m, (unit, _, _) in CLI_LAYERS.items()}
    out.update({f"{name}_us": (0.0, "us") for name in PAIR_LAYERS})
    out.update({"uniform.green_uniform_calls": (0, "count"),
                "uniform.green_uniform_failures": (0, "count")})
    return out


def run_pairs(seed: int, seconds: float, trace: bool):
    out = OUT / "pairs.json"
    _, _, peak = spawn([sys.executable, str(HERE / "pairs.py"), "--seed", str(seed),
                        "--seconds", str(seconds), "--trace", str(int(trace)),
                        "--out", str(out)], OUT / "pairs.log")
    with open(out, encoding="utf-8") as fh:
        res = json.load(fh)
    checked = checks.check_pairs(res["records"])
    tally = checks.Tally(attempted=res["requested"], notes=checked.notes + [
        f"unscaled wall time per batch: median {statistics.median(res['raw_times']):.4g} s"])
    batches = res["batches"]
    for reason, count in checked.failed.items():
        tally.fail(reason, count * batches // res["checked"])
    raised_checked = sum(v for k, v in checked.failed.items() if "raise" in k)
    if res["errors"] != raised_checked * batches // res["checked"]:
        tally.fail("pairs.raised_outside_checked_batches",
                   res["errors"] - raised_checked * batches // res["checked"])
    metrics = {"call_s": (statistics.median(res["times"]), "s"),
               "peak_rss_mb": (peak, "MB")}
    if trace:
        metrics = {}
        durations = {name: [] for name in PAIR_LAYERS}
        for name, t0, t1, _ in res["spans"]:
            if name in durations:
                durations[name].append(t1 - t0)
        for name, d in durations.items():
            metrics[f"{name}_us"] = (statistics.median(d) * 1e6 if d else 0.0, "us")
        metrics["uniform.green_uniform_calls"] = (len(durations["uniform.green_uniform"]),
                                                  "count")
        metrics["uniform.green_uniform_failures"] = (
            res["counts"].get("uniform.green_uniform.failures", 0), "count")
        metrics["trace.overhead_s"] = (statistics.median(res["traced_times"])
                                       - statistics.median(res["times"]), "s")
    return tally, metrics, batches


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "coulomb_sc" / "cli.py").is_file():
        sys.exit(f"no coulomb_sc sources under {ROOT / 'src'}")
    OUT.mkdir(exist_ok=True)
    # one CPU for the benchmark, its calls and its calibration bursts, so
    # that the bursts measure the speed of the CPU the calls run on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    setup_s = measure_setup()
    wl = WORKLOADS[args.workload]
    if wl["kind"] == "pairs":
        tally, metrics, calls = run_pairs(args.seed, args.seconds, bool(args.trace))
    else:
        tally, metrics, calls = run_cli(args.workload, wl, args.seed, args.seconds,
                                        bool(args.trace))
    if args.trace:
        metrics = {**idle_layers(), **metrics}
    else:
        metrics = {"setup_s": (setup_s, "s"), **metrics}

    print(f"workload {args.workload}: {calls} calls, {tally.attempted} values "
          f"requested, {tally.n_failed} failed")
    for reason, count in sorted(tally.failed.items()):
        known = checks.KNOWN_FAULTS.get(reason)
        print(f"  failed {count:>8} {reason}" + (f"  (known fault: {known})" if known
                                                 else "  (UNEXPECTED)"))
    for note in tally.notes:
        print(f"  check: {note}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": tally.correct, "attempted": tally.attempted,
        "failed": tally.n_failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
