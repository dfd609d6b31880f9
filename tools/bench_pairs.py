#!/usr/bin/env python3
"""Alternating parent/change runs of the benchmark, recorded in one JSON file.

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD \\
        --workload scan_sc --workload scan_ua --pairs 10 --seed 701 \\
        --out BENCH_7.json

Each revision is exported with ``git archive`` into its own directory under
``--workdir`` (a temporary directory by default), and ``perfbench/run.py``
runs there, one run at a time.  Pair i uses seed ``--seed + i``
on both sides and runs the parent first when i is even, the change first
when i is odd.  The record holds the last-line JSON of every run, with its
seed and position in the run order; both SHAs; nproc; the Python and numpy
versions; and per workload, side and metric the median and quartiles.  Per
metric it also gives the pairs the change won and whether its median moved
by more than the parent's quartile distance.  Per workload and side it
records, and prints, the seeds of the runs that read ``correct: false``.
After each run of a CLI workload it records the sha256 of the CSV the run
wrote (``perfbench/out/<workload>.csv`` in that tree), and per workload
whether parent and change wrote identical bytes; that is printed too.
Nothing here measures: every number comes from ``perfbench/run.py``.
Untraced runs (``--trace 0``, the end-to-end metrics) go under
"workloads", traced ones (``--trace 1``, the per-layer metrics) under
"traced".
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(sha: str, dest: Path) -> Path:
    """The tree of ``sha`` in the directory ``dest`` (kept if it exists)."""
    if dest.exists():
        return dest
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", "--format=tar", sha], cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        sys.exit(f"git archive {sha} failed")
    return dest


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` run; its last stdout line, parsed."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{checkout.name} {workload} seed {seed} exited with {proc.returncode}:\n"
                 f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def csv_digest(tree: Path, workload: str) -> str | None:
    """sha256 of the CSV the last run of ``workload`` wrote in ``tree``;
    None for a workload that writes none (``pairs_scalar``)."""
    path = tree / "perfbench" / "out" / f"{workload}.csv"
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None


def compare_csv(runs: list[dict]) -> dict:
    """Per side, the distinct CSV digests of its runs, and whether parent and
    change wrote identical bytes in every run (None: no CSV)."""
    out = {s: sorted({r["csv_sha256"] for r in runs if r["side"] == s} - {None})
           for s in ("parent", "change")}
    out["identical"] = (len(out["parent"]) == 1 and out["parent"] == out["change"]
                        if out["parent"] or out["change"] else None)
    return out


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: each side's median and quartiles, and the pair comparison."""
    out = {}
    for m in metrics:
        name = m["name"]
        by_pair = {s: {r["pair"]: r["result"]["metrics"][name]["value"]
                       for r in runs if r["side"] == s} for s in ("parent", "change")}
        side = {s: [v[i] for i in sorted(v)] for s, v in by_pair.items()}
        stats = {s: quartiles(v) for s, v in side.items()}
        sign = 1.0 if m["better"] == "lower" else -1.0
        wins = sum(sign * (c - p) < 0 for p, c in zip(side["parent"], side["change"]))
        losses = sum(sign * (c - p) > 0 for p, c in zip(side["parent"], side["change"]))
        p, c = stats["parent"], stats["change"]
        out[name] = {
            **stats,
            "change_wins": wins, "change_losses": losses, "pairs": len(side["parent"]),
            "relative_change": (c["median"] - p["median"]) / p["median"] if p["median"] else None,
            "parent_quartile_distance": p["q3"] - p["q1"],
            "gain_shown": (wins >= 0.9 * len(side["parent"])
                           and sign * (p["median"] - c["median"]) > p["q3"] - p["q1"]),
        }
        if "bound" in m:
            out[name]["bound"] = m["bound"]
            out[name]["within_bound"] = \
                sign * (c["median"] - p["median"]) <= m["bound"] * p["median"]
    return out


def failing_seeds(runs: list[dict]) -> dict:
    """Per side, the seeds of the runs that read ``correct: false``."""
    return {s: [r["seed"] for r in runs if r["side"] == s and not r["result"]["correct"]]
            for s in ("parent", "change")}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent")
    ap.add_argument("--change", required=True, help="git revision of the change")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    ap.add_argument("--seconds", type=float, default=None,
                    help="run length (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", default=None)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    if args.pairs < 2:
        ap.error("--pairs must be at least 2: the record takes quartiles over the pairs")

    shas = {"parent": git("rev-parse", args.parent), "change": git("rev-parse", args.change)}
    workdir = Path(args.workdir or tempfile.mkdtemp(prefix="bench-pairs-"))
    trees = {s: export(sha, workdir / f"{s}-{sha[:12]}") for s, sha in shas.items()}
    bench = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]

    out = Path(args.out)
    record = json.loads(out.read_text()) if out.exists() else {}
    if record.get("parent_sha", shas["parent"]) != shas["parent"] or \
            record.get("change_sha", shas["change"]) != shas["change"]:
        sys.exit(f"{out} records other revisions")
    record.update({
        "parent_sha": shas["parent"], "change_sha": shas["change"],
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": version("numpy"), "platform": platform.platform(),
    })
    for workload in args.workload:
        runs, order = [], 0
        for i in range(args.pairs):
            seed = args.seed + i
            for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                result = run_once(trees[side], workload, seed, seconds, args.trace)
                runs.append({"pair": i, "order": order, "side": side, "seed": seed,
                             "csv_sha256": csv_digest(trees[side], workload),
                             "result": result})
                order += 1
                print(f"{workload} pair {i} {side}: "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                      flush=True)
        section = record.setdefault("traced" if args.trace else "workloads", {})
        section[workload] = {
            "command": f"perfbench/run.py --workload {workload} --seed S "
                       f"--seconds {seconds:g} --trace {args.trace}",
            "seeds": [args.seed + i for i in range(args.pairs)],
            "runs": runs,
            "failed_share": {s: statistics.median(r["result"]["failed"] / r["result"]["attempted"]
                                                  for r in runs if r["side"] == s)
                             for s in ("parent", "change")},
            "correct": all(r["result"]["correct"] for r in runs),
            "failing_seeds": failing_seeds(runs),
            "csv": compare_csv(runs),
            "metrics": summarize(runs, bench["per_layer" if args.trace else "end_to_end"]),
        }
        out.write_text(json.dumps(record, indent=1) + "\n")
        same = section[workload]["csv"]["identical"]
        if same is not None:
            print(f"{workload}: parent and change wrote "
                  + ("identical CSV bytes" if same else "different CSV bytes"), flush=True)
        for side, seeds in section[workload]["failing_seeds"].items():
            if seeds:
                print(f"{workload} {side}: correct: false at seeds "
                      + ", ".join(map(str, seeds)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
