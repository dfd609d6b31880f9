"""Checks of tools/bench_pairs.py that need no benchmark run."""

import importlib.util
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


def test_one_pair_is_refused_before_any_run(tmp_path):
    # quartiles need two values per side, so one pair would run every
    # workload and then lose the runs
    out = tmp_path / "bench.json"
    proc = subprocess.run([sys.executable, str(TOOL), "--parent", "HEAD", "--change", "HEAD",
                           "--workload", "cut_all", "--pairs", "1", "--seed", "1",
                           "--seconds", "0.01", "--workdir", str(tmp_path / "trees"),
                           "--out", str(out)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert "--pairs must be at least 2" in proc.stderr
    assert not out.exists() and not (tmp_path / "trees").exists()


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_failing_runs_are_named_by_seed():
    runs = [{"pair": i, "side": side, "seed": 500 + i, "result": {"correct": ok}}
            for i, (p_ok, c_ok) in enumerate([(True, True), (False, True), (True, False),
                                               (False, False)])
            for side, ok in (("parent", p_ok), ("change", c_ok))]
    tool = load_tool()
    assert tool.failing_seeds(runs) == {"parent": [501, 503], "change": [502, 503]}
    assert tool.failing_seeds(runs[:2]) == {"parent": [], "change": []}


def test_csv_digests_compare_parent_and_change(tmp_path):
    # each run's CSV is read from its own tree; identical bytes on both
    # sides compare equal, one changed byte does not, and a workload
    # without a CSV (pairs_scalar) has no comparison
    import hashlib

    tool = load_tool()
    trees = {}
    for side, data in (("parent", b"x,y\n1,2\n"), ("change", b"x,y\n1,2\n"),
                       ("other", b"x,y\n1,3\n")):
        out = tmp_path / side / "perfbench" / "out"
        out.mkdir(parents=True)
        (out / "scan_sc.csv").write_bytes(data)
        trees[side] = tmp_path / side
    digest = tool.csv_digest(trees["parent"], "scan_sc")
    assert digest == hashlib.sha256(b"x,y\n1,2\n").hexdigest()
    assert tool.csv_digest(trees["parent"], "pairs_scalar") is None

    def runs(change_tree, workload="scan_sc"):
        return [{"side": side, "csv_sha256": tool.csv_digest(tree, workload)}
                for _ in range(2) for side, tree in (("parent", trees["parent"]),
                                                     ("change", change_tree))]

    same = tool.compare_csv(runs(trees["change"]))
    assert same == {"parent": [digest], "change": [digest], "identical": True}
    differ = tool.compare_csv(runs(trees["other"]))
    assert differ["identical"] is False and differ["change"] != [digest]
    assert tool.compare_csv(runs(trees["change"], "pairs_scalar")) == \
        {"parent": [], "change": [], "identical": None}
