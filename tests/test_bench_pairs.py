"""Argument checks of tools/bench_pairs.py that need no benchmark run."""

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
