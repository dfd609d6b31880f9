"""Spans recorded around calls into the program's layers.

A span is [name, start, end, parent index]; spans stay in memory and are
written out when the traced process ends.  Self time is a span's duration
minus the time its direct children cover.

Run as a script, this module is the traced CLI: it wraps the layers the
CLI passes through, runs ``coulomb_sc.cli.main`` with the given arguments
and writes the spans and counts to a JSON file:

    python perfbench/tracing.py SPANS.json scan --nu 29.2 ...
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def begin(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), 0.0, parent])

    def end(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` with a span around every call; raised errors are counted
        as ``<name>.failures``; ``on_result(counts, result)`` may add counts."""
        def traced(*args, **kwargs):
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counts[name + ".failures"] += 1
                raise
            finally:
                self.end()
            if on_result is not None:
                on_result(self.counts, result)
            return result
        return traced


def self_times(spans: list[list]) -> dict[str, float]:
    """Total self time per span name."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out: Counter = Counter()
    for (name, t0, t1, _), c in zip(spans, child):
        out[name] += (t1 - t0) - c
    return dict(out)


def total_times(spans: list[list]) -> dict[str, float]:
    """Total wall time per span name (nested calls of one name counted once
    each; the CLI layers do not recurse)."""
    out: Counter = Counter()
    for name, t0, t1, _ in spans:
        out[name] += t1 - t0
    return dict(out)


def _patch_cli(tracer: Tracer):
    """Wrap the layers the CLI passes through, where their callers look
    them up."""
    import numpy as np

    from coulomb_sc import _kernels as K, cli, qm_oracle, scan

    def count_points(counts, result):
        counts["scan.points"] += len(result[0])

    def count_qm_points(counts, result):
        count_points(counts, result)
        counts["qm_oracle.unconverged_points"] += int(
            np.sum(result[2] == K.STATUS_UNCONVERGED))

    def count_csv(counts, text):
        counts["scan.csv_bytes"] += len(text.encode("utf-8"))

    def count_mesh(counts, sol):
        counts["qm_oracle.solve_radial_calls"] += 1
        counts["qm_oracle.mesh_points"] += len(sol.grid)

    for name in ("run_scan", "run_cut"):
        setattr(cli, name, tracer.wrap(f"scan.{name}", getattr(cli, name), count_csv))
    scan.eval_sc = tracer.wrap("scan.eval_sc", scan.eval_sc, count_points)
    scan.eval_ua = tracer.wrap("scan.eval_ua", scan.eval_ua, count_points)
    scan.eval_qm = tracer.wrap("scan.eval_qm", scan.eval_qm, count_qm_points)
    scan.qm_field = tracer.wrap("qm_oracle.qm_field", scan.qm_field)
    qm_oracle.solve_radial = tracer.wrap("qm_oracle.solve_radial",
                                         qm_oracle.solve_radial, count_mesh)
    return tracer.wrap("cli.main", cli.main)


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    main_fn = _patch_cli(tracer)
    code = main_fn(cli_args)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
