#!/usr/bin/env python3
"""Write the Airy node table of ``coulomb_sc.uniform`` from mpmath.

    python3 tools/airy_nodes.py

The table holds (Ai(x0), Ai'(x0)) at the nodes x0 = -7 + k/8, k = 0..112,
each the float nearest to its value at 40 digits, one node a line as hex
floats (``float.hex``).  It is the string between the two marker lines in
``src/coulomb_sc/uniform.py``, which this script rewrites in place; a
string constant compiles in a fraction of the time of one float literal
per entry.  ``tests/test_uniform.py`` recomputes the table and holds the
committed one to it bit for bit.
"""

from __future__ import annotations

import re
from pathlib import Path

import mpmath as mp

UNIFORM = Path(__file__).resolve().parent.parent / "src" / "coulomb_sc" / "uniform.py"
#: the nodes -7, -7 + 1/8, ..., 7
NODES = 113
DIGITS = 40
BEGIN = "# airy-nodes: begin (tools/airy_nodes.py)\n"
END = "# airy-nodes: end\n"


def node_values() -> list[tuple[float, float]]:
    """(Ai(x0), Ai'(x0)) at every node, each rounded once to a float."""
    with mp.workdps(DIGITS):
        xs = [mp.mpf(-7) + mp.mpf(k) / 8 for k in range(NODES)]
        return [(float(mp.airyai(x)), float(mp.airyai(x, derivative=1))) for x in xs]


def table_source() -> str:
    """The lines between the markers: the table as a string constant."""
    rows = "".join(f"{ai.hex()} {aip.hex()}\n" for ai, aip in node_values())
    return f'_AIRY_NODE_TEXT = """\n{rows}"""\n'


def main():
    text = UNIFORM.read_text(encoding="utf-8")
    block = re.compile(re.escape(BEGIN) + ".*?" + re.escape(END), re.S)
    if len(block.findall(text)) != 1:
        raise SystemExit(f"{UNIFORM}: expected one block between {BEGIN.strip()!r} "
                         f"and {END.strip()!r}")
    UNIFORM.write_text(block.sub(lambda _: BEGIN + table_source() + END, text),
                       encoding="utf-8")
    print(f"wrote {NODES} nodes to {UNIFORM}")


if __name__ == "__main__":
    main()
