"""Writer of the answers table, ``tests/data/answers.csv``.

One ``richardson enumerate --format csv`` row per canonical coloring, under
one header: every type A coloring up to rank 9, the B/C/D colorings of
``--by-blocks`` (one per Levi shape) with matrix size at most 16, and every
G2, F4, E6, E7 and E8 coloring.  Rewrite the table with

    PYTHONPATH=src python tests/answers.py
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

from richardson import cli
from richardson.verify import classical_kinds_up_to

TABLE = Path(__file__).parent / "data" / "answers.csv"


def _commands():
    for kind in classical_kinds_up_to(("A",), 10):
        yield ["enumerate", "--kind", kind.name, "--format", "csv"]
    for kind in classical_kinds_up_to(("B", "C", "D"), 16):
        yield ["enumerate", "--kind", kind.name, "--by-blocks", "--format", "csv"]
    for name in ("G2", "F4", "E6", "E7", "E8"):
        yield ["enumerate", "--kind", name, "--format", "csv"]


def rows() -> list[str]:
    """The table's lines, header first, as the CLI prints them today."""
    lines: list[str] = []
    for argv in _commands():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        if code:
            raise RuntimeError(f"richardson {' '.join(argv)} exited {code}")
        header, *body = out.getvalue().splitlines()
        if not lines:
            lines.append(header)
        lines.extend(body)
    return lines


if __name__ == "__main__":
    TABLE.write_text("".join(line + "\n" for line in rows()))
    print(f"wrote {TABLE}")
