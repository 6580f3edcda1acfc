"""Command-line front end: classify single parabolics, enumerate families,
run the verification sweeps, export the exceptional tables.

Exit codes: 0 success, 1 verification failure or output closed early, 2 usage
or descriptor error.  All numbers are exact; machine formats share one fixed
record layout (see data/record.schema.json).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator

from .classify import ClassificationReport, classify
from .core import (
    EXCEPTIONAL_NAMES,
    MIN_RANK,
    BlockVector,
    Coloring,
    DescriptorError,
    LieKind,
    all_colorings,
)
from .exceptional import appendix_records
from .verify import classical_kinds_up_to, run_verification

# largest classical rank for enumerate and matrix size for verify: each step
# up about doubles the parabolics, and so the running time
_MAX_SIZE = 16
# the --kind choices of verify and export, as their help and errors print them
_CLASSICAL_OR_ALL = ", ".join(MIN_RANK) + " or all"
_EXCEPTIONAL_OR_ALL = ", ".join(EXCEPTIONAL_NAMES) + " or all"


def record_schema() -> dict:
    """The shipped JSON schema for one output record."""
    text = resources.files("richardson").joinpath("data/record.schema.json").read_text()
    return json.loads(text)


# the record's keys in column order, as the schema states them
RECORD_KEYS = tuple(record_schema()["required"])


def report_to_record(report: ClassificationReport) -> dict:
    """The record of one report, for every kind; an exceptional report has
    no blocks, so ``blocks`` and ``central`` are null."""
    b = report.blocks
    return {
        "kind": report.kind.name,
        "coloring": list(report.coloring.u),
        "blocks": list(b.d) if b is not None else None,
        "central": b.central if b is not None else None,
        "nice": report.nice,
        "birational": report.birational,
        "sl2": report.sl2_given,
        "normal": report.normal,
        "partition": list(report.partition) if report.partition is not None else None,
        "orbit_dim": report.orbit_dim,
        "covering_degree": report.covering_degree,
        "label": report.label,
    }


def _cell(value, none: str = "-") -> str:
    """One record value as text; ``none`` stands in for a missing value."""
    if value is None:
        return none
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return ",".join(map(str, value))
    return str(value)


def _emit_table(records: Iterable[dict], out) -> None:
    # column widths span every row, so the table alone waits for the last record
    cells = [[_cell(r[k]) for k in RECORD_KEYS] for r in records]
    widths = [
        max(len(k), *(len(row[i]) for row in cells)) if cells else len(k)
        for i, k in enumerate(RECORD_KEYS)
    ]
    out.write("  ".join(k.ljust(w) for k, w in zip(RECORD_KEYS, widths)).rstrip() + "\n")
    for row in cells:
        out.write("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n")


def _emit_csv(records: Iterable[dict], out) -> None:
    writer = csv.writer(out)
    writer.writerow(RECORD_KEYS)
    for r in records:
        writer.writerow([_cell(r[k], none="") for k in RECORD_KEYS])


def _emit_json(records: Iterable[dict], out) -> None:
    for r in records:
        out.write(json.dumps(r) + "\n")


def _emit(records: Iterable[dict], fmt: str, out) -> None:
    """Write ``records`` in ``fmt``; json and csv write each record as soon as
    the iterable yields it, one ``out.write`` per record."""
    if fmt == "table":
        _emit_table(records, out)
    elif fmt == "json":
        _emit_json(records, out)
    else:
        _emit_csv(records, out)


def _int_in(lo: int, hi: float, what: str):
    """An argparse ``type`` for integers in [lo, hi]; anything else is a usage error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or not lo <= value <= hi:
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value

    return parse


_positive_int = _int_in(1, float("inf"), "a positive integer")
_rank = _int_in(1, _MAX_SIZE, f"a rank from 1 to {_MAX_SIZE}")
_matrix_size = _int_in(
    2, _MAX_SIZE, f"a matrix size from 2 (A1 is the smallest) to {_MAX_SIZE}"
)


def _kind(text: str) -> LieKind:
    """``LieKind.parse`` with the ``--rank`` bound on classical kinds."""
    kind = LieKind.parse(text)
    if kind.is_classical and kind.rank > _MAX_SIZE:
        raise DescriptorError(f"--kind {kind.name}: expected a rank from 1 to {_MAX_SIZE}")
    return kind


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    """Comma-separated integers; an empty ``text`` has none, an empty field
    (``2,,2`` or ``1,0,``) is an error."""
    if not text.strip():
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise DescriptorError(f"cannot parse {what} {text!r}: expected comma-separated integers")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_classify(args) -> int:
    kind = _kind(args.kind)
    if args.blocks is not None and args.coloring is not None:
        raise DescriptorError("give either --blocks or --coloring, not both")
    if args.central is not None and args.blocks is None:
        raise DescriptorError("--central only makes sense together with --blocks")
    if args.coloring is not None:
        parabolic = Coloring(kind, _parse_ints(args.coloring, "coloring"))
    elif kind.is_exceptional:
        raise DescriptorError(f"{kind.name} takes --coloring (no matrix blocks)")
    elif args.blocks is not None:
        d = _parse_ints(args.blocks, "blocks")
        try:
            parabolic = BlockVector(kind, d, args.central)
        except DescriptorError as exc:
            full_sum = sum(d) + (args.central or 0)
            if (
                kind.family != "A"
                and len(d) > 1
                and tuple(reversed(d)) == d
                and full_sum == kind.matrix_size
            ):
                raise DescriptorError(
                    f"{exc} (hint: --blocks takes only the half palindrome "
                    "d_1,..,d_r; put the middle block in --central)"
                ) from None
            raise
    else:
        raise DescriptorError("one of --blocks or --coloring is required")
    if args.with_oracle and kind.is_exceptional:
        raise DescriptorError("--with-oracle applies to classical kinds only")
    report = classify(parabolic, with_oracle=args.with_oracle, trials=args.trials, seed=args.seed)
    record = report_to_record(report)
    for note in report.diagnostics:
        print(f"note: {note}", file=sys.stderr)
    if args.format == "table":
        for key in RECORD_KEYS:
            print(f"{key}: {_cell(record[key])}")
    else:
        _emit([record], args.format, sys.stdout)
    return 0


def _iter_enumerate(args, kind: LieKind) -> Iterator[dict]:
    """One record per coloring of ``kind``, classified as it is requested;
    ``--by-blocks`` keeps only canonical colorings, one per Levi shape."""
    for coloring in all_colorings(kind):
        if not args.by_blocks or coloring.canonical() == coloring:
            yield report_to_record(classify(coloring))


def _wanted(args, r: dict) -> bool:
    """The ``--nice/--birational/--sl2/--normal`` filters, all of them at once."""
    return bool(
        (not args.nice or r["nice"])
        and (not args.birational or r["birational"])
        and (not args.sl2 or r["sl2"])
        and (not args.normal or r["normal"] == "normal")
    )


def _cmd_enumerate(args) -> int:
    kind_text = args.kind.strip().upper()
    if kind_text in MIN_RANK:
        if args.rank is None and args.max_rank is None:
            raise DescriptorError("classical enumeration needs --rank or --max-rank")
        if args.rank is not None and args.max_rank is not None:
            raise DescriptorError("give only one of --rank / --max-rank")
        hi = args.rank if args.rank is not None else args.max_rank
        lo = args.rank if args.rank is not None else MIN_RANK[kind_text]
        if hi < lo:
            raise DescriptorError(f"rank {hi} is below the minimum rank for {kind_text}")
        kinds = [LieKind(kind_text, r) for r in range(lo, hi + 1)]
    else:
        kind = _kind(kind_text)  # e.g. --kind C3 as shorthand for C --rank 3
        if args.rank is not None or args.max_rank is not None:
            raise DescriptorError(f"--rank/--max-rank conflict with the rank in --kind {kind.name}")
        if args.by_blocks and kind.is_exceptional:
            raise DescriptorError("--by-blocks applies to classical kinds only")
        kinds = [kind]
    records = (r for kind in kinds for r in _iter_enumerate(args, kind) if _wanted(args, r))
    _emit(records, args.format, sys.stdout)
    return 0


def _cmd_verify(args) -> int:
    kind_text = args.kind.strip().upper()
    families = tuple(MIN_RANK) if kind_text == "ALL" else (kind_text,)
    if any(f not in MIN_RANK for f in families):
        raise DescriptorError("verify runs on classical kinds: " + _CLASSICAL_OR_ALL)
    if not list(classical_kinds_up_to(families, args.max_n)):
        raise DescriptorError(f"no {kind_text} kind has matrix size <= {args.max_n}")
    result = run_verification(
        families=families,
        max_n=args.max_n,
        trials=args.trials,
        base_seed=args.seed,
        emit=print,
    )
    print(
        f"checked {result.checked} nice block vectors (N <= {args.max_n}): "
        f"{len(result.failures)} discrepancies"
    )
    return 0 if result.ok else 1


def _cmd_export(args) -> int:
    kind_text = args.kind.strip().upper()
    names = EXCEPTIONAL_NAMES if kind_text == "ALL" else (kind_text,)
    if any(n not in EXCEPTIONAL_NAMES for n in names):
        raise DescriptorError("export covers the exceptional kinds: " + _EXCEPTIONAL_OR_ALL)
    out_path = target = Path(args.out)
    try:
        if len(names) > 1:
            out_path.mkdir(parents=True, exist_ok=True)
            targets = [(name, out_path / f"{name}.{args.format}") for name in names]
        else:
            targets = [(names[0], out_path)]
        for name, target in targets:
            rows = [report_to_record(rep) for rep in appendix_records(LieKind.parse(name))]
            with target.open("w", newline="") as fh:
                _emit(rows, args.format, fh)
            print(f"wrote {len(rows)} rows to {target}")
    except OSError as exc:
        # a failed write or close carries no filename: name the target instead
        print(f"error: cannot write {target}: {exc.strerror}", file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------------------


_TRIALS_HELP = "oracle samples: up to N, stops at the first certified (default 3)"


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later ``main`` call in the process; ``parse_args`` keeps no state in it.

    The shared parser holds the ``_cmd_*`` functions and ``type=`` callables
    of its first build, so replacing ``cli._cmd_*`` afterwards (say, with a
    monkeypatch) does not reach ``main``.
    """
    parser = argparse.ArgumentParser(
        prog="richardson",
        description=(
            "Classify parabolic subalgebras of simple complex Lie algebras: "
            "Richardson element in the first graded part, stabilizer equality "
            "for the moment map, sl2 origin, orbit data."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a single parabolic")
    p.add_argument("--kind", required=True, help="Lie type, e.g. A3, C3, D5, E7")
    p.add_argument("--blocks", help="half block vector d_1,..,d_r (full list for type A)")
    p.add_argument("--central", type=int, default=None, help="central block size (B/C/D)")
    p.add_argument("--coloring", help="0/1 coloring of the simple roots, e.g. 1,0,1")
    p.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p.add_argument(
        "--with-oracle",
        action="store_true",
        help="run the matrix oracle: the partition of non-nice B/C/D, "
        "a check on the closed form elsewhere",
    )
    p.add_argument("--trials", type=_positive_int, default=3, metavar="N", help=_TRIALS_HELP)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("enumerate", help="enumerate and filter parabolic families")
    kinds = f"{'/'.join(MIN_RANK)} (with --rank) or {'/'.join(EXCEPTIONAL_NAMES)}"
    p.add_argument("--kind", required=True, help=kinds)
    p.add_argument("--rank", type=_rank, default=None)
    p.add_argument("--max-rank", type=_rank, default=None, dest="max_rank")
    p.add_argument(
        "--by-blocks",
        action="store_true",
        dest="by_blocks",
        help="one record per Levi shape (skips D colorings that name the same parabolic)",
    )
    p.add_argument("--nice", action="store_true")
    p.add_argument("--birational", action="store_true")
    p.add_argument("--sl2", action="store_true")
    p.add_argument("--normal", action="store_true")
    p.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify", help="closed forms vs oracle, block vs partition criteria")
    p.add_argument("--kind", default="all", help=_CLASSICAL_OR_ALL)
    p.add_argument("--max-N", type=_matrix_size, default=12, dest="max_n")
    p.add_argument("--trials", type=_positive_int, default=3, metavar="N", help=_TRIALS_HELP)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("export", help="write the exceptional tables to files")
    p.add_argument("--kind", required=True, help=_EXCEPTIONAL_OR_ALL)
    p.add_argument("--out", required=True, help="output file (directory for --kind all)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_export)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DescriptorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader stopped early (``| head``); point stdout at devnull so the
        # interpreter's final flush does not fail a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        finally:
            os.close(devnull)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
