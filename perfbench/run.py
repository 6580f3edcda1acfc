"""Benchmark of the richardson library and CLI.

Run from the repository root:

    python3 perfbench/run.py --workload verify-sweep --seed 1 --seconds 30 --trace 0

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``).  ``--write-digests`` records the digests of the enumerate
commands' outputs, for use after a deliberate change of the output format.

Exit codes: 0 after printing a result, 2 when the richardson sources cannot
be found or imported from ``src/`` beside this directory.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"


def _library_error() -> str | None:
    """Import richardson from this checkout's ``src/`` and nowhere else."""
    if not (SRC_DIR / "richardson" / "__init__.py").is_file():
        return f"no richardson sources under {SRC_DIR}"
    sys.path.insert(0, str(SRC_DIR))
    try:
        import richardson
    except ImportError as exc:
        return f"cannot import richardson: {exc}"
    if SRC_DIR.resolve() not in Path(richardson.__file__).resolve().parents:
        return f"richardson was imported from {richardson.__file__}, not {SRC_DIR}"
    return None


def main() -> int:
    sys.path.insert(0, str(BENCH_DIR))
    import harness

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", action="store_true", dest="write_digests")
    args = parser.parse_args()
    if not args.write_digests and args.workload is None:
        parser.error("--workload is required")
    error = _library_error()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.write_digests:
        digests = harness.EnumerateCli(digests={}).record_digests()
        harness.DIGESTS_FILE.write_text(json.dumps(digests, indent=2) + "\n")
        print(f"wrote {len(digests)} digests to {harness.DIGESTS_FILE}")
        return 0

    workload = harness.WORKLOADS[args.workload]()
    result = harness.measure(workload, args.seed, args.seconds, bool(args.trace))

    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("machine " + json.dumps(harness.machine_info(args.seed)))
    ratio = result["failed"] / result["attempted"] if result["attempted"] else 0.0
    print(
        f"passes {result['passes']}  attempted {result['attempted']}  failed {result['failed']}"
        f"  failed_ratio {ratio:g}"
    )
    if "tail_percentile" in result:
        print(
            f"latency_ms_tail is p{result['tail_percentile']:g}; samples per pass "
            + " ".join(map(str, result["latency_samples"]))
        )
        print("pass seconds " + " ".join(f"{t:.3f}" for t in result["pass_seconds"]))
        print("setup seconds " + " ".join(f"{t:.3f}" for t in result["setup_times"]))
    if result.get("absent"):
        print("absent (metrics read 0): " + ", ".join(result["absent"]))
    for problem in result["problems"][:20]:
        print(f"problem: {problem}")
    for name, m in result["metrics"].items():
        print(f"  {name:<55} {m['value']:>14.6g} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
