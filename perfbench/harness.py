"""Workloads, passes and metrics of the richardson benchmark.

One client in one process runs a closed loop: each unit is requested only
after the previous one has returned.  A workload runs in whole passes over
its inputs.  The workload seed shuffles the order of each pass and becomes
the oracle's ``base_seed``; the library receives only the generated inputs.
Every library call goes through a module attribute looked up at call time,
so a :class:`tracing.Tracer` installed around a pass sees it.

This module imports nothing from ``richardson`` at import time, so that the
set-up probe can time that import.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import warnings
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from time import perf_counter

from tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
DIGESTS_FILE = BENCH_DIR / "digests.json"

TRIALS = 3
SETUP_PROBES = 9
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# nice block vectors with N <= 12, per family (pinned by the acceptance suite: 1575)
VERIFY_CASES = {"A": 1363, "B": 44, "C": 92, "D": 76}
# non-nice B/C/D block vectors with N <= 16
CLASSIFY_CALLS = 377

ENUMERATE_COMMANDS = {
    "A12-json": ("enumerate", "--kind", "A", "--rank", "12", "--format", "json"),
    "C7-csv": ("enumerate", "--kind", "C", "--max-rank", "7", "--by-blocks", "--format", "csv"),
    "D8-table": ("enumerate", "--kind", "D", "--max-rank", "8", "--by-blocks"),
    "E8-json": ("enumerate", "--kind", "E8", "--format", "json"),
}


def _lib(module: str):
    return importlib.import_module(f"richardson.{module}")


def pass_seed(seed: int, index: int) -> int:
    """Base seed of pass ``index``: trials of one run never reuse a seed."""
    return seed + index * TRIALS


@dataclass
class PassResult:
    """What one pass over a workload's inputs measured and checked."""

    attempted: int = 0
    failed: int = 0
    busy_s: float = 0.0
    # per unit: time from its request to its result
    latencies_s: list[float] = field(default_factory=list)
    # per request: time from its start to its first output
    first_result_s: dict[str, float] = field(default_factory=dict)
    # output records per CLI command
    records: dict[str, int] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def fail(self, units: int, problem: str) -> None:
        self.failed += units
        self.problems.append(problem)


# ---------------------------------------------------------------------------
# workloads


class _Workload:
    """Defaults: inputs need no preparation, and there is no check pass."""

    def prepare(self) -> None:
        pass

    def check_pass(self) -> PassResult | None:
        return None


class VerifySweep(_Workload):
    """``run_verification`` over all nice A/B/C/D block vectors up to ``max_n``.

    One sweep per family, in seed-shuffled family order.  A unit is one
    case, and the closed loop asks for the next case only after ``emit``
    reports the previous one, so each case is its own request: its latency,
    and its time to first result, is the interval between successive lines.
    """

    name = "verify-sweep"

    def __init__(self, max_n: int = 12, cases: dict[str, int] = VERIFY_CASES):
        self.max_n = max_n
        self.cases = cases

    def warm(self) -> None:
        from richardson import realization
        from richardson.verify import classical_kinds_up_to

        for kind in classical_kinds_up_to(tuple(self.cases), self.max_n):
            realization(kind)

    def run_pass(self, seed: int) -> PassResult:
        out = PassResult()
        families = sorted(self.cases)
        random.Random(seed).shuffle(families)
        for family in families:
            stamps: list[float] = []
            passed = 0

            def emit(line: str) -> None:
                nonlocal passed
                stamps.append(perf_counter())
                if line.startswith("PASS "):
                    passed += 1
                else:
                    out.problems.append(line)

            start = perf_counter()
            try:
                result = _lib("verify").run_verification(
                    families=(family,), max_n=self.max_n, trials=TRIALS, base_seed=seed, emit=emit
                )
            except Exception as exc:  # a crash fails every case not yet passed
                out.problems.append(f"verify {family}: {type(exc).__name__}: {exc}")
                checked = len(stamps)
            else:
                checked = result.checked
            out.busy_s += perf_counter() - start
            expected = self.cases[family]
            if checked != expected or len(stamps) != checked:
                out.problems.append(f"verify {family}: {checked} cases checked, expected {expected}")
            units = max(expected, checked)
            out.attempted += units
            out.failed += units - passed
            latencies = [b - a for a, b in zip([start] + stamps, stamps)]
            out.latencies_s += latencies
            out.first_result_s.update((f"{family}{i}", t) for i, t in enumerate(latencies))
        return out


class ClassifyOracle(_Workload):
    """``classify(b, with_oracle=True)`` on every non-nice B/C/D vector up to ``max_n``.

    One request per call, in seed-shuffled order; the call's time is both its
    latency and its time to first result.
    """

    name = "classify-oracle"

    def __init__(self, max_n: int = 16, calls: int = CLASSIFY_CALLS):
        self.max_n = max_n
        self.calls = calls
        self.vectors: list = []

    def _kinds(self):
        return _lib("verify").classical_kinds_up_to(("B", "C", "D"), self.max_n)

    def prepare(self) -> None:
        from richardson.classify import is_nice
        from richardson.core import all_block_vectors

        self.vectors = [b for k in self._kinds() for b in all_block_vectors(k) if not is_nice(b)]

    def warm(self) -> None:
        from richardson import realization

        for kind in self._kinds():
            realization(kind)

    def run_pass(self, seed: int) -> PassResult:
        out = PassResult()
        if len(self.vectors) != self.calls:
            out.problems.append(f"{len(self.vectors)} non-nice vectors, expected {self.calls}")
        order = list(self.vectors)
        random.Random(seed).shuffle(order)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for b in order:
                label = f"{b.kind.name} d={b.d} central={b.central}"
                seen = len(caught)
                start = perf_counter()
                try:
                    report = _lib("classify").classify(b, with_oracle=True, trials=TRIALS, seed=seed)
                except Exception as exc:
                    elapsed = perf_counter() - start
                    out.fail(1, f"classify {label}: {type(exc).__name__}: {exc}")
                else:
                    elapsed = perf_counter() - start
                    if any("no sample certified" in str(w.message) for w in caught[seen:]):
                        out.fail(1, f"classify {label}: no sample certified")
                    elif report.partition is None or sum(report.partition) != b.N:
                        out.fail(1, f"classify {label}: partition {report.partition} does not sum to {b.N}")
                out.attempted += 1
                out.busy_s += elapsed
                out.latencies_s.append(elapsed)
                out.first_result_s[label] = elapsed
        return out


class _Sink:
    """Stands in for ``sys.stdout``: hashes the output, stamps each completed
    line, and optionally validates each line as a JSON record, keeping no
    output in memory."""

    def __init__(self, validator=None):
        self.digest = hashlib.sha256()
        self.first_write: float | None = None
        self.line_times: list[float] = []
        self.invalid = 0
        self._validator = validator
        self._pending = ""

    def write(self, text: str) -> int:
        now = perf_counter()
        if self.first_write is None:
            self.first_write = now
        self.digest.update(text.encode())
        self.line_times += [now] * text.count("\n")
        if self._validator is not None:
            *lines, self._pending = (self._pending + text).split("\n")
            for line in lines:
                try:
                    valid = self._validator.is_valid(json.loads(line))
                except ValueError:
                    valid = False
                self.invalid += not valid
        return len(text)

    def flush(self) -> None:
        pass


def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS_FILE.read_text())


class EnumerateCli(_Workload):
    """``cli.main`` in-process on enumerate commands, stdout replaced by a sink.

    One request per command, in seed-shuffled order; a unit is one output
    record, and its latency is the time from the command's start to the
    write that completes the record's line.  Every command's output must
    match its recorded SHA-256 digest; an untimed check pass first validates
    each JSON line against ``cli.record_schema()``.
    """

    name = "enumerate-cli"

    def __init__(self, commands: dict[str, tuple[str, ...]] = ENUMERATE_COMMANDS, digests=None):
        self.commands = commands
        self.digests = digests

    def prepare(self) -> None:
        if self.digests is None:
            self.digests = load_digests()

    def warm(self) -> None:
        from richardson import LieKind, root_system

        root_system(LieKind.parse("E8"))

    def check_pass(self) -> PassResult:
        import jsonschema

        schema = _lib("cli").record_schema()
        validator = jsonschema.validators.validator_for(schema)(schema)
        return self._pass(list(self.commands), validator)

    def run_pass(self, seed: int) -> PassResult:
        order = list(self.commands)
        random.Random(seed).shuffle(order)
        return self._pass(order, None)

    def _pass(self, order: list[str], validator) -> PassResult:
        out = PassResult()
        for name in order:
            argv = self.commands[name]
            header = 0 if "json" in argv else 1
            sink = _Sink(validator if header == 0 else None)
            saved, sys.stdout = sys.stdout, sink
            start = perf_counter()
            try:
                code = _lib("cli").main(list(argv))
            except Exception as exc:
                code = f"{type(exc).__name__}: {exc}"
            finally:
                elapsed = perf_counter() - start
                sys.stdout = saved
            records = sink.line_times[header:]
            out.attempted += max(len(records), 1)
            out.busy_s += elapsed
            out.latencies_s += [t - start for t in records]
            out.records[name] = len(records)
            if sink.first_write is not None:
                out.first_result_s[name] = sink.first_write - start
            if code != 0:
                out.fail(max(len(records), 1), f"{name}: exit {code}")
            elif sink.digest.hexdigest() != self.digests.get(name):
                out.fail(len(records), f"{name}: output digest {sink.digest.hexdigest()} != recorded")
            elif sink.invalid:
                out.fail(sink.invalid, f"{name}: {sink.invalid} records fail the record schema")
        return out

    def record_digests(self) -> dict[str, str]:
        """Digest of each command's output as the program prints it today."""
        digests = {}
        for name, argv in self.commands.items():
            sink = _Sink()
            saved, sys.stdout = sys.stdout, sink
            try:
                _lib("cli").main(list(argv))
            finally:
                sys.stdout = saved
            digests[name] = sink.digest.hexdigest()
        return digests


WORKLOADS = {w.name: w for w in (VerifySweep, ClassifyOracle, EnumerateCli)}


def warm(name: str) -> None:
    """Import richardson and fill the lazy caches the named workload uses."""
    import richardson  # noqa: F401

    WORKLOADS[name]().warm()


# ---------------------------------------------------------------------------
# measurement

_PROBE = """\
import sys, time
sys.path[:0] = sys.argv[1:3]
import harness
start = time.perf_counter()
harness.warm(sys.argv[3])
print(time.perf_counter() - start)
"""


def setup_seconds(name: str, probes: int) -> list[float]:
    """Times of importing richardson and warming the workload's caches, each
    in a fresh interpreter."""
    times = []
    for _ in range(probes):
        done = subprocess.run(
            [sys.executable, "-c", _PROBE, str(SRC_DIR), str(BENCH_DIR), name],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(samples_per_pass: int) -> float:
    """Highest percentile with at least ten of one pass's samples beyond it.

    Fixed by the pass size, not by the number of passes a run fits, so the
    metric keeps its meaning when the program gets faster.
    """
    for pct in TAIL_PERCENTILES:
        if samples_per_pass * (1 - pct / 100) >= 10:
            return pct
    return TAIL_PERCENTILES[-1]


def machine_info(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "seed": seed,
    }


def end_to_end_metrics(passes: list[PassResult], setup_times: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics of the timed passes, plus how the tail was taken.

    Rates and percentiles are taken per pass and reported as the median over
    passes, which damps slow spells of a shared machine.
    """
    pct = tail_percentile(len(passes[0].latencies_s))
    per_pass = [sorted(p.latencies_s) for p in passes]
    by_request: dict[str, list[float]] = {}
    for p in passes:
        for request, t in p.first_result_s.items():
            by_request.setdefault(request, []).append(t)
    median = statistics.median
    metrics = {
        "setup_s": (median(setup_times), "s"),
        "throughput_per_s": (median(len(p.latencies_s) / p.busy_s for p in passes), "1/s"),
        "latency_ms_p50": (1000 * median(percentile(lat, 50) for lat in per_pass), "ms"),
        "latency_ms_tail": (1000 * median(percentile(lat, pct) for lat in per_pass), "ms"),
        "first_result_s": (median(median(v) for v in by_request.values()), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "tail_percentile": pct,
        "latency_samples": [len(lat) for lat in per_pass],
        "pass_seconds": [p.busy_s for p in passes],
        "setup_times": setup_times,
    }
    return metrics, notes


def per_layer_metrics(tracer: Tracer, plain: PassResult, traced: PassResult) -> dict:
    """Per-layer metrics of one traced pass, compared with the same pass untraced."""
    stats = tracer.layer_stats()
    metrics = {}
    for name, (calls, busy, self_s) in stats.items():
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.busy_s"] = (busy, "s")
        metrics[f"{name}.self_s"] = (self_s, "s")
    certificates = stats["oracle.certified_centralizer_dim"][0]
    metrics["oracle.jordan_partition.rank_ops"] = (tracer.rank_ops, "count")
    metrics["oracle.certified_centralizer_dim.certified_ratio"] = (
        tracer.certified / certificates if certificates else 0.0,
        "ratio",
    )
    oracle_self = sum(v[2] for k, v in stats.items() if k.startswith("oracle."))
    metrics["trace.oracle_self_share"] = (oracle_self / traced.busy_s, "ratio")
    metrics["trace.overhead_ratio"] = (traced.busy_s / plain.busy_s - 1, "ratio")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    metrics["pass.units"] = (len(traced.latencies_s), "count")
    for command in ENUMERATE_COMMANDS:
        metrics[f"cli.records.{command}"] = (traced.records.get(command, 0), "count")
    return metrics


def measure(workload, seed: int, seconds: float, trace: bool, setup_probes: int = SETUP_PROBES) -> dict:
    """Run one workload and return its result.

    Untraced, passes repeat while the next one is expected to end within
    ``seconds`` (at least one).  Traced, pass 0 runs once untraced and once
    traced on the same inputs, which gives the tracing overhead.
    """
    # half the set-up probes before the passes and half after, so that they
    # meet more than one spell of a shared machine
    setup_times = [] if trace else setup_seconds(workload.name, setup_probes // 2)
    workload.prepare()
    workload.warm()
    check = workload.check_pass()
    tracer = None
    if trace:
        plain = workload.run_pass(pass_seed(seed, 0))
        tracer = Tracer()
        with tracer.installed():
            traced = workload.run_pass(pass_seed(seed, 0))
        passes = [plain, traced]
        metrics, notes = per_layer_metrics(tracer, plain, traced), {"absent": tracer.absent}
    else:
        passes = []
        start = perf_counter()
        while True:
            begun = perf_counter()
            result = workload.run_pass(pass_seed(seed, len(passes)))
            now = perf_counter()
            passes.append(result)
            if now - start + (now - begun) > seconds:
                break
        setup_times += setup_seconds(workload.name, setup_probes - len(setup_times))
        metrics, notes = end_to_end_metrics(passes, setup_times)
    every = ([check] if check else []) + passes
    attempted = sum(p.attempted for p in every)
    failed = sum(p.failed for p in every)
    problems = [msg for p in every for msg in p.problems]
    return {
        "correct": attempted > 0 and failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "passes": len(passes),
        "problems": problems,
        "tracer": tracer,
        **notes,
    }
