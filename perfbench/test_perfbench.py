"""Fast checks of the benchmark itself, with each workload at a tiny size."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import harness
import richardson.oracle
import richardson.verify
from tracing import TRACED

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"] for m in BENCHMARK["per_layer"]}
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def tiny(name: str):
    if name == "verify-sweep":
        return harness.VerifySweep(max_n=6, cases={"A": 56, "B": 4, "C": 11, "D": 6})
    if name == "classify-oracle":
        return harness.ClassifyOracle(max_n=8, calls=6)
    small = ("C7-csv", "E8-json")
    return harness.EnumerateCli(commands={k: harness.ENUMERATE_COMMANDS[k] for k in small})


def run(workload, trace: bool, seed: int = 5) -> dict:
    return harness.measure(workload, seed=seed, seconds=0, trace=trace, setup_probes=1)


def test_workloads_match_benchmark_json():
    assert sorted(WORKLOADS) == sorted(harness.WORKLOADS)


@pytest.mark.parametrize("name", WORKLOADS)
def test_timed_run_reports_every_end_to_end_metric(name):
    result = run(tiny(name), trace=False)
    assert result["correct"], result["problems"]
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric_with_nested_spans(name):
    result = run(tiny(name), trace=True)
    assert result["correct"], result["problems"]
    assert set(result["metrics"]) == PER_LAYER
    spans = result["tracer"].spans
    assert spans
    for index, (_, start, end, parent) in enumerate(spans):
        assert start <= end
        if parent >= 0:
            assert parent < index
            _, p_start, p_end, _ = spans[parent]
            assert p_start <= start and end <= p_end


def test_enumerate_never_runs_the_oracle_beyond_levi_dim():
    metrics = run(tiny("enumerate-cli"), trace=True)["metrics"]
    oracle = [f"{m}.{f}" for m, f in TRACED if m == "oracle"]
    assert metrics["oracle.levi_dim.calls"]["value"] > 0
    for name in oracle:
        if name != "oracle.levi_dim":
            assert metrics[f"{name}.calls"]["value"] == 0


def test_counts_repeat_exactly_at_the_same_seed():
    def counts():
        metrics = run(tiny("verify-sweep"), trace=True, seed=11)["metrics"]
        return {k: m["value"] for k, m in metrics.items() if m["unit"] == "count"}

    first = counts()
    assert first["oracle.jordan_partition.rank_ops"] > 0
    assert counts() == first


def test_wrong_digest_counts_as_failed():
    workload = tiny("enumerate-cli")
    workload.digests = dict(harness.load_digests(), **{"E8-json": "0" * 64})
    result = run(workload, trace=False)
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]


def test_wrong_partition_counts_as_failed_in_verify(monkeypatch):
    monkeypatch.setattr(richardson.verify, "richardson_partition", lambda b: (b.N,))
    result = run(tiny("verify-sweep"), trace=False)
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]


def test_wrong_partition_counts_as_failed_in_classify(monkeypatch):
    monkeypatch.setattr(richardson.oracle, "oracle_richardson_partition", lambda b, **kw: (1,))
    result = run(tiny("classify-oracle"), trace=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


def test_a_removed_function_reads_zero_and_is_listed_absent(monkeypatch):
    monkeypatch.delattr(richardson.oracle, "certified_centralizer_dim")
    result = run(tiny("enumerate-cli"), trace=True)
    assert result["absent"] == ["oracle.certified_centralizer_dim"]
    assert set(result["metrics"]) == PER_LAYER
    assert result["metrics"]["oracle.certified_centralizer_dim.calls"]["value"] == 0
