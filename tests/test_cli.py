import csv
import errno
import io
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import richardson
from richardson import cli
from richardson.classify import classify
from richardson.cli import RECORD_KEYS, main, record_schema
from richardson.core import (
    BlockVector,
    Coloring,
    LieKind,
    all_block_vectors,
    all_colorings,
    blocks_from_coloring,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def assert_usage_error(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def json_lines(text):
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def render_table(records):
    """The table layout: one header, every column as wide as its widest cell."""
    rows = [list(RECORD_KEYS)] + [[cli._cell(r[k]) for k in RECORD_KEYS] for r in records]
    widths = [max(len(row[i]) for row in rows) for i in range(len(RECORD_KEYS))]
    return "".join(
        "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n" for row in rows
    )


FILTERS = {
    "--nice": lambda r: r["nice"],
    "--birational": lambda r: r["birational"],
    "--sl2": lambda r: r["sl2"],
    "--normal": lambda r: r["normal"] == "normal",
}


class TestClassify:
    def test_c3_table(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--kind", "C3", "--blocks", "2", "--central", "2")
        assert code == 0
        assert "nice: true" in out
        assert "birational: true" in out
        assert "sl2: true" in out
        assert "partition: 3,3" in out

    def test_e7_coloring(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "--kind", "E7", "--coloring", "1,1,0,0,0,0,1", "--format", "json"
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["nice"] is True
        assert rec["birational"] is False
        assert rec["orbit_dim"] == 106
        assert rec["label"] == "D_5(a_1)"

    def test_non_unimodal_blocks_are_wellformed(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "--kind", "A4", "--blocks", "2,1,2", "--format", "json"
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["nice"] is False and rec["birational"] is True

    def test_invalid_blocks_exit_2(self, capsys):
        # an empty field is an error, not a skipped entry: 2,,2 is not 2,2
        for argv, needle in (
            (("A3", "--blocks", "2,1,2"), "sum"),
            (("A3", "--blocks", "2,,2"), "cannot parse"),
            (("A3", "--blocks", ",4"), "cannot parse"),
            (("A3", "--blocks", "0,4"), "block sizes must be positive"),
            (("A1", "--blocks", ""), "type A needs at least one block"),
            (("C2", "--blocks", "2", "--central", "0"), "central block must be even and positive"),
        ):
            code, _, err = run_cli(capsys, "classify", "--kind", *argv)
            assert code == 2, argv
            assert err.startswith("error: ") and needle in err, argv

    def test_nonpositive_central_exit_2(self, capsys):
        # 2*3 - 1 = 5 matches B2's matrix size, but no Levi has a block of -1
        code, out, err = run_cli(capsys, "classify", "--kind", "B2", "--blocks", "3", "--central", "-1")
        assert code == 2 and out == ""
        assert "odd positive central block" in err

    def test_full_palindrome_hint(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--kind", "C3", "--blocks", "2,2,2")
        assert code == 2
        assert "half palindrome" in err

    def test_zero_trials_exit_2(self, capsys):
        assert_usage_error(
            capsys, "classify", "--kind", "C4", "--blocks", "3", "--central", "2",
            "--with-oracle", "--trials", "0",
        )

    def test_exceptional_needs_coloring(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--kind", "G2", "--blocks", "2")
        assert code == 2
        # the oracle has no exceptional realization, so the flag is refused
        code, _, err = run_cli(
            capsys, "classify", "--kind", "E7", "--coloring", "1,1,0,0,0,0,1", "--with-oracle"
        )
        assert code == 2
        assert "error: --with-oracle applies to classical kinds only" in err

    def test_wrong_length_coloring(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--kind", "E7", "--coloring", "1,0")
        assert code == 2
        assert "rank" in err
        # a trailing comma adds an empty eighth field; it is not dropped
        for kind, coloring in (("E7", "1,1,0,0,0,0,1,"), ("C3", "1,0,,1")):
            code, _, err = run_cli(capsys, "classify", "--kind", kind, "--coloring", coloring)
            assert code == 2, coloring
            assert "error: cannot parse coloring" in err, coloring

    @pytest.mark.parametrize("name", ["B3", "C3", "D4"])
    def test_coloring_record_equals_blocks_record(self, capsys, name):
        # both descriptors name one parabolic, so they give one record
        for c in all_colorings(LieKind.parse(name)):
            if c.canonical() != c:
                continue
            b = blocks_from_coloring(c)
            coloring = ",".join(map(str, c.u))
            blocks = ["--blocks", ",".join(map(str, b.d))]
            if b.central is not None:
                blocks += ["--central", str(b.central)]
            code, by_coloring, _ = run_cli(
                capsys, "classify", "--kind", name, "--coloring", coloring, "--format", "json"
            )
            assert code == 0, coloring
            code, by_blocks, _ = run_cli(capsys, "classify", "--kind", name, *blocks, "--format", "json")
            assert code == 0, blocks
            assert json.loads(by_coloring) == json.loads(by_blocks), coloring

    def test_diagnostic_note_on_stderr(self, capsys):
        code, out, err = run_cli(capsys, "classify", "--kind", "C2", "--blocks", "1", "--central", "2")
        assert code == 0
        assert err.startswith("note: covering-degree formula evaluates to 1 ")
        assert "covering_degree: -" in out

    def test_oracle_note_names_both_answers(self, capsys):
        # B3 (3,) with centre 1 is not nice: the oracle gives the partition,
        # and the stabilizer test on it passes, but birational needs nice
        argv = ("classify", "--kind", "B3", "--blocks", "3", "--central", "1", "--with-oracle")
        code, out, err = run_cli(capsys, *argv)
        assert code == 0
        assert err == (
            "note: stabilizer test on (3, 2, 2) says birational=True; "
            "the vector is not nice, so birational is reported False\n"
        )
        assert "partition: 3,2,2" in out and "birational: false" in out

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("--blocks", "1", "--coloring", "1,0,0"), "give either --blocks or --coloring, not both"),
            (("--central", "2"), "--central only makes sense together with --blocks"),
            ((), "one of --blocks or --coloring is required"),
            (("--coloring", "2,0,0"), "coloring entries must be 0 or 1"),
        ],
        ids=["blocks-and-coloring", "central-alone", "no-descriptor", "coloring-entry"],
    )
    def test_descriptor_usage_errors(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "classify", "--kind", "C3", *argv)
        assert code == 2 and out == ""
        assert f"error: {message}" in err

    def test_csv_roundtrip(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "--kind", "D5", "--blocks", "1,4", "--format", "csv"
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == list(RECORD_KEYS)
        rec = dict(zip(rows[0], rows[1]))
        assert rec["partition"] == "3,3,2,2"
        assert rec["nice"] == "true"

    def test_schema_validation(self, capsys):
        schema = record_schema()
        for argv in (
            ("classify", "--kind", "C3", "--blocks", "2", "--central", "2", "--format", "json"),
            ("classify", "--kind", "E8", "--coloring", "0,0,1,0,0,0,1,0", "--format", "json"),
            ("classify", "--kind", "A4", "--blocks", "2,1,2", "--format", "json"),
            # an empty --blocks is the empty half vector, not an empty field
            ("classify", "--kind", "C3", "--blocks", "", "--central", "6", "--format", "json"),
        ):
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            jsonschema.validate(json.loads(out), schema)

    @pytest.mark.parametrize(
        "parabolic",
        [
            BlockVector(LieKind("C", 3), (2,), 2),
            Coloring(LieKind("E", 8), (0, 0, 1, 0, 0, 0, 1, 0)),
        ],
        ids=["C3", "E8"],
    )
    def test_record_keys_follow_the_schema(self, parabolic):
        # the record dict spells the keys out once more; the schema orders them
        schema = record_schema()
        keys = list(cli.report_to_record(classify(parabolic)))
        assert keys == list(RECORD_KEYS) == schema["required"] == list(schema["properties"])

    def test_schema_refuses_null_coloring_and_orbit_dim(self, capsys):
        # every report has a coloring and an orbit dimension, so the schema
        # admits no null for either
        schema = record_schema()
        code, out, _ = run_cli(capsys, "classify", "--kind", "C3", "--blocks", "2", "--central", "2", "--format", "json")
        assert code == 0
        record = json.loads(out)
        jsonschema.validate(record, schema)
        for key in ("coloring", "orbit_dim"):
            with pytest.raises(jsonschema.ValidationError, match="None is not of type"):
                jsonschema.validate({**record, key: None}, schema)


class TestEnumerate:
    def test_g2_birational_count(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--kind", "G2", "--birational", "--format", "json")
        assert code == 0
        assert len(json_lines(out)) == 3

    def test_e7_nice_count(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--kind", "E7", "--nice", "--format", "json")
        assert code == 0
        assert len(json_lines(out)) == 29

    def test_a3_all_colorings(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--kind", "A", "--rank", "3", "--format", "json")
        records = json_lines(out)
        assert code == 0 and len(records) == 8
        colorings = [tuple(r["coloring"]) for r in records]
        assert colorings == sorted(colorings)  # lexicographic order
        schema = record_schema()
        for r in records:
            jsonschema.validate(r, schema)

    def test_c2_by_blocks(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "--kind", "C", "--rank", "2", "--by-blocks", "--format", "json"
        )
        records = json_lines(out)
        assert code == 0 and len(records) == 4

    def test_csv_constant_columns(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "--kind", "D", "--rank", "4", "--format", "csv"
        )
        rows = list(csv.reader(io.StringIO(out)))
        assert code == 0 and len(rows) == 17
        assert all(len(r) == len(RECORD_KEYS) for r in rows)

    def test_max_rank_sweep(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--kind", "B", "--max-rank", "3", "--format", "json")
        assert code == 0
        assert len(json_lines(out)) == 4 + 8  # ranks 2 and 3

    def test_normal_filter(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "--kind", "C", "--rank", "2", "--normal", "--format", "json"
        )
        records = json_lines(out)
        assert code == 0
        assert all(r["normal"] == "normal" for r in records)

    def test_bad_combinations_exit_2(self, capsys):
        assert run_cli(capsys, "enumerate", "--kind", "E7", "--by-blocks")[0] == 2
        assert run_cli(capsys, "enumerate", "--kind", "C")[0] == 2
        assert run_cli(capsys, "enumerate", "--kind", "C", "--rank", "2", "--max-rank", "3")[0] == 2
        assert run_cli(capsys, "enumerate", "--kind", "C3", "--rank", "2")[0] == 2
        assert run_cli(capsys, "enumerate", "--kind", "G2", "--rank", "5")[0] == 2
        assert run_cli(capsys, "enumerate", "--kind", "E8", "--max-rank", "8")[0] == 2
        code, out, err = run_cli(capsys, "enumerate", "--kind", "D", "--max-rank", "2")
        assert code == 2 and out == ""
        assert "error: rank 2 is below the minimum rank for D" in err
        # only a whole family name asks for a classical rank sweep
        for kind in ("AB", ""):
            code, out, err = run_cli(capsys, "enumerate", "--kind", kind, "--rank", "2")
            assert code == 2 and out == "", kind
            assert err.startswith("error: cannot parse Lie type"), kind

    @pytest.mark.parametrize(
        "base",
        [
            ("--kind", "C", "--max-rank", "4", "--by-blocks"),
            ("--kind", "D", "--rank", "4"),
            ("--kind", "E6"),
        ],
        ids=["C4-by-blocks", "D4", "E6"],
    )
    def test_filters_match_python_filtering(self, capsys, base):
        _, out, _ = run_cli(capsys, "enumerate", *base, "--format", "json")
        everything = json_lines(out)
        for n in range(1, len(FILTERS) + 1):
            for flags in itertools.combinations(FILTERS, n):
                want = [r for r in everything if all(FILTERS[f](r) for f in flags)]
                _, out, _ = run_cli(capsys, "enumerate", *base, *flags, "--format", "json")
                assert json_lines(out) == want, flags
                _, out, _ = run_cli(capsys, "enumerate", *base, *flags, "--format", "csv")
                rows = list(csv.reader(io.StringIO(out)))
                assert rows[0] == list(RECORD_KEYS)
                assert rows[1:] == [[cli._cell(r[k], none="") for k in RECORD_KEYS] for r in want]
                _, out, _ = run_cli(capsys, "enumerate", *base, *flags)
                assert out == render_table(want), flags

    @pytest.mark.parametrize("family", "ABCD")
    def test_by_blocks_is_the_canonical_colorings(self, capsys, family):
        base = ("enumerate", "--kind", family, "--max-rank", "6", "--format", "json")
        _, out, _ = run_cli(capsys, *base)
        # a D coloring ending 1,0 names the same parabolic as the one ending 0,1
        want = [r for r in json_lines(out) if family != "D" or r["coloring"][-2:] != [1, 0]]
        code, out, _ = run_cli(capsys, *base, "--by-blocks")
        got = json_lines(out)
        assert code == 0 and got == want
        # one record per Levi shape
        shapes = {
            (kind.name, b.d, b.central)
            for kind in map(LieKind.parse, {r["kind"] for r in got})
            for b in all_block_vectors(kind)
        }
        assert sorted((r["kind"], tuple(r["blocks"]), r["central"]) for r in got) == sorted(shapes)

    def test_multi_kind_table_has_one_header_and_shared_widths(self, capsys):
        base = ("enumerate", "--kind", "D", "--max-rank", "5", "--by-blocks")
        _, out, _ = run_cli(capsys, *base, "--format", "json")
        records = json_lines(out)
        assert {r["kind"] for r in records} == {"D3", "D4", "D5"}
        _, table, _ = run_cli(capsys, *base)
        assert table == render_table(records)
        lines = table.splitlines()
        assert sum(line.startswith("kind") for line in lines) == 1
        # every row, D3 too, is padded to the D5 coloring "0,0,0,0,0", wider than the header
        col = lines[0].index("blocks")
        assert col == len("kind") + 2 + len("0,0,0,0,0") + 2
        assert lines[1].startswith("D3    0,0,0      ")
        col = lines[0].index("central")  # never empty: "-" stands in for None
        assert all(line[col - 1] == " " and line[col] != " " for line in lines[1:])


class TestStreaming:
    class _Probe:
        """Stands in for stdout and notes how many classify calls preceded each write."""

        def __init__(self, calls):
            self.calls = calls
            self.writes = []

        def write(self, text):
            self.writes.append((self.calls[0], text))
            return len(text)

        def flush(self):
            pass

    def probe(self, monkeypatch):
        calls = [0]
        real = cli.classify

        def counting(*args, **kwargs):
            calls[0] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "classify", counting)
        probe = self._Probe(calls)
        monkeypatch.setattr(sys, "stdout", probe)
        return probe

    def test_json_record_written_after_its_own_classify(self, monkeypatch):
        probe = self.probe(monkeypatch)
        assert main(["enumerate", "--kind", "A", "--rank", "6", "--format", "json"]) == 0
        assert probe.calls[0] == 64
        first_calls, first_text = probe.writes[0]
        assert first_calls < 64 and json.loads(first_text)["coloring"] == [0] * 6
        # one write per record, each right after the classify that made it
        assert [n for n, _ in probe.writes] == list(range(1, 65))

    def test_csv_header_before_first_classify(self, monkeypatch):
        probe = self.probe(monkeypatch)
        assert main(["enumerate", "--kind", "C", "--rank", "4", "--by-blocks", "--format", "csv"]) == 0
        assert probe.writes[0] == (0, ",".join(RECORD_KEYS) + "\r\n")
        assert [n for n, _ in probe.writes[1:]] == list(range(1, probe.calls[0] + 1))

    def test_table_waits_for_last_row(self, monkeypatch):
        probe = self.probe(monkeypatch)
        assert main(["enumerate", "--kind", "D", "--rank", "4"]) == 0
        assert {n for n, _ in probe.writes} == {16}

    def test_closed_pipe_exits_quietly(self):
        env = dict(os.environ, PYTHONPATH=str(Path(richardson.__file__).parents[1]))
        argv = [sys.executable, "-m", "richardson.cli", "enumerate", "--kind", "A", "--rank", "10"]
        proc = subprocess.Popen(
            [*argv, "--format", "json"], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )
        first = proc.stdout.readline()
        proc.stdout.close()  # the reader goes away, like `| head -1`
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert json.loads(first)["kind"] == "A10"
        assert err == b""

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_closed_pipe_in_process_leaks_no_descriptor(self, monkeypatch):
        before = len(os.listdir("/proc/self/fd"))
        read_end, write_end = os.pipe()
        os.close(read_end)
        out = open(write_end, "w")
        monkeypatch.setattr(sys, "stdout", out)
        try:
            assert main(["enumerate", "--kind", "A", "--rank", "10", "--format", "json"]) == 1
        finally:
            out.close()  # stdout's descriptor now names devnull, so this flush succeeds
        assert len(os.listdir("/proc/self/fd")) == before


class TestVerify:
    def test_small_sweep_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--kind", "B", "--max-N", "7", "--trials", "1", "--seed", "7"
        )
        assert code == 0
        assert "0 discrepancies" in out
        assert "FAIL" not in out

    def test_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, "verify", "--kind", "C", "--max-N", "6", "--seed", "3")
        _, out2, _ = run_cli(capsys, "verify", "--kind", "C", "--max-N", "6", "--seed", "3")
        assert out1 == out2

    def test_bad_kind(self, capsys):
        # "AB", "" and "ABCD" are substrings of "ABCD" but no family
        for kind in ("E7", "AB", "", "ABCD"):
            code, _, err = run_cli(capsys, "verify", "--kind", kind)
            assert code == 2 and err.startswith("error: "), kind

    def test_zero_trials_exit_2(self, capsys):
        assert_usage_error(capsys, "verify", "--trials", "0")

    @pytest.mark.parametrize(
        "argv",
        [pytest.param(("--max-N", n), id=n) for n in ("1", "0", "-3", "x")]
        + [
            # valid sizes, but D starts at N = 6 and B at N = 5: an empty
            # sweep must not pass as "0 discrepancies"
            pytest.param(("--kind", "D", "--max-N", "5"), id="D-5"),
            pytest.param(("--kind", "B", "--max-N", "4"), id="B-4"),
        ],
    )
    def test_max_n_without_cases_exit_2(self, capsys, argv):
        if "--kind" in argv:
            code, out, err = run_cli(capsys, "verify", *argv)
            assert code == 2 and out == ""
            assert err.startswith("error: no ") and "matrix size <=" in err
        else:
            assert_usage_error(capsys, "verify", *argv)

    def test_discrepancy_exits_1(self, capsys, monkeypatch):
        # an oracle that disagrees with the closed form fails the sweep
        monkeypatch.setattr(richardson.oracle, "oracle_partition_detail", lambda b, trials, base_seed: (b.N,))
        code, out, _ = run_cli(capsys, "verify", "--kind", "B", "--max-N", "7", "--trials", "1")
        assert code == 1
        assert any(line.startswith("FAIL ") for line in out.splitlines())
        summary = out.splitlines()[-1]
        assert re.fullmatch(r"checked \d+ nice block vectors \(N <= 7\): [1-9]\d* discrepancies", summary)

    def test_smallest_max_n_checks_a1(self, capsys):
        # --kind is case-insensitive, "ALL" included
        for kind in ("A", "ALL"):
            code, out, _ = run_cli(capsys, "verify", "--kind", kind, "--max-N", "2")
            assert code == 0, kind
            assert "checked 2 nice block vectors (N <= 2): 0 discrepancies" in out, kind


@pytest.mark.parametrize(
    "command,flag,dest",
    [("enumerate", "--rank", "rank"), ("enumerate", "--max-rank", "max_rank"), ("verify", "--max-N", "max_n")],
)
def test_sizes_above_16_are_usage_errors(capsys, command, flag, dest):
    # parse only: running the command at such a size would take hours
    parser = cli._build_parser()
    assert getattr(parser.parse_args([command, "--kind", "A", flag, "16"]), dest) == 16
    with pytest.raises(SystemExit) as exc:
        parser.parse_args([command, "--kind", "A", flag, "17"])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_one_parser_per_process_keeps_no_state_between_calls(capsys, monkeypatch):
    assert cli._build_parser() is cli._build_parser()
    built = cli._build_parser.cache_info().misses
    assert_usage_error(capsys, "enumerate", "--kind", "A", "--rank", "17")
    assert run_cli(capsys, "enumerate", "--kind", "C", "--rank", "3", "--nice", "--format", "json")[0] == 0
    argv = ("enumerate", "--kind", "C", "--rank", "3", "--format", "json")
    shared = run_cli(capsys, *argv)
    assert cli._build_parser.cache_info().misses == built
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    fresh = run_cli(capsys, *argv)
    assert shared == fresh and fresh[0] == 0
    assert len(json_lines(fresh[1])) == 8  # --nice from the earlier call left no trace


def test_kind_ranks_above_16_exit_2(capsys, monkeypatch):
    # an explicit rank in --kind has the --rank bound: A17 would otherwise walk
    # 2^17 colorings, and levi_dim builds one dense matrix per Levi basis element
    def no_walk(kind):
        raise AssertionError(f"walked the colorings of {kind.name}")

    monkeypatch.setattr(cli, "all_colorings", no_walk)
    for argv in (("enumerate", "--kind", "A17"), ("classify", "--kind", "A17", "--blocks", "18")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error: --kind A17: expected a rank from 1 to 16"), argv
    monkeypatch.setattr(cli, "all_colorings", lambda kind: iter(()))
    assert run_cli(capsys, "enumerate", "--kind", "A16", "--format", "json") == (0, "", "")
    code, out, _ = run_cli(capsys, "classify", "--kind", "C16", "--blocks", "16", "--format", "json")
    assert code == 0 and json.loads(out)["kind"] == "C16"


def test_kind_rank_past_the_int_conversion_limit_exit_2(capsys):
    # int() refuses more than 4300 digits; the rank must still be a usage error
    for argv in (
        ("classify", "--kind", "A" + "9" * 5000, "--blocks", "1"),
        ("enumerate", "--kind", "C" + "1" * 5000),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv[:1]
        assert err.startswith("error: cannot parse Lie type"), argv[:1]


class TestExport:
    def test_f4_rows(self, capsys, tmp_path):
        out_file = tmp_path / "f4.json"
        code, out, err = run_cli(capsys, "export", "--kind", "F4", "--out", str(out_file))
        assert code == 0
        records = json_lines(out_file.read_text())
        assert len(records) == 8
        assert err == ""

    def test_e8_row_18_label(self, capsys, tmp_path):
        out_file = tmp_path / "e8.json"
        code, _, _ = run_cli(capsys, "export", "--kind", "E8", "--out", str(out_file))
        assert code == 0
        records = json_lines(out_file.read_text())
        assert len(records) == 28
        row18 = records[17]
        assert row18["coloring"] == [0, 0, 1, 0, 0, 0, 1, 0]
        assert row18["label"] == "D_6"
        assert row18["orbit_dim"] == 216

    def test_e6_csv(self, capsys, tmp_path):
        out_file = tmp_path / "e6.csv"
        code, _, _ = run_cli(capsys, "export", "--kind", "E6", "--out", str(out_file), "--format", "csv")
        assert code == 0
        rows = list(csv.reader(out_file.open()))
        assert len(rows) == 31  # header + 30
        assert rows[0] == list(RECORD_KEYS)

    def test_all_kinds_directory(self, capsys, tmp_path):
        for i, kind in enumerate(("all", "ALL")):
            out_dir = tmp_path / f"tables{i}"
            code, _, _ = run_cli(capsys, "export", "--kind", kind, "--out", str(out_dir))
            assert code == 0, kind
            names = sorted(p.name for p in out_dir.iterdir())
            assert names == ["E6.json", "E7.json", "E8.json", "F4.json", "G2.json"]

    def test_schema(self, capsys, tmp_path):
        out_file = tmp_path / "g2.json"
        run_cli(capsys, "export", "--kind", "G2", "--out", str(out_file))
        schema = record_schema()
        for rec in json_lines(out_file.read_text()):
            jsonschema.validate(rec, schema)

    def test_bad_kind(self, capsys, tmp_path):
        assert run_cli(capsys, "export", "--kind", "A3", "--out", str(tmp_path / "x"))[0] == 2

    def test_missing_directory_exit_2(self, capsys, tmp_path):
        target = tmp_path / "missing" / "g2.json"
        code, out, err = run_cli(capsys, "export", "--kind", "G2", "--out", str(target))
        assert code == 2 and out == ""
        assert f"error: cannot write {target}" in err
        assert not target.parent.exists()

    def test_failed_write_names_the_target(self, capsys, tmp_path, monkeypatch):
        # a full disk fails the write or the close, whose OSError has no filename
        def full_disk(rows, fmt, fh):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(cli, "_emit", full_disk)
        target = tmp_path / "e6.json"
        code, out, err = run_cli(capsys, "export", "--kind", "E6", "--out", str(target))
        assert code == 2 and out == ""
        assert err == f"error: cannot write {target}: No space left on device\n"
