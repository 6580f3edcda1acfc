import csv
import io
import json

import jsonschema
import pytest

from richardson.cli import RECORD_KEYS, main, record_schema


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
        code, _, err = run_cli(capsys, "classify", "--kind", "A3", "--blocks", "2,1,2")
        assert code == 2
        assert "sum" in err

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

    def test_wrong_length_coloring(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--kind", "E7", "--coloring", "1,0")
        assert code == 2
        assert "rank" in err

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
        ):
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            jsonschema.validate(json.loads(out), schema)


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
        assert run_cli(capsys, "verify", "--kind", "E7")[0] == 2

    def test_zero_trials_exit_2(self, capsys):
        assert_usage_error(capsys, "verify", "--trials", "0")


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
        out_dir = tmp_path / "tables"
        code, _, _ = run_cli(capsys, "export", "--kind", "all", "--out", str(out_dir))
        assert code == 0
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
