"""Every answer the CLI gives on the canonical colorings, against a table.

``tests/data/answers.csv`` records the current output, one ``enumerate
--format csv`` row per canonical coloring (see ``tests/answers.py``).  It
records what the library answers today, wrong answers included: ``nice`` on
B/C/D still ignores block order (ROADMAP item 1).  Only a change that alters
answers on purpose rewrites the table, in the same commit, so that its diff
lists every changed row; the table is never rewritten to hide a defect.
"""

from answers import TABLE, rows


def test_answers_table_matches_the_cli():
    expected = TABLE.read_text().splitlines()
    actual = rows()
    differ = [
        f"line {i + 1}: table {want!r}, now {got!r}"
        for i, (want, got) in enumerate(zip(expected, actual))
        if want != got
    ]
    assert differ == [] and len(actual) == len(expected), (
        f"{len(differ)} rows differ, {len(expected)} in the table, {len(actual)} now; first: "
        + "; ".join(differ[:5])
    )
