"""Source-level guards on the library itself."""

import ast
from pathlib import Path

import richardson


def test_no_assert_statements():
    # python -O strips assert statements; invariants raise typed errors instead
    sources = sorted(Path(richardson.__file__).parent.glob("*.py"))
    assert {p.name for p in sources} >= {"cli.py", "core.py", "oracle.py", "partitions.py"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == [], f"assert statements in the library: {found}"
