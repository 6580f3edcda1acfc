"""Source-level guards on the library, one on the test modules (shared test
data is defined once, in ``tests/reference.py``) and one on the layout of the
checked-in ``BENCH_*.json`` files."""

import ast
import importlib
import importlib.util
import json
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path

import richardson


def _defined(stmt):
    """The names a top-level statement defines: a function, a class or the
    plain names an assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


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


def test_traced_functions_resolve():
    # the benchmark traces these by name; a missing one would only show as "absent"
    path = Path(__file__).parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert len(tracing.TRACED) == 16
    missing = [
        f"{mod}.{fn}"
        for mod, fn in tracing.TRACED
        if not callable(getattr(importlib.import_module(f"richardson.{mod}"), fn, None))
    ]
    assert missing == []


def test_import_loads_no_rational_arithmetic():
    # the library runs on one integer matrix path; the Fraction cross-check
    # lives in tests/reference.py
    env = dict(os.environ, PYTHONPATH=str(Path(richardson.__file__).parents[1]))
    code = "import sys, richardson; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_exports_resolve():
    # a deletion that leaves a stale name in __all__ would only fail at the
    # user's import; the package republishes each module's __all__ with a
    # wildcard import, where a name in two lists silently shadows the other
    stale = []
    owners: dict[str, list[str]] = {}
    for info in pkgutil.iter_modules(richardson.__path__):
        module = importlib.import_module(f"richardson.{info.name}")
        names = getattr(module, "__all__", ())
        stale += [f"{info.name}.{n}" for n in names if not hasattr(module, n)]
        for n in names:
            owners.setdefault(n, []).append(info.name)
    assert stale == [], f"names in __all__ that do not resolve: {stale}"
    shared = {n: mods for n, mods in owners.items() if len(mods) > 1}
    assert shared == {}, f"names in more than one module's __all__: {shared}"


def test_shared_test_data_is_defined_once():
    # a value two test modules define separately drifts apart when one copy
    # is edited; test functions and classes are exempt, pytest keys them by file
    owners: dict[str, list[str]] = {}
    for path in sorted(Path(__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            for name in _defined(stmt):
                if not name.startswith(("test_", "Test")):
                    owners.setdefault(name, []).append(path.name)
    assert len(owners) > 20
    shared = {name: files for name, files in owners.items() if len(files) > 1}
    assert shared == {}, f"module-level names defined in more than one test file: {shared}"


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    # every ``richardson ...`` line of README's sh blocks, run in-process
    from richardson import cli

    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, flags=re.M | re.S)
    lines = [ln for block in blocks for ln in block.splitlines() if ln.startswith("richardson ")]
    assert len(lines) >= 8, lines
    monkeypatch.chdir(tmp_path)
    for line in lines:
        argv = shlex.split(line)[1:]
        if argv == ["verify"]:
            # the full N <= 12 sweep; test_acceptance runs it
            cli._build_parser().parse_args(argv)
            continue
        assert cli.main(argv) == 0, (line, capsys.readouterr().err)
    capsys.readouterr()
    assert (tmp_path / "e8.json").is_file() and len(list((tmp_path / "tables").iterdir())) == 5


def test_no_function_level_relative_imports():
    # a relative import inside a function hides an import cycle between
    # library modules; every module imports its dependencies at the top
    found = [
        f"{path.name}:{inner.lineno}"
        for path in sorted(Path(richardson.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(node)
        if isinstance(inner, ast.ImportFrom) and inner.level > 0
    ]
    assert found == [], f"function-level relative imports: {found}"


def test_no_module_imports_another_modules_private_names():
    # a ``_name`` belongs to its own module: a library module that imports
    # one from another module, or reads one off an imported module, holds a
    # second statement of a fact its owner may change on its own
    def private(name):
        return name.startswith("_") and not name.startswith("__")

    found = []
    for path in sorted(Path(richardson.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        library = [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").partition(".")[0] == "richardson")
        ]
        found += [
            f"{path.name}:{node.lineno} imports {alias.name}"
            for node in library
            for alias in node.names
            if private(alias.name)
        ]
        # ``from . import oracle`` binds a module, whose attributes are its names
        modules = {
            alias.asname or alias.name
            for node in library
            if node.module in (None, "richardson")
            for alias in node.names
        }
        found += [
            f"{path.name}:{node.lineno} reads {node.value.id}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and private(node.attr)
        ]
    assert found == [], f"private names used outside their module: {found}"


def test_modules_import_only_lower_layers():
    # core < partitions < oracle < exceptional < classify < verify < cli: a
    # module imports only library modules below it, so no cycle can form.
    # Importing any submodule first runs the package __init__, which loads
    # every module, so only the source shows the layering.
    order = ("core", "partitions", "oracle", "exceptional", "classify", "verify", "cli")
    package = Path(richardson.__file__).parent
    assert {p.stem for p in package.glob("*.py")} == {"__init__", *order}

    def imported(node):
        # library modules an import statement names; "richardson" is the package
        if isinstance(node, ast.Import):
            dotted = [a.name.split(".") for a in node.names]
            return [p[1] if len(p) > 1 else "richardson" for p in dotted if p[0] == "richardson"]
        if not isinstance(node, ast.ImportFrom):
            return []
        module = node.module or ""
        if node.level == 0:
            if module != "richardson" and not module.startswith("richardson."):
                return []
            module = module.partition(".")[2]
        if module:
            return [module.split(".")[0]]
        return [a.name if a.name in order else "richardson" for a in node.names]

    found = [
        f"{name}.py:{node.lineno} imports {target}"
        for rank, name in enumerate(order)
        for node in ast.walk(ast.parse((package / f"{name}.py").read_text()))
        for target in imported(node)
        if target not in order[:rank]
    ]
    assert found == [], f"imports of a module not below the importer: {found}"


def test_no_unreferenced_private_helpers():
    # a deletion can orphan the private helper it used: every top-level
    # ``_name`` in the library is read by some other top-level statement
    def reads(stmt):
        names = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
        return names

    statements = [
        (path.name, stmt)
        for path in sorted(Path(richardson.__file__).parent.glob("*.py"))
        for stmt in ast.parse(path.read_text(), filename=str(path)).body
    ]
    read = [reads(stmt) for _, stmt in statements]
    orphans = [
        f"{name}:{stmt.lineno} {helper}"
        for i, (name, stmt) in enumerate(statements)
        for helper in _defined(stmt)
        if helper.startswith("_") and not helper.startswith("__")
        and not any(helper in names for j, names in enumerate(read) if j != i)
    ]
    assert orphans == [], f"private helpers nothing else in the library reads: {orphans}"


def test_dataclass_fields_are_read():
    # a field or property that no library module reads is dead: every
    # dataclass field, @property and @cached_property in the library is
    # loaded as an attribute somewhere in it
    def decorated(node, names):
        for dec in node.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            if isinstance(target, ast.Name) and target.id in names:
                return True
        return False

    def member(stmt):
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            return stmt.target.id
        if isinstance(stmt, ast.FunctionDef) and decorated(stmt, {"property", "cached_property"}):
            return stmt.name
        return None

    trees = [
        (path.name, ast.parse(path.read_text(), filename=str(path)))
        for path in sorted(Path(richardson.__file__).parent.glob("*.py"))
    ]
    loaded = {
        node.attr
        for _, tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    members = [
        (name, cls, stmt, member(stmt))
        for name, tree in trees
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and decorated(cls, {"dataclass"})
        for stmt in cls.body
        if member(stmt)
    ]
    assert len(members) > 10
    assert any(isinstance(stmt, ast.FunctionDef) for _, _, stmt, _ in members)
    unread = [
        f"{name}:{stmt.lineno} {cls.name}.{attr}"
        for name, cls, stmt, attr in members
        if attr not in loaded
    ]
    assert unread == [], f"dataclass members no library module reads: {unread}"


def test_no_dataclass_field_defaults_to_a_bool():
    # a True or False default prints an answer nobody decided: every flag a
    # library dataclass carries is passed by the code that decides it
    def default(value):
        if isinstance(value, ast.Call):
            value = next((k.value for k in value.keywords if k.arg == "default"), None)
        return value.value if isinstance(value, ast.Constant) else None

    found = [
        f"{path.name}:{stmt.lineno} {cls.name}.{stmt.target.id}"
        for path in sorted(Path(richardson.__file__).parent.glob("*.py"))
        for cls in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(cls, ast.ClassDef)
        and any("dataclass" in ast.unparse(dec) for dec in cls.decorator_list)
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(default(stmt.value), bool)
    ]
    assert found == [], f"dataclass fields that default to True or False: {found}"


def test_library_parses_at_the_declared_python_floor():
    # the tests run on one interpreter; a construct newer than the floor
    # pyproject.toml declares would only fail for users of that floor
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    floor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject, flags=re.M)
    assert floor, "pyproject.toml declares no requires-python floor"
    version = tuple(map(int, floor.groups()))
    for path in sorted(Path(richardson.__file__).parent.glob("*.py")):
        ast.parse(path.read_text(), filename=str(path), feature_version=version)


def test_benchmark_warm_up_builds_what_the_passes_read(monkeypatch):
    # the oracle workloads' warm() builds each kind's sparse realization, and
    # a timed pass then builds none of its own
    from richardson.classify import is_nice
    from richardson.core import all_block_vectors
    from richardson.oracle import realization
    from richardson.verify import classical_kinds_up_to

    bench = Path(__file__).parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(bench))
    spec = importlib.util.spec_from_file_location("perfbench_harness", bench / "harness.py")
    harness = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, harness)  # its dataclasses look it up
    spec.loader.exec_module(harness)

    def nice_count(family, max_n):
        kinds = classical_kinds_up_to((family,), max_n)
        return sum(is_nice(b) for kind in kinds for b in all_block_vectors(kind))

    sweep = harness.VerifySweep(max_n=6, cases={fam: nice_count(fam, 6) for fam in "ABCD"})
    oracle_run = harness.ClassifyOracle(max_n=8, calls=6)
    oracle_run.prepare()
    for workload, families, max_n in ((sweep, "ABCD", 6), (oracle_run, "BCD", 8)):
        realization.cache_clear()
        workload.warm()
        kinds = list(classical_kinds_up_to(tuple(families), max_n))
        assert realization.cache_info().currsize == len(kinds)
        misses = realization.cache_info().misses
        result = workload.run_pass(seed=1)
        assert result.problems == [] and result.failed == 0 and result.attempted > 0
        assert realization.cache_info().misses == misses, workload.name
        assert all(len(realization(kind)) == kind.dim for kind in kinds)


def test_reference_clauses_run_no_library_criterion():
    # a reference must not run the code it checks: the paper's nice, sl2 and
    # birationality clauses use no name reference.py imports from
    # richardson.classify or richardson.partitions, neither directly nor
    # through a reference helper
    tree = ast.parse((Path(__file__).parent / "reference.py").read_text())
    checked = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        and node.module in ("richardson.classify", "richardson.partitions")
        for alias in node.names
    }
    assert "is_nice" in checked
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    todo = ["nice_by_block_clauses", "sl2_by_block_clauses", "birational_by_block_clauses"]
    seen, used = set(), set()
    while todo:
        name = todo.pop()
        seen.add(name)
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Name):
                used.add(node.id)
                if node.id in functions and node.id not in seen:
                    todo.append(node.id)
    assert used & checked == set()


def test_reference_ranks_with_its_own_elimination():
    # the referee ranks ad(X) and the row-space chain with its own primitive
    # echelon, so it neither imports the library's elimination nor reads it
    # as an attribute
    tree = ast.parse((Path(__file__).parent / "reference.py").read_text())
    names = {node.name for node in ast.walk(tree) if isinstance(node, ast.alias)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert "richardson.oracle" in {node.module for node in tree.body if isinstance(node, ast.ImportFrom)}
    assert "_echelon" not in names


def test_readme_module_map_names_resolve():
    # a simplification that deletes a function can leave the docs naming it:
    # every backticked identifier in a row of README's module map names the
    # package or one of its modules, or resolves attribute by attribute in
    # the row's module (in the named module if its first part names one)
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `(\w+)` +\| (.*) \|$", readme, flags=re.M)
    assert [module for module, _ in rows] == [
        "core", "partitions", "oracle", "exceptional", "classify", "verify", "cli",
    ]
    modules = {info.name for info in pkgutil.iter_modules(richardson.__path__)}
    identifier = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")
    checked, missing = 0, []
    for module, contents in rows:
        for quoted in re.findall(r"`([^`]+)`", contents):
            name = quoted.partition("(")[0]  # ``realization(kind)`` names ``realization``
            if not identifier.fullmatch(name) or name in modules | {"richardson"}:
                continue
            parts = name.split(".")
            home = parts.pop(0) if len(parts) > 1 and parts[0] in modules else module
            target = importlib.import_module(f"richardson.{home}")
            for part in parts:
                target = getattr(target, part, None)
            checked += 1
            if target is None:
                missing.append(f"{module}: {quoted}")
    assert checked >= 10
    assert missing == [], f"module-map names that do not resolve: {missing}"


def test_bench_files_name_benchmark_metrics():
    # a speed claim cites a checked-in BENCH file; one in another layout, one
    # naming a workload or metric the benchmark does not declare, one that
    # leaves a declared workload or end-to-end metric out, or one that does
    # not say what machine it ran on, cannot be read against BENCHMARK.json
    root = Path(__file__).parents[1]
    declared = json.loads((root / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in declared["workloads"]}
    metrics = {m["name"] for m in declared["end_to_end"]}
    keys = {"title", "claim", "command", "parent", "change", "method", "machine", "summary", "runs"}
    paths = sorted(root.glob("BENCH_*.json"))
    assert paths, "no BENCH file at the repository root"
    problems = []
    for path in paths:
        bench = json.loads(path.read_text())
        if missing := keys - bench.keys():
            problems.append(f"{path.name}: missing keys {sorted(missing)}")
            continue
        if missing := {"cpu", "nproc", "python"} - bench["machine"].keys():
            problems.append(f"{path.name}: machine does not name {sorted(missing)}")
        summary = bench["summary"]
        if workloads != summary.keys():
            problems.append(f"{path.name}: summary covers {sorted(summary)}, not {sorted(workloads)}")
        for workload, entry in summary.items():
            if set(entry["metrics"]) != metrics:
                problems.append(f"{path.name}: {workload} reports {sorted(entry['metrics'])}, not {sorted(metrics)}")
    assert problems == [], problems
