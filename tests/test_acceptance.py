"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every expected value here is exact (no tolerances anywhere in the
system), and the timed criteria enforce their stated budgets.

This module is the one home of these criteria: the module tests do not
repeat them, so three assertions are made only here.  Criterion 1 checks
that the three E7 exceptions are not sl2-given; criterion 8 checks
``transpose`` against the diagram count of ``reference.brute_transpose``,
and its kernel sweep runs to N <= 12 and checks the rank as well as the
kernel dimension.
"""

import time

from richardson import oracle
from richardson.classify import classify, is_birational_by_partition, is_nice
from richardson.cli import main
from richardson.core import (
    BlockVector,
    Coloring,
    LieKind,
    all_block_vectors,
    all_colorings,
    blocks_from_coloring,
    coloring_from_blocks,
    transpose,
)
from richardson.exceptional import (
    appendix_colorings,
    exceptional_lookup,
    grading_dims,
    orbit_dim,
    root_system,
)
from richardson.oracle import oracle_partition_detail
from richardson.partitions import richardson_partition
from richardson.verify import classical_kinds_up_to

from reference import (
    E7_NON_BIRATIONAL,
    birational_by_block_clauses,
    brute_transpose,
    levi_dim_closed_form,
    partitions_of,
    rank_and_kernel,
)


def _announce(number, text):
    print(f"ACCEPTANCE PASS criterion {number}: {text}")


def test_criterion_1_e7_exceptions():
    started = time.perf_counter()
    e7 = LieKind.parse("E7")
    for u in E7_NON_BIRATIONAL:
        rec = exceptional_lookup(Coloring(e7, u))
        assert rec.nice is True and rec.birational is False and rec.sl2_given is False
    for coloring in appendix_colorings(e7):
        assert exceptional_lookup(coloring).birational is True
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _announce(1, f"3 E7 exceptions nice-not-birational, 26 appendix rows birational ({elapsed:.3f}s)")


def test_criterion_2_orbit_dimensions():
    started = time.perf_counter()
    expected = [
        ("E7", (1, 1, 0, 0, 1, 0, 1), 118),
        ("E7", (1, 1, 0, 0, 0, 0, 1), 106),
        ("E7", (0, 1, 1, 0, 0, 1, 1), 118),
        ("E7", (0, 0, 1, 0, 0, 0, 1), 104),
        ("E7", (0, 0, 0, 0, 1, 0, 1), 104),
        ("E8", (0, 0, 1, 0, 0, 0, 1, 0), 216),
    ]
    for name, u, dim in expected:
        kind = LieKind.parse(name)
        assert orbit_dim(Coloring(kind, u)) == dim
    e7 = LieKind.parse("E7")
    assert grading_dims(Coloring(e7, (1, 1, 0, 0, 0, 0, 1)))[0] == 27
    assert grading_dims(Coloring(e7, (0, 0, 1, 0, 0, 0, 1)))[0] == 29
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _announce(2, f"orbit dims 118/106/118/104/104/216 and Levi dims 27/29 ({elapsed:.3f}s)")


def test_criterion_3_appendix_cardinalities():
    sizes = {name: len(appendix_colorings(LieKind.parse(name))) for name in ("G2", "F4", "E6", "E7", "E8")}
    assert sizes == {"G2": 3, "F4": 8, "E6": 30, "E7": 26, "E8": 28}
    e7 = LieKind.parse("E7")
    assert sum(1 for c in all_colorings(e7) if exceptional_lookup(c).nice) == 29
    _announce(3, "appendix rows 3/8/30/26/28, E7 nice count 29")


def test_criterion_4_oracle_equivalence_sweep(capsys):
    # the shipped cmd_verify defaults: every nice classical vector, N <= 12,
    # closed form vs oracle Jordan type plus the genericity certificate
    started = time.perf_counter()
    code = main(["verify"])
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out
    assert code == 0
    assert "0 discrepancies" in out
    assert "FAIL" not in out
    checked = sum(1 for line in out.splitlines() if line.startswith("PASS"))
    assert checked == 1575
    assert elapsed < 120.0
    with capsys.disabled():
        _announce(4, f"{checked} nice vectors N<=12, closed form == oracle, certified ({elapsed:.1f}s)")


def test_criterion_5_blocks_vs_partition_consistency(monkeypatch):
    # the library derives birationality (nice, then the stabilizer test on
    # the induction partition); the paper's block clauses are the statement.
    # No orbit_dim is read, so classify skips the dense Levi count, which
    # tests/test_oracle.py pins equal to the closed form
    monkeypatch.setattr(oracle, "levi_dim", levi_dim_closed_form)
    checked = nice = 0
    for kind in classical_kinds_up_to(("B", "C", "D"), 16):
        for b in all_block_vectors(kind):
            clauses = birational_by_block_clauses(b)
            assert classify(b).birational == clauses, (kind.name, b.d, b.central)
            if is_nice(b):
                lam = richardson_partition(b)
                assert is_birational_by_partition(b, lam) == clauses, (kind.name, b.d, b.central)
                nice += 1
            checked += 1
    assert (checked, nice) == (1138, 761)
    _announce(5, f"paper's block clauses == derived birationality on {checked} B/C/D vectors N<=16, "
              f"== stabilizer test on the {nice} nice ones")


def test_criterion_6_spot_partitions():
    cases = [
        ("C3", (2,), 2, (3, 3)),
        ("B3", (2,), 3, (3, 3, 1)),
        ("C4", (2, 2), None, (4, 4)),
        ("D4", (2, 2), None, (4, 4)),
    ]
    for name, d, c, lam in cases:
        assert richardson_partition(BlockVector(LieKind.parse(name), d, c)) == lam
    _announce(6, "spot partitions (3,3) (3,3,1) (4,4) (4,4)")


def test_criterion_7_root_system_constants():
    expected = {"G2": (6, 14), "F4": (24, 52), "E6": (36, 78), "E7": (63, 133), "E8": (120, 248)}
    for name, (count, dim) in expected.items():
        kind = LieKind.parse(name)
        roots = root_system(kind)
        assert len(roots) == count
        assert kind.rank + 2 * len(roots) == dim
    _announce(7, "positive roots 6/24/36/63/120, dims 14/52/78/133/248")


def test_criterion_8_property_suites(monkeypatch):
    # transpose is an involution on all partitions of size <= 30, and agrees
    # with the diagram count
    for size in range(31):
        for p in partitions_of(size):
            assert transpose(transpose(p)) == p
            assert transpose(p) == brute_transpose(p)

    # coloring <-> blocks round trip, all classical colorings, ranks <= 8
    for fam, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3)):
        for rank in range(lo, 9):
            kind = LieKind(fam, rank)
            for c in all_colorings(kind):
                assert coloring_from_blocks(blocks_from_coloring(c)) == c.canonical()

    # sl2-given implies nice and birational, exhaustively for N <= 14; no
    # orbit_dim is read, so classify skips the dense Levi count
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "levi_dim", levi_dim_closed_form)
        for kind in classical_kinds_up_to(("A", "B", "C", "D"), 14):
            for b in all_block_vectors(kind):
                r = classify(b)
                if r.sl2_given:
                    assert r.nice and r.birational

    # type A reports birational for every block vector
    for kind in classical_kinds_up_to(("A",), 10):
        for b in all_block_vectors(kind):
            assert classify(b).birational

    # kernel dimension equals the oracle part count on the rank formula's
    # domain, nice or not, and the rank is the rest of N
    checked = 0
    for kind in classical_kinds_up_to(("B", "C", "D"), 12):
        for b in all_block_vectors(kind):
            if b.central is None or not b.d:
                continue
            over = max(b.d) - b.central
            if over > 1 or (over == 1 and kind.family == "C"):
                continue
            lam = oracle_partition_detail(b, trials=2)
            assert lam is not None, (kind.name, b.d, b.central)
            rank, kernel = rank_and_kernel(b)
            assert len(lam) == kernel, (kind.name, b.d, b.central, lam)
            assert rank == b.N - len(lam)
            checked += 1
    assert checked > 100
    _announce(8, "transpose involution, round trips, sl2=>birational, A birational, kernel=parts")
