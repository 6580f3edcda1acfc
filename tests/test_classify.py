import importlib
import itertools

import pytest

from richardson import oracle, verify
from richardson.classify import (
    NORMAL,
    NOT_NORMAL,
    OUT_OF_SCOPE,
    classify,
    is_birational_by_partition,
    is_nice,
)
from richardson.core import (
    BlockVector,
    ClassificationReport,
    Coloring,
    DescriptorError,
    LieKind,
    all_block_vectors,
    all_colorings,
    blocks_from_coloring,
    coloring_from_blocks,
)
from richardson.exceptional import exceptional_lookup
from richardson.oracle import levi_dim
from richardson.partitions import richardson_partition
from richardson.verify import classical_kinds_up_to, run_verification

from reference import levi_dim_closed_form, nice_by_block_clauses, sl2_by_block_clauses

# the package's ``classify`` is the function, which hides the module
classify_module = importlib.import_module("richardson.classify")


def bv(kind_text, d, central=None):
    return BlockVector(LieKind.parse(kind_text), tuple(d), central)


@pytest.fixture
def closed_form_levi(monkeypatch):
    # the tests that read no orbit_dim skip the dense Levi count, which
    # tests/test_oracle.py pins equal to the closed form
    monkeypatch.setattr(oracle, "levi_dim", levi_dim_closed_form)


def _count_calls(monkeypatch, modules, names):
    """Replace each name in each module by a wrapper that counts its calls,
    summed over the modules."""
    calls = dict.fromkeys(names, 0)
    for module in modules:
        for name in names:
            def counted(*args, _name=name, _original=getattr(module, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    return calls


class TestNice:
    def test_type_a(self):
        assert is_nice(bv("A3", (1, 2, 1)))
        assert not is_nice(bv("A4", (2, 1, 2)))
        assert is_nice(bv("A5", (1, 2, 3)))

    def test_sp_odd_entry_twice(self):
        assert not is_nice(bv("C3", (1, 1), 2))

    def test_sp_even_always(self):
        assert is_nice(bv("C4", (3, 1), None))  # conjugate Levi of (1,3)

    def test_sp_odd_needs_center_at_least_peak(self):
        assert is_nice(bv("C3", (2,), 2))
        assert not is_nice(bv("C4", (3,), 2))

    def test_so_odd_peak_one_above_center(self):
        assert is_nice(bv("D4", (3,), 2))
        assert not is_nice(bv("D5", (4,), 2))  # gap two
        assert not is_nice(bv("B4", (2, 2), 1))  # peak not strict

    def test_so_even_odd_sizes_once(self):
        assert is_nice(bv("D5", (1, 4)))
        assert is_nice(bv("D4", (1, 3)))  # both odd sizes distinct
        assert not is_nice(bv("D6", (3, 3)))  # repeated odd size


@pytest.mark.usefixtures("closed_form_levi")
class TestBirationalByBlocks:
    # classify's birational: nice, and the stabilizer test on the partition
    def test_examples(self):
        assert classify(bv("C3", (2,), 2)).birational
        assert classify(bv("D5", (1, 4))).birational
        assert not classify(bv("D7", (3, 4))).birational

    def test_sp_odd_needs_all_even(self):
        assert not classify(bv("C2", (1,), 2)).birational
        assert classify(bv("C4", (2, 2), None)).birational

    def test_so_even_single_odd_bound(self):
        assert not classify(bv("D3", (3,), None)).birational  # odd equals peak
        assert classify(bv("D6", (1, 5), None)).birational is False  # two odds
        assert classify(bv("D6", (2, 4), None)).birational


class TestBirationalByPartition:
    def test_examples(self):
        assert is_birational_by_partition(bv("B3", (2,), 3), (3, 3, 1))
        assert not is_birational_by_partition(bv("C2", (1,), 2), (2, 2))
        assert is_birational_by_partition(bv("D5", (1, 4)), (3, 3, 2, 2))

    def test_size_mismatch(self):
        with pytest.raises(DescriptorError):
            is_birational_by_partition(bv("B3", (2,), 3), (3, 3))

    def test_type_a_always(self):
        assert is_birational_by_partition(bv("A3", (2, 1, 1)), (2, 1, 1))


@pytest.mark.usefixtures("closed_form_levi")
class TestSl2:
    def test_type_a(self):
        assert classify(bv("A3", (1, 2, 1))).sl2_given
        assert not classify(bv("A5", (1, 2, 3))).sl2_given  # nice but not palindromic

    def test_d_even_excludes_odd_entry(self):
        assert not classify(bv("D5", (1, 4))).sl2_given
        assert classify(bv("D4", (2, 2))).sl2_given

    def test_bc_matches_birational(self):
        for kind in classical_kinds_up_to(("B", "C"), 12):
            for b in all_block_vectors(kind):
                r = classify(b)
                assert r.sl2_given == r.birational


@pytest.mark.usefixtures("closed_form_levi")
class TestNormalClosure:
    def test_type_a_always_normal(self):
        assert classify(bv("A4", (2, 1, 2))).normal == NORMAL

    def test_sp(self):
        assert classify(bv("C3", (2,), 2)).normal == NORMAL  # r=1: all equal
        assert classify(bv("C4", (2, 2), None)).normal == NORMAL  # even blocks
        assert classify(bv("C8", (2, 4), 4)).normal == NOT_NORMAL

    def test_so_odd_blocks_normal(self):
        assert classify(bv("B3", (2,), 3)).normal == NORMAL
        assert classify(bv("D4", (1,), 6)).normal == NORMAL

    @pytest.mark.parametrize(
        "d,expected",
        [
            ((2, 2), NORMAL),  # all equal
            ((2, 4), NORMAL),  # plateau step of two, boundary s=1
            ((2, 2, 4, 4), NORMAL),  # plateau step of two, interior boundary
            ((2, 4, 4), NORMAL),
            ((2, 4, 6), NOT_NORMAL),
            ((2, 6), NOT_NORMAL),  # gap four
            ((1, 4), NORMAL),  # odd first, rest constant
            ((1, 4, 4), NORMAL),
            ((1, 4, 6), NOT_NORMAL),
            ((2, 3, 6), NORMAL),  # odd after a one-step rise
            ((2, 3, 6, 6), NORMAL),
            ((2, 2, 3, 6), NORMAL),  # constant prefix, one-step rise, constant tail
            ((1, 2, 4, 4), NOT_NORMAL),  # odd first but the rest not constant
            ((3, 4), OUT_OF_SCOPE),  # not birational
        ],
    )
    def test_so_even_cases(self, d, expected):
        kind = LieKind("D", sum(d))
        assert classify(BlockVector(kind, d, None)).normal == expected

    def test_out_of_scope_iff_not_birational(self):
        for kind in classical_kinds_up_to(("B", "C", "D"), 12):
            for b in all_block_vectors(kind):
                r = classify(b)
                assert (r.normal == OUT_OF_SCOPE) == (not r.birational)


@pytest.mark.usefixtures("closed_form_levi")
class TestCoveringDegree:
    def test_birational_is_one(self):
        assert classify(bv("C3", (2,), 2)).covering_degree == 1

    def test_so_two_fold(self):
        assert classify(bv("D4", (3,), 2)).covering_degree == 2

    def test_sp_inconsistent_case_suppressed(self):
        assert classify(bv("C2", (1,), 2)).covering_degree is None

    def test_sp_formula(self):
        # central 6, one odd entry: 2^(3-1)
        assert classify(bv("C6", (1, 2), 6)).covering_degree == 4
        # central 6, two odd entries: 2^(3-2)
        assert classify(bv("C7", (1, 3), 6)).covering_degree == 2

    def test_non_nice_none(self):
        assert classify(bv("C3", (1, 1), 2)).covering_degree is None

    def test_type_a(self):
        assert classify(bv("A4", (2, 1, 2))).covering_degree == 1


@pytest.mark.usefixtures("closed_form_levi")
class TestPermutationInvariance:
    def test_bcd_predicates_sort_internally(self):
        def answers(b):
            r = classify(b)
            fields = (r.nice, r.birational, r.sl2_given, r.normal, r.covering_degree, r.partition)
            return fields, richardson_partition(b)

        for kind in classical_kinds_up_to(("B", "C", "D"), 10):
            for b in all_block_vectors(kind):
                if len(b.d) < 2:
                    continue
                for perm in itertools.permutations(b.d):
                    try:
                        other = BlockVector(kind, perm, b.central)
                    except Exception:
                        continue  # type D inner-block constraint
                    assert answers(other) == answers(b)


class TestClassify:
    def test_a3_report(self):
        r = classify(bv("A3", (1, 2, 1)))
        assert (r.nice, r.birational, r.sl2_given, r.normal) == (True, True, True, NORMAL)
        assert r.partition == (3, 1)
        assert r.covering_degree == 1

    def test_c3_report(self):
        r = classify(bv("C3", (2,), 2))
        assert (r.nice, r.birational, r.sl2_given, r.normal) == (True, True, True, NORMAL)
        assert r.partition == (3, 3)

    def test_d7_report(self):
        b = bv("D7", (3, 4))
        r = classify(b)
        assert (r.nice, r.birational, r.sl2_given, r.normal) == (True, False, False, OUT_OF_SCOPE)
        assert r.partition == (4, 4, 3, 3)
        assert is_birational_by_partition(b, r.partition) is False

    def test_report_invariants(self):
        for kind in classical_kinds_up_to(("A", "B", "C", "D"), 9):
            for b in all_block_vectors(kind):
                r = classify(b)
                if r.sl2_given:
                    assert r.nice and r.birational
                if r.birational and r.nice and r.covering_degree is not None:
                    assert r.covering_degree == 1
                assert r.orbit_dim == kind.dim - levi_dim(b)

    def test_oracle_partition_for_non_nice(self):
        b = bv("C3", (1, 1), 2)
        assert classify(b).partition is None
        r = classify(b, with_oracle=True)
        assert r.partition is not None
        assert sum(r.partition) == 6
        assert is_birational_by_partition(b, r.partition) is False

    def test_oracle_referees_the_closed_form(self, monkeypatch):
        # with_oracle runs the oracle as a referee of the closed form on every
        # classical vector, and a certified value that differs is noted, not
        # silently dropped; a non-nice vector still reports the certified value
        cases = [
            (bv("C3", (2,), 2), (3, 3), True),
            (bv("A3", (1, 2, 1)), (3, 1), True),
            (bv("C3", (1, 1), 2), (4, 2), False),
        ]
        for b, closed, nice in cases:
            assert richardson_partition(b) == closed
            assert classify(b).partition == (closed if nice else None)
            assert classify(b, with_oracle=True, trials=1).diagnostics == ()
            monkeypatch.setattr(oracle, "oracle_richardson_partition", lambda b, **kw: (b.N,))
            r = classify(b, with_oracle=True)
            assert r.nice == nice and r.partition == (closed if nice else (b.N,))
            assert f"closed form {closed} != certified oracle ({b.N},)" in r.diagnostics
            monkeypatch.undo()


@pytest.mark.usefixtures("closed_form_levi")
class TestBlockClauses:
    """The one rule for nice and sl2 gives the answers the family-by-family
    clauses gave: the clauses are kept in reference.py as the pin."""

    def test_rules_equal_the_clauses(self):
        kinds = [*classical_kinds_up_to(("A",), 10), *classical_kinds_up_to(("B", "C", "D"), 16)]
        checked = 0
        for kind in kinds:
            for b in all_block_vectors(kind):
                r = classify(b)
                assert (r.nice, r.sl2_given) == (nice_by_block_clauses(b), sl2_by_block_clauses(b)), b
                checked += kind.family != "A"
        assert checked == 1138


class TestDiagramIsomorphisms:
    """B2 = C2, D3 = A3, D4's triality and E6's diagram flip carry each
    parabolic to an isomorphic one, whose answers must agree: a referee that
    reads neither the clauses nor the oracle.  The fields not held here
    still differ on some pairs (ROADMAP item 7)."""

    def test_isomorphic_diagrams_agree(self):
        def moved(u, target_of):
            v = [0] * len(u)
            for i, x in enumerate(u):
                v[target_of[i]] = x
            return tuple(v)

        def fields(r):
            return r.nice, r.sl2_given, r.orbit_dim

        triality = [(p[0], 1, p[1], p[2]) for p in itertools.permutations((0, 2, 3))]
        cases = [("B2", "C2", (1, 0), fields), ("D3", "A3", (1, 0, 2), fields)]
        cases += [("D4", "D4", target_of, lambda r: r.orbit_dim) for target_of in triality]
        flip = (5, 1, 4, 3, 2, 0)  # Bourbaki nodes 1 <-> 6 and 3 <-> 5
        cases.append(("E6", "E6", flip, lambda r: (*fields(r), r.birational, r.label)))
        checked = 0
        for source, target, target_of, read in cases:
            for c in all_colorings(LieKind.parse(source)):
                image = Coloring(LieKind.parse(target), moved(c.u, target_of))
                assert read(classify(c)) == read(classify(image)), (source, c.u, target, image.u)
                checked += 1
        assert checked == 4 + 8 + 96 + 64


class TestEachFactOnce:
    """A classical vector is classified in one pass: the induction partition
    is derived once, and nice is decided once from it (one generic g_1
    type), then handed to the fields that read them."""

    @pytest.mark.parametrize(
        "b,with_oracle",
        [
            (bv("A3", (1, 2, 1)), False),
            (bv("B3", (2,), 3), False),
            (bv("D7", (3, 4)), False),
            (bv("C3", (1, 1), 2), True),
        ],
        ids=["A3", "B3", "D7", "C3-oracle"],
    )
    def test_one_classify(self, monkeypatch, b, with_oracle):
        names = ["richardson_partition", "g1_partition", "is_nice"]
        calls = _count_calls(monkeypatch, [classify_module], names)
        classify(b, with_oracle=with_oracle, trials=1)
        assert calls == {"richardson_partition": 1, "g1_partition": 1, "is_nice": 0}, calls

    def test_one_verify_case(self, monkeypatch):
        # each vector costs one partition, which both decides nice and is
        # the one a checked case compares with the oracle
        modules = [classify_module, verify]
        calls = _count_calls(monkeypatch, modules, ["richardson_partition", "nice_from_partition"])
        calls.update(_count_calls(monkeypatch, [classify_module], ["is_nice"]))
        vectors = sum(1 for kind in classical_kinds_up_to(("B",), 7) for _ in all_block_vectors(kind))
        result = run_verification(families=("B",), max_n=7, trials=1)
        assert result.ok and 0 < result.checked < vectors == 12
        assert calls == {"richardson_partition": vectors, "nice_from_partition": vectors, "is_nice": 0}


class TestOneEntryPoint:
    """``classify`` takes a block vector or a coloring of any kind, and a
    report names one parabolic through both descriptors."""

    def test_exceptional_colorings_give_the_table_report(self):
        colorings = [
            c for name in ("G2", "F4", "E6", "E7", "E8") for c in all_colorings(LieKind.parse(name))
        ]
        assert len(colorings) == 468
        for c in colorings:
            assert classify(c) == exceptional_lookup(c)

    def test_exceptional_coloring_refuses_the_oracle(self):
        c = Coloring(LieKind.parse("E7"), (1, 1, 0, 0, 0, 0, 1))
        # the library names its own keyword, not the CLI's flag
        with pytest.raises(DescriptorError, match="^with_oracle applies to classical kinds only$") as err:
            classify(c, with_oracle=True)
        assert "--" not in str(err.value)

    def test_classical_coloring_and_its_blocks_agree(self):
        kinds = [*classical_kinds_up_to(("A",), 7), *classical_kinds_up_to(("B", "C", "D"), 10)]
        checked = 0
        for kind in kinds:
            for c in all_colorings(kind):
                if c.canonical() != c:
                    continue
                b = blocks_from_coloring(c)
                assert classify(c) == classify(b)
                assert classify(b).coloring == coloring_from_blocks(b) == c
                checked += 1
        assert checked == 126 + 28 + 60 + 42  # A1-A6, then B, C, D with N <= 10

    def test_non_canonical_d_coloring_is_kept(self):
        d4 = LieKind.parse("D4")
        r = classify(Coloring(d4, (0, 0, 1, 0)))
        assert r.coloring == Coloring(d4, (0, 0, 1, 0))
        assert r.blocks == blocks_from_coloring(Coloring(d4, (0, 0, 0, 1)))

    def test_flags_are_keyword_only(self):
        # the second positional slot held ``coloring``; a caller that still
        # fills it must fail rather than switch the oracle on
        with pytest.raises(TypeError):
            classify(bv("C3", (2,), 2), True)

    def test_kind_is_the_colorings(self):
        c = Coloring(LieKind.parse("B3"), (0, 1, 1))
        assert classify(c).kind == classify(blocks_from_coloring(c)).kind == c.kind
        with pytest.raises(TypeError):
            ClassificationReport(coloring=c, kind=LieKind.parse("C3"))
