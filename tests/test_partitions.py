from itertools import permutations

import pytest

from richardson.classify import is_nice
from richardson.core import (
    BlockVector,
    Coloring,
    DescriptorError,
    InvariantError,
    LieKind,
    all_block_vectors,
    blocks_from_coloring,
    n_odd,
    transpose,
)
from richardson.oracle import jordan_partition
from richardson.partitions import g1_partition, richardson_partition
from richardson.verify import classical_kinds_up_to

import reference
from reference import (
    FormulaDomainError,
    dual_partition_bcd,
    g1_element,
    g1_partition_by_ranks,
    partition_bcd,
    partition_type_a,
    rank_and_kernel,
    so_even_single_odd_partition,
)


def nice_bcd(max_n):
    for kind in classical_kinds_up_to(("B", "C", "D"), max_n):
        for b in all_block_vectors(kind):
            if is_nice(b):
                yield b


class TestTypeA:
    def test_borel_regular(self):
        assert partition_type_a(BlockVector(LieKind("A", 3), (1, 1, 1, 1))) == (4,)

    def test_middle_block(self):
        assert partition_type_a(BlockVector(LieKind("A", 3), (1, 2, 1))) == (3, 1)

    def test_full_levi(self):
        assert partition_type_a(BlockVector(LieKind("A", 3), (4,))) == (1, 1, 1, 1)

    def test_order_independent(self):
        a = partition_type_a(BlockVector(LieKind("A", 4), (1, 3, 1)))
        b = partition_type_a(BlockVector(LieKind("A", 4), (1, 1, 3)))
        assert a == b == (3, 1, 1)


class TestDual:
    def test_sp6(self):
        b = BlockVector(LieKind("C", 3), (2,), 2)
        assert dual_partition_bcd(b) == (2, 2, 2)
        assert partition_bcd(b) == (3, 3)

    def test_sp4_odd_entry(self):
        b = BlockVector(LieKind("C", 2), (1,), 2)
        assert dual_partition_bcd(b) == (2, 2)
        assert partition_bcd(b) == (2, 2)

    def test_so7(self):
        b = BlockVector(LieKind("B", 3), (2,), 3)
        assert dual_partition_bcd(b) == (3, 2, 2)
        assert partition_bcd(b) == (3, 3, 1)

    def test_refuses_non_nice(self):
        with pytest.raises(FormulaDomainError):
            dual_partition_bcd(BlockVector(LieKind("C", 3), (1, 1), 2))

    def test_refuses_peak_above_center(self):
        # handled by partition_bcd via the trimmed route, not by the dual
        b = BlockVector(LieKind("D", 4), (3,), 2)
        with pytest.raises(FormulaDomainError):
            dual_partition_bcd(b)
        assert partition_bcd(b) == (3, 3, 1, 1)


class TestPartitionBCD:
    def test_sp8_even(self):
        assert partition_bcd(BlockVector(LieKind("C", 4), (2, 2), None)) == (4, 4)

    def test_so10_one_odd(self):
        assert partition_bcd(BlockVector(LieKind("D", 5), (1, 4), None)) == (3, 3, 2, 2)

    def test_so8_even(self):
        assert partition_bcd(BlockVector(LieKind("D", 4), (2, 2), None)) == (4, 4)

    def test_wrong_size_raises_invariant_error(self, monkeypatch):
        # a closed form that loses a box must fail loudly, also under python -O
        monkeypatch.setattr(reference, "_partition_bcd", lambda fam, s, c: (4, 3))
        with pytest.raises(InvariantError, match="does not sum to N = 8"):
            partition_bcd(BlockVector(LieKind("C", 4), (2, 2), None))

    def test_full_levi_is_zero_orbit(self):
        assert partition_bcd(BlockVector(LieKind("B", 3), (), 7)) == (1,) * 7
        assert partition_bcd(BlockVector(LieKind("C", 3), (), 6)) == (1,) * 6

    def test_borels_are_regular(self):
        # regular nilpotent Jordan types: (2n) for sp_2n, (2n+1) for so_2n+1,
        # (2n-1, 1) for so_2n
        assert partition_bcd(BlockVector(LieKind("C", 3), (1, 1, 1), None)) == (6,)
        assert partition_bcd(BlockVector(LieKind("B", 3), (1, 1, 1), 1)) == (7,)
        assert partition_bcd(BlockVector(LieKind("D", 4), (1, 1, 1), 2)) == (7, 1)

    def test_refuses_non_nice(self):
        with pytest.raises(FormulaDomainError):
            partition_bcd(BlockVector(LieKind("C", 3), (1, 1), 2))

    def test_sum_is_matrix_size(self):
        for b in nice_bcd(14):
            assert sum(richardson_partition(b)) == b.N

    def test_induction_formula_matches_closed_forms(self):
        # the one induction formula against the family-by-family closed forms
        # on their whole domain: every type A vector and every nice B/C/D one
        checked = 0
        for kind in classical_kinds_up_to(("A", "B", "C", "D"), 14):
            for b in all_block_vectors(kind):
                if kind.family == "A":
                    assert richardson_partition(b) == partition_type_a(b), b
                elif is_nice(b):
                    assert richardson_partition(b) == partition_bcd(b), b
                else:
                    continue
                checked += 1
        assert checked == 16784  # 16382 type A vectors and 402 nice B/C/D ones

    def test_transpose_of_dual_route(self):
        for b in nice_bcd(14):
            s, c = b.sorted_d(), b.central
            if b.kind.family in "BD" and c is not None and s and s[-1] > c:
                continue  # dual route does not apply
            assert partition_bcd(b) == transpose(dual_partition_bcd(b))

    def test_explicit_so_even_formula_agrees(self):
        checked = 0
        for b in nice_bcd(14):
            if b.kind.family != "D" or b.central is not None:
                continue
            s = b.sorted_d()
            if sum(1 for v in s if v % 2) != 1:
                continue
            assert so_even_single_odd_partition(s) == partition_bcd(b)
            checked += 1
        assert checked > 10

    def test_sp_odd_all_even_gives_all_odd_parts(self):
        for b in nice_bcd(14):
            if b.kind.family != "C" or b.central is None:
                continue
            if all(v % 2 == 0 for v in b.d):
                lam = partition_bcd(b)
                assert n_odd(lam) == len(lam) == b.central

    def test_so_odd_peak_above_center_profile(self):
        checked = 0
        for b in nice_bcd(14):
            if b.kind.family not in "BD" or b.central is None:
                continue
            s, c = b.sorted_d(), b.central
            if s and s[-1] == c + 1:
                lam = partition_bcd(b)
                assert len(lam) == c + 2
                assert n_odd(lam) == c + 2
                checked += 1
        assert checked > 5


class TestRankAndKernel:
    def test_so7(self):
        b = BlockVector(LieKind("B", 3), (2,), 3)
        assert rank_and_kernel(b) == (4, 3)
        assert len(partition_bcd(b)) == 3

    def test_peak_above_center(self):
        b = BlockVector(LieKind("D", 4), (3,), 2)
        rank, kernel = rank_and_kernel(b)
        assert (rank, kernel) == (4, 4)
        assert kernel == b.central + 2

    def test_so3_regular_values(self):
        # d=(1), central=1 lives in so_3, below the B-rank floor; the formula
        # gives rank 2, kernel 1, i.e. a single Jordan block of size 3 --
        # confirmed on the explicit so_3 nilradical element
        from richardson.oracle import ExactMatrix, jordan_partition

        s, c, N = (1,), 1, 3
        rank = 2 * min(s[-1], c)
        assert (rank, N - rank) == (2, 1)
        x = ExactMatrix([[0, 5, 0], [0, 0, -5], [0, 0, 0]])  # in so_3, blocks (1,1,1)
        assert x.rank() == rank
        assert jordan_partition(x) == (3,)

    def test_refuses_even_blocks(self):
        with pytest.raises(FormulaDomainError):
            rank_and_kernel(BlockVector(LieKind("C", 2), (2,), None))


class TestG1Partition:
    """The closed-form Jordan type of a generic element of g_1, refereed by
    the Jordan type of a random g_1 sample, which reads no rank formula, and
    by the rank formula itself on every block order."""

    def test_equals_a_random_g1_sample(self):
        kinds = [*classical_kinds_up_to(("A",), 10), *classical_kinds_up_to(("B", "C", "D"), 10)]
        checked = 0
        for kind in kinds:
            for b in all_block_vectors(kind):
                blocks = b.full_blocks()
                assert g1_partition(kind, blocks) == jordan_partition(g1_element(b, 1)), b
                checked += 1
        assert checked == 1152

    @pytest.mark.parametrize(
        "kind,u,given,ascending",
        [
            ("C3", (0, 1, 1), (4, 1, 1), (4, 2)),
            ("D4", (0, 1, 1, 1), (5, 1, 1, 1), (5, 3)),
        ],
    )
    def test_order_matters_where_the_induced_type_does_not(self, kind, u, given, ascending):
        b = blocks_from_coloring(Coloring(LieKind.parse(kind), u))
        s = b.sorted_d()
        mid = (b.central,) if b.central else ()
        assert g1_partition(b.kind, b.full_blocks()) == given
        assert g1_partition(b.kind, s + mid + s[::-1]) == ascending == richardson_partition(b)

    def test_refuses_a_non_palindromic_sequence(self):
        with pytest.raises(DescriptorError):
            g1_partition(LieKind.parse("C3"), (2, 1, 2, 1))

    def test_equals_the_rank_formula_on_every_order(self):
        sequences = []
        for kind in classical_kinds_up_to(("A", "B", "C", "D"), 12):
            for b in all_block_vectors(kind):
                if kind.family == "A":
                    sequences.append((kind, b.d))
                else:
                    mid = (b.central,) if b.central else ()
                    sequences += [(kind, s + mid + s[::-1]) for s in set(permutations(b.d))]
        for kind, blocks in sequences:
            assert g1_partition(kind, blocks) == g1_partition_by_ranks(kind, blocks), blocks
        assert len(sequences) == 4721

    @pytest.mark.parametrize(
        "kind,d,central,mu",
        [
            ("A16", (17,), None, (1,) * 17),
            ("A16", (1,) * 17, None, (17,)),
            ("B16", (1,) * 16, 1, (33,)),
            ("B16", (), 33, (1,) * 33),
            ("C16", (), 32, (1,) * 32),
            ("C16", (1,) * 16, None, (32,)),
            ("D16", (16,), None, (2,) * 16),
            ("D16", (1,) * 14 + (2,), None, (16, 16)),
        ],
    )
    def test_pins_the_largest_single_and_unit_blocks(self, kind, d, central, mu):
        b = BlockVector(LieKind.parse(kind), d, central)
        assert g1_partition(b.kind, b.full_blocks()) == mu == g1_partition_by_ranks(
            b.kind, b.full_blocks()
        )
