
import pytest

from richardson.classify import is_birational_by_partition
from richardson.core import (
    BlockVector,
    Coloring,
    DescriptorError,
    LieKind,
    UnsupportedKindError,
    all_block_vectors,
    all_colorings,
    blocks_from_coloring,
    coloring_from_blocks,
    n_odd,
    transpose,
)

from reference import brute_transpose, partitions_of

CLASSICAL_RANGES = (("A", 1), ("B", 2), ("C", 2), ("D", 3))


class TestLieKind:
    def test_parse(self):
        assert LieKind.parse("C3") == LieKind("C", 3)
        assert LieKind.parse("e7").name == "E7"
        assert LieKind.parse("G2").is_exceptional

    @pytest.mark.parametrize(
        "bad",
        ["A0", "B1", "C1", "D2", "E5", "E9", "F3", "G3", "H4", "C", "A" + "9" * 5000],
        ids=lambda bad: bad if len(bad) < 10 else f"A-{len(bad) - 1}-digits",
    )
    def test_invalid(self, bad):
        with pytest.raises(DescriptorError):
            LieKind.parse(bad)

    def test_unknown_family(self):
        # parse only reads the letters A-G; the constructor checks the family
        with pytest.raises(DescriptorError, match="unknown family 'X'"):
            LieKind("X", 1)

    def test_matrix_size(self):
        assert LieKind("A", 3).matrix_size == 4
        assert LieKind("B", 3).matrix_size == 7
        assert LieKind("C", 2).matrix_size == 4
        assert LieKind("D", 5).matrix_size == 10
        with pytest.raises(UnsupportedKindError):
            LieKind.parse("E6").matrix_size

    def test_dim(self):
        assert LieKind("A", 3).dim == 15
        assert LieKind("B", 3).dim == 21
        assert LieKind("C", 3).dim == 21
        assert LieKind("D", 4).dim == 28
        assert LieKind.parse("E8").dim == 248

    def test_non_integer_rank_rejected(self):
        # C2.5 would have matrix size 5.0; a float rank is refused, not kept
        with pytest.raises(TypeError):
            LieKind("C", 2.5)
        with pytest.raises(TypeError):
            LieKind("A", 2.0)


class TestPartitionOps:
    def test_transpose_examples(self):
        assert transpose((2, 2)) == (2, 2)
        assert transpose((3, 1)) == (2, 1, 1)
        # derived value frozen from the brute-force diagram count
        assert brute_transpose((4, 4)) == (2, 2, 2, 2)
        assert transpose((4, 4)) == (2, 2, 2, 2)

    def test_n_odd(self):
        assert n_odd((3, 3, 1)) == 3
        assert n_odd((4, 4)) == 0
        assert n_odd((3, 3, 2, 2)) == 2

    def test_n_odd_plus_even_is_length(self):
        for size in range(16):
            for p in partitions_of(size):
                evens = sum(1 for x in p if x % 2 == 0)
                assert n_odd(p) + evens == len(p)

    def test_parity_descents(self):
        # even SO without central block: an odd part above a smaller part
        # allows exactly two odd parts; trailing odd parts are no such
        # descent, so they allow none
        def birational(n, lam):
            return is_birational_by_partition(BlockVector(LieKind("D", n), (n,)), lam)

        assert birational(5, (3, 3, 2, 2))
        assert not birational(7, (4, 4, 3, 3))
        assert not birational(3, (2, 2, 1, 1))
        assert birational(4, (4, 4))

    def test_invalid_partition(self):
        with pytest.raises(DescriptorError):
            transpose((1, 2))
        with pytest.raises(DescriptorError):
            n_odd((2, 0))

    def test_non_integer_parts_rejected(self):
        # truncating would read (2.7, 1.2) as the partition (2, 1)
        with pytest.raises(TypeError):
            transpose((2.7, 1.2))
        with pytest.raises(TypeError):
            n_odd((3.9,))


class TestBlockVectorValidation:
    def test_type_a_sum(self):
        BlockVector(LieKind("A", 3), (1, 2, 1))
        with pytest.raises(DescriptorError):
            BlockVector(LieKind("A", 3), (2, 1, 2))
        with pytest.raises(DescriptorError):
            BlockVector(LieKind("A", 3), (2, 2), central=2)

    def test_b_central_required_odd(self):
        BlockVector(LieKind("B", 3), (2,), 3)
        with pytest.raises(DescriptorError):
            BlockVector(LieKind("B", 3), (2,), None)
        with pytest.raises(DescriptorError):
            BlockVector(LieKind("B", 3), (2, 1), 2)  # even central
        # the sizes add up to N = 5, but a block cannot be negative
        with pytest.raises(DescriptorError):
            BlockVector(LieKind("B", 2), (3,), -1)

    def test_c_central_even(self):
        BlockVector(LieKind("C", 2), (1,), 2)
        BlockVector(LieKind("C", 2), (2,), None)
        with pytest.raises(DescriptorError):
            BlockVector(LieKind("C", 3), (2,), 3)

    def test_d_inner_block(self):
        BlockVector(LieKind("D", 3), (1, 2), None)
        with pytest.raises(DescriptorError):
            BlockVector(LieKind("D", 3), (2, 1), None)  # aliases central so_2
        BlockVector(LieKind("D", 3), (2,), 2)

    def test_exceptional_rejected(self):
        with pytest.raises(UnsupportedKindError):
            BlockVector(LieKind.parse("F4"), (2, 2))

    def test_non_integer_entries_rejected(self):
        # truncating would accept (1.9, 2.2) as the A2 blocks (1, 2)
        with pytest.raises(TypeError):
            BlockVector(LieKind("A", 2), (1.9, 2.2))
        with pytest.raises(TypeError):
            BlockVector(LieKind("C", 2), (1,), 2.0)
        with pytest.raises(TypeError):
            Coloring(LieKind("A", 2), (0.7, 1.2))

    def test_full_blocks(self):
        b = BlockVector(LieKind("C", 3), (2,), 2)
        assert b.full_blocks() == (2, 2, 2)
        b = BlockVector(LieKind("D", 5), (1, 4), None)
        assert b.full_blocks() == (1, 4, 4, 1)

    @pytest.mark.parametrize(
        "name, d, central, index",
        [
            ("A4", (1, 2, 2), None, (0, 1, 1, 2, 2)),  # type A keeps d in the given order
            ("B3", (1,), 5, (0, 1, 1, 1, 1, 1, 2)),
            ("D4", (2, 2), None, (0, 0, 1, 1, 2, 2, 3, 3)),  # no central block
        ],
    )
    def test_block_index(self, name, d, central, index):
        assert BlockVector(LieKind.parse(name), d, central).block_index() == index


class TestColoringBlocks:
    def test_examples(self):
        a = blocks_from_coloring(Coloring(LieKind("A", 3), (1, 1, 1)))
        assert (a.d, a.central) == ((1, 1, 1, 1), None)
        c = blocks_from_coloring(Coloring(LieKind("C", 2), (1, 0)))
        assert (c.d, c.central) == ((1,), 2)
        # value fixed by the matrix oracle (diag 2H = 1,1,0,0,0,0,-1,-1)
        d = blocks_from_coloring(Coloring(LieKind("D", 4), (0, 1, 0, 0)))
        assert (d.d, d.central) == ((2,), 4)

    def test_inverse_examples(self):
        assert coloring_from_blocks(BlockVector(LieKind("A", 3), (1, 1, 1, 1))).u == (1, 1, 1)
        assert coloring_from_blocks(BlockVector(LieKind("C", 2), (1,), 2)).u == (1, 0)
        assert coloring_from_blocks(BlockVector(LieKind("B", 3), (2,), 3)).u == (0, 1, 0)

    def test_exceptional_rejected(self):
        with pytest.raises(UnsupportedKindError):
            blocks_from_coloring(Coloring(LieKind.parse("G2"), (1, 0)))

    def test_d_canonicalization(self):
        c = Coloring(LieKind("D", 4), (0, 0, 1, 0))
        assert c.canonical().u == (0, 0, 0, 1)
        assert blocks_from_coloring(c) == blocks_from_coloring(c.canonical())

    def test_palindrome_sums_to_matrix_size(self):
        for fam, lo in CLASSICAL_RANGES:
            for rank in range(lo, 9):
                kind = LieKind(fam, rank)
                for c in all_colorings(kind):
                    assert sum(blocks_from_coloring(c).full_blocks()) == kind.matrix_size


class TestEnumeration:
    def test_coloring_count(self):
        assert sum(1 for _ in all_colorings(LieKind("A", 5))) == 32

    def test_colorings_lexicographic(self):
        us = [c.u for c in all_colorings(LieKind("B", 2))]
        assert us == sorted(us)

    def test_block_vector_counts_distinct_and_ordered(self):
        # one vector per parabolic: 2^n of them, and 3 * 2^(n-2) in type D,
        # where a crossed node n-1 or n alone names the same Levi
        for fam, lo in CLASSICAL_RANGES:
            for rank in range(lo, 11):
                vectors = all_block_vectors(LieKind(fam, rank))
                assert len(vectors) == (3 * 2 ** (rank - 2) if fam == "D" else 2**rank)
                assert len(set(vectors)) == len(vectors)
                keys = [(sum(b.d), b.d) for b in vectors]
                assert keys == sorted(keys) and len(set(keys)) == len(keys)

    def test_sp4_block_vectors(self):
        got = {(b.d, b.central) for b in all_block_vectors(LieKind("C", 2))}
        assert got == {((), 4), ((1,), 2), ((2,), None), ((1, 1), None)}
