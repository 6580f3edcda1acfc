import itertools
import math
import random

import pytest

from richardson import cli, oracle
from richardson.classify import classify, is_nice
from richardson.core import BlockVector, Coloring, InvariantError, LieKind, UnsupportedKindError, all_block_vectors, all_colorings, blocks_from_coloring
from richardson.oracle import (
    ExactMatrix,
    NotNilpotentError,
    certified_centralizer_dim,
    generic_nilradical_element,
    jordan_partition,
    levi_dim,
    oracle_partition_detail,
    oracle_richardson_partition,
    realization,
)
from richardson.partitions import richardson_partition
from richardson.verify import classical_kinds_up_to

from reference import (
    FormulaDomainError,
    MembershipError,
    bracket,
    centralizer_dim,
    combine,
    contains,
    dense_basis,
    form_matrix,
    fraction_rank,
    identity,
    is_zero,
    levi_blocks_from_matrices,
    levi_dim_closed_form,
    nilradical_basis,
    rank_and_kernel,
    row_space_jordan_partition,
    zeros,
)


def jordan_block(n):
    return ExactMatrix([[1 if j == i + 1 else 0 for j in range(n)] for i in range(n)])


def form_signs(kind):
    """Signs s_i of the reference form F[i][N-1-i] = s_i, or None in type A."""
    form = form_matrix(kind)
    return None if form is None else tuple(form.data[i][form.rows - 1 - i] for i in range(form.rows))


def direct_sum(a, b):
    n, m = a.rows, b.rows
    rows = [[0] * (n + m) for _ in range(n + m)]
    for i in range(n):
        for j in range(n):
            rows[i][j] = a.data[i][j]
    for i in range(m):
        for j in range(m):
            rows[n + i][n + j] = b.data[i][j]
    return ExactMatrix(rows)


class TestExactMatrix:
    def test_rank_small(self):
        assert ExactMatrix([[1, 2], [2, 4]]).rank() == 1
        assert ExactMatrix([[1, 2], [3, 4]]).rank() == 2
        assert zeros(3).rank() == 0

    def test_non_integer_entries_rejected(self):
        from fractions import Fraction

        # truncating 0.5 to 0 would report rank 2 for a rank-1 matrix
        with pytest.raises(TypeError):
            ExactMatrix([[0.5, 1], [1, 2]])
        with pytest.raises(TypeError):
            ExactMatrix([[Fraction(1, 2), 1], [1, 2]])

    @pytest.mark.parametrize(
        "build,message",
        [
            (lambda: ExactMatrix([[1], [1, 2]]), "ragged rows"),
            (lambda: ExactMatrix([[1, 2]]) @ ExactMatrix([[1, 2]]), "shape mismatch"),
            (lambda: jordan_partition(ExactMatrix([[0, 1]])), "square matrix required"),
        ],
        ids=["ragged", "product", "jordan-non-square"],
    )
    def test_shape_errors(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    def test_rank_bounded_by_generators(self):
        # rows built from r generators never exceed rank r
        rng = random.Random(11)
        for _ in range(25):
            n = rng.randint(2, 6)
            r = rng.randint(1, n)
            gens = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(r)]
            combos = []
            for _ in range(n + 1):
                coeffs = [rng.randint(-3, 3) for _ in range(r)]
                combos.append([sum(c * gens[k][j] for k, c in enumerate(coeffs)) for j in range(n)])
            assert ExactMatrix(gens + combos).rank() <= r


class TestRealization:
    @pytest.mark.parametrize(
        "name,dim",
        [("A3", 15), ("A5", 35), ("B2", 10), ("B3", 21), ("C2", 10), ("C4", 36), ("D3", 15), ("D4", 28), ("D6", 66)],
    )
    def test_dimensions(self, name, dim):
        kind = LieKind.parse(name)
        assert len(realization(kind)) == len(dense_basis(kind)) == dim

    def test_form_invariance_exact(self):
        # contains checks X^T F + F X = 0 exactly for the form F
        for name in ("B2", "B3", "C2", "C3", "D3", "D4", "D5"):
            kind = LieKind.parse(name)
            assert all(contains(kind, elt) for elt in dense_basis(kind))

    def test_type_a_traceless(self):
        assert all(sum(elt.data[i][i] for i in range(5)) == 0 for elt in dense_basis(LieKind("A", 4)))

    def test_short_basis_raises_invariant_error(self, monkeypatch):
        monkeypatch.setattr(oracle, "_grid_entries", lambda kind: iter([((0, 1, 1),)]))
        realization.cache_clear()
        try:
            with pytest.raises(InvariantError, match="built 1 basis elements, expected dim 8"):
                realization(LieKind("A", 2))
        finally:
            realization.cache_clear()

    def test_sparse_basis_up_to_16(self):
        # one cached basis per kind, of length dim g, each element led by its
        # first entry at row-major increasing positions; B/C/D elements lead
        # at the first of a position and its mirror
        kinds = list(classical_kinds_up_to(("A", "B", "C", "D"), 16))
        assert len(kinds) == 15 + 6 + 7 + 6  # A1-A15, B2-B7, C2-C8, D3-D8
        for kind in kinds:
            basis = realization(kind)
            assert realization(kind) is basis
            assert len(basis) == kind.dim, kind.name
            leads = [entries[0][:2] for entries in basis]
            assert leads == sorted(set(leads)), kind.name
            N = kind.matrix_size
            assert all(entries[0][2] == 1 for entries in basis)
            if kind.family != "A":
                assert all((i, j) <= (N - 1 - j, N - 1 - i) for i, j in leads), kind.name
        for name in ("G2", "E8"):
            with pytest.raises(UnsupportedKindError):
                realization(LieKind.parse(name))

    def test_contains(self):
        x = generic_nilradical_element(BlockVector(LieKind("C", 2), (1,), 2), 7)
        assert contains(LieKind("C", 2), x)
        assert not contains(LieKind("C", 2), identity(4))


class TestNilradical:
    def test_a1_single_root_vector(self):
        basis = nilradical_basis(BlockVector(LieKind("A", 1), (1, 1)))
        assert len(basis) == 1
        x = generic_nilradical_element(BlockVector(LieKind("A", 1), (1, 1)), 5)
        assert x.data[0][1] != 0 and x.data[1][0] == 0

    def test_full_levi_zero(self):
        x = generic_nilradical_element(BlockVector(LieKind("A", 3), (4,)), 3)
        assert is_zero(x)
        x = generic_nilradical_element(BlockVector(LieKind("B", 3), (), 7), 3)
        assert is_zero(x)

    def test_c2_block_structure(self):
        b = BlockVector(LieKind("C", 2), (1,), 2)
        x = generic_nilradical_element(b, 42)
        assert contains(b.kind, x)
        blocks = (0, 1, 1, 2)  # block index per row/col for blocks (1,2,1)
        for i in range(4):
            for j in range(4):
                if blocks[i] >= blocks[j]:
                    assert x.data[i][j] == 0

    def test_generic_element_is_the_dense_combination(self):
        # the sparse assembly against sum c * e over the dense basis, with the
        # coefficients drawn in the same order
        for kind in classical_kinds_up_to(("A", "B", "C", "D"), 10):
            for b in all_block_vectors(kind):
                for seed in (1, 8):
                    rng = random.Random(seed)
                    want = [[0] * kind.matrix_size for _ in range(kind.matrix_size)]
                    for elt in nilradical_basis(b):
                        c = rng.randint(*oracle.COEFF_RANGE)
                        for i, row in enumerate(elt.data):
                            for j, v in enumerate(row):
                                want[i][j] += c * v
                    got = generic_nilradical_element(b, seed)
                    assert got == ExactMatrix(want), (kind.name, b.d, b.central)

    def test_dim_counts(self):
        # nilradical + levi + opposite nilradical spans g
        for kind in classical_kinds_up_to(("A", "B", "C", "D"), 9):
            for b in all_block_vectors(kind):
                assert 2 * len(nilradical_basis(b)) + levi_dim(b) == kind.dim

    def test_nilradical_and_levi_are_disjoint_parts_of_the_basis(self, monkeypatch):
        walk = oracle._root_vectors
        built = []

        def recording_walk(kind, keep):
            built.append(walk(kind, keep))
            return built[-1]

        monkeypatch.setattr(oracle, "_root_vectors", recording_walk)
        for kind in classical_kinds_up_to(("A", "B", "C", "D"), 8):
            basis = set(dense_basis(kind))
            for b in all_block_vectors(kind):
                nil = nilradical_basis(b)
                levi_dim(b)
                levi = built[-1]
                assert len(set(nil)) == len(nil) and len(set(levi)) == len(levi)
                assert set(nil) <= basis and set(levi) <= basis
                assert set(nil).isdisjoint(levi), b

    def test_levi_dim_values(self):
        assert levi_dim(BlockVector(LieKind("A", 3), (1, 2, 1))) == 5
        assert levi_dim(BlockVector(LieKind("C", 2), (1,), 2)) == 4  # gl_1 x sp_2
        assert levi_dim(BlockVector(LieKind("D", 4), (2,), 4)) == 10  # gl_2 x so_4
        assert classify(BlockVector(LieKind("C", 3), (2,), 2)).orbit_dim == 14


class TestReferencePins:
    # the library's power ranks and Levi basis count against the two
    # cheaper references, so that either can replace its path unchanged
    def test_jordan_partition_matches_row_space_chain(self):
        non_nice = [
            b
            for kind in classical_kinds_up_to(("B", "C", "D"), 12)
            for b in all_block_vectors(kind)
            if not is_nice(b)
        ]
        nice = [
            b
            for kind in classical_kinds_up_to(("A", "B", "C", "D"), 9)
            for b in all_block_vectors(kind)
            if is_nice(b)
        ]
        assert (len(non_nice), len(nice)) == (62, 376)
        form_aware = 0
        for b in non_nice + nice:
            x = generic_nilradical_element(b, 1)
            want = row_space_jordan_partition(x)
            assert jordan_partition(x) == want, (b.kind.name, b.d, b.central)
            form = form_signs(b.kind)
            if form is not None:
                assert jordan_partition(x, form) == want, (b.kind.name, b.d, b.central)
                form_aware += 1
        assert form_aware == 62 + 64  # the non-nice and the B/C/D nice vectors

    def test_row_space_chain_refuses_non_nilpotent(self):
        with pytest.raises(NotNilpotentError, match="stalled at 1"):
            row_space_jordan_partition(direct_sum(jordan_block(2), identity(1)))

    def test_levi_dim_matches_closed_form(self):
        vectors = [
            b for kind in classical_kinds_up_to(("A", "B", "C", "D"), 10) for b in all_block_vectors(kind)
        ]
        assert len(vectors) == 1152
        for b in vectors:
            assert levi_dim(b) == levi_dim_closed_form(b), (b.kind.name, b.d, b.central)


class TestJordan:
    def test_zero(self):
        assert jordan_partition(zeros(4)) == (1, 1, 1, 1)
        # the 0 x 0 matrix is nilpotent with no Jordan blocks
        assert jordan_partition(zeros(0)) == ()

    def test_single_block(self):
        assert jordan_partition(jordan_block(4)) == (4,)

    def test_block_sums(self):
        for k in range(1, 12):
            for l in range(1, 13 - k):
                x = direct_sum(jordan_block(k), jordan_block(l))
                assert jordan_partition(x) == tuple(sorted((k, l), reverse=True))

    def test_not_nilpotent(self):
        with pytest.raises(NotNilpotentError):
            jordan_partition(identity(3))
        # the rank of the powers stalls at 1, above 0
        with pytest.raises(NotNilpotentError, match="stalled at 1"):
            jordan_partition(direct_sum(jordan_block(2), identity(1)))

    def test_c3_generic(self):
        lam = oracle_richardson_partition(BlockVector(LieKind("C", 3), (2,), 2), trials=3)
        assert lam == (3, 3)


class TestFormHalf:
    # jordan_partition takes the row chain when given a B/C/D form and full
    # ExactMatrix powers without one; these pin the form it is given, the
    # skew check on X and the two calls against each other
    def test_library_form_is_the_reference_form(self):
        # the signs the skew check reads are the reference form's, and
        # every realization entry has its mirror at -s_i s_j times its value
        for kind in classical_kinds_up_to(("A", "B", "C", "D"), 16):
            s = form_signs(kind)
            assert oracle._form(kind) == s, kind.name
            if s is None:
                continue
            N = kind.matrix_size
            for entries in realization(kind):
                values = {(i, j): v for i, j, v in entries}
                for (i, j), v in values.items():
                    assert values.get((N - 1 - j, N - 1 - i), 0) == -s[i] * s[j] * v, (kind.name, entries)

    def test_form_aware_call_equals_form_free_call_up_to_12(self):
        vectors = [b for kind in classical_kinds_up_to(("B", "C", "D"), 12) for b in all_block_vectors(kind)]
        assert len(vectors) == 274
        for b in vectors:
            x = generic_nilradical_element(b, 1)
            assert jordan_partition(x, form_signs(b.kind)) == jordan_partition(x), (b.kind.name, b.d, b.central)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_form_aware_call_equals_form_free_call_on_classify_oracle_inputs(self, seed):
        # the 377 non-nice B/C/D vectors with N <= 16 that classify --with-oracle
        # samples: the row chain of power rows against ExactMatrix @ and the
        # primitive-echelon chain, on the N = 13..16 matrices the up-to-12 test stops short of
        vectors = [
            b
            for kind in classical_kinds_up_to(("B", "C", "D"), 16)
            for b in all_block_vectors(kind)
            if not is_nice(b)
        ]
        assert len(vectors) == 377
        for b in vectors:
            x = generic_nilradical_element(b, seed)
            want = row_space_jordan_partition(x)
            assert jordan_partition(x, form_signs(b.kind)) == jordan_partition(x) == want, (b.kind.name, b.d, b.central)

    @pytest.mark.parametrize(
        "b",
        [BlockVector(LieKind("C", 6), (1, 1, 3), 2), BlockVector(LieKind("D", 8), (1, 3, 3), 2)],
        ids=["C6", "D8"],
    )
    def test_form_aware_call_builds_no_matrix_and_ranks_each_power_once(self, b, monkeypatch):
        # no ExactMatrix is built, and each power X^1 .. X^lam_1 is eliminated
        # once: N rows for X, then the r_(k-1) echelon rows of X^(k-1), times X
        x, form = generic_nilradical_element(b, 1), form_signs(b.kind)
        lam = row_space_jordan_partition(x)
        built, fed = [], []
        init, echelon = ExactMatrix.__init__, oracle._echelon
        monkeypatch.setattr(ExactMatrix, "__init__", lambda self, data: built.append(data) or init(self, data))
        monkeypatch.setattr(oracle, "_echelon", lambda m: fed.append(len(m)) or echelon(m))
        assert jordan_partition(x, form) == lam
        assert built == []
        # r_k = rank X^k = sum over the parts of max(part - k, 0)
        ranks = [sum(max(p - k, 0) for p in lam) for k in range(lam[0])]
        assert ranks[0] == b.kind.matrix_size
        assert fed == ranks

    def test_oracle_passes_the_kinds_form(self, monkeypatch):
        # the certified oracle takes the row chain in B/C/D and full powers
        # in type A
        seen = []
        plain = oracle.jordan_partition
        monkeypatch.setattr(oracle, "jordan_partition", lambda x, form=None: seen.append(form) or plain(x, form))
        for name in ("A3", "B3", "C3", "D4"):
            kind = LieKind.parse(name)
            oracle_partition_detail(all_block_vectors(kind)[0], trials=1)
            assert seen.pop() == form_signs(kind), name

    @pytest.mark.parametrize(
        "b,form",
        [
            (BlockVector(LieKind("C", 3), (2,), 2), (1,) * 6),
            (BlockVector(LieKind("A", 3), (1, 1, 1, 1)), (1, 1, -1, -1)),
        ],
        ids=["C3-with-BD-signs", "A3-with-C-signs"],
    )
    def test_element_not_skew_for_the_form_raises(self, b, form, monkeypatch):
        powers = []
        monkeypatch.setattr(ExactMatrix, "rank", lambda self: powers.append(self))
        monkeypatch.setattr(oracle, "_echelon", lambda m: powers.append(m))
        x = generic_nilradical_element(b, 1)
        with pytest.raises(InvariantError, match="not skew for the form"):
            jordan_partition(x, form)
        assert powers == []


class TestRowChain:
    # with a form, rank X^k is read off the primitive echelon rows of
    # X^(k-1), times X
    def test_echelon_rows_are_primitive_and_count_the_rank(self):
        # on random integer matrices with dependent rows, each kept row is
        # primitive and zero at every earlier row's leading column, their
        # number is the rank by Fraction elimination, and they span the rows
        rng = random.Random(3)
        assert oracle._echelon([]) == []
        for _ in range(60):
            n, r = rng.randint(2, 7), rng.randint(0, 5)
            gens = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(r)]
            rows = [[sum(rng.randint(-2, 2) * g[j] for g in gens) for j in range(n)] for _ in range(rng.randint(1, 8))]
            before = [row[:] for row in rows]
            kept = oracle._echelon(rows)
            assert rows == before
            leads = []
            for row in kept:
                assert math.gcd(*row) == 1, kept
                assert all(row[col] == 0 for col in leads), kept
                leads.append(next(col for col, v in enumerate(row) if v))
            assert len(kept) == fraction_rank(rows) == ExactMatrix(rows).rank()
            assert fraction_rank(kept + rows) == len(kept)

    @pytest.mark.parametrize(
        "name,diagonal,stalled",
        [
            ("B3", (1, 0, 0, 0, 0, 0, -1), 2),
            ("C3", (1, 0, 0, 0, 0, -1), 2),
            ("D4", (1, 0, 0, 0, 0, 0, 0, -1), 2),
            ("C3", (1, 2, 3, -3, -2, -1), 6),
            ("D4", (1, 2, 3, 4, -4, -3, -2, -1), 8),
        ],
        ids=["B3", "C3", "D4", "C3-full-rank", "D4-full-rank"],
    )
    def test_skew_cartan_element_is_not_nilpotent(self, name, diagonal, stalled, monkeypatch):
        # a Cartan element of so/sp is skew for the form, so it passes the
        # skew check, and its rank stalls at rank X: at once when rank X = N
        kind = LieKind.parse(name)
        n = len(diagonal)
        x = ExactMatrix([[diagonal[i] if i == j else 0 for j in range(n)] for i in range(n)])
        fed, echelon = [], oracle._echelon
        monkeypatch.setattr(oracle, "_echelon", lambda m: fed.append(len(m)) or echelon(m))
        with pytest.raises(NotNilpotentError, match=f"stalled at {stalled} > 0"):
            jordan_partition(x, form_signs(kind))
        assert fed == ([n] if stalled == n else [n, stalled])


class TestCentralizer:
    def test_zero_gives_dim_g(self):
        kind = LieKind("A", 3)
        assert centralizer_dim(kind, zeros(4)) == len(dense_basis(kind))

    def test_sl2_regular(self):
        assert centralizer_dim(LieKind("A", 1), ExactMatrix([[0, 1], [0, 0]])) == 1

    def test_a3_middle(self):
        b = BlockVector(LieKind("A", 3), (1, 2, 1))
        x = generic_nilradical_element(b, 1)
        assert centralizer_dim(b.kind, x) == levi_dim(b) == 5

    def test_membership_error(self):
        with pytest.raises(MembershipError):
            centralizer_dim(LieKind("C", 2), identity(4))

    def test_certified_matches_exact(self):
        for name, d, c in (("B3", (2,), 3), ("C3", (2,), 2), ("D4", (1, 1), 4), ("A4", (2, 3), None)):
            b = BlockVector(LieKind.parse(name), d, c)
            x = generic_nilradical_element(b, 9)
            fast, cert = certified_centralizer_dim(b.kind, jordan_partition(x), levi_dim(b))
            assert cert
            assert fast == centralizer_dim(b.kind, x) == levi_dim(b)

    def test_below_bound_raises(self):
        b = BlockVector(LieKind("C", 3), (2,), 2)
        # the regular type (6,) has dim g^X = 3, below dim m = 7
        with pytest.raises(InvariantError):
            certified_centralizer_dim(b.kind, (6,), levi_dim(b))

    def test_exceptional_kind_rejected(self):
        with pytest.raises(UnsupportedKindError):
            certified_centralizer_dim(LieKind.parse("G2"), (1,), 0)

    def test_formula_matches_exact_on_sparse_elements(self):
        # sparse nilradical elements have many non-generic Jordan types; a
        # generic sample always has the same one, so it cannot catch a wrong
        # sign or odd-part term
        rng = random.Random(5)
        types: set[tuple[str, tuple[int, ...]]] = set()
        uncertified = {fam: 0 for fam in "ABCD"}
        for kind in classical_kinds_up_to(("A", "B", "C", "D"), 8):
            for b in all_block_vectors(kind):
                basis = nilradical_basis(b)
                if not basis:
                    continue
                sample = rng.sample(basis, rng.randint(1, len(basis)))
                x = combine(*((rng.randint(-2, 2), elt) for elt in sample))
                lam = jordan_partition(x)
                dim, cert = certified_centralizer_dim(kind, lam, levi_dim(b))
                assert dim == centralizer_dim(kind, x), (kind.name, b.d, b.central, lam)
                types.add((kind.name, lam))
                uncertified[kind.family] += not cert
        assert all(uncertified.values()), uncertified
        assert len(types) > 60, len(types)


class TestOraclePartition:
    def test_regular_a(self):
        assert oracle_richardson_partition(BlockVector(LieKind("A", 3), (1, 1, 1, 1)), 1) == (4,)

    def test_values(self):
        assert oracle_richardson_partition(BlockVector(LieKind("C", 2), (1,), 2), 3) == (2, 2)
        assert oracle_richardson_partition(BlockVector(LieKind("D", 5), (1, 4)), 3) == (3, 3, 2, 2)

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError, match="trials must be positive"):
            oracle_partition_detail(BlockVector(LieKind("C", 2), (1,), 2), trials=0)

    def test_deterministic(self):
        b = BlockVector(LieKind("D", 5), (1, 2), 4)
        assert oracle_richardson_partition(b, 2, base_seed=5) == oracle_richardson_partition(
            b, 2, base_seed=5
        )

    def test_order_invariance(self):
        # conjugate Levis give the same Jordan type even for the non-sorted parabolic
        for d in itertools.permutations((1, 2, 3)):
            try:
                b = BlockVector(LieKind("D", 6), d, None)
            except Exception:
                continue
            assert oracle_richardson_partition(b, 2) == richardson_partition(
                BlockVector(LieKind("D", 6), tuple(sorted(d)), None)
            )

    def test_rank_formula_domain_is_sharp(self):
        # past the domain the generic element really has more rank
        b = BlockVector(LieKind("B", 3), (3,), 1)
        with pytest.raises(FormulaDomainError):
            rank_and_kernel(b)
        lam = oracle_partition_detail(b, trials=2)
        assert lam is not None and len(lam) == 3  # the naive formula would predict 5
        # the symplectic one-above case is also outside: 3 parts, not central+2
        b = BlockVector(LieKind("C", 4), (3,), 2)
        with pytest.raises(FormulaDomainError):
            rank_and_kernel(b)
        lam = oracle_partition_detail(b, trials=2)
        assert lam == (3, 3, 2)

    def test_uncertified_partition_is_unknown(self, monkeypatch):
        # X = 0 never certifies once there are two blocks (dim g^0 = dim g >
        # dim m); an uncertified Jordan type must not stand in for the answer
        from richardson.verify import run_verification

        monkeypatch.setattr(oracle, "generic_nilradical_element", lambda b, seed: zeros(b.N))
        b = BlockVector(LieKind("B", 3), (3,), 1)
        assert len(b.full_blocks()) == 3 and not is_nice(b)
        assert oracle_partition_detail(b, trials=3) is None
        with pytest.warns(RuntimeWarning, match="no sample certified"):
            report = classify(b, with_oracle=True)
        assert report.partition is None
        assert not any("stabilizer test" in d for d in report.diagnostics)
        # where the closed form applies, the record keeps it and the warning
        # speaks only of the oracle's value
        nice = BlockVector(LieKind("C", 3), (2,), 2)
        with pytest.warns(RuntimeWarning, match="oracle's partition is unknown"):
            report = classify(nice, with_oracle=True)
        assert report.partition == (3, 3) and report.diagnostics == ()
        lines = []
        result = run_verification(families=("C",), max_n=4, trials=2, emit=lines.append)
        assert result.failures and len(result.failures) < result.checked
        assert not any("!= certified oracle" in line for line in lines), lines
        assert all(
            line.startswith("PASS") or line.endswith("no sample certified generic (dim g^X != dim m)")
            for line in lines
        ), lines


    def test_verify_and_classify_share_one_referee(self, monkeypatch):
        # a wrong certified partition is reported in the same words by the
        # verify sweep and by classify --with-oracle
        from richardson.verify import run_verification

        monkeypatch.setattr(oracle, "oracle_partition_detail", lambda b, trials, base_seed: (b.N,))
        b = BlockVector(LieKind("C", 2), (2,))
        note = f"closed form {richardson_partition(b)} != certified oracle (4,)"
        assert classify(b, with_oracle=True).diagnostics == (note,)
        lines = []
        run_verification(families=("C",), max_n=4, trials=1, emit=lines.append)
        assert f"FAIL C2 d=2 central=-: {note}" in lines, lines


class TestOracleEquivalence:
    def test_bcd_up_to_14(self):
        # closed forms equal oracle Jordan types on every nice B/C/D vector
        for kind in classical_kinds_up_to(("B", "C", "D"), 14):
            for b in all_block_vectors(kind):
                if not is_nice(b):
                    continue
                lam = oracle_partition_detail(b, trials=3)
                assert lam is not None, (kind.name, b.d, b.central)
                assert lam == richardson_partition(b), (kind.name, b.d, b.central)

    def test_type_a_13_14_sample(self):
        # N <= 12 is swept exhaustively by the acceptance suite; probe the
        # N = 13, 14 bound on a fixed sample of nice vectors
        for n_rank in (12, 13):
            kind = LieKind("A", n_rank)
            nice = [b for b in all_block_vectors(kind) if is_nice(b)]
            rng = random.Random(n_rank)
            for b in rng.sample(nice, 60):
                lam = oracle_partition_detail(b, trials=1)
                assert lam is not None
                assert lam == richardson_partition(b)

    def test_non_nice_certificates(self):
        # dim g^X = dim m holds for generic elements of arbitrary parabolics,
        # and the certified Jordan type is the induction formula's
        def check(b):
            lam = jordan_partition(generic_nilradical_element(b, 23))
            label = (b.kind.name, b.d, b.central, lam)
            assert certified_centralizer_dim(b.kind, lam, levi_dim(b))[1], label
            assert lam == richardson_partition(b), label

        for kind in classical_kinds_up_to(("A", "B", "C", "D"), 9):
            for b in all_block_vectors(kind):
                if not is_nice(b):
                    check(b)
        rng = random.Random(3)
        for n_val in (10, 11, 12):
            kind = LieKind("A", n_val - 1)
            rest = [b for b in all_block_vectors(kind) if not is_nice(b)]
            for b in rng.sample(rest, 60):
                check(b)
        non_nice_bcd = 0
        for kind in classical_kinds_up_to(("B", "C", "D"), 12):
            for b in all_block_vectors(kind):
                if is_nice(b):
                    continue
                lam = oracle_partition_detail(b, trials=3)
                assert lam == richardson_partition(b), (kind.name, b.d, b.central, lam)
                non_nice_bcd += 1
        assert non_nice_bcd == 62

    @pytest.mark.parametrize(
        "name,d,central",
        [
            ("A16", (1,) * 17, None),
            ("A16", (2, 7, 8), None),
            ("B16", (4, 4, 4), 9),
            ("B16", (1, 2, 3, 4, 5), 3),
            ("C16", (1,) * 16, None),
            ("C16", (2, 6, 4), 8),
            ("D16", (3, 4, 4, 5), None),
            ("D16", (5, 6), 10),
        ],
    )
    def test_largest_cli_rank_certifies_the_closed_form(self, name, d, central):
        # classify --with-oracle accepts rank 16 (N up to 33), past the
        # N <= 16 that the sweeps above reach
        b = BlockVector(LieKind.parse(name), d, central)
        assert b.kind.rank == cli._MAX_SIZE
        assert oracle_partition_detail(b) == richardson_partition(b)


class TestLeviBlocks:
    def test_examples(self):
        got = levi_blocks_from_matrices(Coloring(LieKind("A", 3), (1, 0, 1)))
        assert (got.d, got.central) == ((1, 2, 1), None)
        got = levi_blocks_from_matrices(Coloring(LieKind("B", 3), (0, 0, 0)))
        assert (got.d, got.central) == ((), 7)
        got = levi_blocks_from_matrices(Coloring(LieKind("C", 3), (0, 1, 0)))
        assert (got.d, got.central) == ((2,), 2)

    def test_matches_core_conversion(self):
        for fam, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3)):
            for rank in range(lo, 7):
                kind = LieKind(fam, rank)
                for c in all_colorings(kind):
                    assert levi_blocks_from_matrices(c) == blocks_from_coloring(c)

    def test_accepts_block_vector(self):
        b = BlockVector(LieKind("D", 4), (2,), 4)
        assert levi_blocks_from_matrices(b) == b


class TestBracket:
    def test_antisymmetry_and_jacobi_sample(self):
        rng = random.Random(2)
        elts = rng.sample(dense_basis(LieKind("C", 2)), 4)
        for x, y in itertools.combinations(elts, 2):
            assert bracket(x, y) == combine((-1, bracket(y, x)))
        x, y, z = elts[:3]
        jac = combine(
            (1, bracket(x, bracket(y, z))),
            (1, bracket(y, bracket(z, x))),
            (1, bracket(z, bracket(x, y))),
        )
        assert is_zero(jac)
