"""Independent cross-checks for the library, used only by the tests.

Each function here computes a quantity a second way, so that the tests can
hold the library's one path against it:

* :func:`centralizer_dim` reads dim g^X off the exact rank of ad(X) on the
  dense basis of g (:func:`dense_basis`), against the Jordan-type closed
  forms of :func:`richardson.oracle.certified_centralizer_dim`;
* :func:`row_space_jordan_partition` reads rank X^k off a chain of integer
  row spaces, against the Bareiss ranks of the powers in
  :func:`richardson.oracle.jordan_partition`;
* :func:`nilradical_basis` picks the nilradical out of the dense basis by
  where each element's entries lie, against the leading positions that
  :func:`richardson.oracle.generic_nilradical_element` keeps;
* :func:`levi_dim_closed_form` sums the dimensions of the Levi's simple
  factors, against the count of Levi basis matrices in
  :func:`richardson.oracle.levi_dim`;
* :func:`levi_blocks_from_matrices` solves for the grading element with
  exact rationals, against :func:`richardson.core.blocks_from_coloring`;
* :func:`partition_type_a`, :func:`partition_bcd` and
  :func:`dual_partition_bcd` are the paper's family-by-family closed forms
  (a transpose in type A, dual-partition formulas for B/C/D), defined where
  the order-blind :func:`richardson.classify.is_nice` holds, against the one
  induction formula :func:`richardson.partitions.richardson_partition`;
* :func:`g1_element` samples a random element of g_1 from the
  realization's entries one block above the diagonal, whose Jordan type
  referees :func:`richardson.partitions.g1_partition`, and
  :func:`g1_partition_by_ranks` derives the same type from the rank of
  each power, against the level scan there;
* :func:`birational_by_block_clauses` is the paper's B/C/D statement of
  birationality, clause by clause on the block sizes, against the
  ``birational`` field of :func:`richardson.classify.classify`: nice, and
  the stabilizer test on the induction partition;
* :func:`nice_by_block_clauses` and :func:`sl2_by_block_clauses` are the
  family-by-family clauses ``classify`` used for ``nice`` and
  ``sl2_given`` before one rule replaced them (the generic type of g_1
  against the induction partition, and the eigenvalues of the grading
  element), kept as the pinned record of the earlier answers;
* :func:`so_even_single_odd_partition` and :func:`rank_and_kernel` are
  explicit partition formulas on parts of that domain;
* :func:`partitions_of` lists every partition of a size, for the sweeps
  over partition operations, and :func:`brute_transpose` counts a Young
  diagram's cells column by column, against
  :func:`richardson.core.transpose`.

:data:`E7_NON_BIRATIONAL` holds the paper's three E7 exceptions, which both
the acceptance suite and the exceptional-table tests read.

The library's :class:`~richardson.oracle.ExactMatrix` only multiplies and
ranks; the small matrix helpers the tests need besides (:func:`zeros`,
:func:`identity`, :func:`combine`, :func:`is_zero`) live here.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterator, Sequence

from richardson.classify import is_nice
from richardson.core import (
    BlockVector,
    Coloring,
    InvariantError,
    LieKind,
    UnsupportedKindError,
    coloring_from_blocks,
    transpose,
)
from richardson.oracle import (
    COEFF_RANGE,
    ExactMatrix,
    NotNilpotentError,
    _int_rank,
    _root_vectors,
    realization,
)


# the paper's E7 parabolics with a Richardson element in g_1 whose stabilizer
# in G is strictly larger than in P
E7_NON_BIRATIONAL = (
    (1, 1, 0, 0, 0, 0, 1),
    (0, 0, 1, 0, 0, 0, 1),
    (0, 0, 0, 0, 1, 0, 1),
)


class MembershipError(ValueError):
    """Matrix does not lie in the expected Lie algebra."""


class FormulaDomainError(ValueError):
    """Input outside the domain of the closed-form partition formulas."""


# ---------------------------------------------------------------------------
# matrix helpers


def zeros(n: int) -> ExactMatrix:
    return ExactMatrix([[0] * n for _ in range(n)])


def identity(n: int) -> ExactMatrix:
    return ExactMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])


def combine(*terms: tuple[int, ExactMatrix]) -> ExactMatrix:
    """The integer combination sum c * m of one or more ``(c, m)`` pairs."""
    rows, cols = terms[0][1].rows, terms[0][1].cols
    return ExactMatrix(
        [[sum(c * m.data[i][j] for c, m in terms) for j in range(cols)] for i in range(rows)]
    )


def is_zero(x: ExactMatrix) -> bool:
    return all(v == 0 for row in x.data for v in row)


def bracket(x: ExactMatrix, y: ExactMatrix) -> ExactMatrix:
    return combine((1, x @ y), (-1, y @ x))


# ---------------------------------------------------------------------------
# invariant forms and the ad-rank centralizer


@lru_cache(maxsize=None)
def dense_basis(kind: LieKind) -> tuple[ExactMatrix, ...]:
    """The realization's basis of g as dense matrices, in its order."""
    return tuple(_root_vectors(kind, lambda i, j: True))


def nilradical_basis(b: BlockVector) -> list[ExactMatrix]:
    """The elements of :func:`dense_basis` whose nonzero entries all lie
    strictly above the block diagonal of ``b``, in its order."""
    blk = [k for k, size in enumerate(b.full_blocks()) for _ in range(size)]
    return [
        x
        for x in dense_basis(b.kind)
        if all(blk[i] < blk[j] for i, row in enumerate(x.data) for j, v in enumerate(row) if v)
    ]


def form_matrix(kind: LieKind) -> ExactMatrix | None:
    """The form the realization preserves: None for type A (trace zero), 1s
    on the skew diagonal for B/D, and for C the skew-diagonal form whose
    first n entries are 1 and last n are -1."""
    N = kind.matrix_size
    fam = kind.family
    if fam == "A":
        return None
    rows = [[0] * N for _ in range(N)]
    for i in range(N):
        if fam == "C":
            rows[i][N - 1 - i] = 1 if i < N // 2 else -1
        else:
            rows[i][N - 1 - i] = 1
    return ExactMatrix(rows)


def contains(kind: LieKind, x: ExactMatrix) -> bool:
    """Is ``x`` in the realization of ``kind``: trace zero in type A, and
    X^T F + F X = 0 for the form F of B/C/D."""
    N = kind.matrix_size
    if x.rows != N or x.cols != N:
        return False
    form = form_matrix(kind)
    if form is None:
        return sum(x.data[i][i] for i in range(N)) == 0
    return is_zero(combine((1, ExactMatrix(list(zip(*x.data))) @ form), (1, form @ x)))


def _ad_rows(kind: LieKind, x: ExactMatrix) -> list[list[int]]:
    rows = []
    for elt in dense_basis(kind):
        rows.append([v for row in bracket(x, elt).data for v in row])
    return rows


def centralizer_dim(kind: LieKind, x: ExactMatrix) -> int:
    """dim {Y in g : [X, Y] = 0}, via the exact rank of ad(X) on g."""
    if not contains(kind, x):
        raise MembershipError(f"matrix is not in {kind.name}")
    return len(dense_basis(kind)) - _int_rank(_ad_rows(kind, x))


# ---------------------------------------------------------------------------
# Jordan types from row spaces, and the Levi dimension in closed form


def _primitive_echelon(rows: list[list[int]]) -> list[list[int]]:
    """Integer echelon rows spanning the same rational row space, each
    divided by the gcd of its entries."""
    basis: list[tuple[int, list[int]]] = []  # (pivot column, row)
    for row in rows:
        for col, top in basis:
            if row[col]:
                row = [top[col] * a - row[col] * b for a, b in zip(row, top)]
        lead = next((col for col, v in enumerate(row) if v), None)
        if lead is not None:
            g = gcd(*row)
            basis.append((lead, [v // g for v in row]))
    return [row for _, row in basis]


def row_space_jordan_partition(x: ExactMatrix) -> tuple[int, ...]:
    """Jordan type of a nilpotent matrix from the row-space chain: the row
    space of X^k is that of X^(k-1) times X, so rank X^k is the number of
    primitive integer echelon rows of (the previous row basis) . X."""
    cols = list(zip(*x.data))
    rows = [list(r) for r in identity(x.rows).data]
    ranks = [x.rows]
    while rows:
        rows = _primitive_echelon([[sum(a * b for a, b in zip(r, c)) for c in cols] for r in rows])
        if len(rows) == ranks[-1]:
            raise NotNilpotentError(f"rank of the powers stalled at {len(rows)} > 0")
        ranks.append(len(rows))
    return transpose([a - b for a, b in zip(ranks, ranks[1:])])


def levi_dim_closed_form(b: BlockVector) -> int:
    """dim m from the Levi's factors: gl_d for each block d, minus the centre
    in type A; so_c (B/D) or sp_c (C) for the central block c."""
    squares = sum(d * d for d in b.d)
    c = b.central or 0
    if b.kind.family == "A":
        return squares - 1
    if b.kind.family == "C":
        return squares + c * (c + 1) // 2
    return squares + c * (c - 1) // 2


def g1_element(b: BlockVector, seed: int) -> ExactMatrix:
    """A random element of g_1: coefficients in COEFF_RANGE, deterministic in
    seed, on the realization's elements whose leading position (i, j) lies
    one block above the diagonal."""
    rng = random.Random(seed)
    blk = b.block_index()
    N = b.N
    total = [[0] * N for _ in range(N)]
    for entries in realization(b.kind):
        lead_i, lead_j, _ = entries[0]
        if blk[lead_j] - blk[lead_i] == 1:
            c = rng.randint(*COEFF_RANGE)
            for i, j, v in entries:
                total[i][j] += c * v
    return ExactMatrix(total)


def g1_partition_by_ranks(kind: LieKind, blocks: Sequence[int]) -> tuple[int, ...]:
    """Jordan type of a generic X in g_1 from the ranks of its powers, for
    the full block sequence e_0 ... e_{m-1} in the order given.

    rank X^k = R_k, the sum over i of min(e_i ... e_{i+k}); in C with a
    central block and in D without one, term i is also capped by
    min(e_a ... e_{m-1-a}) rounded down to even, a = max(i, m-1-i-k), when
    a < m-1-a.  X has R_{k-1} - R_k Jordan blocks of size >= k.
    """
    e = tuple(blocks)
    m = len(e)
    skew = kind.family in ("C" if m % 2 else "D")
    ranks = []
    for k in range(m + 1):
        terms = []
        for i in range(m - k):
            term = min(e[i : i + k + 1])
            a = max(i, m - 1 - i - k)
            if skew and a < m - 1 - a:
                term = min(term, min(e[a : m - a]) // 2 * 2)
            terms.append(term)
        ranks.append(sum(terms))
    at_least = [r - s for r, s in zip(ranks, ranks[1:])]
    return transpose([n for n in at_least if n])


# ---------------------------------------------------------------------------
# Levi blocks from the grading element


def _solve_fraction(system: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Solve a square linear system exactly (unique solution expected)."""
    n = len(system)
    m = [row[:] + [rhs[i]] for i, row in enumerate(system)]
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col] != 0), None)
        if piv is None:
            raise ValueError("singular grading system")
        m[col], m[piv] = m[piv], m[col]
        pv = m[col][col]
        m[col] = [x / pv for x in m[col]]
        for i in range(n):
            if i != col and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return [m[i][n] for i in range(n)]


def levi_blocks_from_matrices(descriptor: Coloring | BlockVector) -> BlockVector:
    """Blocks of the standard Levi, read off the realization's grading element.

    Solves alpha_i(H) = u_i for the diagonal of H by exact linear algebra
    (independently of the conversion in :mod:`richardson.core`) and returns
    the maximal constant runs of diag(2H).
    """
    if isinstance(descriptor, BlockVector):
        col = coloring_from_blocks(descriptor)
    else:
        col = descriptor
    if not col.kind.is_classical:
        raise UnsupportedKindError(f"{col.kind.name} has no matrix realization")
    col = col.canonical()
    kind, u = col.kind, col.u
    n = kind.rank
    N = kind.matrix_size
    F = Fraction
    if kind.family == "A":
        system = [[F(0)] * N for _ in range(N)]
        rhs = [F(0) for _ in range(N)]
        for i in range(n):
            system[i][i] = F(1)
            system[i][i + 1] = F(-1)
            rhs[i] = F(u[i])
        system[n] = [F(1)] * N  # trace normalization
        a = _solve_fraction(system, rhs)
        diag = [2 * x for x in a]
    else:
        system = [[F(0)] * n for _ in range(n)]
        rhs = [F(0)] * n
        for i in range(n - 1):
            system[i][i] = F(1)
            system[i][i + 1] = F(-1)
            rhs[i] = F(u[i])
        if kind.family == "B":
            system[n - 1][n - 1] = F(1)
        elif kind.family == "C":
            system[n - 1][n - 1] = F(2)
        else:
            system[n - 1][n - 2] = F(1)
            system[n - 1][n - 1] = F(1)
        rhs[n - 1] = F(u[n - 1])
        a = _solve_fraction(system, rhs)
        half = [2 * x for x in a]
        mid = [F(0)] if kind.family == "B" else []
        diag = half + mid + [-x for x in reversed(half)]
    # in type A the grading element is defined only modulo the identity, so
    # the trace-zero solution may be fractional; runs are shift-invariant
    blocks: list[int] = []
    run = 1
    for prev, cur in zip(diag, diag[1:]):
        if cur == prev:
            run += 1
        else:
            blocks.append(run)
            run = 1
    blocks.append(run)
    if kind.family == "A":
        return BlockVector(kind, tuple(blocks))
    m = len(blocks)
    if m % 2:
        return BlockVector(kind, tuple(blocks[: m // 2]), blocks[m // 2])
    return BlockVector(kind, tuple(blocks[: m // 2]), None)


# ---------------------------------------------------------------------------
# the family-by-family closed forms
#
# Formulas for B/C/D require the canonical ascending arrangement of the half
# block vector, which names a conjugate Levi and hence the same Jordan type;
# inputs are sorted internally.  The dual (conjugate) partition is built
# first for most cases; odd block sizes contribute an adjusted pair
# ``{d_i - 1, d_i + 1}`` where the family demands even multiplicities.


def _require_nice(b: BlockVector) -> None:
    if not is_nice(b):
        raise FormulaDomainError(
            f"no closed-form Richardson partition for {b.kind.name} d={b.d} central={b.central}; "
            "use the matrix oracle"
        )


def partition_type_a(b: BlockVector) -> tuple[int, ...]:
    """Jordan type of a Richardson element in type A: conjugate of the sorted blocks."""
    if b.kind.family != "A":
        raise FormulaDomainError(f"type A only, got {b.kind.name}")
    return transpose(tuple(sorted(b.d, reverse=True)))


def _adjusted_pairs(s: Sequence[int]) -> list[int]:
    """Pairs {d,d} for even d, {d-1, d+1} for odd d; zero parts dropped."""
    out: list[int] = []
    for v in s:
        if v % 2 == 0:
            out += [v, v]
        else:
            out += ([v - 1] if v > 1 else []) + [v + 1]
    return out


def _plain_pairs(s: Sequence[int]) -> list[int]:
    return [v for x in s for v in (x, x)]


def _dual_bcd(fam: str, s: tuple[int, ...], c: int | None) -> tuple[int, ...]:
    if fam == "C":
        parts = _plain_pairs(s) if c is None else _adjusted_pairs(s) + [c]
    else:  # B, D
        parts = _adjusted_pairs(s) if c is None else _plain_pairs(s) + [c]
    return tuple(sorted((p for p in parts if p), reverse=True))


def dual_partition_bcd(b: BlockVector) -> tuple[int, ...]:
    """Dual of the Richardson Jordan partition for B/C/D.

    Defined on inputs with a Richardson element in the first graded part;
    for the orthogonal odd-block case additionally the ascending-through-
    center arrangement is required (the remaining case is handled by
    :func:`partition_bcd` directly).
    """
    fam = b.kind.family
    if fam == "A":
        raise FormulaDomainError("dual formula is for B/C/D")
    _require_nice(b)
    s, c = b.sorted_d(), b.central
    if fam in "BD" and c is not None and s and s[-1] > c:
        raise FormulaDomainError(
            "orthogonal odd-block dual formula needs blocks ascending through the center"
        )
    return _dual_bcd(fam, s, c)


def _partition_bcd(fam: str, s: tuple[int, ...], c: int | None) -> tuple[int, ...]:
    if fam == "C" and c is None:
        # 2r, 2r-2, ... with multiplicities d_1, d_2-d_1, ...
        r = len(s)
        parts: list[int] = []
        prev = 0
        for k, v in enumerate(s, start=1):
            parts += [2 * (r - k + 1)] * (v - prev)
            prev = v
        return tuple(sorted(parts, reverse=True))
    if fam in "BD" and c is not None and s and s[-1] == c + 1:
        # peak one above the central block: compute the trimmed unimodal
        # vector and restore the two stripped boxes as parts {1, 1}
        inner = _partition_bcd(fam, s[:-1] + (s[-1] - 1,), c)
        return tuple(sorted(inner + (1, 1), reverse=True))
    return transpose(_dual_bcd(fam, s, c))


def partition_bcd(b: BlockVector) -> tuple[int, ...]:
    """Jordan type of a Richardson element for B/C/D (closed form)."""
    fam = b.kind.family
    if fam == "A":
        raise FormulaDomainError("use partition_type_a for type A")
    _require_nice(b)
    lam = _partition_bcd(fam, b.sorted_d(), b.central)
    if sum(lam) != b.N:
        raise InvariantError(f"closed-form partition {lam} of {b} does not sum to N = {b.N}")
    return lam


def birational_by_block_clauses(b: BlockVector) -> bool:
    """The paper's B/C/D criteria for nice with equal stabilizers, family by
    family, against ``classify(b).birational``.

    True iff (d ascending, c the central block): Sp - no centre, or d_r <= c
    and all sizes even; SO odd blocks - d_r <= c; SO even blocks - at most
    one odd size, and then <= d_r - 3.
    """
    fam = b.kind.family
    if fam not in ("B", "C", "D"):
        raise FormulaDomainError(f"B/C/D only, got {b.kind.name}")
    s, c = b.sorted_d(), b.central
    if fam == "C":
        if c is None:
            return True
        return (not s or s[-1] <= c) and all(v % 2 == 0 for v in s)
    if c is not None:  # B always; D odd blocks
        return not s or s[-1] <= c
    odd = [v for v in s if v % 2]
    if not odd:
        return True
    return len(odd) == 1 and odd[0] <= s[-1] - 3


def _is_unimodal(seq: Sequence[int]) -> bool:
    # rises (weakly) to a peak, then falls (weakly)
    falling = False
    for a, b in zip(seq, seq[1:]):
        if b < a:
            falling = True
        elif b > a and falling:
            return False
    return True


def _odd_values_once(s: Sequence[int]) -> bool:
    odd = [v for v in s if v % 2]
    return len(odd) == len(set(odd))


def nice_by_block_clauses(b: BlockVector) -> bool:
    """The family-by-family clauses for ``nice``, against
    ``classify(b).nice``.

    d ascending in B/C/D, c the central block: A - d unimodal in the given
    order; Sp - no centre: always; else d_r <= c and odd sizes distinct;
    SO - odd blocks: d_r <= c, or c = d_r - 1 with d_r a strict maximum;
    even blocks: odd sizes distinct.
    """
    fam = b.kind.family
    if fam == "A":
        return _is_unimodal(b.d)
    s, c = b.sorted_d(), b.central
    if fam == "C":
        if c is None:
            return True
        return (not s or s[-1] <= c) and _odd_values_once(s)
    if c is None:
        return _odd_values_once(s)
    if not s or s[-1] <= c:
        return True
    return c == s[-1] - 1 and (len(s) == 1 or s[-2] < s[-1])


def sl2_by_block_clauses(b: BlockVector) -> bool:
    """The family-by-family clauses for ``sl2_given``, against
    ``classify(b).sl2_given``.

    A: d unimodal and palindromic.  Even-block D: all block sizes even.
    B, C and odd-block D: :func:`birational_by_block_clauses`.
    """
    fam = b.kind.family
    if fam == "A":
        return _is_unimodal(b.d) and b.d == b.d[::-1]
    if fam == "D" and b.central is None:
        return all(v % 2 == 0 for v in b.d)
    return birational_by_block_clauses(b)


# ---------------------------------------------------------------------------
# explicit partition formulas


def so_even_single_odd_partition(s: Sequence[int]) -> tuple[int, ...]:
    """Explicit orthogonal even-block partition when exactly one block size is odd.

    Cross-check for the transpose-of-dual route; ``s`` must be ascending with
    a single odd entry.
    """
    s = tuple(s)
    odd_pos = [k for k, v in enumerate(s, start=1) if v % 2]
    if len(odd_pos) != 1 or any(s[i] > s[i + 1] for i in range(len(s) - 1)):
        raise FormulaDomainError("needs an ascending vector with exactly one odd entry")
    i = odd_pos[0]
    r = len(s)
    parts: list[int] = []
    prev = 0
    for k, v in enumerate(s, start=1):
        mult = v - prev
        if k in (i, i + 1):
            mult -= 1
        parts += [2 * (r - k + 1)] * mult
        if k == i:
            parts += [2 * (r - k + 1) - 1] * 2
        prev = v
    return tuple(sorted((p for p in parts if p), reverse=True))


def rank_and_kernel(b: BlockVector) -> tuple[int, int]:
    """Rank and kernel dimension of a generic nilradical element, odd-block B/C/D.

    rank = 2 * sum(min(d_i, d_{i+1})) + 2 * min(d_r, central) on the ascending
    arrangement; kernel = N - rank equals the number of Jordan blocks.  Valid
    for blocks ascending through the center, and for the orthogonal families
    also when the largest block exceeds the central one by exactly 1; beyond
    that a generic element picks up rank across non-adjacent blocks and the
    matrix oracle refutes the formula.
    """
    if b.kind.family == "A" or b.central is None:
        raise FormulaDomainError("rank formula needs a B/C/D vector with a central block")
    s, c = b.sorted_d(), b.central
    over = s[-1] - c if s else 0
    if over > 1 or (over == 1 and b.kind.family == "C"):
        # beyond ascending-through-center only the orthogonal one-above case
        # keeps the superdiagonal rank generic (oracle-refuted otherwise)
        raise FormulaDomainError(
            f"rank formula does not cover max block {s[-1]} with central {c} in type "
            f"{b.kind.family}"
        )
    rank = 2 * sum(min(s[i], s[i + 1]) for i in range(len(s) - 1))
    if s:
        rank += 2 * min(s[-1], c)
    return rank, b.N - rank


def partitions_of(total: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """All partitions of ``total``, parts weakly decreasing."""
    if total == 0:
        yield ()
        return
    cap = total if max_part is None else min(max_part, total)
    for first in range(cap, 0, -1):
        for rest in partitions_of(total - first, first):
            yield (first,) + rest


def brute_transpose(p: Sequence[int]) -> tuple[int, ...]:
    """The conjugate partition, counting Young-diagram cells column by column."""
    cells = {(i, j) for i, row in enumerate(p) for j in range(row)}
    cols = []
    j = 0
    while any(c[1] == j for c in cells):
        cols.append(sum(1 for c in cells if c[1] == j))
        j += 1
    return tuple(cols)
