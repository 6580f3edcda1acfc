"""Independent ground truth: classical Lie algebras as explicit matrix
algebras, generic nilradical elements, and exact-arithmetic Jordan types
and centralizer dimensions.

Everything here is exact, on Python integers.  The realization of each
classical kind is built once and cached as a sparse basis, the nonzero
entries of each element: a generic nilradical element is written from those
entries into one N x N array, and dense basis matrices are built only for
:func:`levi_dim` and the tests.  Jordan types come from ranks of integer
matrix powers via fraction-free (Bareiss) elimination: the drops
rank X^(k-1) - rank X^k are the transposed Jordan type.  A B/C/D power is
skew or symmetric for the algebra's form and stays plain list rows: only its
entries with i + j <= N - 1 are multiplied out, each a C-level dot product,
and the rest is read off the form.  The genericity certificate
``dim g^X = dim g - 2 dim n`` reads dim g^X off the exact Jordan type of X
(Collingwood-McGovern, *Nilpotent Orbits in Semisimple Lie Algebras*,
Cor. 6.1.4); the right side, which equals dim m, is a lower bound for it
whenever X lies in the nilradical n, with equality exactly when X is a
Richardson element.  The rank of ``ad(X)`` on ``g`` gives the same dimension
independently; it lives with the other cross-checks in ``tests/reference.py``.
No floating point is used anywhere.
"""

from __future__ import annotations

import operator
import random
import warnings
from functools import lru_cache
from typing import Callable, Iterator, Sequence

from .core import (
    BlockVector,
    InvariantError,
    LieKind,
    UnsupportedKindError,
    n_odd,
    transpose,
)

__all__ = [
    "ExactMatrix",
    "realization",
    "levi_dim",
    "generic_nilradical_element",
    "jordan_partition",
    "oracle_richardson_partition",
]

COEFF_RANGE = (1, 10**6)


class NotNilpotentError(ValueError):
    """Matrix fed to a Jordan-type computation is not nilpotent."""


class ExactMatrix:
    """Dense matrix over exact integers, with exact rank.

    Entries must be integers: a float or :class:`~fractions.Fraction` entry
    raises ``TypeError``.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Sequence[Sequence[int]]):
        self.data = tuple(tuple(map(operator.index, row)) for row in data)
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.data else 0
        if any(len(r) != self.cols for r in self.data):
            raise ValueError("ragged rows")

    def __eq__(self, other) -> bool:
        return isinstance(other, ExactMatrix) and self.data == other.data

    def __hash__(self) -> int:
        return hash(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ExactMatrix({self.rows}x{self.cols})"

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        bt = list(zip(*other.data))
        return ExactMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in bt] for row in self.data]
        )

    def rank(self) -> int:
        """Exact rank by fraction-free (Bareiss) elimination over Z."""
        return _int_rank([list(row) for row in self.data])


def _int_rank(m: list[list[int]]) -> int:
    """Rank of an integer matrix, fraction-free elimination, exact division."""
    nr = len(m)
    nc = len(m[0]) if nr else 0
    rank = 0
    prev = 1
    for col in range(nc):
        if rank == nr:
            break
        piv_row = next((i for i in range(rank, nr) if m[i][col]), None)
        if piv_row is None:
            continue
        if piv_row != rank:
            m[rank], m[piv_row] = m[piv_row], m[rank]
        piv = m[rank][col]
        top = m[rank]
        for i in range(rank + 1, nr):
            row = m[i]
            f = row[col]
            for j in range(col + 1, nc):
                row[j] = (piv * row[j] - f * top[j]) // prev
            row[col] = 0
        prev = piv
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# the sparse realization (skew-diagonal forms, upper-triangular Borel)


@lru_cache(maxsize=None)
def _form(kind: LieKind) -> tuple[int, ...] | None:
    """Signs s_i of the skew-diagonal form F[i][N-1-i] = s_i of a B/C/D kind,
    or None in type A: 1 in B/D; in C +1 for i < N/2 and -1 after.

    X lies in the algebra of F exactly when X[N-1-j][N-1-i] = -s_i s_j X[i][j]
    for all i, j.
    """
    if kind.family == "A":
        return None
    N = kind.matrix_size
    return tuple(1 if kind.family != "C" or i < N // 2 else -1 for i in range(N))


def _grid_entries(kind: LieKind) -> Iterator[tuple[tuple[int, int, int], ...]]:
    """Nonzero ``(i, j, v)`` entries of each basis element, walking the
    N x N grid of leading positions (i, j) row-major; the leading entry
    comes first.

    Cartan elements lead at (i, i): E_ii - E_{i+1,i+1} in type A and
    E_ii - E_{N-1-i,N-1-i} in B/C/D.  A B/C/D root vector leads at the
    first of (i, j) and its mirror (N-1-j, N-1-i).
    """
    N = kind.matrix_size
    s = _form(kind)
    for i in range(N):
        for j in range(N):
            if s is not None:
                pi, pj = N - 1 - j, N - 1 - i
                if (pi, pj) < (i, j):  # the mirror came first and yielded both
                    continue
                v = -(s[i] * s[j])
                if (i, j) != (pi, pj):
                    yield ((i, j, 1), (pi, pj, v))
                elif v == 1:  # skew diagonal: zero in so (v = -1), E_ij in sp
                    yield ((i, j, 1),)
            elif i != j:
                yield ((i, j, 1),)
            elif i < N - 1:
                yield ((i, i, 1), (i + 1, i + 1, -1))


@lru_cache(maxsize=None)
def realization(kind: LieKind) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """The classical Lie algebra g inside gl_N as a sparse basis, built once
    per kind: each element's nonzero ``(i, j, v)`` entries, leading position
    first, in row-major order of leading position.

    Type A: trace-zero matrices.  B/D: the orthogonal algebra of the
    symmetric form with 1s on the skew diagonal.  C: the symplectic algebra
    of the skew-diagonal form whose first n entries are 1 and last n are -1.
    An exceptional kind has no matrix size and raises
    :class:`~richardson.core.UnsupportedKindError`.
    """
    basis = tuple(_grid_entries(kind))
    if len(basis) != kind.dim:
        raise InvariantError(
            f"{kind.name}: built {len(basis)} basis elements, expected dim {kind.dim}"
        )
    return basis


def _root_entries(
    kind: LieKind, keep: Callable[[int, int], bool]
) -> Iterator[tuple[tuple[int, int, int], ...]]:
    """The elements of :func:`realization` whose leading position (i, j)
    passes ``keep``, in its order."""
    return (entries for entries in realization(kind) if keep(entries[0][0], entries[0][1]))


def _root_vectors(kind: LieKind, keep: Callable[[int, int], bool]) -> list[ExactMatrix]:
    """The elements of :func:`_root_entries` as dense matrices, in its order."""
    N = kind.matrix_size
    out: list[ExactMatrix] = []
    for entries in _root_entries(kind, keep):
        rows = [[0] * N for _ in range(N)]
        for i, j, v in entries:
            rows[i][j] = v
        out.append(ExactMatrix(rows))
    return out


# ---------------------------------------------------------------------------
# nilradicals and Levi factors


def _nilradical_keep(b: BlockVector) -> Callable[[int, int], bool]:
    blk = b.block_index()
    return lambda i, j: blk[i] < blk[j]


def levi_dim(b: BlockVector) -> int:
    """dim m: block-diagonal part of g, counted from the realization."""
    blk = b.block_index()
    return len(_root_vectors(b.kind, lambda i, j: blk[i] == blk[j]))


def generic_nilradical_element(b: BlockVector, seed: int) -> ExactMatrix:
    """Random integer combination of the nilradical basis, deterministic in seed.

    The coefficients are drawn in basis order, and each ``c * v`` is written
    straight into one N x N array from the sparse entries.
    """
    rng = random.Random(seed)
    N = b.kind.matrix_size
    total = [[0] * N for _ in range(N)]
    for entries in _root_entries(b.kind, _nilradical_keep(b)):
        c = rng.randint(*COEFF_RANGE)
        for i, j, v in entries:
            total[i][j] += c * v
    return ExactMatrix(total)


# ---------------------------------------------------------------------------
# Jordan types and centralizers


def _half_product(
    power: Sequence[Sequence[int]], cols: Sequence[Sequence[int]], form: Sequence[int], sign: int
) -> list[list[int]]:
    """Rows of X^k from the rows of ``power`` = X^(k-1) and the columns of X
    skew for ``form``: each entry with i + j <= N - 1 is one C-level dot
    product, and its mirror (N-1-j, N-1-i) is ``sign * s_i * s_j`` times it,
    with ``sign`` = (-1)^k."""
    N = len(power)
    out = [[0] * N for _ in range(N)]
    for i, row in enumerate(power):
        si = sign * form[i]
        for j in range(N - i):
            v = sum(map(operator.mul, row, cols[j]))
            out[N - 1 - j][N - 1 - i] = si * form[j] * v
            out[i][j] = v  # on the skew diagonal the entry is its own mirror
    return out


def jordan_partition(x: ExactMatrix, form: Sequence[int] | None = None) -> tuple[int, ...]:
    """Jordan type of a nilpotent matrix from the exact ranks of its powers.

    X has rank X^(k-1) - rank X^k Jordan blocks of size >= k, so the rank
    drops are the transposed Jordan type.

    ``form`` is the signs s_i of a skew-diagonal form that X is skew for
    (X[N-1-j][N-1-i] = -s_i s_j X[i][j], as :func:`_form` gives for a B/C/D
    kind), or None.  The mirror Y -> Y[N-1-j][N-1-i] reverses products, so
    X^k[N-1-j][N-1-i] = (-1)^k s_i s_j X^k[i][j]: with a form, each power is
    multiplied out only on the entries with i + j <= N - 1 and the rest are
    read off the form.  X itself is checked first; one that is not skew for
    the form raises :class:`InvariantError`.
    """
    if x.rows != x.cols:
        raise ValueError("square matrix required")
    N, d = x.rows, x.data
    if form is not None and (
        len(form) != N
        or any(
            d[N - 1 - j][N - 1 - i] != -form[i] * form[j] * v
            for i, row in enumerate(d)
            for j, v in enumerate(row)
        )
    ):
        raise InvariantError(f"the {N} x {N} matrix is not skew for the form {tuple(form)}")
    ranks = [N]
    power, cols = (x, None) if form is None else (d, list(zip(*d)))
    for k in range(N):
        if k:
            power = power @ x if form is None else _half_product(power, cols, form, (-1) ** (k + 1))
        ranks.append(power.rank() if form is None else _int_rank(list(map(list, power))))
        if ranks[-1] == 0:
            break
    if ranks[-1]:
        raise NotNilpotentError(f"rank of the powers stalled at {ranks[-1]} > 0")
    return transpose([a - b for a, b in zip(ranks, ranks[1:])])


def certified_centralizer_dim(
    kind: LieKind, lam: Sequence[int], lower_bound: int
) -> tuple[int, bool]:
    """dim g^X for a nilpotent X in g of Jordan type ``lam``, and whether it
    meets ``lower_bound``.

    The closed forms (Collingwood-McGovern, Cor. 6.1.4), with lam^T the
    transposed partition: sl, sum (lam^T_i)^2 - 1; sp, half of
    sum (lam^T_i)^2 + #odd parts; so, half of sum (lam^T_i)^2 - #odd parts.
    ``lower_bound`` must be a proven lower bound for dim g^X (dim m works for
    any X in the nilradical); the sample is certified generic iff the value
    meets it.  A value below the bound raises :class:`InvariantError`.
    """
    squares = sum(c * c for c in transpose(lam))
    if kind.family == "A":
        dim = squares - 1
    elif kind.family == "C":
        dim = (squares + n_odd(lam)) // 2
    elif kind.family in ("B", "D"):
        dim = (squares - n_odd(lam)) // 2
    else:
        raise UnsupportedKindError(f"no Jordan-type centralizer formula for {kind.name}")
    if dim < lower_bound:
        raise InvariantError(
            f"centralizer dimension {dim} of Jordan type {tuple(lam)} in {kind.name} "
            f"is below the proven lower bound {lower_bound}"
        )
    return dim, dim == lower_bound


def oracle_partition_detail(
    b: BlockVector, trials: int = 3, base_seed: int = 1
) -> tuple[int, ...] | None:
    """Certified Jordan type of a generic nilradical element, or None.

    Samples seeds base_seed .. base_seed+trials-1 and stops at the first
    sample certified generic by dim g^X = dim g - 2 dim n (= dim m): its
    Jordan type is the Richardson partition.  If no sample certifies, the
    partition is unknown and None is returned.

    The bound holds for every X in n: [p, X] lies in n and [n^-, X] has at
    most dim n^- = dim n dimensions, so dim [g, X] <= 2 dim n.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    target = b.kind.dim - 2 * sum(1 for _ in _root_entries(b.kind, _nilradical_keep(b)))
    form = _form(b.kind)
    for t in range(trials):
        lam = jordan_partition(generic_nilradical_element(b, base_seed + t), form)
        if certified_centralizer_dim(b.kind, lam, target)[1]:
            return lam
    return None


def oracle_richardson_partition(
    b: BlockVector, trials: int = 3, base_seed: int = 1
) -> tuple[int, ...] | None:
    """Certified Richardson partition by randomized sampling, or None with a
    warning when no sample certifies as generic."""
    lam = oracle_partition_detail(b, trials, base_seed)
    if lam is None:
        warnings.warn(
            f"no sample certified generic for {b.kind.name} d={b.d} central={b.central}; "
            "the oracle's partition is unknown",
            RuntimeWarning,
            stacklevel=2,
        )
    return lam
