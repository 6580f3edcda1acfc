"""Descriptors for parabolic subalgebras of the simple complex Lie algebras.

A standard parabolic subalgebra is encoded either by a 0/1 coloring of the
simple roots (entry 1 = crossed node, i.e. the root is *not* a root of the
Levi factor) or, for the classical families, by the diagonal block sizes of
its standard Levi factor in the defining matrix realization.  This module
holds both descriptors, the conversion between them, and the partition
combinatorics every classifier builds on.

Conventions:

* Bourbaki numbering of simple roots throughout.
* Classical algebras sit inside ``gl_N`` with ``N = n+1, 2n+1, 2n, 2n`` for
  ``A_n, B_n, C_n, D_n``; the Borel is the upper-triangular part, so block
  sizes of the Levi are read off the diagonal.
* For ``B/C/D`` the block sequence is palindromic; a :class:`BlockVector`
  stores only the first half plus the optional central block.
* Grading data is carried as the integral diagonal of ``2H`` (``H`` itself
  may be half-integral in type D).
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Iterator, Sequence

__all__ = [
    "DescriptorError",
    "InvariantError",
    "UnsupportedKindError",
    "LieKind",
    "Coloring",
    "BlockVector",
    "check_partition",
    "transpose",
    "n_odd",
    "parity_descents",
    "is_unimodal",
    "is_palindromic",
    "blocks_from_coloring",
    "coloring_from_blocks",
    "all_colorings",
    "all_block_vectors",
    "compositions",
    "partitions_of",
]


class DescriptorError(ValueError):
    """A coloring or block vector violates one of its invariants."""


class UnsupportedKindError(DescriptorError):
    """Operation asked for on a Lie type it is not defined for."""


class InvariantError(RuntimeError):
    """A result broke an invariant that holds for every valid input: a bug,
    not a bad input.  Raised instead of ``assert`` so ``python -O`` keeps it."""


# smallest rank of each classical family
MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}
_EXC_DIM = {("G", 2): 14, ("F", 4): 52, ("E", 6): 78, ("E", 7): 133, ("E", 8): 248}
_KIND_RE = re.compile(r"^([A-G])(\d+)$")


@dataclass(frozen=True, order=True)
class LieKind:
    """A simple Lie algebra type: one of A_n, B_n, C_n, D_n, G2, F4, E6-E8."""

    family: str
    rank: int

    def __post_init__(self) -> None:
        fam, n = self.family, self.rank
        if fam in MIN_RANK:
            ok = n >= MIN_RANK[fam]
        elif any(fam == f for f, _ in _EXC_DIM):
            ok = (fam, n) in _EXC_DIM
        else:
            raise DescriptorError(f"unknown family {fam!r}")
        if not ok:
            raise DescriptorError(f"rank {n} is invalid for family {fam}")

    @classmethod
    def parse(cls, text: str) -> "LieKind":
        m = _KIND_RE.match(text.strip().upper())
        if not m:
            raise DescriptorError(f"cannot parse Lie type {text!r} (expected e.g. 'C3', 'E7')")
        return cls(m.group(1), int(m.group(2)))

    @property
    def name(self) -> str:
        return f"{self.family}{self.rank}"

    @property
    def is_classical(self) -> bool:
        return self.family in "ABCD"

    @property
    def is_exceptional(self) -> bool:
        return not self.is_classical

    @property
    def matrix_size(self) -> int:
        """Size N of the defining matrix realization (classical only)."""
        n = self.rank
        sizes = {"A": n + 1, "B": 2 * n + 1, "C": 2 * n, "D": 2 * n}
        if self.family not in sizes:
            raise UnsupportedKindError(f"{self.name} has no classical matrix realization")
        return sizes[self.family]

    @property
    def dim(self) -> int:
        """Dimension of the Lie algebra."""
        n = self.rank
        if self.family == "A":
            return n * (n + 2)
        if self.family in "BC":
            return n * (2 * n + 1)
        if self.family == "D":
            return n * (2 * n - 1)
        return _EXC_DIM[(self.family, n)]

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.name


@dataclass(frozen=True)
class Coloring:
    """0/1 marking of the simple roots; 1 means the node is crossed.

    Crossed nodes are exactly the simple roots whose root spaces do not lie
    in the Levi factor; equivalently, the grading element H of the induced
    Z-grading has alpha_i(H) = u_i.
    """

    kind: LieKind
    u: tuple[int, ...]

    def __post_init__(self) -> None:
        u = tuple(int(x) for x in self.u)
        object.__setattr__(self, "u", u)
        if len(u) != self.kind.rank:
            raise DescriptorError(
                f"coloring length {len(u)} does not match rank {self.kind.rank} of {self.kind.name}"
            )
        if any(x not in (0, 1) for x in u):
            raise DescriptorError(f"coloring entries must be 0 or 1, got {u}")

    def canonical(self) -> "Coloring":
        """Resolve the type-D outer-automorphism ambiguity.

        When exactly one of the last two nodes is crossed the two choices give
        conjugate parabolics; the representative with u_{n-1}=0, u_n=1 is used.
        """
        if self.kind.family == "D" and self.u[-2] == 1 and self.u[-1] == 0:
            u = self.u[:-2] + (0, 1)
            return Coloring(self.kind, u)
        return self


@dataclass(frozen=True)
class BlockVector:
    """Levi block sizes of a classical parabolic.

    Type A stores the full block list ``d``.  Types B/C/D store the first
    half ``d = (d_1, ..., d_r)`` of the palindromic block sequence plus the
    optional ``central`` block (present iff the number of blocks is odd).
    """

    kind: LieKind
    d: tuple[int, ...]
    central: int | None = None

    def __post_init__(self) -> None:
        d = tuple(int(x) for x in self.d)
        object.__setattr__(self, "d", d)
        kind, c = self.kind, self.central
        if not kind.is_classical:
            raise UnsupportedKindError(f"block vectors are classical-only, got {kind.name}")
        if any(x < 1 for x in d):
            raise DescriptorError(f"block sizes must be positive, got {d}")
        N = kind.matrix_size
        fam = kind.family
        if fam == "A":
            if c is not None:
                raise DescriptorError("type A takes the full block list; no central block")
            if not d:
                raise DescriptorError("type A needs at least one block")
            if sum(d) != N:
                raise DescriptorError(f"type A blocks must sum to {N}, got {sum(d)}")
            return
        total = 2 * sum(d) + (c or 0)
        if total != N:
            raise DescriptorError(
                f"palindromic blocks must sum to {N}, got {total} from d={d}, central={c}"
            )
        if fam == "B":
            if c is None or c % 2 == 0:
                raise DescriptorError("type B always has an odd central block")
        elif c is not None and (c < 2 or c % 2):
            raise DescriptorError(f"type {fam} central block must be even and positive, got {c}")
        if fam == "D" and c is None and (not d or d[-1] < 2):
            # (…,1,1,…) around the middle names the same subalgebra as a
            # central so_2 block and never arises from a coloring.
            raise DescriptorError("type D without central block needs innermost block size >= 2")

    @property
    def N(self) -> int:
        return self.kind.matrix_size

    def full_blocks(self) -> tuple[int, ...]:
        """The complete diagonal block sequence (palindromic for B/C/D)."""
        if self.kind.family == "A":
            return self.d
        mid = (self.central,) if self.central is not None else ()
        return self.d + mid + tuple(reversed(self.d))

    def sorted_d(self) -> tuple[int, ...]:
        """Ascending rearrangement of d (canonical conjugate-Levi form)."""
        return tuple(sorted(self.d))


# ---------------------------------------------------------------------------
# partitions


def check_partition(p: Sequence[int]) -> tuple[int, ...]:
    p = tuple(int(x) for x in p)
    if any(x < 1 for x in p):
        raise DescriptorError(f"partition parts must be positive, got {p}")
    if any(p[i] < p[i + 1] for i in range(len(p) - 1)):
        raise DescriptorError(f"partition must be weakly decreasing, got {p}")
    return p


def transpose(p: Sequence[int]) -> tuple[int, ...]:
    """Conjugate partition (columns of the Young diagram)."""
    p = check_partition(p)
    if not p:
        return ()
    return tuple(sum(1 for x in p if x >= j) for j in range(1, p[0] + 1))


def n_odd(p: Sequence[int]) -> int:
    """Number of odd parts."""
    return sum(x % 2 for x in check_partition(p))


def parity_descents(p: Sequence[int], epsilon: int) -> set[int]:
    """Indices j with p_j > p_{j+1} and p_j of parity opposite to epsilon.

    Only descents between two actual parts count; the trailing drop of the
    last part to zero does not (the stabilizer criteria that consume this
    set distinguish exactly those internal descents).  Indices are 1-based.
    epsilon = 1 for the symplectic family, 0 for the orthogonal ones.
    """
    if epsilon not in (0, 1):
        raise DescriptorError(f"epsilon must be 0 or 1, got {epsilon}")
    p = check_partition(p)
    return {j for j in range(1, len(p)) if p[j - 1] > p[j] and p[j - 1] % 2 != epsilon}


def is_unimodal(seq: Sequence[int]) -> bool:
    """True if seq rises (weakly) to a peak and then falls (weakly)."""
    falling = False
    for a, b in zip(seq, seq[1:]):
        if b < a:
            falling = True
        elif b > a and falling:
            return False
    return True


def is_palindromic(seq: Sequence[int]) -> bool:
    return tuple(seq) == tuple(reversed(seq))


# ---------------------------------------------------------------------------
# coloring <-> blocks


def _grading_diagonal(c: Coloring) -> list[int]:
    """Diagonal of 2H in the matrix realization, from alpha_i(H) = u_i."""
    kind = c.kind
    u = c.u
    n = kind.rank
    fam = kind.family
    if fam == "A":
        # a_N = 0, a_i = a_{i+1} + u_i; only differences matter for runs
        a = [0] * (n + 1)
        for i in range(n - 1, -1, -1):
            a[i] = a[i + 1] + u[i]
        return [2 * x for x in a]
    # t_i = 2 a_i for the half diag (a_1 >= ... >= a_n >= 0 after canonicalization)
    t = [0] * n
    if fam == "B":
        t[n - 1] = 2 * u[n - 1]
        for i in range(n - 2, -1, -1):
            t[i] = t[i + 1] + 2 * u[i]
    elif fam == "C":
        t[n - 1] = u[n - 1]
        for i in range(n - 2, -1, -1):
            t[i] = t[i + 1] + 2 * u[i]
    else:  # D
        t[n - 1] = u[n - 1] - u[n - 2]
        t[n - 2] = u[n - 2] + u[n - 1]
        for i in range(n - 3, -1, -1):
            t[i] = t[i + 1] + 2 * u[i]
    if t[-1] < 0:
        raise DescriptorError("non-canonical type D coloring; call canonical() first")
    mid = [0] if fam == "B" else []
    return t + mid + [-x for x in reversed(t)]


def _runs(diag: Sequence[int]) -> tuple[int, ...]:
    """Lengths of maximal constant runs."""
    out: list[int] = []
    for _, grp in itertools.groupby(diag):
        out.append(sum(1 for _ in grp))
    return tuple(out)


def blocks_from_coloring(c: Coloring) -> BlockVector:
    """Diagonal block sizes of the standard Levi defined by a coloring.

    The blocks are the maximal constant runs of diag(2H) where H solves
    alpha_i(H) = u_i.  Type D colorings are canonicalized first.
    """
    if not c.kind.is_classical:
        raise UnsupportedKindError(f"{c.kind.name} has no matrix block description")
    c = c.canonical()
    blocks = _runs(_grading_diagonal(c))
    if c.kind.family == "A":
        return BlockVector(c.kind, blocks)
    m = len(blocks)
    if m % 2:
        return BlockVector(c.kind, blocks[: m // 2], blocks[m // 2])
    return BlockVector(c.kind, blocks[: m // 2], None)


def coloring_from_blocks(b: BlockVector) -> Coloring:
    """Canonical coloring whose standard Levi has the given blocks.

    Inverse of :func:`blocks_from_coloring` on canonical colorings.
    """
    kind = b.kind
    n = kind.rank
    fam = kind.family
    blocks = b.full_blocks()
    bounds = set(itertools.accumulate(blocks[:-1]))  # positions 1..N-1
    if fam == "A":
        return Coloring(kind, tuple(1 if i in bounds else 0 for i in range(1, n + 1)))
    u = [1 if i in bounds else 0 for i in range(1, n - 1)]
    if fam in "BC":
        u.append(1 if (n - 1) in bounds else 0)
        u.append(1 if n in bounds else 0)
    else:  # D
        if b.central is None:
            # innermost pair straddles the middle; canonical form is (0, 1)
            u.append(0)
            u.append(1)
        else:
            x = 1 if (n - 1) in bounds else 0
            u.append(x)
            u.append(x)
    return Coloring(kind, tuple(u))


# ---------------------------------------------------------------------------
# enumeration


def compositions(total: int) -> Iterator[tuple[int, ...]]:
    """All compositions of ``total`` into positive parts (deterministic order)."""
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in compositions(total - first):
            yield (first,) + rest


def partitions_of(total: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """All partitions of ``total``, parts weakly decreasing."""
    if total == 0:
        yield ()
        return
    cap = total if max_part is None else min(max_part, total)
    for first in range(cap, 0, -1):
        for rest in partitions_of(total - first, first):
            yield (first,) + rest


def all_colorings(kind: LieKind) -> Iterator[Coloring]:
    """All 2^rank colorings, lexicographic order."""
    for u in itertools.product((0, 1), repeat=kind.rank):
        yield Coloring(kind, u)


def all_block_vectors(kind: LieKind) -> Iterator[BlockVector]:
    """All valid block vectors for a classical kind, deterministic order."""
    N = kind.matrix_size
    fam = kind.family
    if fam == "A":
        for comp in compositions(N):
            yield BlockVector(kind, comp)
        return
    for half in range(N // 2 + 1):
        central = N - 2 * half
        for comp in compositions(half):
            if central == 0:
                if fam == "C" and comp:
                    yield BlockVector(kind, comp, None)
                elif fam == "D" and comp and comp[-1] >= 2:
                    yield BlockVector(kind, comp, None)
            elif fam == "B" or central % 2 == 0:
                yield BlockVector(kind, comp, central)
