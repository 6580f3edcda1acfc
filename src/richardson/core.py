"""Descriptors for parabolic subalgebras of the simple complex Lie algebras.

A standard parabolic subalgebra is encoded either by a 0/1 coloring of the
simple roots (entry 1 = crossed node, i.e. the root is *not* a root of the
Levi factor) or, for the classical families, by the diagonal block sizes of
its standard Levi factor in the defining matrix realization.  This module
holds both descriptors, the conversion between them, the partition
combinatorics every classifier builds on, and the report every classifier
returns.

Conventions:

* Bourbaki numbering of simple roots throughout.
* Classical algebras sit inside ``gl_N`` with ``N = n+1, 2n+1, 2n, 2n`` for
  ``A_n, B_n, C_n, D_n``; the Borel is the upper-triangular part, so block
  sizes of the Levi are read off the diagonal.
* For ``B/C/D`` the block sequence is palindromic; a :class:`BlockVector`
  stores only the first half plus the optional central block.
* One cut rule links the two descriptors.  Crossing node i (i < n in
  B/C/D, every node in type A) cuts the diagonal after position i, mirrored
  in B/C/D.  In B/C/D the last node decides the middle: crossing it cuts
  there, leaving B a central block of 1 and C/D none; otherwise the
  innermost half block joins its mirror in a central block of
  ``2(n - last cut)``, plus 1 in B.  In type D the canonical pairs
  ``(u_{n-1}, u_n)`` read (0, 1) as the middle cut, (1, 1) as a central
  block of 2 and (0, 0) as a merge.
"""

from __future__ import annotations

import itertools
import operator
import re
from dataclasses import dataclass, field
from typing import Iterator, Sequence

__all__ = [
    "DescriptorError",
    "InvariantError",
    "UnsupportedKindError",
    "LieKind",
    "Coloring",
    "BlockVector",
    "NORMAL",
    "NOT_NORMAL",
    "OUT_OF_SCOPE",
    "ClassificationReport",
    "transpose",
    "n_odd",
    "blocks_from_coloring",
    "coloring_from_blocks",
    "all_colorings",
    "all_block_vectors",
]


class DescriptorError(ValueError):
    """A coloring or block vector violates one of its invariants."""


class UnsupportedKindError(DescriptorError):
    """Operation asked for on a Lie type it is not defined for."""


class InvariantError(RuntimeError):
    """A result broke an invariant that holds for every valid input: a bug,
    not a bad input.  Raised instead of ``assert`` so ``python -O`` keeps it."""


# smallest rank of each classical family; its keys are the classical families
MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}
_EXC_DIM = {("G", 2): 14, ("F", 4): 52, ("E", 6): 78, ("E", 7): 133, ("E", 8): 248}
EXCEPTIONAL_NAMES = tuple(f"{fam}{rank}" for fam, rank in _EXC_DIM)
_KIND_RE = re.compile(r"^([A-G])(\d+)$")


@dataclass(frozen=True)
class LieKind:
    """A simple Lie algebra type: one of A_n, B_n, C_n, D_n, G2, F4, E6-E8."""

    family: str
    rank: int

    def __post_init__(self) -> None:
        fam, n = self.family, operator.index(self.rank)
        object.__setattr__(self, "rank", n)
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
        family, digits = m.groups()
        try:
            rank = int(digits)
        except ValueError:  # more digits than the interpreter converts to an int
            raise DescriptorError(
                f"cannot parse Lie type {family}...: its rank has {len(digits)} digits"
            ) from None
        return cls(family, rank)

    @property
    def name(self) -> str:
        return f"{self.family}{self.rank}"

    @property
    def is_classical(self) -> bool:
        return self.family in MIN_RANK

    @property
    def is_exceptional(self) -> bool:
        return not self.is_classical

    @property
    def matrix_size(self) -> int:
        """Size N of the defining matrix realization (classical only)."""
        fam = self.family
        if fam not in MIN_RANK:
            raise UnsupportedKindError(f"{self.name} has no classical matrix realization")
        return self.rank + 1 if fam == "A" else 2 * self.rank + (fam == "B")

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
        u = tuple(operator.index(x) for x in self.u)
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
        d = tuple(operator.index(x) for x in self.d)
        object.__setattr__(self, "d", d)
        if self.central is not None:
            object.__setattr__(self, "central", operator.index(self.central))
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
            if c is None or c < 1 or c % 2 == 0:
                raise DescriptorError(f"type B always has an odd positive central block, got {c}")
        elif c is not None and (c < 2 or c % 2):
            raise DescriptorError(f"type {fam} central block must be even and positive, got {c}")
        if fam == "D" and c is None and d[-1] < 2:
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

    def block_index(self) -> tuple[int, ...]:
        """The block of each matrix row and column: entry i is the position
        in :meth:`full_blocks` of the block holding row i."""
        return tuple(k for k, size in enumerate(self.full_blocks()) for _ in range(size))

    def sorted_d(self) -> tuple[int, ...]:
        """Ascending rearrangement of d (canonical conjugate-Levi form)."""
        return tuple(sorted(self.d))


NORMAL = "normal"
NOT_NORMAL = "not_normal"
OUT_OF_SCOPE = "out_of_scope"


@dataclass(frozen=True)
class ClassificationReport:
    """All classification flags for one parabolic, named by its coloring.

    ``blocks`` is None for the exceptional kinds, which have no matrix
    blocks; ``label`` is the Bala-Carter label of a Richardson orbit that
    the exceptional tables record as not induced by an sl2-triple (the 20
    nice E6 colorings the diagram flip moves are not sl2-given but unlabelled).
    """

    coloring: Coloring
    orbit_dim: int
    nice: bool
    birational: bool
    sl2_given: bool
    blocks: BlockVector | None = None
    normal: str = OUT_OF_SCOPE
    partition: tuple[int, ...] | None = None
    covering_degree: int | None = None
    label: str | None = None
    diagnostics: tuple[str, ...] = field(default_factory=tuple)

    @property
    def kind(self) -> LieKind:
        return self.coloring.kind


# ---------------------------------------------------------------------------
# partitions


def check_partition(p: Sequence[int]) -> tuple[int, ...]:
    p = tuple(map(operator.index, p))
    if any(x < 1 for x in p):
        raise DescriptorError(f"partition parts must be positive, got {p}")
    if any(map(operator.lt, p, p[1:])):
        raise DescriptorError(f"partition must be weakly decreasing, got {p}")
    return p


def transpose(p: Sequence[int]) -> tuple[int, ...]:
    """Conjugate partition (columns of the Young diagram)."""
    p = check_partition(p)
    if not p:
        return ()
    # part j of the conjugate counts the parts >= j
    return tuple(itertools.accumulate(p.count(j) for j in range(p[0], 0, -1)))[::-1]


def n_odd(p: Sequence[int]) -> int:
    """Number of odd parts."""
    return sum(x % 2 for x in check_partition(p))


# ---------------------------------------------------------------------------
# coloring <-> blocks


def blocks_from_coloring(c: Coloring) -> BlockVector:
    """Diagonal block sizes of the standard Levi defined by a coloring.

    Crossing node i cuts the diagonal after position i (mirrored in B/C/D);
    in B/C/D the last node decides the middle, see the module docstring.
    Type D colorings are canonicalized first; :class:`BlockVector` refuses
    an exceptional kind.
    """
    kind = c.kind
    u = c.canonical().u
    n, fam = kind.rank, kind.family
    central = None
    if fam == "A":
        cuts = [0, *(i for i in range(1, n + 1) if u[i - 1]), n + 1]
    else:
        cuts = [0, *(i for i in range(1, n) if u[i - 1])]
        if u[-1] and not (fam == "D" and u[-2]):
            cuts.append(n)  # the middle cut: D's canonical pair (0, 1)
            central = 1 if fam == "B" else None
        else:
            central = 2 * (n - cuts[-1]) + (1 if fam == "B" else 0)
    return BlockVector(kind, tuple(b - a for a, b in zip(cuts, cuts[1:])), central)


def coloring_from_blocks(b: BlockVector) -> Coloring:
    """Canonical coloring whose standard Levi has the given blocks.

    Inverse of :func:`blocks_from_coloring` on canonical colorings.
    """
    kind = b.kind
    n = kind.rank
    cuts = set(itertools.accumulate(b.d))
    u = [int(i in cuts) for i in range(1, n + 1)]
    if kind.family == "D" and n - 1 in cuts:
        u[-1] = 1  # a central block of 2 is the pair (1, 1)
    return Coloring(kind, tuple(u))


# ---------------------------------------------------------------------------
# enumeration


def all_colorings(kind: LieKind) -> Iterator[Coloring]:
    """All 2^rank colorings, lexicographic order."""
    for u in itertools.product((0, 1), repeat=kind.rank):
        yield Coloring(kind, u)


def all_block_vectors(kind: LieKind) -> list[BlockVector]:
    """The blocks of every canonical coloring of a classical kind.

    Returns a list sorted by ``(sum(d), d)``: in B/C/D the half size first,
    then d lexicographically; in type A, d lexicographically.
    """
    vectors = (blocks_from_coloring(c) for c in all_colorings(kind) if c.canonical() == c)
    return sorted(vectors, key=lambda b: (sum(b.d), b.d))
