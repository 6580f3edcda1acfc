"""Classification of parabolics: Richardson-in-g1, stabilizer equality, sl2
origin, normality of the orbit closure, covering degree.

:func:`classify` takes a parabolic of any kind.  Exceptional colorings go to
the tables of ``exceptional``.  A classical vector is decided in one pass,
each fact derived once: the Richardson partition, ``nice`` from it, then
``birational`` (nice, and :func:`is_birational_by_partition` on that
partition), sl2 origin, normality and covering degree.

One rule decides ``nice`` on every classical family: the generic Jordan
type on g_1 (:func:`~richardson.partitions.g1_partition`) equals the
Richardson partition, well defined as G_0 has finitely many orbits on g_1
(Vinberg, *Izv. Akad. Nauk SSSR* 40, 1976).  ``sl2`` adds a comparison of
eigenvalues.  B/C/D read the ascending block order, which the given order
may fail (C3 coloring 0,1,1); reading the given order is ROADMAP item 1.
"""

from __future__ import annotations

from . import oracle  # read at call time, so a replaced oracle function is the one called
from .core import (
    NORMAL,
    NOT_NORMAL,
    OUT_OF_SCOPE,
    BlockVector,
    ClassificationReport,
    Coloring,
    DescriptorError,
    blocks_from_coloring,
    coloring_from_blocks,
    n_odd,
)
from .exceptional import exceptional_lookup
from .partitions import g1_partition, richardson_partition

__all__ = ["nice_from_partition", "is_nice", "is_birational_by_partition", "classify"]


def _g1_blocks(b: BlockVector) -> tuple[int, ...]:
    if b.kind.family == "A":
        return b.d
    s = b.sorted_d()
    return s + ((b.central,) if b.central else ()) + s[::-1]


def nice_from_partition(b: BlockVector, lam: tuple[int, ...]) -> bool:
    """Does the parabolic carry a Richardson element in the first graded part,
    given its Richardson partition ``lam``?

    Exactly when a generic element of g_1 has ``lam`` as its Jordan type
    (Vinberg: G_0 has finitely many orbits on g_1).  Type A reads the given
    block order, B/C/D the ascending one, which the given order may fail
    (C3 coloring 0,1,1: type (4,1,1) on g_1; ROADMAP item 1)."""
    return g1_partition(b.kind, _g1_blocks(b)) == lam


def is_nice(b: BlockVector) -> bool:
    """:func:`nice_from_partition` on the Richardson partition of ``b``.

    This is the class-level answer: B/C/D read the ascending order of the
    blocks, so it says whether some order of them is nice, not whether the
    given one is (ROADMAP item 1).  Type A reads the given order.  The
    benchmark's classify-oracle workload takes the B/C/D vectors for which
    this is false, so its inputs depend on this meaning.
    """
    return nice_from_partition(b, richardson_partition(b))


def is_birational_by_partition(b: BlockVector, lam) -> bool:
    """Stabilizer-equality test on the Jordan type of a Richardson element.

    Odd blocks: the number of odd parts equals the central block size.
    Even blocks: no odd parts (Sp), or for SO either no odd parts and no
    odd part above a smaller part, or exactly two odd parts with one such.
    """
    lam = tuple(lam)
    if sum(lam) != b.N:
        raise DescriptorError(f"partition sums to {sum(lam)}, expected {b.N}")
    if b.kind.family == "A":
        return True
    c = b.central
    if c is not None:
        return n_odd(lam) == c
    if b.kind.family == "C":
        return n_odd(lam) == 0
    if any(p > q and p % 2 for p, q in zip(lam, lam[1:])):
        return n_odd(lam) == 2
    return n_odd(lam) == 0


def _sl2_given(b: BlockVector, lam: tuple[int, ...], nice: bool) -> bool:
    """Is 2H, for the grading element H, the h of a Jacobson-Morozov triple
    through g_1?  Exactly when nice and h, with p-1, p-3, ..., 1-p on each
    part p of ``lam``, has the eigenvalues of 2H: m-1-2j on block j of the
    m blocks in the order :func:`nice_from_partition` reads."""
    blocks = _g1_blocks(b)
    two_h = sorted(len(blocks) - 1 - 2 * j for j, size in enumerate(blocks) for _ in range(size))
    return nice and sorted(p - 1 - 2 * i for p in lam for i in range(p)) == two_h


def _all_equal(seq) -> bool:
    return len(set(seq)) <= 1


def _normal_closure(b: BlockVector, birational: bool) -> str:
    """Normality of the Richardson orbit closure.

    Type A orbit closures are always normal.  For Sp/SO the answer is only
    defined on the birational family; everything else is out of scope.
    """
    fam = b.kind.family
    if fam == "A":
        return NORMAL
    if not birational:
        return OUT_OF_SCOPE
    s, c = b.sorted_d(), b.central
    if fam == "C":
        if c is None:
            return NORMAL
        return NORMAL if _all_equal(s) else NOT_NORMAL
    if c is not None:  # SO, odd number of blocks
        return NORMAL
    # SO, even number of blocks
    vals = sorted(set(s))
    if len(vals) == 1 and vals[0] % 2 == 0:
        return NORMAL
    if len(vals) == 2 and vals[1] - vals[0] == 2 and vals[0] % 2 == 0:
        return NORMAL
    odd = [v for v in s if v % 2]
    if len(odd) == 1:
        v = odd[0]
        i = s.index(v)  # unique
        prefix, suffix = s[:i], s[i + 1 :]
        if i == 0 and _all_equal(suffix):
            return NORMAL
        if i > 0 and _all_equal(prefix) and v - s[i - 1] == 1 and _all_equal(suffix):
            return NORMAL
    return NOT_NORMAL


def _covering_degree(b: BlockVector, nice: bool, birational: bool) -> tuple[int | None, str | None]:
    """Degree of the moment map onto its image where a value is known, and
    a note when the formula's value is suppressed.

    1 on the birational family (all of type A included).  2 on the orthogonal
    odd-block family whose peak exceeds the center by one.  2^(c/2 - #odd)
    on nice symplectic odd-block vectors with odd entries, except that a
    formula value of 1 contradicts non-birationality and is suppressed.
    Everything else: unknown (None).
    """
    if birational:
        return 1, None
    if not nice:
        return None, None
    s, c = b.sorted_d(), b.central
    if b.kind.family == "C" and c is not None:
        k = 2 ** (c // 2 - sum(1 for v in s if v % 2))
        if k == 1:
            return None, (
                "covering-degree formula evaluates to 1 on a non-birational "
                f"symplectic vector d={b.d} central={c}; value suppressed"
            )
        return k, None
    if b.kind.family in "BD" and c is not None and s and s[-1] == c + 1:
        return 2, None
    return None, None


def cross_check(lam, certified) -> list[str]:
    """The disagreement of a certified oracle partition with the closed-form
    partition ``lam``: one message naming both values, or none."""
    if certified is not None and certified != lam:
        return [f"closed form {lam} != certified oracle {certified}"]
    return []


def classify(
    parabolic: BlockVector | Coloring,
    *,
    with_oracle: bool = False,
    trials: int = 3,
    seed: int = 1,
) -> ClassificationReport:
    """Full classification of one parabolic, given by a block vector or by a
    coloring of any kind.

    An exceptional coloring is looked up by :func:`exceptional_lookup`; the
    oracle has no exceptional matrices, so ``with_oracle`` is refused there.
    A classical coloring is kept as given and classified by the blocks
    :func:`blocks_from_coloring` derives; a block vector is reported with
    the canonical coloring :func:`coloring_from_blocks` derives.

    The partition is the induction formula on all of type A and on nice
    B/C/D.  On non-nice B/C/D it is the matrix oracle's on request, and it
    stays None when no oracle sample is certified generic.  ``with_oracle``
    runs the oracle as a referee of the formula on every classical vector,
    and :func:`cross_check`'s disagreement goes into ``diagnostics``; so
    does a note where the stabilizer test passes on a non-nice vector's
    certified partition.
    """
    if isinstance(parabolic, BlockVector):
        b, coloring = parabolic, coloring_from_blocks(parabolic)
    elif parabolic.kind.is_exceptional:
        if with_oracle:
            raise DescriptorError("with_oracle applies to classical kinds only")
        return exceptional_lookup(parabolic)
    else:
        b, coloring = blocks_from_coloring(parabolic), parabolic
    kind = b.kind
    lam = richardson_partition(b)
    nice = nice_from_partition(b, lam)
    partition = lam if kind.family == "A" or nice else None
    birational = kind.family == "A" or (nice and is_birational_by_partition(b, lam))
    diagnostics = []
    if with_oracle:
        certified = oracle.oracle_richardson_partition(b, trials=trials, base_seed=seed)
        diagnostics = cross_check(lam, certified)
        if partition is None and certified is not None:
            partition = certified
            if is_birational_by_partition(b, partition):
                diagnostics.append(
                    f"stabilizer test on {partition} says birational=True; "
                    "the vector is not nice, so birational is reported False"
                )
    degree, note = _covering_degree(b, nice, birational)
    if note:
        diagnostics.append(note)

    return ClassificationReport(
        coloring=coloring,
        blocks=b,
        nice=nice,
        birational=birational,
        sl2_given=_sl2_given(b, lam, nice),
        normal=_normal_closure(b, birational),
        partition=partition,
        orbit_dim=kind.dim - oracle.levi_dim(b),
        covering_degree=degree,
        diagnostics=tuple(diagnostics),
    )
