"""Closed-form Jordan partitions: of Richardson elements, and of generic
elements of the first graded part.

A Richardson element of a parabolic (a dense-orbit representative of the
nilradical) lies in the orbit induced from the zero orbit of the Levi
(Collingwood-McGovern, Lemma 7.2.5 and Thm 7.3.3).  One induction formula
gives its Jordan type for every classical block vector, nice or not: the
conjugate of the Levi's full block sizes, in B/C/D collapsed to the nearest
partition of the family (Collingwood-McGovern, Lemma 6.3.3).  Conjugate
Levis give the same orbit, so the answer does not depend on the block
order.  The generic Jordan type on g_1 (:func:`g1_partition`) does, and
nice means the two types agree.
"""

from __future__ import annotations

from typing import Sequence

from .core import BlockVector, DescriptorError, LieKind

__all__ = ["richardson_partition", "g1_partition"]


def richardson_partition(b: BlockVector) -> tuple[int, ...]:
    """Jordan type of a Richardson element, any classical block vector.

    The orbit induced from the zero orbit of the Levi: the conjugate of the
    Levi's block sizes, in B/C/D collapsed until every even part (B/D) or
    odd part (C) has even multiplicity.  A collapse step lowers the last
    occurrence of the largest offending part q by 1 and raises the first
    later part below q - 1 by 1.
    """
    fam = b.kind.family
    blocks = b.full_blocks()  # validated by BlockVector: positive ints
    lam = [sum(e >= h for e in blocks) for h in range(1, max(blocks) + 1)]  # the conjugate
    if fam == "A":
        return tuple(lam)
    parity = 1 if fam == "C" else 0
    while True:
        bad = [q for q in set(lam) if q % 2 == parity and lam.count(q) % 2]
        if not bad:
            return tuple(lam)
        q = max(bad)
        i = len(lam) - 1 - lam[::-1].index(q)
        lam[i] -= 1
        j = next((k for k in range(i + 1, len(lam)) if lam[k] < q - 1), None)
        if j is None:
            lam.append(1)
        else:
            lam[j] += 1


def g1_partition(kind: LieKind, blocks: Sequence[int]) -> tuple[int, ...]:
    """Jordan type of a generic X in g_1, for the full block sequence e_0 ...
    e_{m-1} of a classical kind (palindromic in B/C/D), in the order given.

    X maps V_{j+1} to V_j, so rank X^k sums min(e_i ... e_{i+k}) over i: at
    each level h, a maximal run of L consecutive blocks of size >= h is a
    Jordan block of size L.  In C with a central block and in D without,
    composites through the centre are skew, so term i is also capped by
    min(e_a ... e_{m-1-a}) rounded down to even, a = max(i, m-1-i-k) <
    m-1-a: the centred runs at levels h and h + 1, h odd, become two runs
    of their mean length (length 0 above the top)."""
    e = tuple(blocks)
    if kind.family != "A" and e != e[::-1]:
        raise DescriptorError(f"{kind.name} blocks must be palindromic, got {e}")
    m = len(e)
    mid = m // 2 if kind.family in ("C" if m % 2 else "BD") else -1  # -1: no skew rule
    parts, centred = [], []  # centred: one run length per level, bottom level first
    for h in range(1, max(e, default=0) + 1):
        first = 0  # where the current run of blocks of size >= h starts
        for j, size in enumerate(e):
            if size < h:
                first = j + 1
            elif j + 1 == m or e[j + 1] < h:  # the run ends at block j
                (centred if first <= mid <= j else parts).append(j + 1 - first)
    centred.append(0)  # the level above the top
    parts += [(a + b) // 2 for a, b in zip(centred[::2], centred[1::2]) for _ in (0, 1)]
    return tuple(sorted(parts, reverse=True))
