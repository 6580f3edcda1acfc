"""Closed-form Jordan partitions of Richardson elements.

A Richardson element of a parabolic (a dense-orbit representative of the
nilradical) lies in the orbit induced from the zero orbit of the Levi
(Collingwood-McGovern, Lemma 7.2.5 and Thm 7.3.3).  One induction formula
gives its Jordan type for every classical block vector, nice or not: each
Levi block GL(d) adds 1 (type A) or 2 (B/C/D) to the first d parts, and the
B/C/D result is collapsed to the nearest partition of the family
(Collingwood-McGovern, Lemma 6.3.3).  Conjugate Levis give the same orbit,
so the answer does not depend on the block order.
"""

from __future__ import annotations

from .core import BlockVector

__all__ = ["richardson_partition"]


def richardson_partition(b: BlockVector) -> tuple[int, ...]:
    """Jordan type of a Richardson element, any classical block vector.

    The orbit induced from the zero orbit of the Levi: start from [1^c] (c
    the central block), add 1 (type A) or 2 (B/C/D) to the first d parts for
    each block d, then collapse until every even part (B/D) or odd part (C)
    has even multiplicity.  A collapse step lowers the last occurrence of
    the largest offending part q by 1 and raises the first later part below
    q - 1 by 1.
    """
    fam = b.kind.family
    step = 1 if fam == "A" else 2
    lam = [1] * (b.central or 0)
    for d in b.d:
        lam += [0] * (d - len(lam))
        for i in range(d):
            lam[i] += step
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
