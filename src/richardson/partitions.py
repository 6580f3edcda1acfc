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

import operator
from typing import Sequence

from .core import BlockVector, InvariantError, check_partition

__all__ = [
    "InvalidKernelProfileError",
    "richardson_partition",
    "partition_from_kernel_dims",
]


class InvalidKernelProfileError(ValueError):
    """Kernel-dimension sequence cannot come from powers of a nilpotent map."""


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


def partition_from_kernel_dims(kdims: Sequence[int]) -> tuple[int, ...]:
    """Jordan partition from (dim ker X^0, dim ker X^1, ..., dim ker X^m = N).

    The multiplicity of part j is 2*k_j - k_{j-1} - k_{j+1} (with the profile
    constant after index m); validity requires the profile to be weakly
    increasing with weakly decreasing increments.
    """
    k = [operator.index(x) for x in kdims]
    if not k or k[0] != 0:
        raise InvalidKernelProfileError("profile must start at dim ker X^0 = 0")
    diffs = [k[i + 1] - k[i] for i in range(len(k) - 1)]
    if any(x < 0 for x in diffs):
        raise InvalidKernelProfileError(f"profile must be weakly increasing, got {k}")
    if any(diffs[i] < diffs[i + 1] for i in range(len(diffs) - 1)):
        raise InvalidKernelProfileError(f"profile increments must be weakly decreasing, got {k}")
    m = len(k) - 1
    parts: list[int] = []
    for j in range(1, m + 1):
        nxt = k[j + 1] if j + 1 <= m else k[m]
        parts += [j] * (2 * k[j] - k[j - 1] - nxt)
    lam = tuple(sorted(parts, reverse=True))
    if sum(lam) != k[-1]:
        raise InvariantError(f"parts {lam} do not sum to dim ker X^m = {k[-1]} for profile {k}")
    return check_partition(lam)
