"""Exhaustive verification sweeps.

For every nice classical block vector up to a matrix-size bound this module
compares the closed-form Richardson partition against the matrix oracle's
Jordan type (with the genericity certificate dim g^X = dim m), through
``classify.cross_check``.  The partition is derived once per vector: it
decides nice, and a nice vector's is the one checked.  Zero discrepancies
is the acceptance gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

from . import oracle  # read at call time, so a replaced oracle function is the one called
from .classify import cross_check, nice_from_partition
from .core import MIN_RANK, LieKind, all_block_vectors
from .partitions import richardson_partition

__all__ = ["run_verification"]


@dataclass
class VerificationResult:
    checked: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def classical_kinds_up_to(families: Sequence[str], max_n: int) -> Iterator[LieKind]:
    """All classical kinds whose matrix size is at most max_n."""
    for fam in families:
        rank = MIN_RANK[fam]
        while True:
            kind = LieKind(fam, rank)
            if kind.matrix_size > max_n:
                break
            yield kind
            rank += 1


def run_verification(
    families: Sequence[str] = tuple(MIN_RANK),
    max_n: int = 12,
    trials: int = 3,
    base_seed: int = 1,
    emit: Callable[[str], None] | None = None,
) -> VerificationResult:
    """Sweep all nice block vectors with matrix size <= max_n.

    Each vector's Richardson partition is derived once, filtered on by
    :func:`nice_from_partition`, and checked.  Per case: a sample is
    certified generic and :func:`cross_check` finds no disagreement.
    """
    result = VerificationResult()
    vectors = (
        (b, richardson_partition(b))
        for kind in classical_kinds_up_to(families, max_n)
        for b in all_block_vectors(kind)
    )
    for b, lam in vectors:
        if not nice_from_partition(b, lam):
            continue
        label = f"{b.kind.name} d={','.join(map(str, b.d)) or '-'} central={b.central or '-'}"
        certified = oracle.oracle_partition_detail(b, trials, base_seed)
        problems = cross_check(lam, certified)
        if certified is None:
            problems.append("no sample certified generic (dim g^X != dim m)")
        result.checked += 1
        if problems:
            result.failures.append(f"{label}: " + "; ".join(problems))
            if emit:
                emit(f"FAIL {label}: " + "; ".join(problems))
        elif emit:
            emit(f"PASS {label} partition={','.join(map(str, lam))}")
    return result
