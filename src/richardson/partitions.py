"""Closed-form Jordan partitions of Richardson elements.

A Richardson element of a parabolic (a dense-orbit representative of the
nilradical) has a Jordan type determined by the Levi block sizes alone; this
module evaluates the closed forms for the classical families.  Formulas for
B/C/D require the canonical ascending arrangement of the half block vector,
which names a conjugate Levi and hence the same Jordan type; inputs are
sorted internally.

The dual (conjugate) partition is built first for most cases; odd block
sizes contribute an adjusted pair ``{d_i - 1, d_i + 1}`` where the family
demands even multiplicities.
"""

from __future__ import annotations

from typing import Sequence

from .core import BlockVector, InvariantError, check_partition, transpose

__all__ = [
    "FormulaDomainError",
    "InvalidKernelProfileError",
    "richardson_partition",
    "partition_type_a",
    "dual_partition_bcd",
    "partition_bcd",
    "partition_from_kernel_dims",
]


class FormulaDomainError(ValueError):
    """Input outside the domain of the closed-form partition formulas."""


class InvalidKernelProfileError(ValueError):
    """Kernel-dimension sequence cannot come from powers of a nilpotent map."""


def _require_nice(b: BlockVector) -> None:
    from .classify import is_nice  # late import; classify depends on this module

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


def richardson_partition(b: BlockVector) -> tuple[int, ...]:
    """Jordan type of a Richardson element, any classical family."""
    if b.kind.family == "A":
        return partition_type_a(b)
    return partition_bcd(b)


def partition_from_kernel_dims(kdims: Sequence[int]) -> tuple[int, ...]:
    """Jordan partition from (dim ker X^0, dim ker X^1, ..., dim ker X^m = N).

    The multiplicity of part j is 2*k_j - k_{j-1} - k_{j+1} (with the profile
    constant after index m); validity requires the profile to be weakly
    increasing with weakly decreasing increments.
    """
    k = [int(x) for x in kdims]
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
