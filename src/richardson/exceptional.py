"""Exceptional types: positive roots from Cartan matrices, grading
dimensions, and the classification data for G2, F4, E6, E7, E8.

Which exceptional parabolics carry a Richardson element in the first graded
part (and whether its stabilizers in P and G agree) is not recomputed from
scratch; it is encoded data, checked against the graded dimensions where
reference values exist.  Two tables hold it: the appendix of nice and
birational colorings, and ``NON_SL2_ORBITS``, the labelled nice colorings no
sl2-triple induces.  A coloring is nice iff it is in one of them, since an
sl2-given one is birational (for a triple (e, h, f), G^e lies in the
parabolic of h).  An unlabelled nice coloring u is sl2-given only if -w0
fixes it, since the neutral element of a triple, here of diagram 2u, is
conjugate to its negative; that rules out 20 nice E6 colorings.  Orbit
dimensions are always computed from the root system as dim g - dim g_0.
The positive roots are the closure of the simple roots under the simple
reflections s_i(beta) = beta - <beta, alpha_i^vee> alpha_i, taken wherever
the pairing is negative.
"""

from __future__ import annotations

from functools import lru_cache

from .core import ClassificationReport, Coloring, InvariantError, LieKind, UnsupportedKindError

__all__ = [
    "root_system",
    "grading_dims",
    "orbit_dim",
    "exceptional_lookup",
    "appendix_colorings",
    "appendix_records",
]

# Cartan matrices, Bourbaki numbering; row i holds the pairings <alpha_j, alpha_i^vee>.
_CARTAN = {
    "G2": (
        (2, -3),
        (-1, 2),
    ),
    "F4": (
        (2, -1, 0, 0),
        (-1, 2, -1, 0),
        (0, -2, 2, -1),
        (0, 0, -1, 2),
    ),
}


def _simply_laced(rank: int, edges: tuple[tuple[int, int], ...]) -> tuple[tuple[int, ...], ...]:
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i, j in edges:
        a[i - 1][j - 1] = a[j - 1][i - 1] = -1
    return tuple(tuple(row) for row in a)


_E_EDGES = ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4))
for _rank in (6, 7, 8):
    _CARTAN[f"E{_rank}"] = _simply_laced(
        _rank, tuple(e for e in _E_EDGES if max(e) <= _rank)
    )


def _close_positive_roots(cartan: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """Positive roots by reflection closure from the simple roots.

    A positive root beta with <beta, alpha_i^vee> < 0 reflects to the higher
    positive root s_i(beta) = beta - <beta, alpha_i^vee> alpha_i, and every
    non-simple positive root is such a reflection of a lower one (Humphreys,
    *Introduction to Lie Algebras and Representation Theory*, 10.2-10.3).
    """
    rank = len(cartan)
    simple = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
    roots = set(simple)
    todo = list(simple)
    while todo:
        beta = todo.pop()
        for i, row in enumerate(cartan):
            pairing = sum(c * a for c, a in zip(beta, row))
            if pairing < 0:
                up = beta[:i] + (beta[i] - pairing,) + beta[i + 1 :]
                if up not in roots:
                    roots.add(up)
                    todo.append(up)
    return tuple(sorted(roots, key=lambda r: (sum(r), r)))


@lru_cache(maxsize=None)
def root_system(kind: LieKind) -> tuple[tuple[int, ...], ...]:
    """Positive roots of an exceptional type, as coefficient vectors over
    the simple roots, ordered by height."""
    if not kind.is_exceptional:
        raise UnsupportedKindError(f"root systems here are exceptional-only, got {kind.name}")
    pos = _close_positive_roots(_CARTAN[kind.name])
    expected = (kind.dim - kind.rank) // 2
    if len(pos) != expected:
        raise InvariantError(
            f"{kind.name}: closure found {len(pos)} positive roots, expected {expected}"
        )
    return pos


def grading_dims(coloring: Coloring) -> dict[int, int]:
    """Dimensions of the graded pieces g_i for the grading alpha_i(H) = u_i."""
    u = coloring.u
    counts: dict[int, int] = {}
    for root in root_system(coloring.kind):
        g = sum(c * x for c, x in zip(root, u))
        counts[g] = counts.get(g, 0) + 1
    dims = {0: coloring.kind.rank + 2 * counts.get(0, 0)}
    for g, k in counts.items():
        if g != 0:
            dims[g] = k
            dims[-g] = k
    return dims


def orbit_dim(coloring: Coloring) -> int:
    """Richardson orbit dimension dim g - dim g_0."""
    return coloring.kind.dim - grading_dims(coloring)[0]


# ---------------------------------------------------------------------------
# classification data
#
# Colorings whose parabolic has a Richardson element in the first graded part
# *and* equal stabilizers in P and G.  Shared row numbering for the E series;
# E7 rows 5, 20, 25 (and 30) and E8 rows 29, 30 are empty.

_G2_TABLE = (
    (1, 1),
    (0, 1),
    (0, 0),
)

_F4_TABLE = (
    (1, 1, 1, 1),
    (1, 1, 0, 1),
    (1, 1, 0, 0),
    (1, 0, 0, 1),
    (0, 1, 0, 1),
    (0, 1, 0, 0),
    (0, 0, 0, 1),
    (0, 0, 0, 0),
)

_E6_TABLE = (
    (1, 1, 1, 1, 1, 1),
    (1, 1, 1, 0, 1, 1),
    (1, 1, 1, 0, 1, 0),
    (1, 1, 0, 1, 0, 1),
    (1, 1, 0, 0, 1, 0),
    (1, 1, 0, 0, 0, 1),
    (1, 1, 0, 0, 0, 0),
    (1, 0, 1, 1, 0, 1),
    (1, 0, 1, 0, 0, 1),
    (1, 0, 1, 0, 0, 0),
    (1, 0, 0, 1, 1, 1),
    (1, 0, 0, 1, 0, 1),
    (1, 0, 0, 1, 0, 0),
    (1, 0, 0, 0, 1, 1),
    (1, 0, 0, 0, 1, 0),
    (1, 0, 0, 0, 0, 1),
    (1, 0, 0, 0, 0, 0),
    (0, 1, 1, 0, 1, 1),
    (0, 1, 1, 0, 0, 1),
    (0, 1, 0, 1, 0, 0),
    (0, 1, 0, 0, 0, 1),
    (0, 1, 0, 0, 0, 0),
    (0, 0, 1, 0, 0, 1),
    (0, 0, 1, 0, 0, 0),
    (0, 0, 0, 1, 0, 1),
    (0, 0, 0, 1, 0, 0),
    (0, 0, 0, 0, 1, 1),
    (0, 0, 0, 0, 1, 0),
    (0, 0, 0, 0, 0, 1),
    (0, 0, 0, 0, 0, 0),
)

_E7_TABLE = (
    (1, 1, 1, 1, 1, 1, 1),
    (1, 1, 1, 0, 1, 1, 1),
    (1, 1, 1, 0, 1, 0, 1),
    (1, 1, 0, 0, 1, 0, 1),
    (1, 0, 1, 1, 0, 1, 0),
    (1, 0, 1, 0, 0, 1, 0),
    (1, 0, 1, 0, 0, 0, 0),
    (1, 0, 0, 1, 0, 1, 1),
    (1, 0, 0, 1, 0, 1, 0),
    (1, 0, 0, 1, 0, 0, 1),
    (1, 0, 0, 0, 1, 0, 0),
    (1, 0, 0, 0, 0, 1, 1),
    (1, 0, 0, 0, 0, 1, 0),
    (1, 0, 0, 0, 0, 0, 1),
    (1, 0, 0, 0, 0, 0, 0),
    (0, 1, 1, 0, 0, 1, 1),
    (0, 1, 0, 0, 0, 0, 0),
    (0, 0, 1, 0, 0, 1, 0),
    (0, 0, 1, 0, 0, 0, 0),
    (0, 0, 0, 1, 0, 1, 0),
    (0, 0, 0, 1, 0, 0, 1),
    (0, 0, 0, 1, 0, 0, 0),
    (0, 0, 0, 0, 1, 0, 0),
    (0, 0, 0, 0, 0, 1, 0),
    (0, 0, 0, 0, 0, 0, 1),
    (0, 0, 0, 0, 0, 0, 0),
)

_E8_TABLE = (
    (1, 1, 1, 1, 1, 1, 1, 1),
    (1, 1, 1, 0, 1, 1, 1, 1),
    (1, 1, 1, 0, 1, 0, 1, 1),
    (1, 0, 0, 1, 0, 1, 1, 1),
    (1, 0, 0, 1, 0, 1, 0, 1),
    (1, 0, 0, 1, 0, 0, 1, 1),
    (1, 0, 0, 1, 0, 0, 1, 0),
    (1, 0, 0, 0, 1, 0, 0, 1),
    (1, 0, 0, 0, 0, 1, 1, 1),
    (1, 0, 0, 0, 0, 1, 0, 1),
    (1, 0, 0, 0, 0, 1, 0, 0),
    (1, 0, 0, 0, 0, 0, 1, 1),
    (1, 0, 0, 0, 0, 0, 1, 0),
    (1, 0, 0, 0, 0, 0, 0, 1),
    (1, 0, 0, 0, 0, 0, 0, 0),
    (0, 1, 0, 0, 0, 0, 0, 1),
    (0, 1, 0, 0, 0, 0, 0, 0),
    (0, 0, 1, 0, 0, 0, 1, 0),
    (0, 0, 0, 1, 0, 0, 1, 1),
    (0, 0, 0, 1, 0, 0, 1, 0),
    (0, 0, 0, 1, 0, 0, 0, 1),
    (0, 0, 0, 0, 1, 0, 0, 1),
    (0, 0, 0, 0, 1, 0, 0, 0),
    (0, 0, 0, 0, 0, 1, 0, 0),
    (0, 0, 0, 0, 0, 0, 1, 1),
    (0, 0, 0, 0, 0, 0, 1, 0),
    (0, 0, 0, 0, 0, 0, 0, 1),
    (0, 0, 0, 0, 0, 0, 0, 0),
)

_APPENDIX = {
    "G2": _G2_TABLE,
    "F4": _F4_TABLE,
    "E6": _E6_TABLE,
    "E7": _E7_TABLE,
    "E8": _E8_TABLE,
}

# Parabolics with a Richardson element in the first graded part that are not
# induced by an sl2-triple, with the Bala-Carter label of the Richardson orbit.
# An sl2-induced nice parabolic is birational (G^e lies in the parabolic of h),
# so the nice colorings are exactly the appendix rows and these keys; the
# three E7 keys outside the appendix are the nice ones that are not birational.
NON_SL2_ORBITS = {
    ("E7", (1, 1, 0, 0, 1, 0, 1)): "D_6",
    ("E7", (1, 1, 0, 0, 0, 0, 1)): "D_5(a_1)",
    ("E7", (0, 1, 1, 0, 0, 1, 1)): "D_6",
    ("E7", (0, 0, 1, 0, 0, 0, 1)): "A_4+A_1",
    ("E7", (0, 0, 0, 0, 1, 0, 1)): "A_4+A_1",
    ("E8", (0, 0, 1, 0, 0, 0, 1, 0)): "D_6",
}


# -w0 as a permutation of the nodes: the flip 1<->6, 3<->5 on E6, else the identity
_OPPOSITION = {"E6": (5, 1, 4, 3, 2, 0)}


def appendix_colorings(kind: LieKind) -> tuple[Coloring, ...]:
    """The encoded birational-and-nice colorings for an exceptional kind."""
    if not kind.is_exceptional:
        raise UnsupportedKindError(f"appendix data is exceptional-only, got {kind.name}")
    return tuple(Coloring(kind, u) for u in _APPENDIX[kind.name])


def exceptional_lookup(coloring: Coloring) -> ClassificationReport:
    """Classify one exceptional parabolic from the encoded tables.

    The report has no blocks; ``normal``, ``partition`` and
    ``covering_degree`` keep their defaults.
    """
    kind = coloring.kind
    if not kind.is_exceptional:
        raise UnsupportedKindError(f"exceptional lookup on classical kind {kind.name}")
    u = coloring.u
    birational = u in _APPENDIX[kind.name]
    label = NON_SL2_ORBITS.get((kind.name, u))
    nice = birational or label is not None
    opposite = tuple(u[i] for i in _OPPOSITION.get(kind.name, range(kind.rank)))
    return ClassificationReport(
        coloring=coloring,
        nice=nice,
        birational=birational,
        sl2_given=nice and label is None and opposite == u,
        orbit_dim=orbit_dim(coloring),
        label=label,
    )


def appendix_records(kind: LieKind) -> tuple[ClassificationReport, ...]:
    return tuple(exceptional_lookup(c) for c in appendix_colorings(kind))
