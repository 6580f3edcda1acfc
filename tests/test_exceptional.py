import random

import pytest

from richardson import core, exceptional
from richardson.core import (
    OUT_OF_SCOPE,
    ClassificationReport,
    Coloring,
    InvariantError,
    LieKind,
    UnsupportedKindError,
    all_colorings,
)
from richardson.exceptional import (
    NON_SL2_ORBITS,
    appendix_colorings,
    appendix_records,
    exceptional_lookup,
    grading_dims,
    orbit_dim,
    root_system,
)

from reference import E7_NON_BIRATIONAL

EXC = ("G2", "F4", "E6", "E7", "E8")

# the 20 nice E6 colorings that the diagram flip 1<->6, 3<->5 does not fix
E6_FLIP_MOVED = (
    (1, 1, 1, 0, 1, 0),
    (1, 1, 0, 0, 1, 0),
    (1, 1, 0, 0, 0, 0),
    (1, 0, 1, 1, 0, 1),
    (1, 0, 1, 0, 0, 1),
    (1, 0, 1, 0, 0, 0),
    (1, 0, 0, 1, 1, 1),
    (1, 0, 0, 1, 0, 0),
    (1, 0, 0, 0, 1, 1),
    (1, 0, 0, 0, 1, 0),
    (1, 0, 0, 0, 0, 0),
    (0, 1, 1, 0, 1, 1),
    (0, 1, 1, 0, 0, 1),
    (0, 1, 0, 0, 0, 1),
    (0, 0, 1, 0, 0, 1),
    (0, 0, 1, 0, 0, 0),
    (0, 0, 0, 1, 0, 1),
    (0, 0, 0, 0, 1, 1),
    (0, 0, 0, 0, 1, 0),
    (0, 0, 0, 0, 0, 1),
)


def kind(name):
    return LieKind.parse(name)


class TestRootSystems:
    @pytest.mark.parametrize(
        "name,highest",
        [
            ("G2", (3, 2)),
            ("F4", (2, 3, 4, 2)),
            ("E6", (1, 2, 2, 3, 2, 1)),
            ("E7", (2, 2, 3, 4, 3, 2, 1)),
            ("E8", (2, 3, 4, 6, 5, 4, 3, 2)),
        ],
    )
    def test_highest_root(self, name, highest):
        roots = root_system(kind(name))
        assert max(roots, key=sum) == highest
        assert sum(1 for r in roots if sum(r) == sum(highest)) == 1

    @pytest.mark.parametrize("name", EXC)
    def test_simple_reflections_permute_other_positive_roots(self, name):
        # s_i maps the positive roots other than alpha_i onto themselves; a
        # wrong root with the right count breaks this
        cartan = exceptional._CARTAN[name]
        roots = set(root_system(kind(name)))
        for i, row in enumerate(cartan):
            alpha = tuple(int(j == i) for j in range(len(row)))
            for beta in roots - {alpha}:
                pairing = sum(c * a for c, a in zip(beta, row))
                image = beta[:i] + (beta[i] - pairing,) + beta[i + 1 :]
                assert image in roots, (name, i, beta, image)

    def test_roots_distinct_positive(self):
        roots = root_system(kind("F4"))
        assert len(set(roots)) == 24
        assert all(all(c >= 0 for c in r) for r in roots)

    def test_classical_rejected(self):
        with pytest.raises(UnsupportedKindError):
            root_system(LieKind("A", 3))
        with pytest.raises(UnsupportedKindError):
            appendix_colorings(LieKind("C", 3))

    def test_wrong_root_count_raises_invariant_error(self, monkeypatch):
        # dim 16 and rank 2 expect (16 - 2) / 2 = 7 positive roots
        monkeypatch.setitem(core._EXC_DIM, ("G", 2), 16)
        # __wrapped__ bypasses the lru_cache, so the closure really runs again
        with pytest.raises(InvariantError, match="found 6 positive roots, expected 7"):
            root_system.__wrapped__(kind("G2"))


class TestGrading:
    def test_trivial_coloring(self):
        assert grading_dims(Coloring(kind("G2"), (0, 0))) == {0: 14}

    def test_dims_sum_to_dim_g(self):
        rng = random.Random(17)
        for name in EXC:
            k = kind(name)
            dim = k.rank + 2 * len(root_system(k))
            for _ in range(1000):
                u = tuple(rng.randint(0, 1) for _ in range(k.rank))
                dims = grading_dims(Coloring(kind(name), u))
                assert sum(dims.values()) == dim
                assert all(dims[g] == dims[-g] for g in dims)


class TestAppendixData:
    def test_nice_is_birational_or_labelled(self):
        # sl2-given implies birational, so the nice colorings outside the
        # appendix are exactly the labelled ones that are not birational
        not_birational, count = set(), 0
        for name in EXC:
            for c in all_colorings(kind(name)):
                rec = exceptional_lookup(c)
                count += 1
                if rec.nice and not rec.birational:
                    not_birational.add((name, c.u))
                if (name, c.u) in NON_SL2_ORBITS:
                    assert rec.nice and not rec.sl2_given, (name, c.u)
                assert rec.birational or not rec.sl2_given, (name, c.u)
        assert count == 468
        assert not_birational == {("E7", u) for u in E7_NON_BIRATIONAL}

    def test_birational_implies_nice(self):
        for name in EXC:
            for c in all_colorings(kind(name)):
                rec = exceptional_lookup(c)
                assert rec.nice or not rec.birational

    def test_nice_gradings_have_non_increasing_dims(self):
        # a Richardson X in g_1 makes ad X: g_k -> g_{k+1} onto for k >= 0
        for name in EXC:
            for c in all_colorings(kind(name)):
                if not exceptional_lookup(c).nice:
                    continue
                dims = grading_dims(c)
                top = max(dims)
                assert all(dims.get(k, 0) >= dims.get(k + 1, 0) for k in range(top)), (
                    name,
                    c.u,
                    dims,
                )

    def test_orbit_dims_even_and_bounded(self):
        for name in EXC:
            k = kind(name)
            non_sl2 = [Coloring(k, u) for n, u in NON_SL2_ORBITS if n == name]
            for c in (*appendix_colorings(k), *non_sl2):
                dim = orbit_dim(c)
                assert dim % 2 == 0
                assert 0 <= dim <= 2 * len(root_system(k))

    def test_stored_dims_match_recomputed(self):
        # the table stores only labels; the paper's dimensions are pinned here
        paper_dims = {"D_6": {"E7": 118, "E8": 216}, "D_5(a_1)": {"E7": 106}, "A_4+A_1": {"E7": 104}}
        for (name, u), label in NON_SL2_ORBITS.items():
            k = kind(name)
            c = Coloring(k, u)
            rec = exceptional_lookup(c)
            assert rec.label == label
            assert rec.nice and not rec.sl2_given
            dim = k.rank + 2 * len(root_system(k))
            assert rec.orbit_dim == dim - grading_dims(c)[0] == paper_dims[label][name]

    def test_duplicate_free(self):
        for name in EXC:
            rows = appendix_colorings(kind(name))
            assert len(rows) == len(set(rows))


class TestLookup:
    def test_e7_row_b(self):
        rec = exceptional_lookup(Coloring(kind("E7"), (1, 1, 0, 0, 0, 0, 1)))
        assert (rec.nice, rec.birational, rec.sl2_given) == (True, False, False)
        assert rec.orbit_dim == 106
        assert rec.label == "D_5(a_1)"
        # the same report type as classify, without blocks
        assert isinstance(rec, ClassificationReport) and rec.blocks is None
        assert (rec.normal, rec.partition, rec.covering_degree) == (OUT_OF_SCOPE, None, None)

    def test_f4_absent(self):
        rec = exceptional_lookup(Coloring(kind("F4"), (1, 0, 1, 0)))
        assert (rec.nice, rec.birational) == (False, False)

    def test_e8_row_f(self):
        rec = exceptional_lookup(Coloring(kind("E8"), (0, 0, 1, 0, 0, 0, 1, 0)))
        assert (rec.nice, rec.birational, rec.sl2_given) == (True, True, False)
        assert rec.orbit_dim == 216
        assert rec.label == "D_6"

    def test_g2_f4_e6_sl2_equals_nice(self):
        # sl2 == nice where -w0 is the identity (G2, F4); on E6 the diagram 2u
        # of an sl2-given coloring must also be fixed by the flip 1<->6, 3<->5
        for name in ("G2", "F4", "E6"):
            for c in all_colorings(kind(name)):
                rec = exceptional_lookup(c)
                u = c.u
                flip_fixed = name != "E6" or (u[0], u[2]) == (u[5], u[4])
                assert rec.sl2_given == (rec.nice and flip_fixed), (name, u)

    def test_e6_colorings_moved_by_the_flip_are_not_sl2_given(self):
        # the neutral element of an sl2-triple is conjugate to its negative,
        # so its weighted Dynkin diagram is fixed by -w0, the flip on E6
        moved = {
            c.u
            for c in all_colorings(kind("E6"))
            if exceptional_lookup(c).nice and not exceptional_lookup(c).sl2_given
        }
        assert moved == set(E6_FLIP_MOVED)
        for u in E6_FLIP_MOVED:
            rec = exceptional_lookup(Coloring(kind("E6"), u))
            assert rec.birational and rec.label is None, u
        # 2A1: its diagram 100010 is not 2u
        assert exceptional_lookup(Coloring(kind("E6"), (1, 0, 0, 0, 0, 0))).orbit_dim == 32

    def test_classical_rejected(self):
        a2 = Coloring(LieKind("A", 2), (1, 0))
        for fn in (exceptional_lookup, grading_dims, orbit_dim):
            with pytest.raises(UnsupportedKindError):
                fn(a2)

    def test_borel_and_full(self):
        for name in EXC:
            k = kind(name)
            borel = exceptional_lookup(Coloring(k, (1,) * k.rank))
            assert borel.nice and borel.birational and borel.sl2_given
            full = exceptional_lookup(Coloring(k, (0,) * k.rank))
            assert full.nice and full.birational
            assert full.orbit_dim == 0

    def test_records_helper(self):
        recs = appendix_records(kind("G2"))
        assert len(recs) == 3
        assert all(isinstance(r, ClassificationReport) for r in recs)
        assert all(r.birational for r in recs)
