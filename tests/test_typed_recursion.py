"""Tests of the typed B/D recursion's child orbits: each distinct child spec
is built once per parent orbit, the rank-three type D translation is set up
once per orbit, and the exact core keeps integral coefficients as ints."""

from fractions import Fraction

import pytest

from gkmrest.canonical import single_form_column
from gkmrest.exact import Poly
from gkmrest.orbits import Orbit, OrbitSpec, typed_column, typed_table

from conftest import restriction_table


def _record_builds(mp: pytest.MonkeyPatch) -> tuple[list, dict]:
    """Patch Orbit.__init__ and Poly.substitute to record each orbit's spec
    and count substitutions."""
    specs: list[tuple] = []
    counts = {"substitute": 0}
    init, substitute = Orbit.__init__, Poly.substitute

    def counting_init(self, spec):
        specs.append((spec.ctype, spec.rank, spec.mu.coords))
        init(self, spec)

    def counting_substitute(self, *args, **kwargs):
        counts["substitute"] += 1
        return substitute(self, *args, **kwargs)

    mp.setattr(Orbit, "__init__", counting_init)
    mp.setattr(Poly, "substitute", counting_substitute)
    return specs, counts


@pytest.fixture(scope="module")
def d4_typed():
    with pytest.MonkeyPatch.context() as mp:
        specs, counts = _record_builds(mp)
        orbit = Orbit(OrbitSpec("D", 4))
        table = typed_table(orbit)
    return orbit, table, specs, counts


def _integral_fractions(table) -> list:
    return [c for poly in table.entries.values() for c in poly.terms.values()
            if type(c) is Fraction and c.denominator == 1]


class TestChildOrbits:
    def test_d4_builds_five_orbits_and_1152_substitutes(self, d4_typed):
        # D4, two D3 fiber orbits and their two A3 images; each D3 orbit
        # solves its 24 columns of 24 entries once
        _, _, specs, counts = d4_typed
        assert len(specs) == 5
        assert len(set(specs)) == 5
        assert [s[:2] for s in specs].count(("D", 3)) == 2
        assert [s[:2] for s in specs].count(("A", 3)) == 2
        assert counts["substitute"] == 1152

    def test_d4_fibers_share_two_children(self, d4_typed):
        orbit, _, _, _ = d4_typed
        base = orbit.base_od().graph.ids
        children = {id(orbit.fiber_child(b)[0]): orbit.fiber_child(b)[0] for b in base}
        assert len(base) == 8
        assert sorted(c.spec.mu.coords for c in children.values()) == [
            (-3, -2, -1), (-3, -2, 1)]

    def test_fiber_map_covers_the_child(self, d4_typed):
        orbit, _, _, _ = d4_typed
        fib = orbit.base_fibration()
        for b in orbit.base_od().graph.ids:
            child, free, vid_map = orbit.fiber_child(b)
            assert list(vid_map) == sorted(fib.fiber_over(b, orbit.od.graph.ids))
            assert sorted(vid_map.values()) == sorted(child.od.graph.ids)
            assert len(free) == 3

    def test_b3_builds_one_child_per_distinct_spec(self):
        with pytest.MonkeyPatch.context() as mp:
            specs, _ = _record_builds(mp)
            orbit = Orbit(OrbitSpec("B", 3))
            typed_table(orbit)
        assert len(specs) == len(set(specs))
        assert [s[:2] for s in specs] == [("B", 3), ("B", 2), ("B", 1)]

    def test_shared_children_agree_with_gz(self):
        # a non-default point; the columns hit every fiber's child
        orbit = Orbit(OrbitSpec("D", 4, mu=(-7, -5, -2, -1)))
        cols = orbit.od.graph.ids[::7]
        fib = orbit.base_fibration()
        assert {fib.vertex_map[q] for q in cols} == set(orbit.base_od().graph.ids)
        for q in cols:
            assert typed_column(orbit, q) == single_form_column(orbit.od, q)


class TestIntegralCoefficients:
    @pytest.mark.parametrize("ctype", ["A", "B", "C"])
    def test_rank3_tables_hold_no_integral_fraction(self, ctype):
        orbit = Orbit(OrbitSpec(ctype, 3))
        for table in (restriction_table(orbit.od), typed_table(orbit),
                      restriction_table(orbit.od, "brute")):
            assert _integral_fractions(table) == []

    def test_d4_typed_table_holds_no_integral_fraction(self, d4_typed):
        _, table, _, _ = d4_typed
        assert _integral_fractions(table) == []
