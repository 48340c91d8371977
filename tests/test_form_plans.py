"""Operation counts of the engines around the per-form plan table: brute
reads each vertex's congruence directions from its oriented graph, a gz
column builds no Weight through its constructor, a brute table derives
one plan per distinct linear form, and frac_sum reduces after each merge."""

import sys
from fractions import Fraction

import pytest

from gkmrest import exact
from gkmrest.canonical import single_form_column
from gkmrest.exact import Poly, Weight, frac_sum
from gkmrest.gkm import GkmGraph
from gkmrest.orbits import Orbit, OrbitSpec

from conftest import restriction_table


def test_b3_brute_table_asks_no_edge_weight(monkeypatch):
    orbit = Orbit(OrbitSpec("B", 3))
    od = orbit.od
    calls = []
    edge_weight = GkmGraph.edge_weight

    def counting(self, src, dst):
        calls.append((src, dst))
        return edge_weight(self, src, dst)

    monkeypatch.setattr(GkmGraph, "edge_weight", counting)
    table = restriction_table(od, "brute")
    assert len(table.entries) == 48 * 48
    assert calls == []
    od.graph.edge_weight(*next(iter(od.graph.weights)))
    assert len(calls) == 1  # the counter is live


def _stack() -> list[str]:
    """The names of the functions on the caller's stack, innermost first."""
    frame, names = sys._getframe(2), []
    while frame is not None:
        names.append(frame.f_code.co_name)
        frame = frame.f_back
    return names


@pytest.mark.parametrize("mu", [None, (Fraction(-7, 2), -3, Fraction(-1, 2))])
def test_b3_gz_table_builds_no_weight_in_a_column(monkeypatch, mu):
    """Every moment difference of a gz column is taken as it is
    (Weight.of_exact): Weight.__init__ is called from no column, nor from
    anything a column calls, on a cold graph."""
    od = Orbit(OrbitSpec("B", 3, mu=mu)).od
    stacks = []
    init = Weight.__init__

    def recording(self, coords):
        stacks.append(_stack())
        init(self, coords)

    monkeypatch.setattr(Weight, "__init__", recording)
    cols = {q: single_form_column(od, q) for q in od.graph.ids}
    assert sum(len(c) for c in cols.values()) == 48 * 48
    assert not [s for s in stacks if "single_form_column" in s]
    Weight((1, 0, 0))
    assert stacks[-1][0] == "test_b3_gz_table_builds_no_weight_in_a_column"  # live


@pytest.fixture(scope="module")
def d4_brute_plans():
    """The forms whose plans a cold D4 brute table derives, in order."""
    orbit = Orbit(OrbitSpec("D", 4))
    derived = []
    derive = exact._derive_plan

    def recording(coords):
        derived.append(coords)
        return derive(coords)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact, "_FORM_PLANS", {})
        mp.setattr(exact, "_derive_plan", recording)
        restriction_table(orbit.od, "brute")
        table = dict(exact._FORM_PLANS)
    return derived, table


def test_d4_brute_derives_one_plan_per_distinct_form(d4_brute_plans):
    derived, table = d4_brute_plans
    normalised = [tuple(map(exact._as_exact, c)) for c in derived]
    assert derived
    assert len(set(normalised)) == len(normalised) == len(table)


def test_d4_brute_plans_are_the_plans_of_their_forms(d4_brute_plans):
    _, table = d4_brute_plans
    for coords, plan in table.items():
        piv, c0, rest, int_pivot, unit, _ = plan
        assert coords[piv] == c0 and all(c == 0 for c in coords[:piv])
        assert rest == tuple((i, c) for i, c in enumerate(coords) if c and i != piv)
        assert int_pivot == (type(c0) is int) and unit == (c0 == 1)


def test_frac_sum_reduces_after_each_merge(monkeypatch):
    """x1/f - x2/f + 1/g + 1/g with f = x1 - x2: the first merge divides
    f out at once, so the last merge raises only the polynomial 1 by g.
    Without the reduction it would raise x1 - x2 by g and 2 by f."""
    f, g = (1, -1), (0, 1)
    x1, x2, one = (Poly(2, {e: 1}) for e in ((1, 0), (0, 1), (0, 0)))
    calls = []
    mul_weight = Poly.mul_weight

    def counting(self, w):
        calls.append(w.coords)
        return mul_weight(self, w)

    monkeypatch.setattr(Poly, "mul_weight", counting)
    total, left = frac_sum([(x1, (f,)), (-x2, (f,)), (one, (g,)), (one, (g,))], 2)
    assert (total, left) == (Poly(2, {(0, 1): 1, (0, 0): 2}), (g,))
    assert calls == [g]

