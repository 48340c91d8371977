"""The edge scalar theta: agreement with the expanded-polynomial definition,
its error contract, and a guard that it never expands polynomials."""

from fractions import Fraction

import pytest

from gkmrest.errors import GraphFormatError, NonIntegerTheta, NotScalarRatio
from gkmrest.exact import Poly, Weight, rho_project
from gkmrest.gkm import GkmGraph, OrientedGraphData, choose_generic_xi
from gkmrest.orbits import Orbit, OrbitSpec

from conftest import product_of_projective_spaces


def expanded_theta(od: OrientedGraphData, p: str, q: str) -> Fraction:
    """theta from its definition: expand both projected products into
    polynomials and divide leading coefficients after checking that they
    are proportional."""
    eta = od.graph.edge_weight(p, q)
    num = Poly.const(od.rank, 1)
    for w in od.neg[p]:
        num = num.mul_weight(rho_project(w, eta, od.xi))
    rest = list(od.neg[q])
    rest.remove(eta)
    den = Poly.const(od.rank, 1)
    for w in rest:
        den = den.mul_weight(rho_project(w, eta, od.xi))
    ratio = Fraction(num.leading()[1]) / Fraction(den.leading()[1])
    assert num == den.scale(ratio)
    return ratio


def canonical_edges(od: OrientedGraphData):
    return [(p, q) for p in od.graph.ids for q in od.up[p]]


def twisted_square(k: int, xi=(1, 1)) -> OrientedGraphData:
    """A 4-cycle whose top edges carry edge scalar k under xi = (1, 1)."""
    verts = [("s", Weight((0, 0))), ("p", Weight((k, 1))),
             ("r", Weight((1, k + 1))), ("q", Weight((k, k + 1)))]
    edges = [("s", "p", Weight((k, 1))), ("p", "q", Weight((0, 1))),
             ("s", "r", Weight((1, k + 1))), ("r", "q", Weight((1, 0)))]
    return OrientedGraphData(GkmGraph(2, verts, edges), Weight(xi))


def kinked_path(a, eta, b) -> OrientedGraphData:
    """Rank-3 graph with moments s = 0, p = s + a, q = p + eta, t = q - b
    and edges s->p (a), p->q (eta), t->q (b), s->t, under xi = (1,10,100)."""
    a, eta, b = Weight(a), Weight(eta), Weight(b)
    s = Weight((0, 0, 0))
    p = s + a
    q = p + eta
    t = q - b
    verts = [("s", s), ("p", p), ("q", q), ("t", t)]
    edges = [("s", "p", a), ("p", "q", eta), ("t", "q", b), ("s", "t", t - s)]
    return OrientedGraphData(GkmGraph(3, verts, edges), Weight((1, 10, 100)))


@pytest.fixture(scope="module")
def classical_orbits():
    return {ctype: Orbit(OrbitSpec(ctype, rank))
            for ctype, rank in (("A", 3), ("B", 3), ("C", 3), ("D", 4))}


class TestAgreesWithExpansion:
    @pytest.mark.parametrize("ctype", ["A", "B", "C", "D"])
    def test_orbits(self, classical_orbits, ctype):
        od = classical_orbits[ctype].od
        edges = canonical_edges(od)
        assert edges
        for p, q in edges:
            assert od.theta(p, q) == expanded_theta(od, p, q), (p, q)

    def test_product_of_four_lines(self):
        g = product_of_projective_spaces(1, 1, 1, 1)
        od = OrientedGraphData(g, choose_generic_xi(g))
        for p, q in canonical_edges(od):
            assert od.theta(p, q) == expanded_theta(od, p, q), (p, q)

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_twisted_square(self, k):
        od = twisted_square(k)
        values = {e: od.theta(*e) for e in canonical_edges(od)}
        assert values[("p", "q")] == k
        for (p, q), th in values.items():
            assert th == expanded_theta(od, p, q)


class TestErrors:
    def test_not_an_edge(self, cp2_oriented):
        with pytest.raises(GraphFormatError):
            cp2_oriented.theta("p1", "p1")

    def test_index_gap_not_one(self, cp2_oriented):
        with pytest.raises(GraphFormatError):
            cp2_oriented.theta("p1", "p3")

    def test_non_integer(self):
        od = twisted_square(2, xi=(-1, -1))
        with pytest.raises(NonIntegerTheta, match="2/5"):
            od.theta("p", "s")
        assert ("p", "s") not in od._theta_cache

    def test_not_proportional(self):
        od = kinked_path((1, 0, 0), (0, 1, 0), (0, 0, 1))
        with pytest.raises(NotScalarRatio, match="not proportional"):
            od.theta("p", "q")

    def test_numerator_vanishes(self):
        od = kinked_path((2, 0, 0), (1, 0, 0), (0, 0, 1))
        with pytest.raises(NotScalarRatio, match="vanished"):
            od.theta("p", "q")

    def test_denominator_vanishes(self):
        # every weight lies on the x1 axis, so projecting along (p, q)
        # kills the remaining downward weight at q
        verts = [("r", Weight((0, 0))), ("p", Weight((1, 0))), ("q", Weight((2, 0)))]
        edges = [("r", "p", Weight((1, 0))), ("p", "q", Weight((1, 0))),
                 ("r", "q", Weight((2, 0)))]
        od = OrientedGraphData(GkmGraph(2, verts, edges), Weight((1, 1)))
        with pytest.raises(NotScalarRatio, match=r"\(p,q\)"):
            od.theta("p", "q")


def test_theta_expands_no_polynomial(classical_orbits, monkeypatch):
    """theta decides proportionality by factorisation alone: computing it
    on every canonical edge of D4 and C3 multiplies no polynomials."""
    fresh = [OrientedGraphData(classical_orbits[c].od.graph, classical_orbits[c].od.xi)
             for c in ("D", "C")]
    calls = {"__mul__": 0, "mul_weight": 0}

    def counting(name):
        original = getattr(Poly, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(Poly, name, counting(name))
    total = 0
    for od in fresh:
        for p, q in canonical_edges(od):
            od.theta(p, q)
            total += 1
    assert total > 0
    assert calls == {"__mul__": 0, "mul_weight": 0}
