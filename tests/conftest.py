"""Shared fixtures: small reference graphs used across the test suite."""

from fractions import Fraction

import pytest

from gkmrest.canonical import RestrictionTable
from gkmrest.exact import Weight
from gkmrest.gkm import GkmGraph, OrientedGraphData
from gkmrest.oracle import engine_entries


def projective_space_graph(n: int) -> GkmGraph:
    """Complete graph on n+1 fixed points with weights x_i - x_j and
    moment images (1/(n+1)) * sum_j (x_j - x_i)."""
    m = n + 1
    vertices = []
    for i in range(m):
        coords = [Fraction(1, m)] * m
        coords[i] = Fraction(1 - m, m)
        vertices.append((f"p{i + 1}", Weight(coords)))
    edges = []
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            w = [0] * m
            w[i], w[j] = 1, -1
            edges.append((f"p{i + 1}", f"p{j + 1}", Weight(w)))
    return GkmGraph(m, vertices, edges)


def restriction_table(target, engine: str = "gz") -> RestrictionTable:
    """The full table of one engine on an Orbit or OrientedGraphData,
    through the engine registry."""
    od = target if isinstance(target, OrientedGraphData) else target.od
    return RestrictionTable(od, engine_entries(target, engine))


@pytest.fixture
def cp2() -> GkmGraph:
    return projective_space_graph(2)


@pytest.fixture
def cp2_oriented(cp2) -> OrientedGraphData:
    # phi(p_i) = const - xi_i, so decreasing xi orders p1 < p2 < p3
    return OrientedGraphData(cp2, Weight((4, 2, 1)))


@pytest.fixture
def cp1_oriented() -> OrientedGraphData:
    return OrientedGraphData(projective_space_graph(1), Weight((2, 1)))


def product_of_projective_spaces(*dims: int) -> GkmGraph:
    """Product graph: vertices are tuples of factor vertices, edges move one
    factor at a time, weights live in disjoint coordinate blocks."""
    import itertools
    factors = [projective_space_graph(n) for n in dims]
    offsets = []
    total = 0
    for g in factors:
        offsets.append(total)
        total += g.rank
    def widen(w, k):
        coords = [0] * total
        for i, c in enumerate(w.coords):
            coords[offsets[k] + i] = c
        return Weight(coords)
    vertices = []
    for combo in itertools.product(*(g.ids for g in factors)):
        vid = "*".join(combo)
        moment = Weight([0] * total)
        for k, v in enumerate(combo):
            moment = moment + widen(factors[k].moment[v], k)
        vertices.append((vid, moment))
    edges = []
    for combo in itertools.product(*(g.ids for g in factors)):
        for k, g in enumerate(factors):
            for u in g.adj[combo[k]]:
                other = list(combo)
                other[k] = u
                edges.append(("*".join(combo), "*".join(other),
                              widen(g.edge_weight(combo[k], u), k)))
    return GkmGraph(total, vertices, edges)
