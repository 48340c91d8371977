"""Moment graphs whose weights sit in general coordinates.

A unimodular integer change of coordinates keeps every graph axiom, so the
restriction tables of CP^n and of products of them must still agree across
engines and certify; the weights then have three or more nonzero
coordinates, so every hyperplane restriction leaves the one- and
two-coordinate fast paths of Poly.restrict_zero."""

import json
import random
from pathlib import Path

import pytest

from conftest import product_of_projective_spaces, restriction_table
from gkmrest import cli
from gkmrest.canonical import certify_table
from gkmrest.exact import Weight
from gkmrest.gkm import GkmGraph, OrientedGraphData, choose_generic_xi, validate_gkm

TRIANGLE = Path(__file__).parent / "data" / "cp2_general_coordinates.json"

FACTORS = [(2,), (3,), (1, 1), (1, 1, 1), (2, 1), (1, 2)]
SEEDS = [1, 2, 3]


def unimodular(m: int, seed: int) -> list[list[int]]:
    """A product of unit lower and unit upper triangular integer matrices
    with entries in -2..2, so of determinant one."""
    rng = random.Random(seed)
    low = [[1 if i == j else rng.randint(-2, 2) if j < i else 0 for j in range(m)]
           for i in range(m)]
    up = [[1 if i == j else rng.randint(-2, 2) if j > i else 0 for j in range(m)]
          for i in range(m)]
    return [[sum(low[i][k] * up[k][j] for k in range(m)) for j in range(m)]
            for i in range(m)]


def transformed(g: GkmGraph, a: list[list[int]]) -> GkmGraph:
    """The same graph with moments and weights both mapped by a."""
    def act(w: Weight) -> Weight:
        return Weight(sum(r * c for r, c in zip(row, w.coords)) for row in a)
    return GkmGraph(g.rank, [(v, act(g.moment[v])) for v in g.ids],
                    [(s, d, act(w)) for (s, d), w in g.weights.items()])


def general_graphs():
    yield "triangle", GkmGraph.from_json(TRIANGLE.read_text())
    for dims in FACTORS:
        base = product_of_projective_spaces(*dims)
        for seed in SEEDS:
            name = "x".join(f"CP{n}" for n in dims) + f"-{seed}"
            yield name, transformed(base, unimodular(base.rank, seed))


GRAPHS = list(general_graphs())


@pytest.mark.parametrize("g", [g for _, g in GRAPHS], ids=[name for name, _ in GRAPHS])
def test_engines_agree_and_certify(g, tmp_path, capsys):
    assert validate_gkm(g).ok
    assert max(sum(1 for c in w.coords if c) for w in g.weights.values()) >= 3
    od = OrientedGraphData(g, choose_generic_xi(g))
    gz = restriction_table(od, "gz")
    assert restriction_table(od, "ordered").entries == gz.entries
    assert restriction_table(od, "brute").entries == gz.entries
    cert = certify_table(od, gz)
    assert cert.ok, str(cert)
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(g.to_json()))
    assert cli.main(["compare", "--graph", str(path)]) == 0
    assert "0 mismatches" in capsys.readouterr().out
