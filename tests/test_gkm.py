"""Tests for the moment-graph layer."""

import json
import random
from math import gcd

import pytest

from gkmrest.canonical import restriction_vertex_classes
from gkmrest.errors import GenericityError, GraphFormatError
from gkmrest.exact import Poly, Weight, pair
from gkmrest.gkm import (
    GkmGraph,
    OrientedGraphData,
    choose_generic_xi,
    enumerate_paths,
    export_dot,
    magnitude,
    validate_gkm,
)

from conftest import projective_space_graph
from reference import parse_poly


class TestValidate:
    def test_projective_plane_valid(self, cp2):
        assert validate_gkm(cp2).ok

    def test_negated_weight_breaks_positivity(self, cp2):
        data = cp2.to_json()
        bad = json.loads(json.dumps(data))
        bad["edges"][0]["weight"] = Weight(
            [-int(c) for c in (1, -1, 0)]).to_json()
        # rebuild without mirroring so only the tampered direction changes
        g = GkmGraph(
            3,
            [(v["id"], Weight(v["moment"])) for v in bad["vertices"]],
            [(e["src"], e["dst"], Weight(e["weight"])) for e in bad["edges"]],
        )
        rep = validate_gkm(g)
        assert not rep.ok
        assert any(code == "positivity" for code, _ in rep.issues)

    def test_parallel_weights_break_independence(self):
        # two proportional weights meeting at vertex a
        verts = [("a", Weight((0, 0))), ("b", Weight((1, 0))),
                 ("c", Weight((-2, 0)))]
        edges = [("a", "b", Weight((1, 0))), ("a", "c", Weight((-2, 0)))]
        g = GkmGraph(2, verts, edges)
        rep = validate_gkm(g)
        assert any(code == "independence" for code, _ in rep.issues)

    def test_missing_mirror_reported(self):
        g = GkmGraph(2, [("a", Weight((0, 0))), ("b", Weight((1, 0)))],
                     [("a", "b", Weight((1, 0)))])
        # the constructor synthesizes the mirror; drop it again
        del g.weights[("b", "a")]
        g.adj["b"] = ()
        rep = validate_gkm(g)
        assert any(code == "symmetry" for code, _ in rep.issues)

    def test_irregular_valence_reported(self):
        verts = [("a", Weight((0, 0))), ("b", Weight((1, 0))), ("c", Weight((1, 1)))]
        edges = [("a", "b", Weight((1, 0))), ("b", "c", Weight((0, 1)))]
        rep = validate_gkm(GkmGraph(2, verts, edges))
        assert any(code == "regularity" for code, _ in rep.issues)


class TestGenericXi:
    def test_projective_plane_geometric_candidate(self, cp2):
        xi = choose_generic_xi(cp2)
        for w in cp2.weights.values():
            assert pair(w, xi) != 0

    def test_postcondition_on_random_graphs(self, cp2):
        xi = choose_generic_xi(cp2)
        assert all(pair(w, xi) != 0 for w in cp2.weights.values())

    def test_single_edge(self):
        g = GkmGraph(2, [("a", Weight((0, 0))), ("b", Weight((1, -1)))],
                     [("a", "b", Weight((1, -1)))])
        xi = choose_generic_xi(g)
        assert xi.coords[0] != xi.coords[1]

    @pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
    def test_geometric_candidate_on_random_weights(self, rank):
        """The first candidate is always the answer: for every set of
        nonzero integer weights, (1, B, B^2, ...) with B one more than the
        largest l1 norm of a primitive weight pairs nonzero with each."""
        rng = random.Random(rank)
        for _ in range(200):
            span, count = rng.choice((1, 2, 5, 30)), rng.randint(1, 8)
            weights = []
            while len(weights) < count:
                w = [rng.randint(-span, span) for _ in range(rank)]
                if any(w):
                    weights.append(Weight([rng.randint(1, 3) * c for c in w]))
            verts = [("o", Weight((0,) * rank))] + [(f"v{i}", w) for i, w in enumerate(weights)]
            edges = [("o", f"v{i}", w) for i, w in enumerate(weights)]
            g = GkmGraph(rank, verts, edges)
            base = 1 + max(sum(abs(c) for c in w.coords) // gcd(*w.coords) for w in weights)
            rng.randint(0, 99)  # keeps the later draws as they were
            xi = choose_generic_xi(g)
            assert xi == Weight([base ** i for i in range(rank)])
            assert all(pair(w, xi) != 0 for w in g.weights.values())

    def test_oriented_rejects_degenerate(self, cp2):
        with pytest.raises(GenericityError):
            OrientedGraphData(cp2, Weight((1, 1, 1)))


class TestMorseData:
    def test_indices(self, cp2_oriented):
        od = cp2_oriented
        assert [od.lam[p] for p in ("p1", "p2", "p3")] == [0, 1, 2]

    def test_lambda_minus_top(self, cp2_oriented):
        od = cp2_oriented
        expect = parse_poly("x1*x2 - x1*x3 - x2*x3 + x3^2", 3)
        assert od.lambda_minus("p3") == expect
        assert od.lambda_minus("p3") == (
            Poly.from_weight(Weight((1, 0, -1))) * Poly.from_weight(Weight((0, 1, -1)))
        )

    def test_lambda_minus_minimum_is_one(self, cp2_oriented):
        assert cp2_oriented.lambda_minus("p1") == Poly.const(3, 1)

    def test_homogeneous_of_degree_lambda(self, cp2_oriented):
        od = cp2_oriented
        for p in od.graph.ids:
            lp = od.lambda_minus(p)
            assert lp.is_homogeneous()
            assert max(lp.degree(), 0) == od.lam[p]


class TestIndexIncreasing:
    def test_projective_spaces(self):
        for n in (1, 2, 3):
            g = projective_space_graph(n)
            od = OrientedGraphData(g, choose_generic_xi(g))
            assert od.index_increasing

    def test_counterexample(self):
        # chain u - v - w along one axis: the edge (v, w) ascends but the
        # index stays at 1, so the orientation is not index increasing
        verts = [("u", Weight((0, 0))), ("v", Weight((1, 0))),
                 ("w", Weight((3, 0)))]
        edges = [("u", "v", Weight((1, 0))), ("v", "w", Weight((1, 0)))]
        g = GkmGraph(2, verts, edges)
        od = OrientedGraphData(g, Weight((1, 1)))
        assert od.lam["v"] == od.lam["w"] == 1
        assert not od.index_increasing

    def test_flag_memoised_on_the_data(self, cp2_oriented):
        assert "index_increasing" not in vars(cp2_oriented)
        assert cp2_oriented.index_increasing is True
        assert vars(cp2_oriented)["index_increasing"] is True

    def test_lower_adj_memoised_in_adjacency_order(self, cp2_oriented):
        od = cp2_oriented
        assert "lower_adj" not in vars(od)
        want = {v: tuple(r for r in od.graph.adj[v] if od.phi[r] < od.phi[v])
                for v in od.graph.ids}
        assert od.lower_adj == want
        assert vars(od)["lower_adj"] is od.lower_adj


class TestMagnitude:
    def test_projective_plane_unit(self, cp2):
        assert magnitude(cp2, "p1", "p2") == 1

    def test_doubled_edge(self):
        # two fixed points at -x1 and x1 joined by weight x1
        g = GkmGraph(1, [("m", Weight((-1,))), ("p", Weight((1,)))],
                     [("m", "p", Weight((1,)))])
        assert magnitude(g, "m", "p") == 2

    def test_positive_for_all_edges(self, cp2):
        for (src, dst) in cp2.weights:
            assert magnitude(cp2, src, dst) > 0


class TestTheta:
    def test_projective_plane_all_ones(self, cp2_oriented):
        od = cp2_oriented
        for (p, q) in (("p1", "p2"), ("p2", "p3")):
            assert od.theta(p, q) == 1

    def test_lambda_zero_edge(self, cp2_oriented):
        assert cp2_oriented.theta("p1", "p2") == 1

    def test_invariant_under_positive_rescaling(self, cp2):
        od1 = OrientedGraphData(cp2, Weight((4, 2, 1)))
        od2 = OrientedGraphData(cp2, Weight((12, 6, 3)))
        assert od1.theta("p2", "p3") == od2.theta("p2", "p3")


def canonical_paths(od, p, q):
    """The canonical paths p -> q, read off the ledger of the vertex-class
    path sum, which lists every one of them."""
    classes = {v: od.graph.moment for v in od.graph.ids}
    return [t.path for t in restriction_vertex_classes(od, p, q, classes)[1]]


class TestPaths:
    def test_canonical_graph_single_chain(self, cp2_oriented):
        assert canonical_paths(cp2_oriented, "p1", "p3") == [("p1", "p2", "p3")]

    def test_empty_path(self, cp2_oriented):
        assert canonical_paths(cp2_oriented, "p2", "p2") == [("p2",)]

    def test_descending_pair_empty(self, cp2_oriented):
        assert enumerate_paths(cp2_oriented, "p3", "p1") == []

    def test_ascending_paths_on_graph(self, cp2_oriented):
        paths = enumerate_paths(cp2_oriented, "p1", "p3")
        assert sorted(paths) == [("p1", "p2", "p3"), ("p1", "p3")]


class TestSerialization:
    def test_json_roundtrip(self, cp2):
        data = cp2.to_json()
        g2 = GkmGraph.from_json(json.dumps(data))
        assert g2.to_json() == data

    def test_mirror_synthesis(self):
        data = {
            "rank": 2,
            "vertices": [{"id": "a", "moment": ["0", "0"]},
                         {"id": "b", "moment": ["1", "-1"]}],
            "edges": [{"src": "a", "dst": "b", "weight": ["1", "-1"]}],
        }
        g = GkmGraph.from_json(data)
        assert g.edge_weight("b", "a") == Weight((-1, 1))

    def test_malformed_rejected(self):
        with pytest.raises(GraphFormatError):
            GkmGraph.from_json({"rank": 2, "vertices": [], "edges": "nope"})

    def test_zero_denominator_rejected(self):
        data = {"rank": 1, "vertices": [{"id": "a", "moment": ["1/0"]}], "edges": []}
        with pytest.raises(GraphFormatError):
            GkmGraph.from_json(data)

    def test_dot_export_counts(self, cp2_oriented):
        dot = export_dot(cp2_oriented)
        assert dot.count("->") == 6
        assert dot.count("lam=") == 3
