"""Tests for the restriction engines on small reference graphs."""

import json
from fractions import Fraction

import pytest

from gkmrest.canonical import (
    adjacent_restriction,
    brute_row,
    certify_table,
    restriction_ordered,
    restriction_vertex_classes,
    single_form_column,
    structure_constants,
    verify_tech,
    RestrictionTable,
)
from gkmrest.errors import GraphFormatError, NoSolution
from gkmrest.exact import Poly, Weight
from gkmrest.gkm import GkmGraph, OrientedGraphData
from gkmrest.oracle import engine_entries, oriented_graph

from conftest import projective_space_graph, restriction_table
from reference import parse_poly


def moment_classes(od):
    """The moment map as a single ordered class list."""
    return [dict(od.graph.moment)]


def moment_per_vertex(od):
    w = dict(od.graph.moment)
    return {v: w for v in od.graph.ids}


@pytest.fixture
def square_od():
    # product of two spheres: 4 fixed points, valence 2
    verts = [("a", Weight((0, 0))), ("b", Weight((1, 0))),
             ("c", Weight((0, 1))), ("d", Weight((1, 1)))]
    edges = [("a", "b", Weight((1, 0))), ("c", "d", Weight((1, 0))),
             ("a", "c", Weight((0, 1))), ("b", "d", Weight((0, 1)))]
    return OrientedGraphData(GkmGraph(2, verts, edges), Weight((1, 2)))


class TestAdjacent:
    def test_cp1_unit(self, cp1_oriented):
        assert adjacent_restriction(cp1_oriented, "p1", "p2") == Poly.const(2, 1)

    def test_non_edge_zero(self):
        # cube graph (product of three spheres): 100 and 011 differ in all
        # three bits, so they are not adjacent, yet their indices differ by 1
        verts, edges = [], []
        for bits in range(8):
            v = format(bits, "03b")
            verts.append((v, Weight([int(b) for b in v])))
        for bits in range(8):
            v = format(bits, "03b")
            for i in range(3):
                u = format(bits ^ (1 << (2 - i)), "03b")
                if v[i] == "0":
                    w = [0, 0, 0]
                    w[i] = 1
                    edges.append((v, u, Weight(w)))
        od = OrientedGraphData(GkmGraph(3, verts, edges), Weight((1, 2, 4)))
        assert od.lam["100"] == 1 and od.lam["011"] == 2
        assert adjacent_restriction(od, "100", "011").is_zero()

    def test_cp2_edge(self, cp2_oriented):
        got = adjacent_restriction(cp2_oriented, "p2", "p3")
        assert got == parse_poly("x1 - x3", 3)


class TestSingleForm:
    def test_diagonal(self, cp2_oriented):
        od = cp2_oriented
        for p in od.graph.ids:
            assert single_form_column(od, p)[p] == od.lambda_minus(p)

    def test_lower_index_zero(self, cp2_oriented):
        assert single_form_column(cp2_oriented, "p1")["p3"].is_zero()
        assert single_form_column(cp2_oriented, "p1")["p2"].is_zero()

    def test_cp2_table(self, cp2_oriented):
        od = cp2_oriented
        tab = restriction_table(od)
        one = Poly.const(3, 1)
        assert tab.get("p1", "p1") == one
        assert tab.get("p1", "p2") == one
        assert tab.get("p1", "p3") == one
        assert tab.get("p2", "p3") == parse_poly("x1 - x3", 3)

    def test_requires_index_increasing(self):
        verts = [("u", Weight((0, 0))), ("v", Weight((1, 0))),
                 ("w", Weight((3, 0)))]
        edges = [("u", "v", Weight((1, 0))), ("v", "w", Weight((1, 0)))]
        od = OrientedGraphData(GkmGraph(2, verts, edges), Weight((1, 1)))
        with pytest.raises(GraphFormatError):
            single_form_column(od, "w")["u"]


class TestBrute:
    def test_cp1_matches_adjacent(self, cp1_oriented):
        od = cp1_oriented
        tab = restriction_table(od, "brute")
        assert tab.get("p1", "p2") == adjacent_restriction(od, "p1", "p2")
        assert tab.get("p1", "p1") == Poly.const(2, 1)

    def test_diagonal_is_downward_product(self, cp2_oriented, square_od):
        for od in (cp2_oriented, square_od):
            tab = restriction_table(od, "brute")
            for p in od.graph.ids:
                assert tab.get(p, p) == od.lambda_minus(p)

    def test_agrees_with_single_form(self, cp2_oriented, square_od):
        for od in (cp2_oriented, square_od):
            brute = restriction_table(od, "brute")
            dp = restriction_table(od)
            assert brute.entries == dp.entries

    def test_cp3_agreement(self):
        g = projective_space_graph(3)
        od = OrientedGraphData(g, Weight((8, 4, 2, 1)))
        assert restriction_table(od, "brute").entries == restriction_table(od).entries

    def test_detects_corrupt_input(self):
        # v and w share index 1 with an ascending edge between them, so the
        # forced vanishing at w contradicts the congruence along (v, w)
        verts = [("u", Weight((0, 0))), ("v", Weight((1, 0))),
                 ("w", Weight((1, 3)))]
        edges = [("u", "v", Weight((1, 0))), ("v", "w", Weight((0, 1)))]
        od = OrientedGraphData(GkmGraph(2, verts, edges), Weight((1, 1)))
        assert od.lam["v"] == od.lam["w"] == 1
        with pytest.raises(NoSolution) as exc:
            brute_row(od, "v")
        assert str(exc.value) == "imposed value at w violates the congruence along (w,...)"

    # Each graph makes the congruence solver fail at v, the top vertex, in
    # the row of p; the messages are pinned verbatim.
    BROKEN_ROWS = {
        # p (value x1) and r (value 0) meet v along proportional weights
        "dependent": (
            2, Weight((1, 3)),
            [("a", (0, 0)), ("p", (1, 0)), ("r", (1, Fraction(1, 2))), ("v", (1, 1))],
            [("a", "p", (1, 0)), ("p", "v", (0, 1)), ("r", "v", (0, 2))],
            "dependent congruence directions"),
        # two minima below v: the constant row of p would have to drop to 0
        "negative degree": (
            2, Weight((1, 3)),
            [("p", (0, 0)), ("r", (1, -1)), ("v", (1, 0))],
            [("p", "v", (1, 0)), ("r", "v", (0, 1))],
            "correction term would need negative degree"),
        # x1 on the hyperplane x3 = 0 is not a multiple of x2
        "inconsistent": (
            3, Weight((1, 3, 9)),
            [("a", (0, 0, 0)), ("p", (1, 0, 0)), ("r", (1, 1, -1)), ("v", (1, 1, 0))],
            [("a", "p", (1, 0, 0)), ("p", "v", (0, 1, 0)), ("r", "v", (0, 0, 1))],
            "congruences are inconsistent: not divisible by linear form x2"),
        # lambda_p = x2*(x2 + x3); at s the correction -x2^2 must be a
        # multiple of x1*x2 on the hyperplane x3 = 0, and x1 divides it first
        "inconsistent, two factors": (
            3, Weight((1, 3, 9)),
            [("a1", (0, -1, 0)), ("a2", (0, -1, -1)), ("p", (0, 0, 0)),
             ("r", (1, -1, 0)), ("s", (1, 0, -1)), ("v", (1, 0, 0))],
            [("a1", "p", (0, 1, 0)), ("a2", "p", (0, 1, 1)), ("p", "v", (1, 0, 0)),
             ("r", "v", (0, 1, 0)), ("s", "v", (0, 0, 1))],
            "congruences are inconsistent: not divisible by linear form x1"),
    }

    @pytest.mark.parametrize("case", sorted(BROKEN_ROWS))
    def test_congruence_failure_messages(self, case):
        rank, xi, verts, edges, message = self.BROKEN_ROWS[case]
        g = GkmGraph(rank, [(v, Weight(m)) for v, m in verts],
                     [(a, b, Weight(w)) for a, b, w in edges])
        with pytest.raises(NoSolution) as exc:
            brute_row(OrientedGraphData(g, xi), "p")
        assert str(exc.value) == message

    def test_congruence_products(self):
        """Per lower neighbour of v, the earlier edge weights at v
        restricted to its own (None for a proportional pair) and their
        unrestricted product, memoised."""
        want = {"dependent": (((), Poly.const(2, 1)), (None, parse_poly("x2", 2))),
                "inconsistent": (((), Poly.const(3, 1)),
                                 ((Weight((0, 1, 0)),), parse_poly("x2", 3)))}
        for case, products in want.items():
            rank, xi, verts, edges, _ = self.BROKEN_ROWS[case]
            g = GkmGraph(rank, [(v, Weight(m)) for v, m in verts],
                         [(a, b, Weight(w)) for a, b, w in edges])
            od = OrientedGraphData(g, xi)
            assert od.lower_adj["v"] == ("p", "r")
            assert od.congruence_products("v") == products
            assert od.congruence_products("v") is od.congruence_products("v")

    @pytest.mark.parametrize("name", ["A3", "B3", "C3", "CP2xCP3"])
    def test_no_general_division(self, name, monkeypatch):
        """The solver divides by each restricted form through div_weight:
        a brute table calls neither div_exact nor _div_general."""
        from conftest import product_of_projective_spaces
        from gkmrest.gkm import choose_generic_xi
        from gkmrest.orbits import Orbit, OrbitSpec
        if name == "CP2xCP3":
            g = product_of_projective_spaces(2, 3)
            target = OrientedGraphData(g, choose_generic_xi(g))
        else:
            target = Orbit(OrbitSpec(name[0], int(name[1])))
        calls = []
        for attr in ("div_exact", "_div_general"):
            def counted(self, d, _attr=attr, _original=getattr(Poly, attr)):
                calls.append(_attr)
                return _original(self, d)
            monkeypatch.setattr(Poly, attr, counted)
        entries = engine_entries(target, "brute")
        assert calls == []
        # the counters see a division by a product of two forms
        x1x2 = parse_poly("x1*x2", 2)
        assert (x1x2 * x1x2).div_exact(x1x2) == x1x2
        assert calls == ["div_exact", "_div_general"]
        ids = oriented_graph(target).graph.ids
        assert len(entries) == len(ids) ** 2


class TestVertexClassSum:
    def test_two_path_sum_matches_brute_on_cp2(self, cp2_oriented):
        od = cp2_oriented
        brute = restriction_table(od, "brute")
        for p in od.graph.ids:
            for q in od.graph.ids:
                got, _ = restriction_vertex_classes(od, p, q, moment_per_vertex(od))
                assert got == brute.get(p, q)

    def test_ledger_lists_paths(self, cp2_oriented):
        od = cp2_oriented
        _, ledger = restriction_vertex_classes(od, "p1", "p3", moment_per_vertex(od))
        assert [t.path for t in ledger] == [("p1", "p2", "p3")]


class TestWeightClassAssignment:
    """The two forms of class input: an ordered list, or one class per
    vertex."""

    def test_both_modes(self, cp2_oriented):
        od = cp2_oriented
        w = dict(od.graph.moment)
        ordered = [w]
        per_vertex = {v: w for v in od.graph.ids}
        for p in od.graph.ids:
            for q in od.graph.ids:
                expect = single_form_column(od, q)[p]
                assert restriction_ordered(od, p, q, ordered)[0] == expect
                assert restriction_vertex_classes(od, p, q, per_vertex)[0] == expect
        assert verify_tech(od, ordered, restriction_table(od))


class TestOrdered:
    def test_single_moment_class_degenerates_to_single_form(self, cp2_oriented, square_od):
        for od in (cp2_oriented, square_od):
            classes = moment_classes(od)
            for p in od.graph.ids:
                for q in od.graph.ids:
                    got, ledger = restriction_ordered(od, p, q, classes)
                    assert got == single_form_column(od, q)[p]
        # with one class every path is monotone, so the ledger is all of
        # Sigma(p, q)

    def test_tech_holds_for_moment(self, cp2_oriented):
        od = cp2_oriented
        tab = restriction_table(od)
        assert verify_tech(od, moment_classes(od), tab)

    def test_tech_fails_for_reversed_moment(self, cp2_oriented):
        od = cp2_oriented
        tab = restriction_table(od)
        reversed_moment = {v: -od.graph.moment[v] for v in od.graph.ids}
        assert not verify_tech(od, [reversed_moment], tab)


class TestCertify:
    def test_pass_on_computed_tables(self, cp2_oriented, square_od):
        for od in (cp2_oriented, square_od):
            cert = certify_table(od, restriction_table(od))
            assert cert.ok, str(cert)

    def test_detects_injected_fault(self, cp2_oriented):
        od = cp2_oriented
        tab = restriction_table(od)
        bad = dict(tab.entries)
        bad[("p2", "p3")] = bad[("p2", "p3")] + Poly.const(3, 1)
        cert = certify_table(od, RestrictionTable(od, bad))
        assert not cert.ok

    def test_fault_next_to_zero_entry(self):
        # alpha_p(a) = 0 on the edge (a, b), and alpha_p(b) gets x1^2 added:
        # the edge check reads the one nonzero entry.  Count and messages
        # are those of subtracting the two entries on every edge.
        from gkmrest.orbits import Orbit, OrbitSpec
        od = Orbit(OrbitSpec("A", 3)).od
        tab = restriction_table(od)
        p, a, b = "-2,-3,6,-1", "-1,-2,-3,6", "-1,-2,6,-3"
        assert od.graph.has_edge(a, b) and tab.get(p, a).is_zero()
        bad = dict(tab.entries)
        bad[(p, b)] = tab.get(p, b) + parse_poly("x1^2", 4)
        cert = certify_table(od, RestrictionTable(od, bad))
        assert cert.checks == 2316
        tail = "not divisible by edge weight"
        assert cert.failures == [
            f"alpha_{p}(-1,-2,6,-3) - alpha_{p}(-3,-2,6,-1) {tail}",
            f"alpha_{p}(-1,-2,6,-3) - alpha_{p}(-1,-2,-3,6) {tail}",
            f"alpha_{p}(-1,-2,6,-3) - alpha_{p}(-2,-1,6,-3) {tail}",
            f"alpha_{p}(-1,-2,6,-3) - alpha_{p}(-1,-3,6,-2) {tail}",
            f"alpha_{p}(6,-2,-1,-3) - alpha_{p}(-1,-2,6,-3) {tail}",
            f"alpha_{p}(-1,6,-2,-3) - alpha_{p}(-1,-2,6,-3) {tail}",
        ]
        assert certify_table(od, tab).checks == 2316

    def test_minimum_row_is_all_ones(self, cp2_oriented):
        od = cp2_oriented
        tab = restriction_table(od)
        for q in od.graph.ids:
            assert tab.get("p1", q) == Poly.const(3, 1)


class TestStructureConstants:
    def test_minimum_gives_delta(self, cp2_oriented):
        od = cp2_oriented
        tab = restriction_table(od)
        c = structure_constants(od, tab, "p1", "p2")
        assert c["p2"] == Poly.const(3, 1)
        assert c["p1"].is_zero() and c["p3"].is_zero()

    def test_cp2_square_of_middle(self, cp2_oriented):
        od = cp2_oriented
        tab = restriction_table(od)
        c = structure_constants(od, tab, "p2", "p2")
        # forced by evaluating alpha_{p2}^2 = sum_r c^r alpha_r at the
        # fixed points in increasing phi order
        assert c["p1"].is_zero()
        assert c["p2"] == parse_poly("x1 - x2", 3)
        assert c["p3"] == Poly.const(3, 1)

    def test_expansion_identity(self, square_od):
        od = square_od
        tab = restriction_table(od)
        ids = od.graph.ids
        for p in ids:
            for q in ids:
                c = structure_constants(od, tab, p, q)
                for v in ids:
                    lhs = tab.get(p, v) * tab.get(q, v)
                    rhs = Poly.zero(2)
                    for r in ids:
                        rhs = rhs + c[r] * tab.get(r, v)
                    assert lhs == rhs

    def test_degree_bound(self, cp2_oriented):
        od = cp2_oriented
        tab = restriction_table(od)
        c = structure_constants(od, tab, "p2", "p3")
        for r, poly in c.items():
            if not poly.is_zero():
                d = od.lam["p2"] + od.lam["p3"] - od.lam[r]
                assert d >= 0 and poly.degree() == d


class TestTwistedEdgeScalar:
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_engines_agree_with_nonunit_theta(self, k):
        """A 4-cycle whose top edges carry edge scalar k: the dynamic
        program multiplies the scalar in, the congruence solver never sees
        it, and both must land on the same table."""
        verts = [("s", Weight((0, 0))), ("p", Weight((k, 1))),
                 ("r", Weight((1, k + 1))), ("q", Weight((k, k + 1)))]
        edges = [("s", "p", Weight((k, 1))), ("p", "q", Weight((0, 1))),
                 ("s", "r", Weight((1, k + 1))), ("r", "q", Weight((1, 0)))]
        od = OrientedGraphData(GkmGraph(2, verts, edges), Weight((1, 1)))
        assert od.theta("p", "q") == k
        gz = restriction_table(od)
        assert gz.entries == restriction_table(od, "brute").entries
        classes = [dict(od.graph.moment)]
        for a in od.graph.ids:
            for b in od.graph.ids:
                assert restriction_ordered(od, a, b, classes)[0] == gz.get(a, b)
        assert gz.get("p", "q") == parse_poly(f"{k}*x1", 2)
        assert certify_table(od, gz).ok


class TestProductGraphs:
    @pytest.mark.parametrize("dims", [(1, 1), (1, 2), (2, 2), (1, 1, 1)])
    def test_engine_agreement_on_products(self, dims):
        from conftest import product_of_projective_spaces
        from gkmrest.gkm import choose_generic_xi, validate_gkm
        g = product_of_projective_spaces(*dims)
        assert validate_gkm(g).ok
        od = OrientedGraphData(g, choose_generic_xi(g))
        gz = restriction_table(od)
        br = restriction_table(od, "brute")
        assert gz.entries == br.entries
        cert = certify_table(od, gz)
        assert cert.ok, str(cert)

    def test_product_index_is_sum(self):
        from conftest import product_of_projective_spaces
        from gkmrest.gkm import choose_generic_xi
        g = product_of_projective_spaces(2, 1)
        od = OrientedGraphData(g, choose_generic_xi(g))
        tops = sorted(od.lam.values())
        assert tops[-1] == 3 and tops[0] == 0


class TestVanishing:
    def test_zero_without_ascending_path(self, cp2_oriented, square_od):
        from gkmrest.gkm import enumerate_paths
        for od in (cp2_oriented, square_od):
            tab = restriction_table(od)
            for p in od.graph.ids:
                for q in od.graph.ids:
                    if p != q and not enumerate_paths(od, p, q):
                        assert tab.get(p, q).is_zero()


class TestTableSerialization:
    def test_json_keys(self, cp2_oriented):
        tab = restriction_table(cp2_oriented)
        data = tab.to_json()
        assert "p1|p3" in data
        assert data["p2|p3"] == parse_poly("x1 - x3", 3).to_json()

    def test_csv_has_flags(self, cp2_oriented):
        csv = restriction_table(cp2_oriented).to_csv()
        assert csv.splitlines()[0].startswith("p,q,lam_p")
        assert "true" in csv

    @pytest.mark.parametrize("name", ["C2", "B3"])
    def test_csv_reads_back_with_orbit_ids(self, name):
        """Orbit ids such as '-1,-2' hold commas; the CSV quotes them."""
        import csv
        from gkmrest.orbits import Orbit, OrbitSpec
        orbit = Orbit(OrbitSpec(name[0], int(name[1])))
        od = orbit.od
        tab = restriction_table(orbit)
        rows = list(csv.reader(tab.to_csv().splitlines()))
        assert rows[0] == ["p", "q", "lam_p", "lam_q", "degree", "terms",
                           "integer_coeffs", "poly"]
        assert len(rows) == 1 + len(od.graph.ids) ** 2
        for row in rows[1:]:
            assert len(row) == 8
            p, q, lam_p, lam_q, _, _, _, poly = row
            assert (int(lam_p), int(lam_q)) == (od.lam[p], od.lam[q])
            assert poly == str(tab.get(p, q))

    @pytest.mark.parametrize("ctype", ["A", "B", "C"])
    def test_json_chunks_match_json_dumps_on_orbits(self, ctype):
        from gkmrest.orbits import Orbit, OrbitSpec
        tab = restriction_table(Orbit(OrbitSpec(ctype, 3)).od)
        assert "".join(tab.json_chunks()) == json.dumps(tab.to_json(), sort_keys=True)

    def test_json_chunks_escape_ids_and_write_fractions(self):
        # ids that json.dumps escapes, zero entries and non-integral
        # coefficients; the keys of q"1 sort before those of q, against
        # the order of the (p, q) pairs
        ids = ("q", 'q"1', "é")
        verts = [(v, Weight((i, 0))) for i, v in enumerate(ids)]
        edges = [(ids[0], ids[1], Weight((1, 0))), (ids[1], ids[2], Weight((1, 0)))]
        od = OrientedGraphData(GkmGraph(2, verts, edges), Weight((1, 1)))
        values = [Poly.zero(2), parse_poly("1/2*x1^2 - 3*x1*x2 + 7/3", 2),
                  Poly.const(2, Fraction(-5, 4)), parse_poly("x2", 2)]
        entries = {(p, q): values[(i + 2 * j) % len(values)]
                   for i, p in enumerate(ids) for j, q in enumerate(ids)}
        for tab in (RestrictionTable(od, entries), RestrictionTable(od, {})):
            text = "".join(tab.json_chunks())
            assert text == json.dumps(tab.to_json(), sort_keys=True)
            assert json.loads(text) == tab.to_json()
        assert "\\u00e9" in "".join(RestrictionTable(od, entries).json_chunks())
