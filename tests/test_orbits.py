"""Tests for root systems, Weyl combinatorics, orbit graphs, and the
type-specific engines."""

import itertools
import random
from fractions import Fraction

import pytest

from gkmrest.canonical import brute_solve_canonical, table_single_form
from gkmrest.errors import GraphFormatError, ThetaNotOne
from gkmrest.exact import Weight, pair, parse_poly
from gkmrest.gkm import magnitude, validate_gkm
from gkmrest.orbits import (
    Orbit,
    OrbitSpec,
    PathClassification,
    RootSystem,
    SignedPerm,
    build_orbit_gkm,
    canonical_graph_orbit,
    classify_base_path,
    classify_paths_B,
    factor_distinct_positive_roots,
    formula_An,
    formula_Bn,
    formula_Cn,
    formula_Dn,
    lift_path,
    pairing_check,
    reduced_words,
    reflection_word_endpoint,
    relevant_path_terms,
    typed_restriction,
    typed_table,
    weyl_length,
)


@pytest.fixture(scope="module")
def b2():
    return Orbit(OrbitSpec("B", 2))


@pytest.fixture(scope="module")
def a2():
    return Orbit(OrbitSpec("A", 2))


@pytest.fixture(scope="module")
def c2():
    return Orbit(OrbitSpec("C", 2))


class TestSignedPerm:
    def test_string_roundtrip(self):
        for text in ("2,-1,3", "1,2", "-1"):
            assert str(SignedPerm.from_string(text)) == text

    def test_action(self):
        tau = SignedPerm((-2, 1))
        # x1 -> -x2, x2 -> x1
        assert tau.act(Weight((1, 0))) == Weight((0, -1))
        assert tau.act(Weight((0, 1))) == Weight((1, 0))

    def test_mul_matches_composed_action(self):
        rng = random.Random(1)
        for _ in range(30):
            n = rng.randint(1, 4)
            def rand_perm():
                vals = list(range(1, n + 1))
                rng.shuffle(vals)
                return SignedPerm([v * rng.choice((1, -1)) for v in vals])
            a, b = rand_perm(), rand_perm()
            v = Weight([rng.randint(-3, 3) for _ in range(n)])
            assert (a * b).act(v) == a.act(b.act(v))
            assert (a * a.inverse()).word == SignedPerm.identity(n).word

    def test_invalid(self):
        with pytest.raises(GraphFormatError):
            SignedPerm((1, 1))


class TestRootSystem:
    def test_counts(self):
        assert len(RootSystem("A", 3).positive_roots) == 6
        assert len(RootSystem("B", 3).positive_roots) == 9
        assert len(RootSystem("C", 3).positive_roots) == 9
        assert len(RootSystem("D", 4).positive_roots) == 12

    def test_simple_roots(self):
        rs = RootSystem("C", 2)
        assert rs.simple_roots == (Weight((1, -1)), Weight((0, 2)))
        rs = RootSystem("D", 3)
        assert rs.simple_roots[-1] == Weight((0, 1, 1))

    def test_reflections_fix_root_pairing(self):
        for ctype, rank in (("A", 2), ("B", 2), ("C", 3), ("D", 3)):
            rs = RootSystem(ctype, rank)
            for root in rs.positive_roots:
                s = rs.reflection_perm(root)
                assert s.act(root) == -root
                assert (s * s).word == SignedPerm.identity(rs.ambient).word


class TestWeylLength:
    def test_identity(self):
        rs = RootSystem("A", 2)
        assert weyl_length(rs, SignedPerm.identity(3)) == 0
        assert reduced_words(rs, SignedPerm.identity(3)) == [()]

    def test_a2_longest(self):
        rs = RootSystem("A", 2)
        w0 = SignedPerm((3, 2, 1))
        assert weyl_length(rs, w0) == 3
        words = reduced_words(rs, w0)
        assert len(words) == 2
        # brute oracle: both words multiply to w0 and no shorter word does
        for word in words:
            prod = SignedPerm.identity(3)
            for i in word:
                prod = prod * rs.simple_perms[i]
            assert prod == w0

    def test_length_vs_root_sign(self):
        # l(w s_beta) > l(w) exactly when w(beta) is positive
        for ctype, rank in (("A", 2), ("A", 3), ("B", 2), ("C", 2), ("D", 3)):
            orbit = Orbit(OrbitSpec(ctype, rank))
            rs = orbit.rs
            for w in orbit.elements:
                for beta in rs.positive_roots:
                    u = w * rs.reflection_perm(beta)
                    up = weyl_length(rs, u) > weyl_length(rs, w)
                    assert up == rs.is_positive(w.act(beta))

    def test_reduced_word_count_oracle(self):
        # exhaustively multiply all words of minimal length on B2
        rs = RootSystem("B", 2)
        w = SignedPerm((-2, 1))
        target_len = weyl_length(rs, w)
        found = []
        for word in itertools.product(range(2), repeat=target_len):
            prod = SignedPerm.identity(2)
            for i in word:
                prod = prod * rs.simple_perms[i]
            if prod == w:
                found.append(word)
        assert sorted(found) == reduced_words(rs, w)


class TestOrbitGraphs:
    def test_a1_smallest(self):
        g = build_orbit_gkm(OrbitSpec("A", 1))
        assert len(g.ids) == 2
        assert len(g.weights) == 2
        (src, dst), w = next(iter(g.weights.items()))
        assert w in (Weight((1, -1)), Weight((-1, 1)))

    def test_valid_gkm(self):
        for ctype, rank in (("A", 2), ("B", 2), ("C", 2), ("D", 3)):
            g = build_orbit_gkm(OrbitSpec(ctype, rank))
            assert validate_gkm(g).ok, f"{ctype}{rank}"

    def test_b_base_vertices_and_order(self):
        # rank-one level of a B orbit: 2n points on the axes, ascending
        # -x1, ..., -xn, xn, ..., x1
        spec = OrbitSpec("B", 3)
        orbit = Orbit(spec)
        base = orbit.base_od()
        order = sorted(base.graph.ids, key=lambda v: base.phi[v])
        assert order == ["-1,0,0", "0,-1,0", "0,0,-1", "0,0,1", "0,1,0", "1,0,0"]

    def test_b1_magnitude_two(self):
        base = Orbit(OrbitSpec("B", 1)).od
        assert magnitude(base.graph, "-1", "1") == 2

    def test_d_base_no_axis_edges(self):
        spec = OrbitSpec("D", 3)
        g = build_orbit_gkm(spec, 1)
        assert not g.has_edge("-1,0,0", "1,0,0")
        mags = {magnitude(g, s, d) for (s, d) in g.weights}
        assert mags == {Fraction(1)}

    def test_orbit_phi_minimum_at_mu(self, b2):
        ids = b2.od.graph.ids
        mn = min(ids, key=lambda v: b2.od.phi[v])
        assert mn == b2.vid_of[SignedPerm.identity(2).word]


class TestCanonicalGraphOrbit:
    def test_a2_counts(self, a2):
        cg = canonical_graph_orbit(a2)
        assert len(cg.ids) == 6
        assert len(cg.labels) == 8

    def test_labels_are_positive_root_reciprocals(self, a2):
        cg = canonical_graph_orbit(a2)
        for (src, dst), label in cg.labels.items():
            assert label.scalar != 0 and len(label.den) == 1
            eta = a2.od.graph.edge_weight(src, dst)
            assert pair(eta, a2.xi) > 0

    def test_lambda_equals_length(self):
        for ctype, rank in (("A", 2), ("B", 2), ("C", 2), ("D", 3), ("A", 3)):
            orbit = Orbit(OrbitSpec(ctype, rank))
            for w in orbit.elements:
                assert orbit.od.lam[orbit.vid_of[w.word]] == orbit.length[w.word]

    def test_theta_one_small(self, b2, c2):
        for orbit in (b2, c2):
            canonical_graph_orbit(orbit, verify_theta=True)

    def test_poincare_palindromic(self):
        for ctype, rank in (("A", 3), ("B", 2), ("C", 3), ("D", 3)):
            orbit = Orbit(OrbitSpec(ctype, rank))
            counts = {}
            for v in orbit.od.graph.ids:
                counts[orbit.od.lam[v]] = counts.get(orbit.od.lam[v], 0) + 1
            top = max(counts)
            assert all(counts[k] == counts[top - k] for k in counts)


class TestTypedAC:
    def test_diagonal(self, a2):
        for w in a2.elements:
            val, ledger = formula_An(a2, w, w)
            assert len(ledger) == 1 and ledger[0].path[0] == ledger[0].path[-1]
            assert val == a2.od.lambda_minus(a2.vid_of[w.word])

    def test_a2_table_matches_oracles(self, a2):
        gz = table_single_form(a2.od)
        br = brute_solve_canonical(a2.od)
        for wp in a2.elements:
            for wq in a2.elements:
                val, _ = formula_An(a2, wp, wq)
                p, q = a2.vertex(wp), a2.vertex(wq)
                assert val == gz.get(p, q) == br.get(p, q)

    def test_c2_table_and_certificates(self, c2):
        br = brute_solve_canonical(c2.od)
        for wp in c2.elements:
            for wq in c2.elements:
                val, ledger = formula_Cn(c2, wp, wq)
                assert val == br.get(c2.vertex(wp), c2.vertex(wq))
                for t in ledger:
                    assert factor_distinct_positive_roots(c2.rs, t.value) == 1

    def test_wrong_type_rejected(self, b2):
        with pytest.raises(GraphFormatError):
            formula_An(b2, "-2,-1", "-2,1")

    def test_bruhat_vanishing(self, c2):
        for wp in c2.elements:
            for wq in c2.elements:
                val, _ = formula_Cn(c2, wp, wq)
                assert (not val.is_zero()) == c2.bruhat_leq(wp, wq)


class TestLiftAndClassify:
    def test_lift_worked_example(self, b2):
        # base path -x1 -> x2 -> x1 lifted from -2x1+x2 ends at 2x1-x2
        lifted = lift_path(b2, "-2,1", ["-1,0", "0,1", "1,0"])
        assert lifted == ("-2,1", "-1,2", "2,-1")

    def test_length_zero(self, b2):
        assert lift_path(b2, "-2,1", ["-1,0"]) == ("-2,1",)

    def test_reflection_product_endpoint(self, b2, c2):
        from gkmrest.gkm import enumerate_paths
        for orbit in (b2, c2):
            base = orbit.base_od()
            ids = base.graph.ids
            for a in ids:
                for bb in ids:
                    for bp in enumerate_paths(base, a, bb, ascending_only=True):
                        for w in orbit.elements:
                            start = orbit.vid_of[w.word]
                            if orbit.base_fibration().vertex_map[start] != bp[0]:
                                continue
                            lifted = lift_path(orbit, start, bp)
                            assert lifted[-1] == reflection_word_endpoint(
                                orbit, start, bp)

    def test_classification_worked_example(self, b2):
        # gamma1 = (-x1, x2, x1): incomplete, k = 1, relevant
        c1 = classify_base_path(b2, ("-1,0", "0,1", "1,0"))
        assert (c1.complete, c1.k, c1.relevant) == (False, 1, True)
        # gamma2 = (-x1, -x2, x1): incomplete and not relevant
        c2_ = classify_base_path(b2, ("-1,0", "0,-1", "1,0"))
        assert (c2_.complete, c2_.k, c2_.relevant) == (False, 1, False)
        # gamma3 = (-x1, -x2, x2, x1): complete (hops across the x2 axis)
        c3 = classify_base_path(b2, ("-1,0", "0,-1", "0,1", "1,0"))
        assert c3.complete and c3.relevant

    def test_classify_paths_wrapper(self, b2):
        out = classify_paths_B(b2, [("-1,0", "0,1", "1,0")])
        assert isinstance(out[0], PathClassification)
        with pytest.raises(GraphFormatError):
            classify_paths_B(Orbit(OrbitSpec("C", 2)), [])


class TestTypedBD:
    def test_b2_worked_example_value(self, b2):
        assert formula_Bn(b2, "-2,1", "2,1") == parse_poly("x1 + x2", 2)

    def test_b2_full_table(self, b2):
        br = brute_solve_canonical(b2.od)
        tt = typed_table(b2)
        assert tt.entries == br.entries

    def test_b2_q_certificates(self, b2):
        consts = set()
        for w in b2.elements:
            for bvid in b2.base_od().graph.ids:
                for _, _, term in relevant_path_terms(b2, b2.vid_of[w.word], bvid):
                    consts.add(factor_distinct_positive_roots(b2.rs, term))
        assert consts <= {1, 2}

    def test_d3_routes_through_a3(self):
        orbit = Orbit(OrbitSpec("D", 3))
        gz = table_single_form(orbit.od)
        for p in orbit.od.graph.ids:
            for q in orbit.od.graph.ids:
                assert formula_Dn(orbit, p, q) == gz.get(p, q)

    def test_d_rank2_rejected(self):
        orbit = Orbit(OrbitSpec("D", 2))
        with pytest.raises(GraphFormatError):
            formula_Dn(orbit, orbit.od.graph.ids[0], orbit.od.graph.ids[0])

    def test_d4_spot_pairs(self):
        orbit = Orbit(OrbitSpec("D", 4))
        rng = random.Random(17)
        ids = orbit.od.graph.ids
        pairs = [(rng.choice(ids), rng.choice(ids)) for _ in range(10)]
        from gkmrest.canonical import brute_row
        rows = {}
        for p, q in pairs:
            if p not in rows:
                rows[p] = brute_row(orbit.od, p)
            assert typed_restriction(orbit, p, q) == rows[p][q]


class TestPairing:
    def test_b2_worked_example_pair(self, b2):
        rep = pairing_check(b2, "2,-1")
        assert not rep["failures"]
        assert rep["pairs"] == 1
        # the relevant member's corrected value is x1
        terms = relevant_path_terms(b2, "-2,1", "1,0")
        incomplete = [t for s, cls, t in terms if not cls.complete and s == "2,-1"]
        assert len(incomplete) == 1
        assert incomplete[0].to_poly() == parse_poly("x1", 2)

    def test_complete_paths_unpaired(self, b2):
        rep = pairing_check(b2, b2.vertex(SignedPerm((-1, -2))))
        assert not rep["failures"]


class TestSlotMatchesTowerLevel:
    def test_one_line_h_equals_tower_h(self):
        """The first differing one-line slot of a cover equals the first
        tower level separating its endpoints."""
        from gkmrest.fibration import tower_h_function
        for ctype, rank in (("A", 2), ("A", 3), ("C", 2)):
            orbit = Orbit(OrbitSpec(ctype, rank))
            h = tower_h_function(orbit.od, orbit.tower())
            for w in orbit.elements:
                for u, _, slot in orbit.covers_up(w):
                    edge = (orbit.vid_of[w.word], orbit.vid_of[u.word])
                    assert h[edge] == slot


class TestMuInvariance:
    def test_a2_tables_equal_for_two_mus(self):
        o1 = Orbit(OrbitSpec("A", 2))
        o2 = Orbit(OrbitSpec("A", 2, mu=[-5, -1, 6]))
        t1, t2 = typed_table(o1), typed_table(o2)
        for wp in o1.elements:
            for wq in o1.elements:
                assert t1.get(o1.vertex(wp), o1.vertex(wq)) == \
                    t2.get(o2.vertex(wp), o2.vertex(wq))

    def test_invalid_mu_rejected(self):
        with pytest.raises(GraphFormatError):
            OrbitSpec("A", 2, mu=[0, 0, 0])
        with pytest.raises(GraphFormatError):
            OrbitSpec("B", 2, mu=[-1, -2])
        with pytest.raises(GraphFormatError):
            OrbitSpec("B", 2, mu=[-2, 1])

    def test_non_numeric_mu_rejected(self):
        with pytest.raises(GraphFormatError):
            OrbitSpec("A", 2, mu=["a", "b", "c"])
        with pytest.raises(GraphFormatError):
            OrbitSpec("B", 2, mu=["1/0", "2"])


class TestThetaNotOneDiagnostic:
    def test_error_type_exists(self):
        # the diagnostic cannot fire on a genuine orbit; fabricate by
        # monkeypatching the scalar cache
        orbit = Orbit(OrbitSpec("A", 1))
        edge = next(iter(canonical_graph_orbit(orbit, verify_theta=False).labels))
        orbit.od._theta_cache[edge] = Fraction(2)
        with pytest.raises(ThetaNotOne):
            canonical_graph_orbit(orbit, verify_theta=True)
