"""Tests for towers, the h-filter, base-path terms, and fiber
decomposition, mostly on small orbit graphs."""

from fractions import Fraction

import pytest

from gkmrest.canonical import restriction_vertex_classes, single_form_column
from gkmrest.errors import (
    GraphFormatError,
    WeightNotPreserved,
)
from gkmrest.exact import LinFrac, Poly, Weight
from gkmrest.fibration import (
    FibrationSpec,
    TowerLevel,
    TowerSpec,
    check_weight_preserving,
    defining_base_term,
    explicit_P,
    fiber_decomposition,
    horizontal_paths,
    skipped_vertices,
    tower_h_function,
    tower_restriction,
)

from gkmrest.orbits import Orbit, OrbitSpec, classify_base_path

from conftest import restriction_table
from reference import parse_poly


@pytest.fixture(scope="module")
def a2():
    return Orbit(OrbitSpec("A", 2))


@pytest.fixture(scope="module")
def b2():
    return Orbit(OrbitSpec("B", 2))


def identity_tower(od) -> TowerSpec:
    ids = od.graph.ids
    return TowerSpec([TowerLevel(projection={v: v for v in ids},
                                 moment=dict(od.graph.moment))])


class TestTowerSpec:
    def test_orbit_tower_validates(self, a2, b2):
        for orbit in (a2, b2):
            orbit.tower().validate(orbit.od)

    def test_top_level_must_be_identity(self, a2):
        tw = a2.tower()
        bad = TowerSpec(tw.levels[:-1])
        with pytest.raises(GraphFormatError):
            bad.validate(a2.od)

    def test_fibers_must_refine(self, a2):
        tw = a2.tower()
        # swapping level order breaks refinement
        bad = TowerSpec([tw.levels[1], tw.levels[0], tw.levels[1]])
        with pytest.raises(GraphFormatError):
            bad.validate(a2.od)


class TestTowerRestriction:
    def test_identity_tower_reduces_to_single_form(self, a2):
        tw = identity_tower(a2.od)
        ids = a2.od.graph.ids
        for p in ids:
            for q in ids:
                val, _ = tower_restriction(a2.od, tw, p, q)
                assert val == single_form_column(a2.od, q)[p]

    def test_su3_flag_tower_values_and_reduction(self, a2):
        """The rank-two flag orbit presented through its tower: same
        values, strictly fewer contributing paths somewhere."""
        tw = a2.tower()
        ids = a2.od.graph.ids
        moment = dict(a2.od.graph.moment)
        reduced = False
        for p in ids:
            for q in ids:
                val, ledger = tower_restriction(a2.od, tw, p, q)
                assert val == single_form_column(a2.od, q)[p]
                _, full = restriction_vertex_classes(
                    a2.od, p, q, {v: moment for v in ids})
                assert len(ledger) <= len(full)
                if len(ledger) < len(full):
                    reduced = True
        assert reduced

    def test_no_separating_level(self, a2):
        ids = a2.od.graph.ids
        const = {v: ids[0] for v in ids}
        mom = {v: a2.od.graph.moment[ids[0]] for v in ids}
        tw = TowerSpec([TowerLevel(projection=const, moment=mom),
                        a2.tower().levels[-1]])
        # make the top level non-separating too by collapsing it
        bad = TowerSpec([TowerLevel(projection=const, moment=mom)])
        with pytest.raises(GraphFormatError):
            # top level is not the identity
            tower_restriction(a2.od, bad, ids[0], ids[1])

    def test_weight_not_preserved(self, a2):
        tw = a2.tower()
        h = tower_h_function(a2.od, tw)
        # corrupt one level-one moment value
        lvl1 = tw.levels[0]
        edge = next((a, b) for (a, b), j in h.items() if j == 1)
        mom = dict(lvl1.moment)
        mom[edge[1]] = mom[edge[1]] + Weight((1, 2, 3))
        bad = TowerSpec([TowerLevel(projection=lvl1.projection, moment=mom)]
                        + tw.levels[1:])
        with pytest.raises(WeightNotPreserved):
            check_weight_preserving(a2.od, bad, tower_h_function(a2.od, bad))

    @pytest.mark.parametrize("factor", [-1, 0])
    def test_weight_reversed_or_collapsed(self, a2, factor):
        """Level-one differences that are proportional to the edge weights
        but not by a positive multiple."""
        tw = a2.tower()
        lvl1 = tw.levels[0]
        mom = {v: factor * m for v, m in lvl1.moment.items()}
        bad = TowerSpec([TowerLevel(projection=lvl1.projection, moment=mom)]
                        + tw.levels[1:])
        with pytest.raises(WeightNotPreserved):
            tower_restriction(a2.od, bad, *a2.od.graph.ids[:2])

    def test_class_order_does_not_change_values(self, a2, b2):
        """Any ordering of classes satisfying the vanishing hypothesis
        filters to a possibly different path set with the same sum."""
        import itertools
        from gkmrest.canonical import restriction_ordered
        for orbit in (a2, b2):
            classes = [lvl.moment for lvl in orbit.tower().levels]
            gz = restriction_table(orbit.od)
            ids = orbit.od.graph.ids
            for perm in itertools.permutations(range(len(classes))):
                shuffled = [classes[i] for i in perm]
                for p in ids[:2]:
                    for q in ids:
                        val, _ = restriction_ordered(orbit.od, p, q, shuffled)
                        assert val == gz.get(p, q)

    def test_tower_classes_satisfy_vanishing_hypothesis(self, a2, b2):
        from gkmrest.canonical import verify_tech
        for orbit in (a2, b2):
            classes = [lvl.moment for lvl in orbit.tower().levels]
            table = restriction_table(orbit.od)
            assert verify_tech(orbit.od, classes, table)

    def test_monotone_filter_matches_vertex_class_zeros(self, a2):
        """Paths violating the nondecreasing-level chain contribute zero
        when each vertex uses its first level separating it from q."""
        tw = a2.tower()
        ids = a2.od.graph.ids
        h_edge = tower_h_function(a2.od, tw)
        for q in ids:
            class_of = {}
            for v in ids:
                level = None
                for j, lvl in enumerate(tw.levels, start=1):
                    if lvl.projection[v] != lvl.projection[q]:
                        level = j
                        break
                class_of[v] = tw.levels[(level or len(tw)) - 1].moment
            for p in ids:
                total, ledger = restriction_vertex_classes(a2.od, p, q, class_of)
                assert total == single_form_column(a2.od, q)[p]
                for term in ledger:
                    levels = [h_edge[(a, b)]
                              for a, b in zip(term.path, term.path[1:])]
                    monotone = all(x <= y for x, y in zip(levels, levels[1:]))
                    if not monotone:
                        assert term.value.is_zero()


class TestSkippedVertices:
    def test_b2_worked_example_path(self, b2):
        base = b2.base_od()
        sv = skipped_vertices(base, ("-1,0", "0,1", "1,0"))
        assert sv == {"0,-1"}

    def test_no_skips_when_visiting_everything(self, b2):
        base = b2.base_od()
        sv = skipped_vertices(base, ("-1,0", "0,-1", "0,1", "1,0"))
        assert sv == set()

    def test_length_zero_at_minimum(self, b2):
        base = b2.base_od()
        assert skipped_vertices(base, ("-1,0",)) == set()


class TestBaseTerms:
    def _paths(self, orbit):
        fib = orbit.base_fibration()
        od = orbit.od
        for p in od.graph.ids:
            targets = set(od.graph.ids)
            for s, paths in horizontal_paths(od, fib, p, targets).items():
                for path in paths:
                    if len(path) > 1:
                        yield path, s

    def test_explicit_matches_defining_on_b2(self, b2):
        fib = b2.base_fibration()
        checked = 0
        for path, s in self._paths(b2):
            lhs = defining_base_term(b2.od, fib, path, s)
            rhs = explicit_P(b2.od, fib, path, s)
            assert lhs == rhs, (path, s)
            checked += 1
        assert checked > 10

    def test_precise_constants_b2(self, b2):
        """Complete paths carry constants 1 or 2 over the skipped-vertex
        product; incomplete paths carry 1/2."""
        fib = b2.base_fibration()
        base = b2.base_od()
        seen = set()
        for path, s in self._paths(b2):
            term = defining_base_term(b2.od, fib, path, s)
            base_path = [fib.vertex_map[v] for v in path]
            sv = skipped_vertices(base, base_path)
            expected_forms = LinFrac.one(b2.rs.ambient)
            for r in sorted(sv):
                expected_forms = expected_forms.mul_weight(
                    base.graph.edge_weight(r, fib.vertex_map[s]))
            cls = classify_base_path(b2, base_path)
            # term == c * product of skipped-vertex weights
            assert term.den == expected_forms.den == ()
            assert term.num == expected_forms.num
            c = Fraction(term.scalar) / expected_forms.scalar
            if cls.complete:
                assert c in (1, 2)
            else:
                assert c == Fraction(1, 2)
            seen.add((cls.complete, c))
        assert (False, Fraction(1, 2)) in seen
        assert any(flag for flag, _ in seen)

    def test_unit_term_when_nothing_skipped(self, a2):
        # on the flag orbit over its projective base, a horizontal path
        # visiting every lower base vertex has unit contribution
        fib = a2.base_fibration()
        for path, s in self._paths(a2):
            base_path = [fib.vertex_map[v] for v in path]
            if skipped_vertices(a2.base_od(), base_path):
                continue
            term = explicit_P(a2.od, fib, path, s)
            assert term == LinFrac.one(a2.rs.ambient)
            return
        pytest.fail("no skip-free horizontal path found")


class TestAxisBaseScalars:
    def test_downward_product_over_moment_gaps(self, b2):
        """On the complete rank-one base, the downward product at p divided
        by the moment differences to any set of lower points is a constant
        times distinct positive weights, the constant's denominator
        dividing the product of the edge magnitudes."""
        import itertools
        from gkmrest.gkm import magnitude
        from gkmrest.orbits import factor_distinct_positive_roots
        base = b2.base_od()
        ids = sorted(base.graph.ids, key=lambda v: base.phi[v])
        for i, p in enumerate(ids):
            below = ids[:i]
            for r in range(len(below) + 1):
                for subset in itertools.combinations(below, r):
                    value = base.lambda_minus_linfrac(p)
                    for y in subset:
                        value = value.div_weight(
                            base.graph.moment[p] - base.graph.moment[y])
                    const = factor_distinct_positive_roots(b2.rs, value)
                    assert const > 0
                    mags = Fraction(1)
                    for y in subset:
                        mags *= magnitude(base.graph, y, p)
                    assert (const * mags).denominator == 1


class TestFiberDecomposition:
    def test_identity_projection_returns_value(self, a2):
        # the fiber is a single point, whose diagonal value is the empty
        # product; the base paths then rebuild alpha_p(q) on their own
        od = a2.od
        fib = FibrationSpec(od, {v: v for v in od.graph.ids})
        gz = restriction_table(od)
        for p in od.graph.ids:
            for q in od.graph.ids:
                fiber_table = {q: Poly.const(od.rank, 1)}
                assert fiber_decomposition(od, fib, p, q, fiber_table) == gz.get(p, q)

    def test_b2_worked_example(self, b2):
        """Fiber over 2x1+x2: contributions x1 * 1 + 1 * x2."""
        fib = b2.base_fibration()
        p, q, s = "-2,1", "2,1", "2,-1"
        fiber_table = {s: Poly.const(2, 1), q: parse_poly("x2", 2)}
        val = fiber_decomposition(b2.od, fib, p, q, fiber_table)
        assert val == parse_poly("x1 + x2", 2)

    def test_su3_flag_over_projective_plane(self, a2):
        """Decomposing through the rank-one level agrees with the dynamic
        program on all 36 pairs; fiber values computed on the induced
        fiber data via the same dynamic program."""
        fib = a2.base_fibration()
        od = a2.od
        gz = restriction_table(od)
        # fiber tables: for target q, alpha-hat_s(q) on the fiber through q;
        # the fiber is a two-point orbit, so the values are 1, 0, or the
        # fiber weight
        for q in od.graph.ids:
            bq = fib.vertex_map[q]
            fiber = fib.fiber_over(bq, od.graph.ids)
            table = {}
            for s in fiber:
                if s == q:
                    # product of downward weights inside the fiber
                    downs = [od.graph.edge_weight(r, q) for r in fiber
                             if r != q and od.phi[r] < od.phi[q]]
                    table[s] = Poly.from_weight_product(od.rank, downs)
                elif od.phi[s] < od.phi[q]:
                    table[s] = Poly.const(od.rank, 1)
                else:
                    table[s] = Poly.zero(od.rank)
            for p in od.graph.ids:
                assert fiber_decomposition(od, fib, p, q, table) == gz.get(p, q)

    def test_lambda_factorization(self, a2, b2):
        """Downward product at q = base downward product at pi(q) times the
        in-fiber downward product."""
        for orbit in (a2, b2):
            od = orbit.od
            fib = orbit.base_fibration()
            base = orbit.base_od()
            for q in od.graph.ids:
                bq = fib.vertex_map[q]
                fiber = set(fib.fiber_over(bq, od.graph.ids))
                in_fiber = [od.graph.edge_weight(r, q)
                            for r in od.graph.adj[q]
                            if r in fiber and od.phi[r] < od.phi[q]]
                prod = Poly.from_weight_product(od.rank, in_fiber)
                assert od.lambda_minus(q) == prod * base.lambda_minus(bq)
