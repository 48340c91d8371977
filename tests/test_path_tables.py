"""Tests of the filtered path-sum tables: the registry's ordered and tower
tables against the single-pair entry points, the column DP against the
walker on every pair and its hand-off to the walker, the rank-four tables
that never reach the walker, reachability pruning in the walker, error
parity of the filters, that each filter and each edge's factor scalars
are built once per table, and that the column's integer sums make no
Fraction on the A3, B3 and C3 tables and on products of projective
spaces."""

from fractions import Fraction
from pathlib import Path

import pytest

import gkmrest.fibration as fibration
import gkmrest.canonical as canonical
from gkmrest.canonical import (
    PathFilter,
    filtered_path_column,
    filtered_path_sum,
    ordered_filter,
    restriction_ordered,
    single_form_column,
)
from gkmrest.errors import (
    GkmError,
    GraphFormatError,
    NoSeparatingClass,
    NoSeparatingLevel,
    WeightNotPreserved,
    WellDefinednessViolation,
)
from gkmrest.exact import Poly, Weight
from gkmrest.fibration import (
    TowerLevel,
    TowerSpec,
    tower_filter,
    tower_h_function,
    tower_restriction,
)
from gkmrest.gkm import GkmGraph, OrientedGraphData, choose_generic_xi
from gkmrest.oracle import engine_entries
from gkmrest.orbits import Orbit, OrbitSpec

from conftest import product_of_projective_spaces


@pytest.fixture(scope="module")
def a2():
    return Orbit(OrbitSpec("A", 2))


@pytest.fixture(scope="module")
def a3():
    return Orbit(OrbitSpec("A", 3))


@pytest.fixture(scope="module")
def b3():
    return Orbit(OrbitSpec("B", 3))


def cube_od() -> OrientedGraphData:
    """Product of three spheres: vertices are bit strings with their bits
    as moments, so the canonical edges turn one 0 into a 1."""
    verts, edges = [], []
    for bits in range(8):
        v = format(bits, "03b")
        verts.append((v, Weight([int(b) for b in v])))
        for i in range(3):
            if v[i] == "0":
                u = v[:i] + "1" + v[i + 1:]
                w = [0, 0, 0]
                w[i] = 1
                edges.append((v, u, Weight(w)))
    return OrientedGraphData(GkmGraph(3, verts, edges), Weight((1, 2, 4)))


def tower_classes(orbit):
    return [lvl.moment for lvl in orbit.tower().levels]


class TestReachable:
    def test_cube_reachability(self):
        od = cube_od()
        reach = od.reachable
        assert reach["000"] == frozenset(od.graph.ids)
        assert reach["110"] == {"110", "111"}
        assert reach["111"] == {"111"}
        assert "001" not in reach["110"]

    def test_matches_path_search(self, a3):
        od = a3.od
        for v in od.graph.ids:
            seen, stack = {v}, [v]
            while stack:
                for u in od.up[stack.pop()]:
                    if u not in seen:
                        seen.add(u)
                        stack.append(u)
            assert od.reachable[v] == seen


class TestTableMatchesSinglePair:
    """The registry's tables are built by filtered_path_column; each is
    compared with the single-pair walker on every row of A3, the cube and
    CP2 x CP3, every fourth row of CP1^4 and every eighth of B3, to keep
    the single-pair side (one filter build per pair) short."""

    def check(self, entries, single, ids, step=1):
        assert list(entries) == [(p, q) for q in ids for p in ids]
        sampled = set(ids[::step])
        for (p, q), value in entries.items():
            if p in sampled:
                assert value == single(p, q)[0]

    def test_ordered(self, a3, b3):
        graph = product_of_projective_spaces(1, 1, 1, 1)
        cp1_4 = OrientedGraphData(graph, Weight([1, 2, 4, 8, 16, 32, 64, 128]))
        cp2_cp3 = OrientedGraphData(product_of_projective_spaces(2, 3),
                                    Weight([1, 3, 9, 27, 81, 243, 729]))
        cube = cube_od()
        for target, od, classes, step in (
                (a3, a3.od, tower_classes(a3), 1),
                (b3, b3.od, tower_classes(b3), 8),
                (cp1_4, cp1_4, [dict(cp1_4.graph.moment)], 4),
                (cp2_cp3, cp2_cp3, [dict(cp2_cp3.graph.moment)], 1),
                (cube, cube, [dict(cube.graph.moment)], 1)):
            self.check(engine_entries(target, "ordered"),
                       lambda p, q: restriction_ordered(od, p, q, classes),
                       od.graph.ids, step)

    def test_tower(self, a3, b3):
        for orbit, step in ((a3, 1), (b3, 8)):
            od, tower = orbit.od, orbit.tower()
            self.check(engine_entries(orbit, "tower"),
                       lambda p, q: tower_restriction(od, tower, p, q),
                       od.graph.ids, step)

    @pytest.mark.parametrize("engine", ["ordered", "tower"])
    def test_tables_walk_no_path(self, b3, monkeypatch, engine):
        """No table entry goes through the exponential walker or its
        LinFrac sum."""
        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(canonical, "walk_paths", counted(canonical.walk_paths))
        monkeypatch.setattr(canonical, "linfrac_sum_to_poly",
                            counted(canonical.linfrac_sum_to_poly))
        entries = engine_entries(b3, engine, jobs=1)
        assert len(entries) == len(b3.elements) ** 2
        assert calls == []


def walker_column(od, filt, q):
    """filtered_path_sum from every vertex to q in graph order, or the
    first error it raises."""
    col = {}
    for p in od.graph.ids:
        try:
            col[p] = filtered_path_sum(od, p, q, filt)[0]
        except GkmError as exc:
            return exc
    return col


def column_or_error(od, filt, q):
    try:
        return filtered_path_column(od, filt, q)
    except GkmError as exc:
        return exc


def same_outcome(got, want):
    if isinstance(want, GkmError):
        return type(got) is type(want) and str(got) == str(want)
    return got == want


class TestColumnMatchesWalker:
    """filtered_path_column against filtered_path_sum on every pair.  On
    the orbits and on the general-coordinate CP2 every sum stays a
    polynomial, so the column never reaches the walker; a hand-built
    filter with a sum that is not a polynomial hands the whole column to
    it, which gives its values, or raises its first error."""

    @staticmethod
    def filters(orbit):
        od = orbit.od
        yield "ordered", ordered_filter(od, tower_classes(orbit))
        yield "tower", tower_filter(od, orbit.tower())
        if orbit.spec.ctype in ("A", "C"):
            yield "coordinate", orbit.coordinate_filter

    @staticmethod
    def check_without_walker(od, filt, monkeypatch):
        for q in od.graph.ids:
            with monkeypatch.context() as m:
                def refuse(*args):
                    raise AssertionError("the column handed a source to the walker")
                m.setattr(canonical, "filtered_path_sum", refuse)
                column = filtered_path_column(od, filt, q)
            assert tuple(column) == od.graph.ids
            assert column == walker_column(od, filt, q), q

    @pytest.mark.parametrize("name,mu", [
        pytest.param(name, mu, id=name if mu is None else f"{name} at {mu}")
        for name, mu in (
            ("A3", None), ("B3", None), ("C3", None),
            # non-integral points: the level moments and their splits have
            # Fraction scales, which the column's integer sums take in
            ("A3", "-3/2,-1/2,1/2,3/2"), ("A3", "-4,-1,1/3,2/3"),
            ("B3", "-7/2,-3,-1/2"), ("C3", "-5/2,-1,-1/3"),
        )])
    def test_orbits(self, name, mu, monkeypatch):
        orbit = Orbit(OrbitSpec(name[0], int(name[1]), mu and mu.split(",")))
        for label, filt in self.filters(orbit):
            self.check_without_walker(orbit.od, filt, monkeypatch)

    def test_moments_with_thirds_and_quarters(self, monkeypatch):
        od = OrientedGraphData(product_of_projective_spaces(2, 3),
                               Weight([1, 3, 9, 27, 81, 243, 729]))
        assert {c.denominator for w in od.graph.moment.values() for c in w.coords
                if isinstance(c, Fraction)} == {3, 4}
        self.check_without_walker(od, ordered_filter(od, [dict(od.graph.moment)]), monkeypatch)

    def test_general_coordinates(self, monkeypatch):
        path = Path(__file__).parent / "data" / "cp2_general_coordinates.json"
        g = GkmGraph.from_json(path.read_text())
        od = OrientedGraphData(g, choose_generic_xi(g))
        assert any(sum(c != 0 for c in w.coords) >= 3 for w in g.weights.values())
        self.check_without_walker(od, ordered_filter(od, [dict(g.moment)]), monkeypatch)

    @pytest.mark.parametrize("name,engines", [
        ("A4", ("ordered", "tower", "typed")),
        # typed D reaches the column through its A3 children
        ("D4", ("tower", "typed")),
    ])
    def test_rank_four_tables_never_walk(self, name, engines, monkeypatch):
        orbit = Orbit(OrbitSpec(name[0], int(name[1])))

        def refuse(*args):
            raise AssertionError("the column handed a target to the walker")

        monkeypatch.setattr(canonical, "filtered_path_sum", refuse)
        gz = engine_entries(orbit, "gz", jobs=1)
        for engine in engines:
            assert engine_entries(orbit, engine, jobs=1) == gz, engine

    @staticmethod
    def handed_off(od, filt, monkeypatch):
        """Per target, the sources the column hands to the walker, and
        whether the column matches the walker column or its error."""
        out = {}
        for q in od.graph.ids:
            calls = []

            def counted(od_, p, q_, filt_):
                calls.append(p)
                return filtered_path_sum(od_, p, q_, filt_)

            with monkeypatch.context() as m:
                m.setattr(canonical, "filtered_path_sum", counted)
                got = column_or_error(od, filt, q)
            assert same_outcome(got, walker_column(od, filt, q)), q
            out[q] = (calls, isinstance(got, GkmError))
        return out

    @pytest.mark.parametrize("coords,at_111,walked", [
        # the class moves by e1 + e2 along every flip of the middle bit,
        # against the edge weight e2, so those factors keep x2 in their
        # denominators: every target a middle-bit flip reaches is walked
        # from every source.  The walker's sums are polynomials
        (lambda b: [b[0] + b[1], b[1], b[2]],
         (["000", "001", "010", "011", "100", "101", "110", "111"], False),
         {"010", "011", "110", "111"}),
        # only the flips out of 001, 011, 100 and 110 keep a form; the
        # walker raises at 000, its first source, and so does the column
        (lambda b: [b[0], b[1] + b[0] * b[2], b[2]], (["000"], True), {"101", "111"}),
    ], ids=["direct", "read"])
    def test_factor_with_a_denominator_form(self, monkeypatch, coords, at_111, walked):
        od = cube_od()
        cls = {v: Weight(coords([int(c) for c in v])) for v in od.graph.ids}
        filt = ordered_filter(od, [cls])
        assert any(filt.factor(a, b).den for a in od.graph.ids for b in od.up[a])
        outcome = self.handed_off(od, filt, monkeypatch)
        assert outcome["111"] == at_111
        assert {q for q, (calls, _) in outcome.items() if calls} == walked

    def test_level_sum_that_does_not_divide(self, monkeypatch):
        # every factor is a scalar, but level one's class moves by
        # x2 - x3 along the edges of level two, so the level-one sum at
        # 001 towards 111 is not divisible by its denominator; the walker
        # gives 000 and raises at 001, and so does the column
        od = cube_od()
        h = {(a, b): 1 if a[0] != b[0] else 2 for a in od.graph.ids for b in od.up[a]}
        levels = (
            {v: Weight([int(v[0]), int(v[1]) - int(v[2]), 0]) for v in od.graph.ids},
            {v: Weight([0, int(v[1]), 2 * int(v[2])]) for v in od.graph.ids},
        )
        filt = PathFilter(od, h, lambda j, v: levels[j - 1][v])
        assert not any(filt.factor(a, b).den for a, b in h)
        outcome = self.handed_off(od, filt, monkeypatch)
        assert outcome["111"] == (["000", "001"], True)
        assert {q for q, (calls, _) in outcome.items() if calls} == {"101", "110", "111"}


class TestPruning:
    def moment_with(self, od, v, q):
        """The moment class, except that v takes the value at q, so that
        it does not separate v from q."""
        cls = dict(od.graph.moment)
        cls[v] = cls[q]
        return cls

    def test_raises_when_bad_vertex_reaches_q(self):
        od = cube_od()
        classes = [self.moment_with(od, "100", "111")]
        with pytest.raises(WellDefinednessViolation):
            restriction_ordered(od, "000", "111", classes)

    def test_quiet_when_bad_vertex_cannot_reach_q(self):
        # 110 lies below 001 in phi, so an unpruned walk from 000 enters
        # it on the way to 001, but 001 is not reachable from 110
        od = cube_od()
        assert od.phi["110"] < od.phi["001"]
        classes = [self.moment_with(od, "110", "001")]
        value, ledger = restriction_ordered(od, "000", "001", classes)
        assert value == single_form_column(od, "001")["000"]
        assert [t.path for t in ledger] == [("000", "001")]

    @pytest.mark.parametrize("bad", ["100", "000"])
    def test_column_raises_like_the_walker(self, bad):
        # with 000 bad, the sums that skip its edges are polynomials, so
        # only the ill-defined mark makes the column raise
        od = cube_od()
        classes = [self.moment_with(od, bad, "111")]
        with pytest.raises(WellDefinednessViolation) as single:
            restriction_ordered(od, "000", "111", classes)
        with pytest.raises(WellDefinednessViolation) as column:
            filtered_path_column(od, ordered_filter(od, classes), "111")
        assert str(column.value) == str(single.value)

    def test_column_quiet_when_bad_vertex_cannot_reach_q(self):
        od = cube_od()
        classes = [self.moment_with(od, "110", "001")]
        column = filtered_path_column(od, ordered_filter(od, classes), "001")
        assert column == single_form_column(od, "001")

    def test_unreachable_target_is_zero_with_empty_ledger(self):
        od = cube_od()
        value, ledger = restriction_ordered(od, "110", "001", [dict(od.graph.moment)])
        assert value.is_zero() and ledger == []


class TestErrorParity:
    def bad_towers(self, a2):
        tw = a2.tower()
        const = {v: a2.od.graph.ids[0] for v in a2.od.graph.ids}
        mom = {v: a2.od.graph.moment[a2.od.graph.ids[0]] for v in a2.od.graph.ids}
        h = tower_h_function(a2.od, tw)
        # shift a whole level-one fiber, so moments stay constant on
        # fibers and only weight preservation fails
        a, b = next(edge for edge, j in h.items() if j == 1)
        lvl1 = tw.levels[0]
        shifted = {v: m + Weight((1, 2, 3)) if lvl1.projection[v] == lvl1.projection[b]
                   else m for v, m in lvl1.moment.items()}
        return [
            (GraphFormatError, TowerSpec(tw.levels[:-1])),
            (GraphFormatError, TowerSpec([tw.levels[1], tw.levels[0], tw.levels[1]])),
            (GraphFormatError, TowerSpec([TowerLevel(projection=const, moment=mom)])),
            (WeightNotPreserved, TowerSpec(
                [TowerLevel(projection=lvl1.projection, moment=shifted)]
                + tw.levels[1:])),
        ]

    def test_tower_table_raises_like_tower_restriction(self, a2):
        ids = a2.od.graph.ids
        for exc_type, bad in self.bad_towers(a2):
            with pytest.raises(exc_type) as single:
                tower_restriction(a2.od, bad, ids[0], ids[-1])
            # raised by the filter the tower slicer builds, before any
            # pair is walked
            with pytest.raises(exc_type) as table:
                tower_filter(a2.od, bad)
            assert str(table.value) == str(single.value)

    def test_no_separating_level_from_h_function(self, a2):
        # validate() demands an identity top level, which separates every
        # edge, so only an unvalidated tower can reach this error
        ids = a2.od.graph.ids
        const = TowerLevel(projection={v: ids[0] for v in ids},
                           moment={v: a2.od.graph.moment[ids[0]] for v in ids})
        with pytest.raises(NoSeparatingLevel):
            tower_h_function(a2.od, TowerSpec([const]))

    def test_ordered_table_raises_like_restriction_ordered(self, a2):
        ids = a2.od.graph.ids
        flat = {v: a2.od.graph.moment[ids[0]] for v in ids}
        with pytest.raises(NoSeparatingClass) as single:
            restriction_ordered(a2.od, ids[0], ids[-1], [flat])
        with pytest.raises(NoSeparatingClass) as table:
            ordered_filter(a2.od, [flat])
        assert str(table.value) == str(single.value)


class TestFilterBuiltOnce:
    def test_weight_check_runs_once_per_tower_table(self, a3, monkeypatch):
        calls = []
        original = fibration.check_weight_preserving

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(fibration, "check_weight_preserving", counting)
        entries = engine_entries(a3, "tower")
        assert len(entries) == len(a3.elements) ** 2
        assert len(calls) == 1

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_h_function_built_once_per_ordered_table(self, a3, monkeypatch, jobs):
        calls = []
        original = canonical.build_h_function

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(canonical, "build_h_function", counting)
        entries = engine_entries(a3, "ordered", jobs=jobs)
        assert len(entries) == len(a3.elements) ** 2
        assert len(calls) == 1

    def test_edge_factor_built_once_per_edge_of_ordered_table(self, b3, monkeypatch):
        """The scalars of the factor theta/weight * (w_h(b) - w_h(a))
        depend on the edge only, so a table builds them once per
        canonical edge it crosses, not once per (edge, column)."""
        calls = []
        original = canonical._edge_scalars

        def counting(filt, a, b):
            calls.append((a, b))
            return original(filt, a, b)

        monkeypatch.setattr(canonical, "_edge_scalars", counting)
        entries = engine_entries(b3, "ordered", jobs=1)
        assert len(entries) == len(b3.elements) ** 2
        edges = {(a, b) for a in b3.od.graph.ids for b in b3.od.up[a]}
        assert len(calls) == len(set(calls)) == len(edges)
        assert set(calls) == edges


def counting_fractions_and_divisions(monkeypatch, run):
    """run() and the Fraction constructions and Poly.div_weight calls it
    made."""
    counts = {"Fraction": 0, "div_weight": 0}
    new, div_weight = Fraction.__new__, Poly.div_weight

    def counted_new(cls, *args, **kwargs):
        counts["Fraction"] += 1
        return new(cls, *args, **kwargs)

    def counted_div_weight(self, w):
        counts["div_weight"] += 1
        return div_weight(self, w)

    with monkeypatch.context() as m:
        m.setattr(Fraction, "__new__", counted_new)
        m.setattr(Poly, "div_weight", counted_div_weight)
        got = run()
    return got, counts


class TestIntegerColumns:
    """The column keeps its sums in integers over one denominator each:
    on the B3 and C3 path tables it constructs no Fraction, and it divides
    once per (vertex, level) of each column; on A3 and on products of
    projective spaces, whose level classes are not integral, its columns
    construct none either, nor does the tower filter's weight check."""

    @pytest.mark.parametrize("name,engine", [
        ("B3", "ordered"), ("B3", "tower"), ("C3", "ordered"), ("C3", "tower"), ("C3", "typed"),
    ])
    def test_no_fraction_and_one_division_per_level(self, name, engine, monkeypatch):
        orbit = Orbit(OrbitSpec(name[0], int(name[1])))
        entries, counts = counting_fractions_and_divisions(
            monkeypatch, lambda: engine_entries(orbit, engine, jobs=1))
        assert len(entries) == len(orbit.elements) ** 2
        # one division per (vertex, level) over the 48 columns
        assert counts == {"Fraction": 0, "div_weight": 799}

    @pytest.mark.parametrize("ctype", ["A", "C"])
    def test_tower_filter_makes_no_fraction(self, ctype, monkeypatch):
        """The weight check compares the integral level coordinates of the
        filter with the edge weights, so validating the tower of the
        default A3 orbit (half-integral levels) or C3 (long roots 2e_i)
        constructs no Fraction."""
        orbit = Orbit(OrbitSpec(ctype, 3))
        od, tower = orbit.od, orbit.tower()
        filt, counts = counting_fractions_and_divisions(
            monkeypatch, lambda: tower_filter(od, tower))
        assert counts == {"Fraction": 0, "div_weight": 0}
        scales = [filt.level(j)[0] for j in (1, 2, 3)]
        assert scales == ([3, 2, 1] if ctype == "A" else [1, 1, 1])

    @pytest.mark.parametrize("name,engine,divisions", [
        ("A3", "ordered", 189), ("A3", "tower", 189), ("A3", "typed", 189),
        ("CP2xCP3", "ordered", 48), ("CP1^4", "ordered", 65),
    ])
    def test_no_fraction_on_non_integral_levels(self, name, engine, divisions, monkeypatch):
        """A3's level classes are half-integral and the products' moments
        have thirds and quarters; the filter keeps them as integers over
        one scale per level, so the columns make no Fraction either.  The
        filter is built first and only the columns are counted."""
        if name == "A3":
            orbit = Orbit(OrbitSpec("A", 3))
            od = orbit.od
            filt = {"ordered": lambda: ordered_filter(od, tower_classes(orbit)),
                    "tower": lambda: tower_filter(od, orbit.tower()),
                    "typed": lambda: orbit.coordinate_filter}[engine]()
        else:
            g = product_of_projective_spaces(*({"CP2xCP3": (2, 3), "CP1^4": (1, 1, 1, 1)}[name]))
            od = OrientedGraphData(g, choose_generic_xi(g))
            filt = ordered_filter(od, [dict(g.moment)])
        columns, counts = counting_fractions_and_divisions(
            monkeypatch, lambda: [filtered_path_column(od, filt, q) for q in od.graph.ids])
        assert len(columns) == len(od.graph.ids)
        assert counts == {"Fraction": 0, "div_weight": divisions}
