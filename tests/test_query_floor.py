"""The fixed cost of a cold query: one argument parser per process, the
orbit graph built through itemgetter images, phi kept as exact ints where
integral, the unit-pivot path of linear-form division, and the downward
product of a typed A/C entry read off the group.  Each part is checked
against an independent reference: a fresh process, the index-table walk
the orbit graph was built by before, phi as Fractions, and the downward
product of the orbit graph."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from gkmrest import cli
from gkmrest.exact import Poly, Weight, format_scalar, pair
from gkmrest.gkm import GkmGraph, OrientedGraphData, choose_generic_xi
from gkmrest.canonical import single_form_column
from gkmrest.orbits import Orbit, OrbitSpec, build_orbit_gkm, typed_restriction

from conftest import product_of_projective_spaces

SRC = Path(__file__).resolve().parents[1] / "src"

QUERY = ["restrict", "--type", "D", "--rank", "4", "--p", "w:2,1,-3,-4",
         "--q", "w:4,-1,-3,2", "--engine", "typed"]


def fresh_stdout(argv) -> str:
    """stdout of the command in a new interpreter, whose parser is new."""
    out = subprocess.run([sys.executable, "-m", "gkmrest", *argv], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)})
    return out.stdout


def run(capsys, argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


class TestOneParserPerProcess:
    def test_parser_is_built_once(self, capsys, monkeypatch):
        built = []
        real = cli.build_parser

        def counting():
            built.append(1)
            return real()

        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        try:
            for _ in range(3):
                assert run(capsys, ["restrict", "--type", "A", "--rank", "2",
                                    "--p", "w:1,2,3", "--q", "w:3,2,1"])[0] == 0
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1

    def test_flags_of_one_call_do_not_reach_the_next(self, capsys):
        code, first = run(capsys, QUERY + ["--ledger", "--format", "json"])
        assert code == 0 and json.loads(first)["engine"] == "typed"
        code, second = run(capsys, QUERY)
        assert code == 0
        assert second == fresh_stdout(QUERY)
        assert second != first

    def test_an_argparse_error_leaves_the_next_call_unchanged(self, capsys):
        code, before = run(capsys, QUERY)
        assert code == 0
        with pytest.raises(SystemExit) as exc:
            cli.main(["restrict", "--type", "D", "--rank", "4", "--engine", "nope"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert run(capsys, QUERY) == (0, before)

    def test_a_command_rebound_after_the_parser_was_built_runs(self, capsys, monkeypatch):
        cli._parser()
        seen = []
        real = cli.cmd_orbit

        def wrapped(args):
            seen.append(args.command)
            return real(args)

        monkeypatch.setattr(cli, "cmd_orbit", wrapped)
        code, out = run(capsys, ["orbit", "--type", "A", "--rank", "1"])
        assert code == 0 and seen == ["orbit"]
        assert json.loads(out)["rank"] == 2


# -- the orbit graph against the index-table walk ---------------------------

def _index_table(word):
    return tuple((abs(a) - 1, a < 0) for a in word)


def _act(table, pt):
    return tuple([-pt[i] if neg else pt[i] for i, neg in table])


def reference_orbit_gkm(spec: OrbitSpec, level: int) -> GkmGraph:
    """The orbit graph as it was built before itemgetter images: the same
    breadth-first walk with each image taken coordinate by coordinate, and
    each edge's sign from the pairing <pt, root>."""
    rs = spec.rs
    mu = spec.level_mu(level)
    den = 1
    for c in mu.coords:
        if isinstance(c, Fraction):
            den = den * c.denominator // gcd(den, c.denominator)
    start = tuple(int(c * den) for c in mu.coords)
    simple = [_index_table(s.word) for s in rs.simple_perms]
    points = {start: None}
    frontier = [start]
    while frontier:
        nxt = []
        for pt in frontier:
            for table in simple:
                img = _act(table, pt)
                if img not in points:
                    points[img] = None
                    nxt.append(img)
        frontier = nxt
    exact = {pt: tuple(c // den if c % den == 0 else Fraction(c, den) for c in pt)
             for pt in points}
    vid = {pt: ",".join(format_scalar(c) for c in coords) for pt, coords in exact.items()}
    vertices = [(vid[pt], Weight(exact[pt])) for pt in sorted(points)]
    edges = []
    for pt in points:
        for root in rs.positive_roots:
            c = sum(a * b for a, b in zip(pt, root.coords))
            if c != 0:
                table = _index_table(rs.reflection_perm(root).word)
                edges.append((vid[pt], vid[_act(table, pt)], root if c < 0 else -root))
    return GkmGraph(rs.ambient, vertices, edges)


TOP_LEVEL = [("A", 1), ("B", 1), ("C", 1), ("A", 2), ("A", 3), ("A", 4),
             ("B", 2), ("B", 3), ("B", 4), ("C", 2), ("C", 3), ("C", 4),
             ("D", 3), ("D", 4)]
CUSTOM_MU = [("A", 3, "-4,-1,1/3,2/3"), ("B", 3, "-7,-3,-1"), ("C", 3, "-5/2,-1,-1/3")]


def same_graph(got: GkmGraph, want: GkmGraph):
    assert got.to_json() == want.to_json()
    # the edge order is what the Morse data and its error messages read
    assert list(got.weights.items()) == list(want.weights.items())
    assert got.adj == want.adj


@pytest.mark.parametrize("ctype,rank", TOP_LEVEL)
def test_orbit_graph_matches_the_index_table_walk(ctype, rank):
    spec = OrbitSpec(ctype, rank)
    same_graph(build_orbit_gkm(Orbit(spec)), reference_orbit_gkm(spec, rank))


@pytest.mark.parametrize("ctype,rank,mu", CUSTOM_MU)
def test_orbit_graph_at_a_custom_point_matches(ctype, rank, mu):
    spec = OrbitSpec(ctype, rank, mu=mu.split(","))
    same_graph(build_orbit_gkm(Orbit(spec)), reference_orbit_gkm(spec, rank))


@pytest.mark.parametrize("ctype,rank", [("A", 4), ("D", 4), ("B", 3), ("C", 3)])
def test_orbit_graph_matches_at_every_tower_level(ctype, rank):
    # below the top level the points repeat along the group's walk
    spec = OrbitSpec(ctype, rank)
    orbit = Orbit(spec)
    for level in range(1, rank + 1):
        same_graph(build_orbit_gkm(orbit, level), reference_orbit_gkm(spec, level))


@pytest.mark.parametrize("ctype,rank,mu", CUSTOM_MU)
def test_orbit_graph_at_a_custom_point_matches_at_every_tower_level(ctype, rank, mu):
    spec = OrbitSpec(ctype, rank, mu=mu.split(","))
    orbit = Orbit(spec)
    for level in range(1, rank + 1):
        same_graph(build_orbit_gkm(orbit, level), reference_orbit_gkm(spec, level))


def test_orbit_vertices_read_from_the_group_match():
    orbit = Orbit(OrbitSpec("D", 4))
    same_graph(orbit.od.graph, reference_orbit_gkm(orbit.spec, 4))


# -- phi as exact scalars ------------------------------------------------------

def fraction_order(od: OrientedGraphData):
    phi = {v: Fraction(pair(od.graph.moment[v], od.xi)) for v in od.graph.ids}
    return tuple(sorted(od.graph.ids, key=lambda v: (phi[v], v))), phi


@pytest.mark.parametrize("ctype,rank", TOP_LEVEL)
def test_phi_is_int_on_default_orbits(ctype, rank):
    od = Orbit(OrbitSpec(ctype, rank)).od
    order, phi = fraction_order(od)
    assert all(type(x) is int for x in od.phi.values())
    assert od.phi == phi
    assert od.order == order


def test_phi_stays_fraction_where_not_integral():
    # xi's coordinates are powers of 26, so thirds survive the pairing
    od = Orbit(OrbitSpec("A", 3, mu="-4,-1,1/3,2/3".split(","))).od
    order, phi = fraction_order(od)
    kinds = {type(x) for x in od.phi.values()}
    assert kinds == {int, Fraction}
    for v, x in od.phi.items():
        assert x == phi[v]
        assert (type(x) is int) == (phi[v].denominator == 1)
    assert od.order == order
    assert od.index_increasing


def test_phi_on_a_graph_with_fractional_moments():
    g = product_of_projective_spaces(2, 1)
    od = OrientedGraphData(g, choose_generic_xi(g))
    order, phi = fraction_order(od)
    assert od.phi == phi and od.order == order
    assert any(type(x) is Fraction for x in od.phi.values())
    for v, x in od.phi.items():
        assert (type(x) is int) == (phi[v].denominator == 1)


# -- the downward product of a typed A/C entry -----------------------------------

@pytest.mark.parametrize("ctype,rank,mu", [
    ("A", 2, None), ("A", 3, None), ("A", 4, None), ("C", 2, None), ("C", 3, None),
    ("C", 4, None), ("A", 4, "-5/3,-1,-1/3,1/3,4/3"), ("C", 3, "-5/3,-1,-1/3"),
])
def test_downward_product_read_off_the_group(ctype, rank, mu):
    spec = OrbitSpec(ctype, rank) if mu is None else OrbitSpec(ctype, rank, mu=mu.split(","))
    orbit = Orbit(spec)
    got = {v: orbit.lambda_minus_linfrac(v) for v in orbit.word_of_vid}
    assert "od" not in vars(orbit)
    od = orbit.od
    assert got == {v: od.lambda_minus_linfrac(v) for v in od.graph.ids}


@pytest.mark.parametrize("ctype", ["A", "C"])
def test_typed_AC_entry_builds_no_orbit_graph(ctype):
    orbit = Orbit(OrbitSpec(ctype, 3))
    ids = sorted(orbit.word_of_vid, key=lambda v: (orbit.length[orbit.word_of_vid[v]], v))
    pairs = [(ids[i], ids[j]) for i, j in ((0, -1), (1, -1), (2, 15), (4, 20), (7, 7), (-1, 0))]
    values = [typed_restriction(orbit, p, q)[0] for p, q in pairs]
    assert "od" not in vars(orbit)
    od = orbit.od
    assert values == [single_form_column(od, q)[p] for p, q in pairs]


# -- division by a form with a unit pivot ---------------------------------------

class TestUnitPivotDivision:
    def test_int_quotients_stay_ints(self):
        w = Weight((1, -1, 2))
        p = Poly(3, {(2, 0, 0): 3, (1, 1, 0): -7, (0, 0, 2): 5}).mul_weight(w)
        q = p.div_weight(w)
        assert q.terms == {(2, 0, 0): 3, (1, 1, 0): -7, (0, 0, 2): 5}
        assert all(type(c) is int for c in q.terms.values())

    def test_integral_fractions_become_ints(self):
        w = Weight((1, 1))
        half = Poly.const(2, Fraction(1, 2)).mul_weight(w).scale(2)
        assert any(type(c) is Fraction for c in half.terms.values())
        q = half.div_weight(w)
        assert q.terms == {(0, 0): 1} and type(q.terms[(0, 0)]) is int

    def test_proper_fractions_stay_fractions(self):
        w = Weight((1, 0, -3))
        p = Poly(3, {(1, 0, 0): Fraction(1, 3), (0, 1, 0): 2}).mul_weight(w)
        q = p.div_weight(w)
        assert q.terms == {(1, 0, 0): Fraction(1, 3), (0, 1, 0): 2}
        assert type(q.terms[(0, 1, 0)]) is int
