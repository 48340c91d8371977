"""Single entries pay only for their own entry: a gz entry runs the
column's dynamic program over the vertices p reaches, so it meets only the
interval [p, q]; a brute entry stops its row at q; a billey entry builds
no orbit graph.  Each engine's entry equals its table, and on a corrupted
graph an error outside what the entry reads is not met."""

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout

import pytest

import gkmrest.orbits as orbits
from gkmrest.canonical import (
    brute_row,
    restriction_vertex_classes,
    single_form_column,
    up_closure,
)
from gkmrest.cli import main
from gkmrest.errors import GkmError, GraphFormatError, NoSolution
from gkmrest.exact import Weight
from gkmrest.gkm import GkmGraph, OrientedGraphData
from gkmrest.oracle import cross_validate, engine_entries, engine_entry
from gkmrest.orbits import Orbit, OrbitSpec

ENGINES = ("gz", "typed", "brute", "billey")


def seeded_b3_mu() -> list[str]:
    """A regular point of B3: strictly increasing negative coordinates,
    one of them a half-integer."""
    rng = random.Random(0)
    a, b, c = sorted(rng.sample(range(-12, 0), 3))
    return [str(a), f"{2 * b + 1}/2", str(c)]


def run_cli(*argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(list(argv))
    return rc, out.getvalue()


@pytest.mark.parametrize("mu", [None, seeded_b3_mu()], ids=["default", "seeded"])
def test_every_b3_pair_equals_the_table(mu):
    orbit = Orbit(OrbitSpec("B", 3, mu=mu))
    ids = orbit.od.graph.ids
    for engine in ENGINES:
        table = engine_entries(orbit, engine)
        for p in ids:
            for q in ids:
                assert engine_entry(orbit, engine, p, q)[0] == table[(p, q)], (engine, p, q)


@pytest.fixture(scope="module", params=["A4", "D4"])
def rank_four(request):
    orbit = Orbit(OrbitSpec(request.param[0], 4))
    tables = {e: engine_entries(orbit, e) for e in ("gz", "typed", "brute")}
    return orbit, tables


def test_every_rank_four_pair_typed(rank_four):
    orbit, tables = rank_four
    for (p, q), value in tables["typed"].items():
        assert engine_entry(orbit, "typed", p, q)[0] == value, (p, q)


def test_sampled_rank_four_pairs(rank_four):
    """Every pair would take minutes for gz, brute and billey entries at
    rank four, so these take 100 seeded pairs with a nonzero value and 30
    with a zero one.  billey entries are checked against the gz table; the
    billey table itself is checked whole below."""
    orbit, tables = rank_four
    rng = random.Random(1)
    nonzero = sorted(k for k, v in tables["gz"].items() if not v.is_zero())
    zero = sorted(k for k, v in tables["gz"].items() if v.is_zero())
    for p, q in rng.sample(nonzero, 100) + rng.sample(zero, 30):
        for engine in ("gz", "brute", "billey"):
            want = tables["gz" if engine == "billey" else engine][(p, q)]
            assert engine_entry(orbit, engine, p, q)[0] == want, (engine, p, q)


def test_billey_table_equals_gz(rank_four):
    """One subword pass per column builds the whole rank-four billey
    table in under a second."""
    orbit, tables = rank_four
    assert engine_entries(orbit, "billey") == tables["gz"]


def test_brute_row_until_is_the_full_row_up_to_q():
    orbit = Orbit(OrbitSpec("D", 4))
    od = orbit.od
    rng = random.Random(2)
    for p in rng.sample(od.graph.ids, 4):
        full = brute_row(od, p)
        for q in rng.sample(od.graph.ids, 6):
            upto = od.order[:od.order.index(q) + 1]
            assert brute_row(od, p, q) == {v: full[v] for v in upto}, (p, q)


def test_billey_restrict_builds_no_graph(monkeypatch):
    orbit = Orbit(OrbitSpec("D", 4))
    gz = engine_entries(orbit, "gz")
    pairs = [((1, 2, 3, 4), (-1, -2, 3, 4)), ((2, 1, 3, 4), (4, -3, -2, 1)),
             ((1, 2, 3, 4), (1, 2, 3, 4)), ((-4, -3, 2, 1), (2, 1, 3, 4))]

    def refuse(*args, **kwargs):
        raise AssertionError("a billey restrict built a graph")

    monkeypatch.setattr(orbits, "build_orbit_gkm", refuse)
    monkeypatch.setattr(OrientedGraphData, "__init__", refuse)
    for wp, wq in pairs:
        p, q = orbit.vid_of[wp], orbit.vid_of[wq]
        # Weyl elements, moment coordinates and literal vertex ids
        for p_arg, q_arg in ((f"w:{','.join(map(str, wp))}", f"w:{','.join(map(str, wq))}"),
                             (p.replace(",", ", "), q), (p, q)):
            rc, out = run_cli("restrict", "--type", "D", "--rank", "4", "--p", p_arg,
                              "--q", q_arg, "--engine", "billey", "--format", "json")
            assert rc == 0
            answer = json.loads(out)
            assert (answer["p"], answer["q"]) == (p, q)
            assert answer["value"] == gz[(p, q)].to_json()


def test_gz_restrict_asks_theta_only_inside_the_interval(monkeypatch):
    orbit = Orbit(OrbitSpec("D", 4))
    od = orbit.od
    reach = od.reachable
    asked = []
    original = OrientedGraphData.theta

    def recording(self, a, b):
        asked.append((a, b))
        return original(self, a, b)

    monkeypatch.setattr(OrientedGraphData, "theta", recording)
    rng = random.Random(3)
    nonzero = [(p, q) for p in od.graph.ids for q in reach[p] if p != q]
    edges = sum(len(od.up[v]) for v in od.graph.ids)
    for p, q in rng.sample(nonzero, 20):
        asked.clear()
        rc, out = run_cli("restrict", "--type", "D", "--rank", "4", "--p", p, "--q", q,
                          "--format", "json")
        assert rc == 0
        inside = {v for v in reach[p] if q in reach[v]}
        assert asked, (p, q)
        assert all(a in inside and b in inside for a, b in asked), (p, q)
        if len(inside) < len(od.graph.ids) // 2:
            assert len(set(asked)) < edges // 2


def corrupted_cube() -> OrientedGraphData:
    """Product of three spheres (vertices are bit strings, moments their
    bits), with the moment of 010 moved onto that of 110.  The orientation
    stays index increasing, but the moment differences along the edges of
    010 are no longer multiples of their weights, and the brute row of 010
    fails at 111."""
    verts, edges = [], []
    for bits in range(8):
        v = format(bits, "03b")
        verts.append((v, Weight([int(b) for b in ("110" if v == "010" else v)])))
        for i in range(3):
            if v[i] == "0":
                w = [0, 0, 0]
                w[i] = 1
                edges.append((v, v[:i] + "1" + v[i + 1:], Weight(w)))
    return OrientedGraphData(GkmGraph(3, verts, edges), Weight((1, 2, 4)))


def walker_value(od, p, q):
    moments = od.graph.moment
    return restriction_vertex_classes(od, p, q, {v: moments for v in od.graph.ids})[0]


class TestCorruptedGraph:
    def test_gz_interval_through_the_bad_vertex_raises_as_before(self):
        od = corrupted_cube()
        assert od.index_increasing and "010" in up_closure(od, "000")
        # the whole column is what a gz restrict computed before
        with pytest.raises(GraphFormatError) as column:
            single_form_column(od, "111")
        with pytest.raises(GraphFormatError) as entry:
            engine_entry(od, "gz", "000", "111")
        assert str(entry.value) == str(column.value) == (
            "moment difference along (010,011) is not a multiple of the weight")

    def test_gz_interval_avoiding_the_bad_vertex_gives_the_walker_value(self):
        od = corrupted_cube()
        assert "010" not in up_closure(od, "100")
        value, _ = engine_entry(od, "gz", "100", "111")
        assert value == walker_value(od, "100", "111")
        assert str(value) == "x1"

    def test_brute_row_stopping_below_the_bad_vertex_gives_the_value(self):
        od = corrupted_cube()
        assert od.order.index("011") < od.order.index("111")
        with pytest.raises(NoSolution) as row:
            brute_row(od, "010")
        value, _ = engine_entry(od, "brute", "010", "011")
        assert value == walker_value(od, "010", "011")
        assert str(value) == "x2"
        with pytest.raises(NoSolution) as entry:
            engine_entry(od, "brute", "010", "111")
        assert str(entry.value) == str(row.value) == "correction term would need negative degree"

    @pytest.mark.parametrize("engine,error", [("gz", GraphFormatError), ("brute", NoSolution)])
    def test_tables_and_compare_still_fail(self, engine, error):
        od = corrupted_cube()
        with pytest.raises(error):
            engine_entries(od, engine)
        with pytest.raises(GkmError):
            cross_validate(od, ["gz", "brute"])

    def test_cli_table_and_compare_exit_2(self, tmp_path):
        path = tmp_path / "corrupted.json"
        path.write_text(json.dumps(corrupted_cube().graph.to_json()))
        for argv in (["table", "--graph", str(path), "--engine", "gz"],
                     ["table", "--graph", str(path), "--engine", "brute"],
                     ["compare", "--graph", str(path)]):
            assert run_cli(*argv)[0] == 2
