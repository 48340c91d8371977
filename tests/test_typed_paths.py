"""The typed B/D path terms against their step-by-step definition (the
reference's defining_base_term and paired_term, weight by weight), the
LinFrac constructions of a typed table, and the paper's path counts, by
the walker and by the reference's per-level count."""

import pytest

import gkmrest.orbits as orbits
from gkmrest.canonical import filtered_path_sum, ordered_filter, restriction_vertex_classes
from gkmrest.exact import LinFrac
from gkmrest.fibration import tower_filter
from gkmrest.oracle import _ordered_classes
from gkmrest.orbits import Orbit, OrbitSpec, relevant_path_terms, typed_table

from reference import defining_base_term, filtered_path_count, lift_path, paired_term

POINTS = [("B", 2, None), ("B", 3, None), ("D", 4, None),
          ("B", 3, "-7/2,-3,-1/2"), ("D", 4, "-7/2,-5/2,-3/2,-1/2")]


def _orbit(ctype, rank, mu):
    return Orbit(OrbitSpec(ctype, rank, None if mu is None else mu.split(",")))


@pytest.mark.parametrize("ctype,rank,mu", POINTS)
def test_relevant_terms_equal_the_step_by_step_reference(ctype, rank, mu):
    orbit = _orbit(ctype, rank, mu)
    fib = orbit.base_fibration()
    checked = 0
    for p_vid in orbit.word_of_vid:
        for b in orbit.base_od().graph.ids:
            for s_vid, cls, term in relevant_path_terms(orbit, p_vid, b):
                path = lift_path(orbit, p_vid, cls.base_path)
                assert path[-1] == s_vid
                ref = paired_term(orbit, cls, defining_base_term(orbit.od, fib, path, s_vid))
                assert term == ref and hash(term) == hash(ref) and str(term) == str(ref)
                checked += 1
    assert checked > 0


@pytest.mark.parametrize("ctype,rank,paths", [("B", 3, 289), ("D", 4, 1694)])
def test_typed_table_builds_at_most_two_linfracs_per_relevant_path(
        monkeypatch, ctype, rank, paths):
    """Counted over the whole table, its fiber orbits included."""
    made, walked = [0], [0]
    init, rpt = LinFrac.__init__, orbits.relevant_path_terms

    def counting_init(self, *a, **k):
        made[0] += 1
        init(self, *a, **k)

    def counting_terms(*a):
        out = rpt(*a)
        walked[0] += len(out)
        return out

    orbit = _orbit(ctype, rank, None)
    orbit.od
    monkeypatch.setattr(LinFrac, "__init__", counting_init)
    monkeypatch.setattr(orbits, "relevant_path_terms", counting_terms)
    typed_table(orbit)
    assert walked[0] == paths
    assert made[0] <= 2 * paths


def _filtered_count(od, filt):
    return sum(len(filtered_path_sum(od, p, q, filt)[1])
               for p in od.graph.ids for q in od.graph.ids if p != q)


def _dp_count(od, filt):
    return sum(count for q in od.graph.ids
               for p, count in filtered_path_count(od, filt, q).items() if p != q)


@pytest.mark.parametrize("ctype,engines,count", [
    ("A", ("ordered", "tower", "typed"), 237),
    ("B", ("ordered", "tower"), 1471),
    ("C", ("ordered", "tower", "typed"), 1471)])
def test_filtered_path_counts_over_all_pairs(ctype, engines, count):
    orbit = Orbit(OrbitSpec(ctype, 3))
    od = orbit.od
    filters = {"ordered": lambda: ordered_filter(od, _ordered_classes(orbit)),
               "tower": lambda: tower_filter(od, orbit.tower()),
               "typed": lambda: orbit.coordinate_filter}
    for engine in engines:
        filt = filters[engine]()
        assert _filtered_count(od, filt) == count, engine
        assert _dp_count(od, filt) == count, engine


@pytest.mark.parametrize("ctype,count,walk", [
    ("A", 6094, True),
    # the walker needs about 15 s on D4, the per-level count a few
    # hundredths
    ("D", 34140, False)])
def test_rank_four_tower_path_counts(ctype, count, walk):
    orbit = Orbit(OrbitSpec(ctype, 4))
    filt = tower_filter(orbit.od, orbit.tower())
    assert _dp_count(orbit.od, filt) == count
    if walk:
        assert _filtered_count(orbit.od, filt) == count


def test_a3_canonical_path_count_under_the_moment_class():
    od = Orbit(OrbitSpec("A", 3)).od
    moment = dict(od.graph.moment)
    per_vertex = {v: moment for v in od.graph.ids}
    assert sum(len(restriction_vertex_classes(od, p, q, per_vertex)[1])
               for p in od.graph.ids for q in od.graph.ids if p != q) == 1256
