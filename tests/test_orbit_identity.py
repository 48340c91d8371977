"""Identity of the orbit builds and of the edge scalars: the orbit graphs
at every tower level, the element order and lengths, and theta on every
canonical edge, each pinned against values recorded before orbits were
built from their group and theta from memoised projections."""

import hashlib
import json

import pytest

from gkmrest.gkm import OrientedGraphData, choose_generic_xi
from gkmrest.orbits import Orbit, OrbitSpec, build_orbit_gkm, weyl_length

from conftest import product_of_projective_spaces

# sha256 of json.dumps(build_orbit_gkm(orbit, level).to_json(),
# sort_keys=True), first 16 hex digits, at the default regular point
GRAPH_SHA256 = {
    ("A", 2): ("a59da8086d7b51e8", "8c1018dd0edf0d63"),
    ("A", 3): ("0dfed090f383402f", "f72a752da6d849cb", "c97ab778ce856f71"),
    ("A", 4): ("71b9c7b38026d479", "082700395949df88", "4724a541422f28e6",
               "a127102be36de4bb"),
    ("B", 2): ("a4b5209f162d1dcd", "7a5e473909603c98"),
    ("B", 3): ("39214009bb1dc53f", "a6fe9ca21c1fc45f", "49b9294b1fafa63b"),
    ("B", 4): ("aaf9a0fddeda09ac", "f0476e7250dfead6", "e5667441fbf53dfe",
               "7753b85b34363232"),
    ("C", 2): ("c6bd74bcfdfeafd1", "04c3f1fc96262513"),
    ("C", 3): ("713ed8734f8107a6", "5495df3163eeb349", "4c2cbea721f0652e"),
    ("C", 4): ("48c93fb03f0f32fe", "4892f8bc6a84c9f6", "806e578da1969d2b",
               "c90a0791a97ae90e"),
    ("D", 3): ("8a8a9edbb46d422c", "8322550c137d4556", "3b740c926b8b915e"),
    ("D", 4): ("45a67945d339a569", "1ccc4830114f3541", "0f8afd7e16618707",
               "4bd0f8336a5efb28"),
}

# sha256 of the elements in one-line notation joined by spaces, first 16
# hex digits: the breadth-first order over the simple reflections
ELEMENT_ORDER_SHA256 = {
    ("A", 2): "9a79cd1903cdbabf", ("A", 3): "6db1776f6a2b0180",
    ("A", 4): "b73167d4d4d8f8bc", ("B", 2): "cd1cfd39f32cfef8",
    ("B", 3): "08e1eb9bc00c6be8", ("B", 4): "16cc8ba111177935",
    ("C", 2): "cd1cfd39f32cfef8", ("C", 3): "08e1eb9bc00c6be8",
    ("C", 4): "16cc8ba111177935", ("D", 3): "0f918a66fca03728",
    ("D", 4): "b98c3f4dc8df1646",
}

# (canonical edges, sha256 of the lines "p|q|theta" over od.graph.ids and
# od.up order); the product graphs are oriented by choose_generic_xi(g)
THETA_SHA256 = {
    "A4": (444, "ca367f982fd8d40d36f9b4ec27bd72d6ba89e2b405cbe63278379c57ca20f7b0"),
    "B3": (138, "87f1fd1bda6a4b730da4c4a8655765f89f5f11c185262413e59e7e397c2bffb7"),
    "C3": (138, "87f1fd1bda6a4b730da4c4a8655765f89f5f11c185262413e59e7e397c2bffb7"),
    "D4": (790, "c731a1d52fd7d2d385c4761f45abc7ac8e36bf79c8e9018691cf79a5a38b671f"),
    "CP1^4": (32, "7143a091d6a30e0d3a967994231ac7b63dc71bbea98c5c59697f0b2fd6dc3935"),
    "CP2xCP3": (17, "267e1d3aca36f4d749b5d702e9c98b51cfcc0eeb7f92ab5bf72de3150465c87a"),
}


def sha16(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("ctype,rank", sorted(GRAPH_SHA256))
def test_orbit_graphs_unchanged_at_every_level(ctype, rank):
    orbit = Orbit(OrbitSpec(ctype, rank))
    got = tuple(sha16(json.dumps(build_orbit_gkm(orbit, level).to_json(), sort_keys=True))
                for level in range(1, rank + 1))
    assert got == GRAPH_SHA256[(ctype, rank)]


@pytest.mark.parametrize("ctype,rank", sorted(ELEMENT_ORDER_SHA256))
def test_element_order_and_lengths(ctype, rank):
    orbit = Orbit(OrbitSpec(ctype, rank))
    assert sha16(" ".join(str(w) for w in orbit.elements)) == ELEMENT_ORDER_SHA256[(ctype, rank)]
    assert list(orbit.length) == [w.word for w in orbit.elements]
    for w in orbit.elements:
        assert orbit.length[w.word] == weyl_length(orbit.rs, w)


def oriented(name: str) -> OrientedGraphData:
    if name.startswith("CP"):
        g = product_of_projective_spaces(*{"CP1^4": (1, 1, 1, 1), "CP2xCP3": (2, 3)}[name])
        return OrientedGraphData(g, choose_generic_xi(g))
    return Orbit(OrbitSpec(name[0], int(name[1:]))).od


@pytest.mark.parametrize("name", sorted(THETA_SHA256))
def test_theta_unchanged_on_every_canonical_edge(name):
    od = oriented(name)
    lines = [f"{p}|{q}|{od.theta(p, q)}" for p in od.graph.ids for q in od.up[p]]
    assert (len(lines), hashlib.sha256("\n".join(lines).encode()).hexdigest()) \
        == THETA_SHA256[name]


def test_d4_theta_projects_each_pair_once():
    """theta on all 790 canonical edges of D4 splits 132 projected forms,
    one per ordered pair of distinct positive roots."""
    od = oriented("D4")
    for p in od.graph.ids:
        for q in od.up[p]:
            od.theta(p, q)
    assert len(od._theta_cache) == 790
    assert len(od._projections) == 132
