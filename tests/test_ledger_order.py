"""Pinned path orders: the paths each path walk lists, and their order, as
literals.  A change to how paths are walked must keep every one of these."""

import json

import pytest

from gkmrest.canonical import restriction_vertex_classes
from gkmrest.cli import main
from gkmrest.fibration import horizontal_paths
from gkmrest.gkm import enumerate_paths
from gkmrest.orbits import Orbit, OrbitSpec


@pytest.fixture(scope="module")
def b2():
    return Orbit(OrbitSpec("B", 2))


C2_LEDGER = [
    {"levels": [1, 1], "path": ["-2,1", "1,-2", "1,2"], "value": "2*(x1)"},
    {"levels": [1, 2], "path": ["-2,1", "-1,2", "1,2"], "value": "2*(x2)"},
]


@pytest.mark.parametrize("engine", ["ordered", "tower", "typed"])
def test_c2_cli_ledger(capsys, engine):
    code = main(["restrict", "--type", "C", "--rank", "2", "--p=-2,1", "--q", "1,2",
                 "--engine", engine, "--ledger", "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["paths"] == C2_LEDGER
    assert out["value"] == [{"coeff": "2", "exp": [1, 0]}, {"coeff": "2", "exp": [0, 1]}]


def test_b2_vertex_classes_ledger(b2):
    od = b2.od
    per_vertex = {v: dict(od.graph.moment) for v in od.graph.ids}
    value, ledger = restriction_vertex_classes(od, "-2,-1", "2,1", per_vertex)
    assert str(value) == "1"
    assert [(t.path, str(t.value)) for t in ledger] == [
        (("-2,-1", "-2,1", "1,-2", "2,-1", "2,1"),
         "3/4*(x1 - x2)*(x1 + x2) / (x1 + 3*x2)*(2*x1 + x2)"),
        (("-2,-1", "-2,1", "1,-2", "1,2", "2,1"),
         "3*(x2)*(x1 + x2) / (x1 + 3*x2)*(2*x1 + x2)"),
        (("-2,-1", "-2,1", "-1,2", "2,-1", "2,1"),
         "3/4*(x1 - x2)*(x1 + x2) / (2*x1 + x2)*(3*x1 - x2)"),
        (("-2,-1", "-2,1", "-1,2", "1,2", "2,1"),
         "1/2*(x2)*(x1 + x2) / (2*x1 + x2)*(3*x1 - x2)"),
        (("-2,-1", "-1,-2", "1,-2", "2,-1", "2,1"),
         "1/3*(x1 - x2)*(x1) / (x1 + 3*x2)*(2*x1 + x2)"),
        (("-2,-1", "-1,-2", "1,-2", "1,2", "2,1"),
         "4/3*(x2)*(x1) / (x1 + 3*x2)*(2*x1 + x2)"),
        (("-2,-1", "-1,-2", "-1,2", "2,-1", "2,1"),
         "2*(x1 - x2)*(x1) / (2*x1 + x2)*(3*x1 - x2)"),
        (("-2,-1", "-1,-2", "-1,2", "1,2", "2,1"),
         "4/3*(x2)*(x1) / (2*x1 + x2)*(3*x1 - x2)"),
    ]


def test_b2_horizontal_paths(b2):
    fib = b2.base_fibration()
    targets = set(fib.fiber_over("1,0", b2.od.graph.ids))
    assert horizontal_paths(b2.od, fib, "-2,1", targets) == {
        "2,1": [("-2,1", "1,-2", "1,2", "2,1")],
        "2,-1": [("-2,1", "-1,2", "2,-1"), ("-2,1", "1,-2", "2,-1")],
    }


def test_b2_ascending_paths(b2):
    assert enumerate_paths(b2.base_od(), "-1,0", "1,0") == [
        ("-1,0", "0,-1", "0,1", "1,0"),
        ("-1,0", "0,-1", "1,0"),
        ("-1,0", "0,1", "1,0"),
        ("-1,0", "1,0"),
    ]
    assert enumerate_paths(b2.od, "-2,-1", "-1,2") == [
        ("-2,-1", "-1,-2", "-1,2"),
        ("-2,-1", "-2,1", "-1,2"),
    ]
