"""Tests of the typed A/C columns: the column dynamic program over the
coordinate classes against the per-entry chain walk (formula_AC), no
chain walk during any typed table, and the sha256 digests of typed,
ordered and tower tables."""

import hashlib
import json

import pytest

import gkmrest.orbits as orbits
from gkmrest.canonical import RestrictionTable
from gkmrest.cli import main
from gkmrest.oracle import engine_entries
from gkmrest.orbits import Orbit, OrbitSpec, formula_AC, typed_column

# sha256 of the `table` JSON (its stdout without the final newline); the
# typed, ordered and tower tables of an orbit equal its gz table
DIGESTS = {
    ("A", 3): "e80a4ca493d4cfbbdeae28f4ec41e3277d9e9eab8636d77e50dbf19b68837452",
    ("B", 3): "55f00d06f4cdc1162d6e5f27e08f52cf54f1a43070176c4ceeb68e2b2134b3a8",
    ("C", 3): "9cb346700a90a073099820fdd759290c924a340a53d0d1b7790a0b795b9c95fe",
    ("A", 4): "fa14d322c98d6c1fcb44eb57d0d6b9c316865ae573260cca73ce117a7f059873",
    ("D", 4): "fb6804e5ebc48116bcea064df363d697ad60538ddbbec16d6fcd8535437fdfd5",
}


def digest(orbit: Orbit, entries) -> str:
    text = "".join(RestrictionTable(orbit.od, entries).json_chunks())
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def typed_tables():
    """Typed tables of A4, C3 and D4, with the formula_AC calls made
    while they were built."""
    calls = []

    def counted(orbit, p, q):
        calls.append((p, q))
        return formula_AC(orbit, p, q)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(orbits, "formula_AC", counted)
        tables = {}
        for ctype, rank in (("A", 4), ("C", 3), ("D", 4)):
            orbit = Orbit(OrbitSpec(ctype, rank))
            tables[(ctype, rank)] = orbit, engine_entries(orbit, "typed")
    return tables, calls


class TestColumnMatchesChainWalk:
    @pytest.mark.parametrize("ctype", ["A", "C"])
    def test_every_pair_of_rank_three(self, ctype):
        orbit = Orbit(OrbitSpec(ctype, 3))
        for q in orbit.od.graph.ids:
            column = typed_column(orbit, q)
            assert list(column) == list(orbit.od.graph.ids)
            for p, value in column.items():
                assert value == formula_AC(orbit, p, q)[0], (p, q)


class TestNoChainWalk:
    def test_typed_tables_call_no_formula_AC(self, typed_tables):
        tables, calls = typed_tables
        for orbit, entries in tables.values():
            assert len(entries) == len(orbit.elements) ** 2
        assert calls == []

    @pytest.mark.parametrize("fmt, expected", [
        ("text", "x1 + x2 - x3 - x4\n"
                 "#  -3,-1,-2,6 -> -1,-3,-2,6 -> -1,-2,-3,6 -> -1,6,-3,-2  :  (x1 - x4)\n"
                 "#  -3,-1,-2,6 -> -2,-1,-3,6 -> -1,-2,-3,6 -> -1,6,-3,-2  :  (x2 - x3)\n"),
        ("json", json.dumps({
            "engine": "typed", "p": "-3,-1,-2,6",
            "paths": [
                {"levels": [1, 1, 2], "value": "(x1 - x4)",
                 "path": ["-3,-1,-2,6", "-1,-3,-2,6", "-1,-2,-3,6", "-1,6,-3,-2"]},
                {"levels": [1, 2, 2], "value": "(x2 - x3)",
                 "path": ["-3,-1,-2,6", "-2,-1,-3,6", "-1,-2,-3,6", "-1,6,-3,-2"]}],
            "q": "-1,6,-3,-2",
            "value": [{"coeff": "1", "exp": [1, 0, 0, 0]}, {"coeff": "1", "exp": [0, 1, 0, 0]},
                      {"coeff": "-1", "exp": [0, 0, 1, 0]}, {"coeff": "-1", "exp": [0, 0, 0, 1]}],
        }, sort_keys=True) + "\n"),
    ])
    def test_restrict_ledger_still_walks_chains(self, capsys, monkeypatch, fmt, expected):
        calls = []

        def counted(orbit, p, q):
            calls.append((p, q))
            return formula_AC(orbit, p, q)

        monkeypatch.setattr(orbits, "formula_AC", counted)
        code = main(["restrict", "--type", "A", "--rank", "3", "--p", "w:1,3,2,4",
                     "--q", "w:3,4,1,2", "--engine", "typed", "--ledger", "--format", fmt])
        assert code == 0
        assert capsys.readouterr().out == expected
        assert len(calls) == 1


class TestTableDigests:
    def test_typed(self, typed_tables):
        tables, _ = typed_tables
        a3 = Orbit(OrbitSpec("A", 3))
        tables = {**tables, ("A", 3): (a3, engine_entries(a3, "typed"))}
        for key, (orbit, entries) in sorted(tables.items()):
            assert digest(orbit, entries) == DIGESTS[key], key

    @pytest.mark.parametrize("ctype", ["B", "C"])
    @pytest.mark.parametrize("engine", ["ordered", "tower"])
    def test_path_sum_tables_of_rank_three(self, ctype, engine):
        orbit = Orbit(OrbitSpec(ctype, 3))
        assert digest(orbit, engine_entries(orbit, engine)) == DIGESTS[(ctype, 3)]
