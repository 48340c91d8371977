"""End-to-end tests of the command-line interface."""

import json

import pytest

from gkmrest.cli import main
from gkmrest.exact import Poly, parse_poly
from gkmrest.gkm import GkmGraph, validate_gkm

from conftest import projective_space_graph


@pytest.fixture
def cp2_file(tmp_path):
    path = tmp_path / "cp2.json"
    path.write_text(json.dumps(projective_space_graph(2).to_json()))
    return str(path)


@pytest.fixture
def broken_file(tmp_path):
    data = projective_space_graph(2).to_json()
    # negate one declared weight without fixing the mirror
    g = data["edges"][0]
    g["weight"] = [str(-int(c)) for c in (1, -1, 0)]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestValidate:
    def test_valid_graph(self, capsys, cp2_file):
        code, out = run(capsys, "validate", "--graph", cp2_file)
        assert code == 0
        assert "valid" in out

    def test_broken_symmetry(self, capsys, broken_file):
        code, out = run(capsys, "validate", "--graph", broken_file)
        assert code == 1
        assert "p1" in out or "p2" in out

    def test_missing_file(self, capsys):
        code, _ = run(capsys, "validate", "--graph", "/nonexistent/g.json")
        assert code == 2

    def test_unparseable_file(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        code, _ = run(capsys, "validate", "--graph", str(path))
        assert code == 2


class TestRestrict:
    def test_b2_worked_example(self, capsys):
        code, out = run(capsys, "restrict", "--type", "B", "--rank", "2",
                        "--p", "-2,1", "--q", "2,1", "--engine", "typed")
        assert code == 0
        assert out.strip() == "x1 + x2"

    def test_diagonal_gives_downward_product(self, capsys):
        code, out = run(capsys, "restrict", "--type", "A", "--rank", "2",
                        "--p", "w:3,2,1", "--q", "w:3,2,1")
        assert code == 0
        poly = parse_poly(out.strip(), 3)
        assert poly.is_homogeneous() and poly.degree() == 3

    def test_engines_agree_on_output(self, capsys):
        args = ("restrict", "--type", "B", "--rank", "2",
                "--p", "-2,1", "--q", "2,1")
        _, brute = run(capsys, *args, "--engine", "brute")
        _, typed = run(capsys, *args, "--engine", "typed")
        assert brute == typed

    def test_graph_input(self, capsys, cp2_file):
        # the default direction (1, B, B^2) makes p3 the minimum, whose
        # class restricts to one everywhere
        code, out = run(capsys, "restrict", "--graph", cp2_file,
                        "--p", "p3", "--q", "p1")
        assert code == 0
        assert parse_poly(out.strip(), 3) == Poly.const(3, 1)

    def test_ledger_and_json(self, capsys):
        code, out = run(capsys, "restrict", "--type", "A", "--rank", "2",
                        "--p", "w:1,2,3", "--q", "w:3,2,1",
                        "--engine", "tower", "--ledger", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["engine"] == "tower"
        assert data["paths"]

    def test_typed_needs_orbit(self, capsys, cp2_file):
        code, _ = run(capsys, "restrict", "--graph", cp2_file,
                      "--p", "p1", "--q", "p2", "--engine", "typed")
        assert code == 2

    def test_non_numeric_mu_exits_2(self, capsys):
        code = main(["restrict", "--type", "A", "--rank", "2", "--mu", "a,b,c",
                     "--p", "w:1,2,3", "--q", "w:3,2,1"])
        err = capsys.readouterr().err
        assert code == 2
        assert "mu" in err and "Traceback" not in err

    def test_zero_denominator_in_mu_or_vertex_exits_2(self, capsys):
        code, _ = run(capsys, "orbit", "--type", "B", "--rank", "2", "--mu", "1/0,2")
        assert code == 2
        code, _ = run(capsys, "restrict", "--type", "A", "--rank", "2",
                      "--p", "1/0,2", "--q", "w:3,2,1")
        assert code == 2

    def test_output_reparses(self, capsys):
        for engine in ("gz", "typed", "brute"):
            _, out = run(capsys, "restrict", "--type", "C", "--rank", "2",
                         "--p", "w:-1,-2", "--q", "w:-1,-2", "--engine", engine)
            parse_poly(out.strip(), 2)


class TestTable:
    def test_c2_table_integer_coefficients(self, capsys, tmp_path):
        csv_file = tmp_path / "t.csv"
        code, out = run(capsys, "table", "--type", "C", "--rank", "2",
                        "--engine", "typed", "--csv", str(csv_file))
        assert code == 0
        data = json.loads(out)
        assert len(data) == 64
        for terms in data.values():
            for item in terms:
                assert "/" not in item["coeff"]
        body = csv_file.read_text().splitlines()
        assert len(body) == 65
        assert all(",true," in line for line in body[1:])

    def test_deterministic_output(self, capsys):
        _, a = run(capsys, "table", "--type", "B", "--rank", "2")
        _, b = run(capsys, "table", "--type", "B", "--rank", "2")
        assert a == b

    def test_jobs_match_serial(self, capsys):
        _, serial = run(capsys, "table", "--type", "A", "--rank", "2")
        _, parallel = run(capsys, "table", "--type", "A", "--rank", "2",
                          "--jobs", "2")
        assert serial == parallel


class TestOrbitCommand:
    def test_emitted_graph_validates(self, capsys):
        code, out = run(capsys, "orbit", "--type", "B", "--rank", "2")
        assert code == 0
        g = GkmGraph.from_json(out)
        assert validate_gkm(g).ok

    def test_level_one_vertex_count(self, capsys):
        _, out = run(capsys, "orbit", "--type", "D", "--rank", "3", "--level", "1")
        g = GkmGraph.from_json(out)
        assert len(g.ids) == 6

    def test_dot_format(self, capsys):
        code, out = run(capsys, "orbit", "--type", "A", "--rank", "1",
                        "--format", "dot")
        assert code == 0
        assert out.startswith("digraph")


class TestCompare:
    def test_a2_report(self, capsys):
        code, out = run(capsys, "compare", "--type", "A", "--rank", "2")
        assert code == 0
        assert "0 mismatches / 36 pairs" in out

    def test_graph_input(self, capsys, cp2_file):
        code, out = run(capsys, "compare", "--graph", cp2_file)
        assert code == 0
        assert "0 mismatches / 9 pairs" in out

    def test_json_format(self, capsys):
        code, out = run(capsys, "compare", "--type", "C", "--rank", "2",
                        "--engines", "gz,typed,brute", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["pairs_checked"] == 64 and not data["mismatches"]


class TestExportedOrbitPipeline:
    def test_exported_orbit_feeds_graph_engines(self, capsys, tmp_path):
        """An emitted orbit graph re-enters through the generic-graph path:
        a fresh direction is chosen, and the graph engines agree on it."""
        _, out = run(capsys, "orbit", "--type", "B", "--rank", "2")
        path = tmp_path / "b2.json"
        path.write_text(out)
        code, report = run(capsys, "compare", "--graph", str(path))
        assert code == 0
        assert "0 mismatches / 64 pairs" in report

    def test_typed_ledger_on_type_a(self, capsys):
        code, out = run(capsys, "restrict", "--type", "A", "--rank", "2",
                        "--p", "w:1,2,3", "--q", "w:3,2,1",
                        "--engine", "typed", "--ledger", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["paths"], "typed ledger missing"


class TestExport:
    def test_dot_cp2_counts(self, capsys, cp2_file):
        code, out = run(capsys, "export", "--graph", cp2_file, "--dot")
        assert code == 0
        assert out.count("->") == 6
        assert out.count('label="p') == 3

    def test_canonical_arcs(self, capsys, cp2_file):
        _, out = run(capsys, "export", "--graph", cp2_file, "--dot",
                     "--canonical")
        assert out.count("->") == 2

    def test_json_roundtrip(self, capsys):
        _, out = run(capsys, "export", "--type", "B", "--rank", "2", "--json")
        g = GkmGraph.from_json(out)
        assert len(g.ids) == 8
