"""End-to-end tests of the command-line interface."""

import hashlib
import json

import pytest

from gkmrest.cli import main
from gkmrest.exact import Poly
from gkmrest.gkm import GkmGraph, export_dot, validate_gkm
from gkmrest.oracle import ENGINES, engine_entries
from gkmrest.orbits import Orbit, OrbitSpec

from conftest import product_of_projective_spaces, projective_space_graph, restriction_table
from reference import parse_poly


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


@pytest.fixture
def pools(monkeypatch):
    """Replace the fork context with one whose pools run in this process
    and record their size and the engine whose slices they were given."""
    import dataclasses
    import multiprocessing

    import gkmrest.oracle as oracle
    log = []
    engine_of = {}

    for name, rec in list(oracle.ENGINES.items()):
        def slicer(orbit, od, name=name, inner=rec.slicer):
            part = inner(orbit, od)
            engine_of[id(part)] = name
            return part

        monkeypatch.setitem(oracle.ENGINES, name, dataclasses.replace(rec, slicer=slicer))

    class FakePool:
        def __init__(self, processes, initializer, initargs):
            log.append({"processes": processes, "engine": engine_of[id(initargs[0])]})
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, keys):
            return map(fn, keys)

    class Context:
        Pool = FakePool

    # the in-process initializer sets it here; put it back afterwards
    monkeypatch.setattr(oracle, "_worker_part", None, raising=False)
    monkeypatch.setattr(multiprocessing, "get_context", lambda method=None: Context())
    return log


def pooled_engines(log):
    return [entry["engine"] for entry in log]


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


class TestBadFilePaths:
    """A path that cannot be read or written exits 2 with one error line."""

    @pytest.fixture
    def not_utf8(self, tmp_path):
        path = tmp_path / "bytes.json"
        path.write_bytes(b"\xff\xfe")
        return str(path)

    @staticmethod
    def assert_error(capsys, argv, text):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and text in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["validate", "restrict", "export"])
    def test_graph_is_a_directory(self, capsys, tmp_path, command):
        extra = {"restrict": ["--p", "a", "--q", "b"], "export": ["--dot"]}
        self.assert_error(capsys, [command, "--graph", str(tmp_path),
                                   *extra.get(command, [])], "Is a directory")

    @pytest.mark.parametrize("command", ["validate", "restrict", "compare"])
    def test_graph_not_utf8(self, capsys, not_utf8, command):
        extra = {"restrict": ["--p", "a", "--q", "b"]}
        self.assert_error(capsys, [command, "--graph", not_utf8,
                                   *extra.get(command, [])], "not UTF-8")

    @pytest.mark.parametrize("flag", ["--out", "--csv"])
    def test_table_output_is_a_directory(self, capsys, tmp_path, flag):
        self.assert_error(capsys, ["table", "--type", "A", "--rank", "2",
                                   flag, str(tmp_path)], "Is a directory")


def _set(key, value, where="edges"):
    """A mutation of the CP^2 graph JSON: its first vertex or edge gets
    `value` at `key`."""
    return lambda data: data[where][0].__setitem__(key, value)


class TestRefusedInputs:
    """Each malformed input is refused with a message and no traceback."""

    @pytest.mark.parametrize("argv, mutate, code, stream, text", [
        (["table"], _set("id", "p2", "vertices"), 2, "err", "error: duplicate vertex ids\n"),
        (["table"], _set("moment", ["1", "0"], "vertices"), 2, "err",
         "error: moment of 'p1' has wrong length\n"),
        (["table"], _set("dst", "p9"), 2, "err",
         "error: edge ('p1','p9') references unknown vertex\n"),
        (["table"], _set("dst", "p1"), 2, "err", "error: loop edge at 'p1'\n"),
        (["table"], lambda data: data["edges"].append(
            {"src": "p1", "dst": "p2", "weight": ["2", "-2", "0"]}), 2, "err",
         "error: conflicting weights for edge ('p1', 'p2')\n"),
        (["table"], _set("weight", ["1", "-1"]), 2, "err",
         "error: edge ('p1','p2') weight has wrong length\n"),
        (["validate"], _set("weight", ["0", "0", "0"]), 1, "out", "[zero-weight]"),
        (["restrict", "--type", "A", "--rank", "2", "--p", "w:-1,2,3", "--q", "w:3,2,1"],
         None, 2, "err", "error: SignedPerm(-1,2,3) is not an element of this group\n"),
    ], ids=["duplicate-ids", "moment-length", "unknown-vertex", "loop-edge",
            "conflicting-weights", "weight-length", "zero-weight", "not-in-group"])
    def test_refused(self, capsys, tmp_path, argv, mutate, code, stream, text):
        if mutate is not None:
            data = projective_space_graph(2).to_json()
            mutate(data)
            path = tmp_path / "fault.json"
            path.write_text(json.dumps(data))
            argv = [*argv, "--graph", str(path)]
        assert main(argv) == code
        captured = capsys.readouterr()
        assert text in getattr(captured, stream)
        assert "Traceback" not in captured.out + captured.err


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

    # sha256 of the B3 tower ledger of w:1,-3,-2 -> w:-1,-2,-3 (11 paths),
    # the stdout of `restrict --ledger` with its newline
    LEDGER_SHA256 = {
        "json": "e838c145ef9d6e34475766bbc6850418c9a7daa21207e7429c7095a5b028a951",
        "text": "bd691c82c6da6d574eec7db8bba7d6d1e5f0d136a6c199649bb32753b1e971b5",
    }

    @pytest.mark.parametrize("fmt", sorted(LEDGER_SHA256))
    def test_tower_ledger_is_pinned(self, capsys, fmt):
        code, out = run(capsys, "restrict", "--type", "B", "--rank", "3",
                        "--p", "w:1,-3,-2", "--q", "w:-1,-2,-3",
                        "--engine", "tower", "--ledger", "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == self.LEDGER_SHA256[fmt]

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

    def test_brute_reads_one_row(self, capsys, monkeypatch):
        """restrict --engine brute solves only the row of p, up to q, and
        gives the entry of the full brute table."""
        import gkmrest.oracle as oracle
        calls = []
        original = oracle.brute_row

        def counting(od, p, until=None):
            calls.append((p, until))
            return original(od, p, until)

        monkeypatch.setattr(oracle, "brute_row", counting)
        for ctype, rank in (("B", 2), ("A", 3)):
            orbit = Orbit(OrbitSpec(ctype, rank))
            table = restriction_table(orbit.od, "brute")
            ids = orbit.od.graph.ids
            for p, q in ((ids[0], ids[-1]), (ids[1], ids[-2]), (ids[2], ids[2])):
                calls.clear()
                code, out = run(capsys, "restrict", "--type", ctype, "--rank", str(rank),
                                "--p", p, "--q", q, "--engine", "brute",
                                "--format", "json")
                assert code == 0
                assert json.loads(out)["value"] == table.get(p, q).to_json()
                assert calls == [(p, q)]

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

    def test_pool_size_is_capped_by_slices(self, capsys, pools):
        """A2 has 6 vertices, so 6 columns: --jobs 500 asks for 6 workers."""
        _, serial = run(capsys, "table", "--type", "A", "--rank", "2")
        assert pools == []
        for engine in ENGINES:
            pools.clear()
            code, out = run(capsys, "table", "--type", "A", "--rank", "2",
                            "--engine", engine, "--jobs", "500")
            assert code == 0 and out == serial
            assert [e["processes"] for e in pools] == [6]
            assert pooled_engines(pools) == [engine]

    def test_billey_above_the_subword_cap_exits_2_at_once(self, capsys, monkeypatch):
        """The longest element of B4 has length 16 > 12, so the billey
        table is refused before any subword sum is taken."""
        import gkmrest.oracle as oracle

        def never(*args, **kwargs):
            raise AssertionError("billey_restriction was called")

        monkeypatch.setattr(oracle, "billey_restriction", never)
        code = main(["table", "--type", "B", "--rank", "4", "--engine", "billey"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "billey" in captured.err and "16" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command", ["table", "compare"])
    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exits_2(self, capsys, pools, command, jobs):
        code = main([command, "--type", "A", "--rank", "2", "--jobs", jobs])
        err = capsys.readouterr().err
        assert code == 2
        assert "jobs" in err and jobs in err and "Traceback" not in err
        assert pools == []

    @pytest.mark.parametrize("engine", ["tower", "typed", "billey"])
    def test_orbit_only_engine_on_graph_exits_2(self, capsys, cp2_file, engine):
        for argv in (["restrict", "--p", "p1", "--q", "p2"], ["table"]):
            code = main([*argv, "--graph", cp2_file, "--engine", engine])
            captured = capsys.readouterr()
            assert code == 2, argv
            assert engine in captured.err and "Traceback" not in captured.err
            assert captured.out == ""

    def test_streamed_output_never_builds_to_json(self, capsys, tmp_path, monkeypatch):
        from gkmrest.canonical import RestrictionTable
        orbit = Orbit(OrbitSpec("B", 2))
        table = RestrictionTable(orbit.od, engine_entries(orbit, "gz"))
        want = json.dumps(table.to_json(), sort_keys=True)

        def refuse(self):
            raise AssertionError("table output went through to_json")

        monkeypatch.setattr(RestrictionTable, "to_json", refuse)
        code, out = run(capsys, "table", "--type", "B", "--rank", "2")
        assert code == 0 and out == want + "\n"
        path = tmp_path / "t.json"
        code, rest = run(capsys, "table", "--type", "B", "--rank", "2", "--out", str(path))
        assert code == 0 and rest == ""
        assert path.read_bytes() == out.encode("utf-8")

    def test_bar_in_vertex_id_exits_2(self, capsys, tmp_path):
        """Ids a|b, c and a, b|c would share the table key a|b|c."""
        data = product_of_projective_spaces(1, 1).to_json()
        rename = dict(zip((v["id"] for v in data["vertices"]), ("a", "a|b", "c", "b|c")))
        for v in data["vertices"]:
            v["id"] = rename[v["id"]]
        for e in data["edges"]:
            e["src"], e["dst"] = rename[e["src"]], rename[e["dst"]]
        path = tmp_path / "bars.json"
        path.write_text(json.dumps(data))
        code = main(["table", "--graph", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: vertex id 'a|b' contains '|'\n"

    # sha256 of the table JSON, the stdout of `table` without its newline
    TABLE_SHA256 = {
        "A": "e80a4ca493d4cfbbdeae28f4ec41e3277d9e9eab8636d77e50dbf19b68837452",
        "B": "55f00d06f4cdc1162d6e5f27e08f52cf54f1a43070176c4ceeb68e2b2134b3a8",
        "C": "9cb346700a90a073099820fdd759290c924a340a53d0d1b7790a0b795b9c95fe",
    }

    @pytest.mark.parametrize("engine", ["gz", "brute"])
    @pytest.mark.parametrize("ctype", sorted(TABLE_SHA256))
    def test_rank3_table_bytes_are_pinned(self, capsys, ctype, engine):
        code, out = run(capsys, "table", "--type", ctype, "--rank", "3", "--engine", engine)
        assert code == 0
        body, newline = out[:-1], out[-1:]
        assert newline == "\n" and not body.endswith("\n")
        assert hashlib.sha256(body.encode("utf-8")).hexdigest() == self.TABLE_SHA256[ctype]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("engine", ["ordered", "tower"])
    @pytest.mark.parametrize("ctype", sorted(TABLE_SHA256))
    def test_rank3_path_sum_tables_are_pinned(self, capsys, ctype, engine, jobs):
        """The column dynamic program prints the gz table byte for byte,
        in forked workers too."""
        code, out = run(capsys, "table", "--type", ctype, "--rank", "3",
                        "--engine", engine, "--jobs", jobs)
        assert code == 0
        assert hashlib.sha256(out[:-1].encode("utf-8")).hexdigest() == self.TABLE_SHA256[ctype]


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

    @pytest.mark.parametrize("level", ["0", "4", "-1"])
    def test_level_out_of_range_exits_2(self, capsys, level):
        code = main(["orbit", "--type", "D", "--rank", "3", f"--level={level}"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert f"level {level} out of range" in captured.err

    def test_dot_format(self, capsys):
        code, out = run(capsys, "orbit", "--type", "A", "--rank", "1",
                        "--format", "dot")
        assert code == 0
        assert out.startswith("digraph")

    @pytest.mark.parametrize("ctype", ["A", "B"])
    def test_dot_oriented_by_the_orbit_xi(self, capsys, ctype):
        """The orbit's DOT carries the indices the engines see: that of
        export --dot, oriented by the orbit's xi."""
        _, dot = run(capsys, "orbit", "--type", ctype, "--rank", "2", "--format", "dot")
        _, exported = run(capsys, "export", "--type", ctype, "--rank", "2", "--dot")
        assert dot == exported

    def test_dot_level_one_is_the_base(self, capsys):
        _, dot = run(capsys, "orbit", "--type", "B", "--rank", "2", "--level", "1",
                     "--format", "dot")
        assert dot == export_dot(Orbit(OrbitSpec("B", 2)).base_od()) + "\n"


class TestCompare:
    def test_a2_report(self, capsys):
        code, out = run(capsys, "compare", "--type", "A", "--rank", "2")
        assert code == 0
        assert "0 mismatches / 36 pairs" in out

    def test_graph_input(self, capsys, cp2_file):
        code, out = run(capsys, "compare", "--graph", cp2_file)
        assert code == 0
        assert "0 mismatches / 9 pairs" in out

    def test_inapplicable_engine_exits_2(self, capsys, cp2_file):
        code = main(["compare", "--graph", cp2_file, "--engines", "gz,tower"])
        err = capsys.readouterr().err
        assert code == 2
        assert "tower" in err and "Traceback" not in err

    def test_unknown_engine_exits_2(self, capsys):
        code = main(["compare", "--type", "A", "--rank", "2", "--engines", "gz,nope"])
        err = capsys.readouterr().err
        assert code == 2
        assert "nope" in err and "Traceback" not in err

    @pytest.mark.parametrize("engines", ["gz", "gz,gz", "gz,brute,gz"])
    def test_fewer_than_two_distinct_engines_exit_2(self, capsys, engines):
        code = main(["compare", "--type", "A", "--rank", "2", "--engines", engines])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"'{engines}'" in captured.err and "Traceback" not in captured.err

    def test_jobs_run_tables_in_the_pool(self, capsys, pools):
        argv = ("compare", "--type", "A", "--rank", "2", "--format", "json")
        code, serial = run(capsys, *argv, "--jobs", "1")
        assert code == 0 and pools == []
        code, parallel = run(capsys, *argv, "--jobs", "2")
        assert code == 0
        assert parallel == serial
        assert pooled_engines(pools) == ["gz", "typed", "brute", "ordered", "tower",
                                         "billey"]
        assert [e["processes"] for e in pools] == [2] * 6

    def test_json_format(self, capsys):
        code, out = run(capsys, "compare", "--type", "C", "--rank", "2",
                        "--engines", "gz,typed,brute", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["pairs_checked"] == 64 and not data["mismatches"]

    def test_d2_leaves_out_typed(self, capsys):
        # the typed engine needs rank three for type D
        code, out = run(capsys, "compare", "--type", "D", "--rank", "2",
                        "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["engines"] == ["gz", "brute", "ordered", "tower", "billey"]
        assert data["pairs_checked"] == 16 and not data["mismatches"]


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


class TestModuleEntryPoint:
    """python -m gkmrest runs the same main as the gkmrest executable."""

    def run_module(self, *argv):
        import os
        import subprocess
        import sys
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-m", "gkmrest", *argv],
                              capture_output=True, text=True, env=env, timeout=120)

    def test_compare_exits_0(self):
        done = self.run_module("compare", "--type", "A", "--rank", "2")
        assert done.returncode == 0, done.stderr
        assert "0 mismatches" in done.stdout

    def test_bad_rank_exits_2(self):
        done = self.run_module("compare", "--type", "A", "--rank", "0")
        assert done.returncode == 2
        assert done.stderr.startswith("error:") and "Traceback" not in done.stderr
