"""Command-line front end.

Subcommands: validate, restrict, table, orbit, compare, export.  Inputs
are either a graph JSON file (--graph) or an orbit descriptor
(--type/--rank, optionally --mu).  Output is byte-deterministic for fixed
inputs and flags.

Exit codes: 0 success, 1 validation failure or mismatch, 2 computation or
input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from functools import cache

from .canonical import RestrictionTable
from .errors import GkmError, GraphFormatError
from .exact import Weight, format_scalar
from .gkm import (
    GkmGraph,
    OrientedGraphData,
    choose_generic_xi,
    export_dot,
    validate_gkm,
)
from .oracle import ENGINES, cross_validate, engine_entries, engine_entry, oriented_graph
from .orbits import Orbit, OrbitSpec, SignedPerm, build_orbit_gkm


_SEED_HELP = "accepted for compatibility; the generic direction does not depend on it"


def _add_source_args(sub):
    sub.add_argument("--graph", help="graph JSON file")
    sub.add_argument("--type", dest="ctype", choices=("A", "B", "C", "D"),
                     help="orbit family")
    sub.add_argument("--rank", type=int, help="orbit rank")
    sub.add_argument("--mu", help="comma-separated regular point overriding the default")
    sub.add_argument("--seed", type=int, default=0, help=_SEED_HELP)


def _read_graph(path: str) -> GkmGraph:
    """The graph in a JSON file.  A file that is not UTF-8 text raises
    GraphFormatError; one that cannot be opened or read raises OSError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise GraphFormatError(f"{path} is not UTF-8 text: {exc}") from exc
    return GkmGraph.from_json(text)


def _load_target(args):
    """The Orbit, whose graph is built on first use, or on graph input the
    oriented graph itself."""
    if getattr(args, "graph", None):
        g = _read_graph(args.graph)
        rep = validate_gkm(g)
        if not rep.ok:
            raise GkmError(f"invalid graph:\n{rep}")
        return OrientedGraphData(g, choose_generic_xi(g))
    return _orbit(args)


def _orbit(args) -> Orbit:
    """The Orbit of --type, --rank and --mu; its graph is built on first
    use."""
    if args.ctype is None or args.rank is None:
        raise GkmError("need --graph or both --type and --rank")
    mu = None
    if args.mu:
        mu = [part.strip() for part in args.mu.split(",")]
    return Orbit(OrbitSpec(args.ctype, args.rank, mu=mu))


def _resolve_vertex(target, text: str) -> str:
    """Vertex addressing: a literal vertex id, moment coordinates
    'a,b,..', or, on orbits, a signed one-line Weyl element 'w:2,-1'.
    Orbit vertices are looked up among the group's, without the graph."""
    if isinstance(target, Orbit):
        if text.startswith("w:"):
            return target.vertex(SignedPerm.from_string(text[2:]))
        ids = target.word_of_vid
    else:
        ids = target.graph.moment
    if text in ids:
        return text
    try:
        key = ",".join(format_scalar(c) for c in Weight(text.split(",")).coords)
    except (ValueError, ZeroDivisionError):
        key = None
    if key is not None and key in ids:
        return key
    raise GkmError(f"no vertex with moment {text!r}")


def cmd_validate(args) -> int:
    g = _read_graph(args.graph)
    rep = validate_gkm(g)
    print(rep)
    if not rep.ok:
        return 1
    xi = choose_generic_xi(g)
    OrientedGraphData(g, xi)  # raises if the certificate fails
    print(f"generic direction: {xi}")
    return 0


def cmd_restrict(args) -> int:
    target = _load_target(args)
    p = _resolve_vertex(target, args.p)
    q = _resolve_vertex(target, args.q)
    value, ledger = engine_entry(target, args.engine, p, q)
    if args.format == "json":
        out = {"p": p, "q": q, "engine": args.engine, "value": value.to_json()}
        if args.ledger and ledger is not None:
            out["paths"] = [
                {"path": list(t.path), "value": str(t.value),
                 "levels": list(t.levels) if t.levels else None}
                for t in ledger
            ]
        print(json.dumps(out, sort_keys=True))
    else:
        print(value)
        if args.ledger and ledger is not None:
            for t in ledger:
                print(f"#  {' -> '.join(t.path)}  :  {t.value}")
    return 0


def cmd_table(args) -> int:
    target = _load_target(args)
    table = RestrictionTable(oriented_graph(target),
                             engine_entries(target, args.engine, jobs=args.jobs))
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(table.to_csv() + "\n")
    with open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout) as fh:
        fh.writelines(table.json_chunks())
        fh.write("\n")
    return 0


def cmd_orbit(args) -> int:
    orbit = _orbit(args)
    g = build_orbit_gkm(orbit, args.level)
    if args.format == "dot":
        # oriented by the orbit's xi, as the engines and export --dot are
        print(export_dot(OrientedGraphData(g, orbit.xi)))
    else:
        print(json.dumps(g.to_json(), sort_keys=True))
    return 0


def cmd_compare(args) -> int:
    target = _load_target(args)
    engines = args.engines.split(",") if args.engines else None
    report = cross_validate(target, engines, jobs=args.jobs)
    if args.format == "json":
        print(json.dumps(report.to_json(), sort_keys=True))
    else:
        print(report)
        for m in report.mismatches[:10]:
            print(f"  {m['p']} -> {m['q']}: {m['engine_a']}={m['value_a']} "
                  f"vs {m['engine_b']}={m['value_b']}")
    return 0 if report.ok else 1


def cmd_export(args) -> int:
    od = oriented_graph(_load_target(args))
    if args.dot:
        print(export_dot(od, canonical=args.canonical))
    else:
        print(json.dumps(od.graph.to_json(), sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gkmrest",
        description="Exact canonical-class restrictions on labelled moment graphs "
                    "and classical orbit graphs.")
    sub = ap.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="check the graph axioms")
    p_val.add_argument("--graph", required=True)
    p_val.add_argument("--seed", type=int, default=0, help=_SEED_HELP)

    p_res = sub.add_parser("restrict", help="one restriction value")
    _add_source_args(p_res)
    p_res.add_argument("--p", required=True, help="source vertex (moment coords or w:one-line)")
    p_res.add_argument("--q", required=True, help="target vertex")
    p_res.add_argument("--engine", choices=ENGINES, default="gz")
    p_res.add_argument("--ledger", action="store_true", help="print per-path terms")
    p_res.add_argument("--format", choices=("text", "json"), default="text")

    p_tab = sub.add_parser("table", help="full restriction table")
    _add_source_args(p_tab)
    p_tab.add_argument("--engine", choices=ENGINES, default="gz")
    p_tab.add_argument("--out", help="write the JSON table to a file")
    p_tab.add_argument("--csv", help="write a CSV summary to a file")
    p_tab.add_argument("--jobs", type=int, default=1,
                       help="worker processes for a table computed by columns or rows")

    p_orb = sub.add_parser("orbit", help="emit an orbit graph")
    p_orb.add_argument("--type", dest="ctype", required=True,
                       choices=("A", "B", "C", "D"))
    p_orb.add_argument("--rank", type=int, required=True)
    p_orb.add_argument("--mu")
    p_orb.add_argument("--level", type=int)
    p_orb.add_argument("--seed", type=int, default=0, help=_SEED_HELP)
    p_orb.add_argument("--format", choices=("json", "dot"), default="json")

    p_cmp = sub.add_parser("compare", help="multi-engine agreement report")
    _add_source_args(p_cmp)
    p_cmp.add_argument("--engines", help="comma-separated engine list")
    p_cmp.add_argument("--format", choices=("text", "json"), default="text")
    p_cmp.add_argument("--jobs", type=int, default=1,
                       help="worker processes for the tables computed by columns or rows")

    p_exp = sub.add_parser("export", help="graph export")
    _add_source_args(p_exp)
    group = p_exp.add_mutually_exclusive_group(required=True)
    group.add_argument("--dot", action="store_true")
    group.add_argument("--json", action="store_true")
    p_exp.add_argument("--canonical", action="store_true",
                       help="restrict the DOT output to index-raising edges")
    return ap


_VALUE_FLAGS = {"--p", "--q", "--mu"}


def _merge_value_flags(argv):
    """Join '--p -2,1' into '--p=-2,1' so moment coordinates starting with
    a minus sign survive argument parsing."""
    out = []
    it = iter(argv)
    for tok in it:
        if tok in _VALUE_FLAGS:
            try:
                val = next(it)
            except StopIteration:
                out.append(tok)
                break
            out.append(f"{tok}={val}")
        else:
            out.append(tok)
    return out


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parser().parse_args(_merge_value_flags(argv))
    # the command is looked up by name on each call, not read from the
    # parser, which keeps the functions bound when it was built
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except (GkmError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
