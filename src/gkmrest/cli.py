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

from .canonical import (
    RestrictionTable,
    brute_solve_canonical,
    restriction_ordered,
    restriction_single_form,
    single_form_column,
)
from .errors import GkmError
from .exact import Poly, Weight, format_scalar
from .fibration import tower_restriction
from .gkm import (
    GkmGraph,
    OrientedGraphData,
    choose_generic_xi,
    export_dot,
    validate_gkm,
)
from .oracle import billey_restriction, cross_validate, engine_entries
from .orbits import Orbit, OrbitSpec, SignedPerm, build_orbit_gkm, typed_restriction

ENGINES = ("gz", "ordered", "tower", "typed", "brute", "billey")


def _add_source_args(sub, orbit_only=False):
    if not orbit_only:
        sub.add_argument("--graph", help="graph JSON file")
    sub.add_argument("--type", dest="ctype", choices=("A", "B", "C", "D"),
                     help="orbit family")
    sub.add_argument("--rank", type=int, help="orbit rank")
    sub.add_argument("--mu", help="comma-separated regular point overriding the default")
    sub.add_argument("--seed", type=int, default=0,
                     help="seed for the generic direction search on graph input")


def _load_target(args):
    """Return (orbit_or_None, oriented_data)."""
    if getattr(args, "graph", None):
        with open(args.graph, "r", encoding="utf-8") as fh:
            g = GkmGraph.from_json(fh.read())
        rep = validate_gkm(g)
        if not rep.ok:
            raise GkmError(f"invalid graph:\n{rep}")
        od = OrientedGraphData(g, choose_generic_xi(g, seed=args.seed))
        return None, od
    if args.ctype is None or args.rank is None:
        raise GkmError("need --graph or both --type and --rank")
    mu = None
    if args.mu:
        mu = [part.strip() for part in args.mu.split(",")]
    orbit = Orbit(OrbitSpec(args.ctype, args.rank, mu=mu))
    return orbit, orbit.od


def _resolve_vertex(orbit, od, text: str) -> str:
    """Vertex addressing: a literal vertex id, moment coordinates
    'a,b,..', or, on orbits, a signed one-line Weyl element 'w:2,-1'."""
    if orbit is not None and text.startswith("w:"):
        return orbit.vertex(SignedPerm.from_string(text[2:]))
    if text in od.graph.moment:
        return text
    try:
        key = ",".join(format_scalar(c) for c in Weight(text.split(",")).coords)
    except (ValueError, ZeroDivisionError):
        key = None
    if key is not None and key in od.graph.moment:
        return key
    raise GkmError(f"no vertex with moment {text!r}")


def cmd_validate(args) -> int:
    with open(args.graph, "r", encoding="utf-8") as fh:
        g = GkmGraph.from_json(fh.read())
    rep = validate_gkm(g)
    print(rep)
    if not rep.ok:
        return 1
    xi = choose_generic_xi(g, seed=args.seed)
    OrientedGraphData(g, xi)  # raises if the certificate fails
    print(f"generic direction: {xi}")
    return 0


def _restrict_value(args, orbit, od, p, q):
    engine = args.engine
    ledger = None
    if engine == "gz":
        value = restriction_single_form(od, p, q)
    elif engine == "brute":
        value = brute_solve_canonical(od).get(p, q)
    elif engine == "ordered":
        if orbit is not None:
            classes = [lvl.moment for lvl in orbit.tower().levels]
        else:
            classes = [dict(od.graph.moment)]
        value, ledger = restriction_ordered(od, p, q, classes)
    elif engine == "tower":
        if orbit is None:
            raise GkmError("tower engine needs an orbit input")
        value, ledger = tower_restriction(od, orbit.tower(), p, q)
    elif engine == "typed":
        if orbit is None:
            raise GkmError("typed engine needs an orbit input")
        if orbit.spec.ctype in ("A", "C") and args.ledger:
            from .orbits import formula_AC
            value, ledger = formula_AC(orbit, p, q)
        else:
            value = typed_restriction(orbit, p, q)
    elif engine == "billey":
        if orbit is None:
            raise GkmError("subword oracle needs an orbit input")
        wp = SignedPerm(orbit.word_of_vid[p])
        wq = SignedPerm(orbit.word_of_vid[q])
        value = billey_restriction(orbit.rs, wp, wq)
    else:
        raise GkmError(f"unknown engine {engine!r}")
    return value, ledger


def cmd_restrict(args) -> int:
    orbit, od = _load_target(args)
    p = _resolve_vertex(orbit, od, args.p)
    q = _resolve_vertex(orbit, od, args.q)
    value, ledger = _restrict_value(args, orbit, od, p, q)
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


def _table_entries(args, orbit, od):
    jobs = getattr(args, "jobs", 1) or 1
    if args.engine in ("gz", "typed", "brute") and jobs > 1:
        entries = _parallel_table(args.engine, orbit, od, jobs)
        if entries is not None:
            return entries
    return engine_entries(orbit if orbit is not None else od, args.engine)


def cmd_table(args) -> int:
    orbit, od = _load_target(args)
    if args.engine in ("tower", "typed", "billey") and orbit is None:
        raise GkmError(f"engine {args.engine!r} needs an orbit input")
    entries = _table_entries(args, orbit, od)
    table = RestrictionTable(od, entries)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(table.to_csv() + "\n")
    payload = json.dumps(table.to_json(), sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)
    return 0


def cmd_orbit(args) -> int:
    spec = OrbitSpec(args.ctype, args.rank,
                     mu=args.mu.split(",") if args.mu else None)
    level = args.level if args.level is not None else args.rank
    g = build_orbit_gkm(spec, level)
    if args.format == "dot":
        od = OrientedGraphData(g, choose_generic_xi(g, seed=args.seed))
        print(export_dot(od))
    else:
        print(json.dumps(g.to_json(), sort_keys=True))
    return 0


def cmd_compare(args) -> int:
    orbit, od = _load_target(args)
    engines = args.engines.split(",") if args.engines else None
    report = cross_validate(orbit if orbit is not None else od, engines)
    if args.format == "json":
        print(json.dumps(report.to_json(), sort_keys=True))
    else:
        print(report)
        for m in report.mismatches[:10]:
            print(f"  {m['p']} -> {m['q']}: {m['engine_a']}={m['value_a']} "
                  f"vs {m['engine_b']}={m['value_b']}")
    return 0 if report.ok else 1


def cmd_export(args) -> int:
    orbit, od = _load_target(args)
    if args.dot:
        print(export_dot(od, canonical=args.canonical))
    else:
        print(json.dumps(od.graph.to_json(), sort_keys=True))
    return 0


# -- optional parallel table computation -------------------------------------

_FORK_CTX: dict = {}


def _column_worker(q):
    od = _FORK_CTX["od"]
    orbit = _FORK_CTX["orbit"]
    engine = _FORK_CTX["engine"]
    if engine == "gz":
        col = single_form_column(od, q)
    else:
        from .orbits import typed_column
        col = typed_column(orbit, q)
    return q, [(p, poly.to_json()) for p, poly in col.items()]


def _row_worker(p):
    from .canonical import brute_row
    od = _FORK_CTX["od"]
    row = brute_row(od, p)
    return p, [(q, poly.to_json()) for q, poly in row.items()]


def _parallel_table(engine, orbit, od, jobs):
    import multiprocessing as mp
    try:
        ctx = mp.get_context("fork")
    except ValueError:
        return None
    _FORK_CTX.update({"od": od, "orbit": orbit, "engine": engine})
    worker = _row_worker if engine == "brute" else _column_worker
    entries: dict[tuple[str, str], Poly] = {}
    with ctx.Pool(processes=jobs) as pool:
        for key, items in pool.map(worker, od.graph.ids):
            for other, data in items:
                pq = (other, key) if engine != "brute" else (key, other)
                entries[pq] = Poly.from_json(od.rank, data)
    return entries


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gkmrest",
        description="Exact canonical-class restrictions on labelled moment graphs "
                    "and classical orbit graphs.")
    sub = ap.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="check the graph axioms")
    p_val.add_argument("--graph", required=True)
    p_val.add_argument("--seed", type=int, default=0)
    p_val.set_defaults(func=cmd_validate)

    p_res = sub.add_parser("restrict", help="one restriction value")
    _add_source_args(p_res)
    p_res.add_argument("--p", required=True, help="source vertex (moment coords or w:one-line)")
    p_res.add_argument("--q", required=True, help="target vertex")
    p_res.add_argument("--engine", choices=ENGINES, default="gz")
    p_res.add_argument("--ledger", action="store_true", help="print per-path terms")
    p_res.add_argument("--format", choices=("text", "json"), default="text")
    p_res.set_defaults(func=cmd_restrict)

    p_tab = sub.add_parser("table", help="full restriction table")
    _add_source_args(p_tab)
    p_tab.add_argument("--engine", choices=ENGINES, default="gz")
    p_tab.add_argument("--out", help="write the JSON table to a file")
    p_tab.add_argument("--csv", help="write a CSV summary to a file")
    p_tab.add_argument("--jobs", type=int, default=1,
                       help="parallel workers for rows/columns")
    p_tab.set_defaults(func=cmd_table)

    p_orb = sub.add_parser("orbit", help="emit an orbit graph")
    p_orb.add_argument("--type", dest="ctype", required=True,
                       choices=("A", "B", "C", "D"))
    p_orb.add_argument("--rank", type=int, required=True)
    p_orb.add_argument("--mu")
    p_orb.add_argument("--level", type=int)
    p_orb.add_argument("--seed", type=int, default=0)
    p_orb.add_argument("--format", choices=("json", "dot"), default="json")
    p_orb.set_defaults(func=cmd_orbit)

    p_cmp = sub.add_parser("compare", help="multi-engine agreement report")
    _add_source_args(p_cmp)
    p_cmp.add_argument("--engines", help="comma-separated engine list")
    p_cmp.add_argument("--format", choices=("text", "json"), default="text")
    p_cmp.add_argument("--jobs", type=int, default=1)
    p_cmp.set_defaults(func=cmd_compare)

    p_exp = sub.add_parser("export", help="graph export")
    _add_source_args(p_exp)
    group = p_exp.add_mutually_exclusive_group(required=True)
    group.add_argument("--dot", action="store_true")
    group.add_argument("--json", action="store_true")
    p_exp.add_argument("--canonical", action="store_true",
                       help="restrict the DOT output to index-raising edges")
    p_exp.set_defaults(func=cmd_export)
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


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    ap = build_parser()
    args = ap.parse_args(_merge_value_flags(argv))
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GkmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
