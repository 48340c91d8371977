"""Independent cross-checks, and the registry through which every engine
is run.

The reduced-subword localization formula computes restrictions on flag
orbits from Weyl combinatorics alone: fix a reduced word for v; every
subword that is a reduced word for w contributes the product of the
prefix-transformed simple roots at its positions.  A column is one pass
along one reduced word of q, which keeps, per element, the sum over the
reduced subwords read so far that multiply to it.  It shares no code path
with the graph engines, which makes it a genuine oracle for them.

ENGINES maps each engine name to how it computes an entry and the columns
or rows of a table; engine_entry and engine_entries are the only dispatch
to the engines.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Mapping, Sequence

from .canonical import (
    brute_row,
    filtered_path_column,
    ordered_filter,
    restriction_ordered,
    single_form_column,
    up_closure,
)
from .errors import GkmError, SubwordCapExceeded
from .exact import Poly
from .fibration import tower_filter, tower_restriction
from .gkm import OrientedGraphData
from .orbits import (
    Orbit,
    RootSystem,
    SignedPerm,
    inversion_prefix_roots,
    lexmin_reduced_word,
    typed_column,
    typed_restriction,
    weyl_length,
)

SUBWORD_CAP = 12


def _check_cap(word: Sequence[int]):
    if len(word) > SUBWORD_CAP:
        raise SubwordCapExceeded(
            f"reduced word of length {len(word)} exceeds the cap {SUBWORD_CAP}")


def billey_restriction(rs: RootSystem, w: SignedPerm, v: SignedPerm,
                       word: Sequence[int] | None = None) -> Poly:
    """Sum over reduced subwords of a fixed reduced word of v that multiply
    to w, of the products of prefix-transformed simple roots.

    The reduced word defaults to the lexicographically smallest one; the
    value does not depend on the choice.  Enumeration is exponential in
    len(word), hence the hard cap.  This is the one-entry engine and the
    reference for billey_column, which gives a whole column in one pass."""
    rs.validate_element(w)
    rs.validate_element(v)
    if word is None:
        word = lexmin_reduced_word(rs, v)
    _check_cap(word)
    prefix_roots = inversion_prefix_roots(rs, word)
    target = w.word
    lw = weyl_length(rs, w)
    m = rs.ambient
    total = Poly.zero(m)
    l = len(word)
    stack = [(0, SignedPerm.identity(m), 0, Poly.const(m, 1))]
    while stack:
        j, u, lu, prod = stack.pop()
        if lw - lu > l - j:
            continue
        if j == l:
            if u.word == target:
                total = total + prod
            continue
        stack.append((j + 1, u, lu, prod))
        # u s is one longer exactly when u sends the simple root positive
        if lu < lw and rs.is_right_ascent(u, word[j]):
            stack.append((j + 1, u * rs.simple_perms[word[j]], lu + 1,
                          prod.mul_weight(prefix_roots[j])))
    return total


def billey_column(orbit: Orbit, q: str) -> dict[str, Poly]:
    """billey_restriction from every element of the orbit to q, keyed by
    vertex, in one pass along one reduced word of q.

    After position k of the word, sums[u] is the sum of the products over
    the reduced subwords of its first k letters that multiply to u.  The
    next letter s keeps each subword, and extends it when l(u s) = l(u) + 1,
    times the letter's prefix-transformed root; u s determines u, so each
    sum gains at most one term.  The cap is checked before the pass."""
    rs = orbit.rs
    m = rs.ambient
    word = lexmin_reduced_word(rs, SignedPerm(orbit.word_of_vid[q]))
    _check_cap(word)
    one = SignedPerm.identity(m)
    sums = {one.word: (one, Poly.const(m, 1))}
    for i, root in zip(word, inversion_prefix_roots(rs, word)):
        s = rs.simple_perms[i]
        for u, total in list(sums.values()):
            if rs.is_right_ascent(u, i):
                us = u * s
                got = sums.get(us.word)
                term = total.mul_weight(root)
                sums[us.word] = (us, term if got is None else got[1] + term)
    zero = Poly.zero(m)
    return {orbit.vid_of[wp.word]: sums[wp.word][1] if wp.word in sums else zero
            for wp in orbit.elements}


# ---------------------------------------------------------------------------
# Engine registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Engine:
    """How one engine answers.  entry(target, p, q) gives (value, ledger)
    on an Orbit or an OrientedGraphData, the ledger being its path terms or
    None; it reads only what its entry needs, so billey builds no graph.
    slicer(orbit, od) does the per-table set-up once and returns the
    function from a vertex to its column (values keyed by p) when
    by_column, else to its row (values keyed by q).  orbit is None on a
    plain graph, which orbit_only engines refuse."""

    orbit_only: bool
    entry: Callable
    by_column: bool
    slicer: Callable


def _ordered_classes(target) -> list:
    """The ordered engine's classes: the tower's pulled-back moments on an
    orbit, the moment map alone on a plain graph."""
    if isinstance(target, Orbit):
        return [lvl.moment for lvl in target.tower().levels]
    return [dict(target.graph.moment)]


def oriented_graph(target) -> OrientedGraphData:
    """The oriented graph of an Orbit (built on first use) or of an
    OrientedGraphData, which is its own."""
    return target.od if isinstance(target, Orbit) else target


def _gz_entry(target, p: str, q: str):
    """The column's dynamic program over the vertices p reaches."""
    od = oriented_graph(target)
    return single_form_column(od, q, up_closure(od, p))[p], None


def _billey_entry(orbit: Orbit, p: str, q: str):
    return billey_restriction(orbit.rs, SignedPerm(orbit.word_of_vid[p]),
                              SignedPerm(orbit.word_of_vid[q])), None


def _billey_slicer(orbit: Orbit, od) -> Callable:
    """Refuse at once a table whose longest element (of length the number
    of positive roots) has more letters than the subword cap allows."""
    longest = len(orbit.rs.positive_roots)
    if longest > SUBWORD_CAP:
        raise SubwordCapExceeded(
            f"billey: the longest element has length {longest}, "
            f"which exceeds the cap {SUBWORD_CAP}")
    return partial(billey_column, orbit)


# the callables look their functions up at call time, so that a tracer
# that rebinds the module's names sees every engine call
ENGINES: dict[str, Engine] = {
    "gz": Engine(
        False, _gz_entry,
        by_column=True, slicer=lambda orbit, od: partial(single_form_column, od)),
    "ordered": Engine(
        False, lambda t, p, q: restriction_ordered(oriented_graph(t), p, q, _ordered_classes(t)),
        by_column=True, slicer=lambda orbit, od: partial(
            filtered_path_column, od, ordered_filter(od, _ordered_classes(orbit or od)))),
    "tower": Engine(
        True, lambda orbit, p, q: tower_restriction(orbit.od, orbit.tower(), p, q),
        by_column=True, slicer=lambda orbit, od: partial(
            filtered_path_column, od, tower_filter(od, orbit.tower()))),
    "typed": Engine(
        True, lambda orbit, p, q: typed_restriction(orbit, p, q),
        by_column=True, slicer=lambda orbit, od: partial(typed_column, orbit)),
    # an entry stops its row at q
    "brute": Engine(
        False, lambda t, p, q: (brute_row(oriented_graph(t), p, q)[q], None),
        by_column=False, slicer=lambda orbit, od: partial(brute_row, od)),
    "billey": Engine(True, _billey_entry, by_column=True, slicer=_billey_slicer),
}


def _record(target, engine: str) -> Engine:
    """The record of `engine`.  Raises a GkmError naming the engine when
    it is unknown, or needs an orbit and target is a plain graph."""
    record = ENGINES.get(engine)
    if record is None:
        raise GkmError(f"unknown engine {engine!r}")
    if record.orbit_only and not isinstance(target, Orbit):
        raise GkmError(f"the {engine} engine needs an orbit input, not a graph")
    return record


def engine_entry(target, engine: str, p: str, q: str) -> tuple[Poly, list | None]:
    """alpha_p(q) by one engine on an Orbit or OrientedGraphData, with the
    engine's path ledger (None for an engine without one)."""
    return _record(target, engine).entry(target, p, q)


def engine_entries(target, engine: str, jobs: int = 1) -> dict[tuple[str, str], Poly]:
    """Full table of one engine on an Orbit or OrientedGraphData.  The
    engine's slicer does the per-table set-up once, in this process; the
    columns or rows are then computed in min(jobs, vertices) forked workers
    when that is more than one.  The result does not depend on jobs."""
    record = _record(target, engine)
    if jobs < 1:
        raise GkmError(f"jobs must be at least 1, got {jobs}")
    od = oriented_graph(target)
    part = record.slicer(target if isinstance(target, Orbit) else None, od)
    by_column = record.by_column
    ids = od.graph.ids
    workers = min(jobs, len(ids))
    if workers > 1 and "fork" in multiprocessing.get_all_start_methods():
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(workers, _set_worker_part, (part,)) as pool:
            slices = list(pool.imap(_worker_slice, ids))
    else:
        slices = ((key, part(key)) for key in ids)
    entries: dict[tuple[str, str], Poly] = {}
    for key, values in slices:
        for other, value in values.items():
            entries[(other, key) if by_column else (key, other)] = value
    return entries


_worker_part: Callable | None = None


def _set_worker_part(part: Callable):
    """Pool initializer: forked workers inherit `part` without pickling."""
    global _worker_part
    _worker_part = part


def _worker_slice(key: str) -> tuple[str, dict]:
    return key, _worker_part(key)


# ---------------------------------------------------------------------------
# Multi-engine comparison
# ---------------------------------------------------------------------------

@dataclass
class CrossReport:
    engines: list[str]
    pairs_checked: int = 0
    mismatches: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_json(self) -> dict:
        return {"engines": self.engines, "pairs_checked": self.pairs_checked,
                "mismatches": self.mismatches}

    def __str__(self):
        return (f"{len(self.mismatches)} mismatches / {self.pairs_checked} pairs "
                f"({', '.join(self.engines)})")


def compare_tables(tables: Mapping[str, Mapping[tuple[str, str], Poly]],
                   ids: Sequence[str]) -> CrossReport:
    """Entrywise comparison of engine outputs; the first listed engine is
    the reference.  Every entry has the target's n, so entries are
    compared by their term dicts."""
    names = list(tables)
    report = CrossReport(engines=names, pairs_checked=len(ids) ** 2)
    ref = tables[names[0]]
    others = [(name, tables[name]) for name in names[1:]]
    for p in ids:
        for q in ids:
            key = (p, q)
            base = ref[key].terms
            for other, table in others:
                val = table[key]
                if val.terms != base:
                    report.mismatches.append({
                        "p": p, "q": q,
                        "engine_a": names[0], "value_a": str(ref[key]),
                        "engine_b": other, "value_b": str(val),
                    })
    return report


def available_engines(target) -> list[str]:
    """Engines applicable to an Orbit or a plain oriented graph, ordered by
    cost.  Ordered and tower are included on orbits of at most 48
    elements, billey on root systems of at most 8 positive roots."""
    if isinstance(target, Orbit):
        engines = ["gz", "typed", "brute"]
        if target.spec.ctype == "D" and target.spec.rank < 3:
            engines.remove("typed")  # refused there by the typed engine
        if len(target.elements) <= 48:
            engines += ["ordered", "tower"]
        if len(target.rs.positive_roots) <= 8:
            engines.append("billey")
        return engines
    return ["gz", "ordered", "brute"]


def cross_validate(target, engines: Sequence[str] | None = None,
                   jobs: int = 1) -> CrossReport:
    """Run two or more distinct engines over every pair and compare
    exactly, each table in `jobs` workers (see engine_entries)."""
    if engines is None:
        engines = available_engines(target)
    if len(engines) < 2 or len(set(engines)) < len(engines):
        raise GkmError("compare needs two or more distinct engines, "
                       f"got {','.join(engines)!r}")
    for e in engines:  # every name checked before any run
        _record(target, e)
    tables = {e: engine_entries(target, e, jobs=jobs) for e in engines}
    return compare_tables(tables, oriented_graph(target).graph.ids)
