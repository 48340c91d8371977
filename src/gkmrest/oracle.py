"""Independent cross-checks.

The reduced-subword localization formula computes restrictions on flag
orbits from Weyl combinatorics alone: fix a reduced word for v; every
subword that is a reduced word for w contributes the product of the
prefix-transformed simple roots at its positions.  It shares no code path
with the graph engines, which makes it a genuine oracle for them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .canonical import (
    brute_solve_canonical,
    ordered_table,
    table_single_form,
)
from .errors import GkmError, SubwordCapExceeded
from .exact import Poly
from .fibration import tower_table
from .gkm import OrientedGraphData
from .orbits import (
    Orbit,
    RootSystem,
    SignedPerm,
    inversion_prefix_roots,
    lexmin_reduced_word,
    typed_table,
    weyl_length,
)

SUBWORD_CAP = 12

ENGINES = ("gz", "ordered", "tower", "typed", "brute", "billey")
ORBIT_ENGINES = ("tower", "typed", "billey")


def billey_restriction(rs: RootSystem, w: SignedPerm, v: SignedPerm,
                       word: Sequence[int] | None = None) -> Poly:
    """Sum over reduced subwords of a fixed reduced word of v that multiply
    to w, of the products of prefix-transformed simple roots.

    The reduced word defaults to the lexicographically smallest one; the
    value does not depend on the choice.  Enumeration is exponential in
    len(word), hence the hard cap."""
    rs.validate_element(w)
    rs.validate_element(v)
    if word is None:
        word = lexmin_reduced_word(rs, v)
    if len(word) > SUBWORD_CAP:
        raise SubwordCapExceeded(
            f"reduced word of length {len(word)} exceeds the cap {SUBWORD_CAP}")
    prefix_roots = inversion_prefix_roots(rs, word)
    target = w.word
    lw = weyl_length(rs, w)
    m = rs.ambient
    lengths: dict[tuple, int] = {}

    def length(u: SignedPerm) -> int:
        got = lengths.get(u.word)
        if got is None:
            got = weyl_length(rs, u)
            lengths[u.word] = got
        return got

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
        if lu < lw:
            u2 = u * rs.simple_perms[word[j]]
            if length(u2) == lu + 1:
                stack.append((j + 1, u2, lu + 1,
                              prod.mul_weight(prefix_roots[j])))
    return total


def billey_table_entries(orbit: Orbit) -> dict[tuple[str, str], Poly]:
    rs = orbit.rs
    words = {w.word: lexmin_reduced_word(rs, w) for w in orbit.elements}
    entries = {}
    for wq in orbit.elements:
        vq = orbit.vid_of[wq.word]
        word = words[wq.word]
        for wp in orbit.elements:
            entries[(orbit.vid_of[wp.word], vq)] = billey_restriction(
                rs, wp, wq, word)
    return entries


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
    the reference."""
    names = list(tables)
    report = CrossReport(engines=names)
    ref = tables[names[0]]
    for p in ids:
        for q in ids:
            report.pairs_checked += 1
            base = ref[(p, q)]
            for other in names[1:]:
                val = tables[other][(p, q)]
                if val != base:
                    report.mismatches.append({
                        "p": p, "q": q,
                        "engine_a": names[0], "value_a": str(base),
                        "engine_b": other, "value_b": str(val),
                    })
    return report


def available_engines(target) -> list[str]:
    """Engines applicable to an Orbit or a plain oriented graph, ordered by
    cost; the exponential ones are included only at small scale."""
    if isinstance(target, Orbit):
        engines = ["gz", "typed", "brute"]
        if len(target.elements) <= 48:
            engines += ["ordered", "tower"]
        if len(target.rs.positive_roots) <= 8:
            engines.append("billey")
        return engines
    return ["gz", "ordered", "brute"]


def _check_engine(target, engine: str):
    """Raise a GkmError naming the engine when it is unknown, or needs an
    Orbit and target is a plain oriented graph."""
    if engine not in ENGINES:
        raise GkmError(f"unknown engine {engine!r}")
    if engine in ORBIT_ENGINES and not isinstance(target, Orbit):
        raise GkmError(f"{engine} engine needs an orbit")


def engine_entries(target, engine: str) -> dict[tuple[str, str], Poly]:
    """Full table of one engine on an Orbit or OrientedGraphData."""
    _check_engine(target, engine)
    orbit = target if isinstance(target, Orbit) else None
    od = orbit.od if orbit is not None else target
    if engine == "gz":
        return table_single_form(od).entries
    if engine == "brute":
        return brute_solve_canonical(od).entries
    if engine == "ordered":
        if orbit is not None:
            tower = orbit.tower()
            classes = [lvl.moment for lvl in tower.levels]
        else:
            classes = [dict(od.graph.moment)]
        return {pq: value for pq, value, _ in ordered_table(od, classes)}
    if engine == "tower":
        return {pq: value for pq, value, _ in tower_table(od, orbit.tower())}
    if engine == "typed":
        return typed_table(orbit).entries
    return billey_table_entries(orbit)


def cross_validate(target, engines: Sequence[str] | None = None) -> CrossReport:
    """Run several engines over every pair and compare exactly."""
    if engines is None:
        engines = available_engines(target)
    for e in engines:
        _check_engine(target, e)
    tables = {e: engine_entries(target, e) for e in engines}
    ids = (target.od if isinstance(target, Orbit) else target).graph.ids
    return compare_tables(tables, ids)
