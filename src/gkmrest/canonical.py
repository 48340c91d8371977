"""Restrictions of canonical classes at fixed points.

The canonical class based at p is the unique class whose value at p is the
product of downward weights there and which vanishes at every other fixed
point of index at most index(p).  This module computes the full table of
values alpha_p(q) by several independent routes:

  * a dynamic program over the canonical graph driven by the moment values
    (restriction_single_form);
  * explicit path sums, either with one chosen degree-two class per vertex
    (restriction_vertex_classes) or with an ordered list of classes and the
    first-separating-level filter (restriction_ordered);
  * a solver that knows nothing about path formulas and only imposes the
    defining vanishing conditions together with the edge-divisibility
    congruences of localization (brute_solve_canonical).

Every value is an exact polynomial; engines must agree entry by entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .errors import (
    GraphFormatError,
    NoSeparatingClass,
    NonUniqueSolution,
    NoSolution,
    NotDivisible,
    WellDefinednessViolation,
)
from .exact import LinFrac, Poly, Weight, linfrac_sum_to_poly, pair
# magnitude is no longer called here; it stays importable from this module
# because perfbench/selftest.py checks that the tracer wraps this binding
from .gkm import OrientedGraphData, magnitude  # noqa: F401

# a degree-two class is recorded by its restrictions: vertex id -> Weight
VertexClass = Mapping[str, Weight]


@dataclass
class WeightClassAssignment:
    """Degree-two classes supplied to the path-sum engines: either one class
    per vertex, or an ordered list shared by all vertices."""

    per_vertex: Mapping[str, VertexClass] | None = None
    ordered: Sequence[VertexClass] | None = None


def _as_ordered_classes(classes) -> Sequence[VertexClass]:
    if isinstance(classes, WeightClassAssignment):
        if classes.ordered is None:
            raise GraphFormatError("assignment carries no ordered class list")
        return classes.ordered
    return classes


def _as_vertex_classes(classes) -> Mapping[str, VertexClass]:
    if isinstance(classes, WeightClassAssignment):
        if classes.per_vertex is None:
            raise GraphFormatError("assignment carries no per-vertex classes")
        return classes.per_vertex
    return classes


@dataclass
class PathTerm:
    """One path's contribution to a restriction, kept in factored form."""

    path: tuple[str, ...]
    value: LinFrac
    levels: tuple[int, ...] | None = None


class RestrictionTable:
    """Values alpha_p(q) for all ordered pairs of fixed points."""

    def __init__(self, od: OrientedGraphData, entries: dict[tuple[str, str], Poly]):
        self.od = od
        self.entries = entries

    def get(self, p: str, q: str) -> Poly:
        return self.entries[(p, q)]

    def row(self, p: str) -> dict[str, Poly]:
        return {q: self.entries[(p, q)] for q in self.od.graph.ids}

    def to_json(self) -> dict:
        return {f"{p}|{q}": poly.to_json()
                for (p, q), poly in sorted(self.entries.items())}

    def to_csv(self) -> str:
        lines = ["p,q,lam_p,lam_q,degree,terms,integer_coeffs,poly"]
        od = self.od
        for (p, q), poly in sorted(self.entries.items()):
            lines.append(",".join([
                p, q, str(od.lam[p]), str(od.lam[q]),
                str(poly.degree()), str(len(poly.terms)),
                str(poly.integer_coefficients()).lower(),
                f'"{poly}"',
            ]))
        return "\n".join(lines)


def _require_index_increasing(od: OrientedGraphData):
    if not od.index_increasing:
        raise GraphFormatError("orientation is not index increasing; canonical classes need not exist")


def adjacent_restriction(od: OrientedGraphData, p: str, q: str) -> Poly:
    """alpha_p(q) for an index gap of one: the downward product at q times
    theta over the edge weight when (p, q) is an edge, else zero."""
    _require_index_increasing(od)
    if od.lam[q] != od.lam[p] + 1:
        raise GraphFormatError(f"index gap of ({p},{q}) is not one")
    if not od.graph.has_edge(p, q):
        return Poly.zero(od.rank)
    eta = od.graph.edge_weight(p, q)
    value = od.lambda_minus_linfrac(q).mul_scalar(od.theta(p, q)).div_weight(eta)
    return value.to_poly()


# ---------------------------------------------------------------------------
# Dynamic program driven by the moment values
# ---------------------------------------------------------------------------

def single_form_column(od: OrientedGraphData, q: str) -> dict[str, Poly]:
    """All values alpha_p(q) for fixed q.

    Working down from q, each value is the edge-weighted combination of the
    values one index higher, divided by the moment difference to q.  Every
    division is exact; a vanishing moment difference against a nonzero
    numerator signals corrupt input."""
    _require_index_increasing(od)
    g = od.graph
    n = od.rank
    col: dict[str, Poly] = {}
    mq = g.moment[q]
    for v in reversed(od.order):
        if v == q:
            col[v] = od.lambda_minus(q)
            continue
        total = Poly.zero(n)
        for r in od.up[v]:
            top = col[r]
            if not top.is_zero():
                total = total + top.scale(od.gz_coefficient(v, r))
        if total.is_zero():
            col[v] = total
            continue
        diff = mq - g.moment[v]
        if diff.is_zero():
            raise WellDefinednessViolation(
                f"moment values of {v} and {q} coincide on a live path")
        col[v] = total.div_weight(diff)
    return col


def restriction_single_form(od: OrientedGraphData, p: str, q: str) -> Poly:
    """alpha_p(q) via the moment-driven dynamic program."""
    return single_form_column(od, q)[p]


def table_single_form(od: OrientedGraphData) -> RestrictionTable:
    entries: dict[tuple[str, str], Poly] = {}
    for q in od.graph.ids:
        col = single_form_column(od, q)
        for p, val in col.items():
            entries[(p, q)] = val
    return RestrictionTable(od, entries)


# ---------------------------------------------------------------------------
# Path sums
# ---------------------------------------------------------------------------

def _edge_factor(od: OrientedGraphData, a: str, b: str) -> LinFrac:
    """alpha_a(b) / (downward product at b) = theta(a,b) / weight(a,b)."""
    eta = od.graph.edge_weight(a, b)
    return LinFrac.from_scalar(od.rank, od.theta(a, b)).div_weight(eta)


def restriction_vertex_classes(
    od: OrientedGraphData, p: str, q: str,
    class_of: "Mapping[str, VertexClass] | WeightClassAssignment",
) -> tuple[Poly, list[PathTerm]]:
    """Path sum over all canonical-graph paths p -> q, each edge (a, b)
    contributing (w_a(b) - w_a(a)) / (w_a(q) - w_a(a)) times the edge label,
    where w_a is the class attached to a.  Paths with a vanishing numerator
    contribute zero and are recorded as such."""
    class_of = _as_vertex_classes(class_of)
    _require_index_increasing(od)
    n = od.rank
    ledger: list[PathTerm] = []
    lam_q = od.lambda_minus_linfrac(q)
    # None marks a path through a vertex whose class fails to separate it
    # from q; that only matters if the path actually reaches q
    stack: list[tuple[tuple[str, ...], LinFrac | None]] = [((p,), LinFrac.one(n))]
    while stack:
        path, acc = stack.pop()
        v = path[-1]
        if v == q:
            if acc is None:
                raise WellDefinednessViolation(
                    f"a class along {path} does not separate its vertex from {q}")
            ledger.append(PathTerm(path, lam_q * acc))
            continue
        if od.phi[v] >= od.phi[q]:
            continue
        w = class_of[v]
        den = w[q] - w[v]
        for u in od.up[v]:
            if acc is None or den.is_zero():
                stack.append((path + (u,), None))
                continue
            num = w[u] - w[v]
            if num.is_zero():
                # the whole completion contributes zero; keep walking so the
                # ledger still lists every path
                factor = LinFrac(n, 0)
            else:
                factor = _edge_factor(od, v, u).mul_weight(num).div_weight(den)
            stack.append((path + (u,), acc * factor))
    live = [t.value for t in ledger if not t.value.is_zero()]
    return linfrac_sum_to_poly(live, n), ledger


def build_h_function(
    od: OrientedGraphData, classes: Sequence[VertexClass],
) -> dict[tuple[str, str], int]:
    """First level separating the endpoints of each canonical edge
    (1-based).  Raises NoSeparatingClass when some edge is separated by no
    class."""
    h: dict[tuple[str, str], int] = {}
    for a in od.graph.ids:
        for b in od.up[a]:
            for j, w in enumerate(classes):
                if w[a] != w[b]:
                    h[(a, b)] = j + 1
                    break
            else:
                raise NoSeparatingClass(f"no class separates edge ({a},{b})")
    return h


def filtered_path_sum(
    od: OrientedGraphData, p: str, q: str,
    h_edge: Mapping[tuple[str, str], int],
    w_level: Callable[[int, str], Weight],
) -> tuple[Poly, list[PathTerm]]:
    """Sum over canonical-graph paths p -> q whose edge levels are
    nondecreasing; each edge contributes
    (w_h(b) - w_h(a)) / (w_h(q) - w_h(a)) times the edge label, with h the
    edge's level."""
    _require_index_increasing(od)
    n = od.rank
    ledger: list[PathTerm] = []
    lam_q = od.lambda_minus_linfrac(q)
    stack: list[tuple[tuple[str, ...], tuple[int, ...], LinFrac | None]] = [
        ((p,), (), LinFrac.one(n))
    ]
    while stack:
        path, levels, acc = stack.pop()
        v = path[-1]
        if v == q:
            if acc is None:
                raise WellDefinednessViolation(
                    f"a level along {path} does not separate its vertex from {q}")
            ledger.append(PathTerm(path, lam_q * acc, levels))
            continue
        if od.phi[v] >= od.phi[q]:
            continue
        last = levels[-1] if levels else 0
        for u in od.up[v]:
            j = h_edge[(v, u)]
            if j < last:
                continue
            wv = w_level(j, v)
            num = w_level(j, u) - wv
            den = w_level(j, q) - wv
            if acc is None or den.is_zero():
                stack.append((path + (u,), levels + (j,), None))
                continue
            factor = _edge_factor(od, v, u).mul_weight(num).div_weight(den)
            stack.append((path + (u,), levels + (j,), acc * factor))
    return linfrac_sum_to_poly([t.value for t in ledger], n), ledger


def restriction_ordered(
    od: OrientedGraphData, p: str, q: str,
    classes: "Sequence[VertexClass] | WeightClassAssignment",
) -> tuple[Poly, list[PathTerm]]:
    """Filtered path sum for an ordered list of classes; callers are
    expected to have certified the vanishing hypothesis (verify_tech)."""
    classes = _as_ordered_classes(classes)
    h_edge = build_h_function(od, classes)
    return filtered_path_sum(od, p, q, h_edge,
                             lambda j, v: classes[j - 1][v])


def verify_tech(
    od: OrientedGraphData,
    classes: "Sequence[VertexClass] | WeightClassAssignment",
    table: RestrictionTable,
) -> bool:
    """Check the vanishing hypothesis for an ordered class list: whenever
    w_j separates p from q but does not increase in the xi direction,
    alpha_p(q) must vanish."""
    classes = _as_ordered_classes(classes)
    ids = od.graph.ids
    for w in classes:
        height = {v: pair(w[v], od.xi) for v in ids}
        for pp in ids:
            for qq in ids:
                if pp == qq or w[qq] == w[pp]:
                    continue
                if height[qq] <= height[pp] and not table.get(pp, qq).is_zero():
                    return False
    return True


# ---------------------------------------------------------------------------
# Independent solver from the defining conditions
# ---------------------------------------------------------------------------

def _solve_congruences(
    congs: Sequence[tuple[Weight, Poly]], degree: int, n: int,
) -> Poly:
    """The unique homogeneous polynomial of the given degree congruent to
    f_i modulo the linear form eta_i for every supplied pair (eta_i, f_i).

    Built incrementally: a partial solution for the first k congruences is
    corrected by a multiple of eta_1*...*eta_k computed on the (k+1)-st
    hyperplane.  Degrees are forced, so failure of any exact division means
    the congruences are unsolvable in this degree."""
    g = Poly.zero(n)
    used: list[Weight] = []
    for eta, f in congs:
        delta = (f - g).restrict_zero(eta)
        if delta.is_zero():
            used.append(eta)
            continue
        if len(used) > degree:
            raise NoSolution("correction term would need negative degree")
        hres = Poly.const(n, 1)
        for h in used:
            piece = Poly.from_weight(h).restrict_zero(eta)
            if piece.is_zero():
                raise NoSolution("dependent congruence directions")
            hres = hres * piece
        try:
            u = delta.div_exact(hres)
        except NotDivisible as exc:
            raise NoSolution(f"congruences are inconsistent: {exc}") from exc
        add = u
        for h in used:
            add = add.mul_weight(h)
        g = g + add
        used.append(eta)
    return g


def brute_row(od: OrientedGraphData, p: str) -> dict[str, Poly]:
    """Row of values alpha_p(.) obtained purely from the defining
    conditions: prescribed value at p, vanishing at indices <= index(p),
    homogeneity, and the divisibility congruences along every edge,
    processed upward in phi."""
    g = od.graph
    n = od.rank
    d = od.lam[p]
    row: dict[str, Poly] = {}
    for v in od.order:
        congs = [(g.edge_weight(r, v), row[r])
                 for r in g.adj[v] if od.phi[r] < od.phi[v]]
        if v == p:
            val = od.lambda_minus(p)
        elif od.lam[v] <= d:
            val = Poly.zero(n)
        elif all(f.is_zero() for _, f in congs):
            # zero satisfies every congruence and the solution in this
            # degree is unique, so it is the value
            if not congs and v != p:
                raise NonUniqueSolution(f"vertex {v} has no downward edges")
            val = Poly.zero(n)
        else:
            val = _solve_congruences(congs, d, n)
            if val and (not val.is_homogeneous() or val.degree() != d):
                raise NoSolution(f"value at {v} is not homogeneous of degree {d}")
        if v == p or od.lam[v] <= d:
            for eta, f in congs:
                if not (val - f).divisible_by_weight(eta):
                    raise NoSolution(
                        f"imposed value at {v} violates the congruence along ({v},...)")
        row[v] = val
    return row


def brute_solve_canonical(od: OrientedGraphData) -> RestrictionTable:
    """Full table from the defining conditions alone."""
    entries: dict[tuple[str, str], Poly] = {}
    for p in od.graph.ids:
        for q, val in brute_row(od, p).items():
            entries[(p, q)] = val
    return RestrictionTable(od, entries)


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------

@dataclass
class Certificate:
    """Outcome of checking a restriction table against the defining
    conditions, the localization congruences, and integrality."""

    failures: list[str] = field(default_factory=list)
    checks: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def note(self, ok: bool, message: str):
        self.checks += 1
        if not ok:
            self.failures.append(message)

    def __str__(self):
        status = "PASS" if self.ok else "FAIL"
        lines = [f"{status}: {self.checks} checks, {len(self.failures)} failures"]
        lines += [f"  - {m}" for m in self.failures]
        return "\n".join(lines)


def certify_table(
    od: OrientedGraphData,
    table: RestrictionTable,
    integral_classes: Sequence[VertexClass] | None = None,
) -> Certificate:
    """Check diagonal values, vanishing, homogeneity, edge divisibility,
    and the integrality of (w(r) - w(p)) * alpha_p(r) / lambda_minus(r)
    along canonical edges for each declared integral class w.

    When no classes are passed and the moment values are integral, the
    moment map itself is used."""
    g = od.graph
    cert = Certificate()
    if integral_classes is None:
        moments = {v: g.moment[v] for v in g.ids}
        integral = all(Fraction(c).denominator == 1
                       for w in moments.values() for c in w.coords)
        integral_classes = [moments] if integral else []
    for p in g.ids:
        lam_p = od.lam[p]
        for q in g.ids:
            val = table.get(p, q)
            if q == p:
                cert.note(val == od.lambda_minus(p), f"diagonal at {p} differs")
                continue
            if od.lam[q] <= lam_p:
                cert.note(val.is_zero(), f"alpha_{p}({q}) should vanish")
            elif not val.is_zero():
                cert.note(val.is_homogeneous() and val.degree() == lam_p,
                          f"alpha_{p}({q}) is not homogeneous of degree {lam_p}")
    seen = set()
    for (a, b), eta in g.weights.items():
        if (b, a) in seen:
            continue
        seen.add((a, b))
        for p in g.ids:
            diff = table.get(p, b) - table.get(p, a)
            cert.note(diff.divisible_by_weight(eta),
                      f"alpha_{p}({b}) - alpha_{p}({a}) not divisible by edge weight")
    for p in g.ids:
        for r in od.up[p]:
            val = table.get(p, r)
            for k, w in enumerate(integral_classes):
                diff = w[r] - w[p]
                prod = val.mul_weight(diff) if not diff.is_zero() else Poly.zero(od.rank)
                if prod.is_zero():
                    cert.note(True, "")
                    continue
                try:
                    quot = prod.div_exact(od.lambda_minus(r))
                except NotDivisible:
                    cert.note(False, f"integrality quotient at ({p},{r}) is not polynomial")
                    continue
                const = quot.terms.get((0,) * od.rank, 0)
                ok = (len(quot.terms) <= 1 and Fraction(const).denominator == 1)
                cert.note(ok, f"class {k} fails integrality on edge ({p},{r}): {quot}")
    return cert


# ---------------------------------------------------------------------------
# Structure constants
# ---------------------------------------------------------------------------

def structure_constants(
    od: OrientedGraphData, table: RestrictionTable, p: str, q: str,
) -> dict[str, Poly]:
    """Coefficients c^r with alpha_p * alpha_q = sum_r c^r alpha_r, solved
    by evaluating at fixed points upward in phi; each coefficient is a
    polynomial of degree index(p) + index(q) - index(r)."""
    n = od.rank
    out: dict[str, Poly] = {}
    for v in od.order:
        rhs = table.get(p, v) * table.get(q, v)
        for r, c in out.items():
            if c.is_zero():
                continue
            av = table.get(r, v)
            if not av.is_zero():
                rhs = rhs - c * av
        if rhs.is_zero():
            out[v] = Poly.zero(n)
            continue
        out[v] = rhs.div_exact(od.lambda_minus(v))
    return out
