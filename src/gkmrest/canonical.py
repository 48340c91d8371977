"""Restrictions of canonical classes at fixed points.

The canonical class based at p is the unique class whose value at p is the
product of downward weights there and which vanishes at every other fixed
point of index at most index(p).  This module computes the full table of
values alpha_p(q) by several independent routes:

  * a dynamic program over the canonical graph driven by the moment values
    (single_form_column);
  * explicit path sums, either with one degree-two class per vertex, given
    as a mapping from vertex to class (restriction_vertex_classes), or with
    a list of classes and the first-separating-level filter
    (filtered_path_sum, which restriction_ordered and the tower engine of
    the fibration module share).  Both are one step function over the
    depth-first walk gkm.walk_paths, and give a single entry with its
    ledger of path terms;
  * the same filtered path sum for a whole column as one backward dynamic
    program over (vertex, level) suffix sums kept as integral polynomials
    over one denominator each, with one exact division per vertex and
    level (filtered_path_column), which builds the ordered and tower
    tables and the typed A/C columns, and hands the whole column to the
    walker at the first sum that is not a polynomial;
  * a solver that knows nothing about path formulas and only imposes the
    defining vanishing conditions together with the edge-divisibility
    congruences of localization (brute_row).

A certificate checks any table against the defining conditions, and
structure constants are solved from a table by evaluation at fixed points.
Every value is an exact polynomial; engines must agree entry by entry.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import add, itemgetter
from typing import Callable, Collection, Iterator, Mapping, Sequence

from .errors import (
    GraphFormatError,
    NoSeparatingClass,
    NonUniqueSolution,
    NoSolution,
    NotDivisible,
    WellDefinednessViolation,
)
from .exact import (
    LinFrac,
    Poly,
    Weight,
    _div_scalar,
    format_scalar,
    linfrac_sum_to_poly,
    pair,
)
# magnitude is no longer called here; it stays importable from this module
# because perfbench/selftest.py checks that the tracer wraps this binding
from .gkm import OrientedGraphData, magnitude, walk_paths  # noqa: F401

# A degree-two class is recorded by its restrictions, a Mapping[str, Weight]
# from vertex id to weight.  No module-level alias: typing's cache would keep
# the subscription, and with it this module, alive across re-imports.


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

    def to_json(self) -> dict:
        return {f"{p}|{q}": poly.to_json()
                for (p, q), poly in sorted(self.entries.items())}

    def json_chunks(self) -> Iterator[str]:
        """The text of json.dumps(self.to_json(), sort_keys=True), one
        entry per chunk, written without building the per-term dicts."""
        exp_text: dict[tuple[int, ...], str] = {}
        keyed = sorted(((f"{p}|{q}", poly) for (p, q), poly in self.entries.items()),
                       key=itemgetter(0))
        sep = "{"
        for key, poly in keyed:
            terms = []
            for e, c in poly.sorted_terms():
                text = exp_text.get(e)
                if text is None:
                    text = exp_text[e] = "[" + ", ".join(map(str, e)) + "]"
                terms.append(f'{{"coeff": "{format_scalar(c)}", "exp": {text}}}')
            yield f'{sep}{json.dumps(key)}: [{", ".join(terms)}]'
            sep = ", "
        yield "{}" if sep == "{" else "}"

    def to_csv(self) -> str:
        """One row per entry; a vertex id that holds a comma, a quote or a
        line break, such as an orbit point, is quoted as in RFC 4180."""
        lines = ["p,q,lam_p,lam_q,degree,terms,integer_coeffs,poly"]
        od = self.od
        for (p, q), poly in sorted(self.entries.items()):
            lines.append(",".join([
                _csv_field(p), _csv_field(q), str(od.lam[p]), str(od.lam[q]),
                str(poly.degree()), str(len(poly.terms)),
                str(poly.integer_coefficients()).lower(),
                f'"{poly}"',
            ]))
        return "\n".join(lines)


def _csv_field(text: str) -> str:
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


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

def single_form_column(od: OrientedGraphData, q: str,
                       within: Collection[str] | None = None) -> dict[str, Poly]:
    """All values alpha_p(q) for fixed q.

    Working down from q, each value is the edge-weighted combination of the
    values one index higher, divided by the moment difference to q.  Every
    division is exact; a vanishing moment difference against a nonzero
    numerator signals corrupt input.

    within, when given, is a set of vertices closed under canonical edges,
    such as up_closure(od, p); only its vertices are computed, walked in
    od.order, each to its value in the full column.  A value is nonzero
    only on a vertex that reaches q, so edge scalars are then only asked of
    edges inside the interval [p, q], and an error elsewhere in the graph
    is not met."""
    _require_index_increasing(od)
    g = od.graph
    n = od.rank
    col: dict[str, Poly] = {}
    mq = g.moment[q]
    order = od.order if within is None else [v for v in od.order if v in within]
    for v in reversed(order):
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


def up_closure(od: OrientedGraphData, p: str) -> set[str]:
    """The vertices reachable from p along canonical edges, p included:
    the set single_form_column needs for the entries at p."""
    seen, stack = {p}, [p]
    while stack:
        for u in od.up[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return seen


# ---------------------------------------------------------------------------
# Path sums
# ---------------------------------------------------------------------------

def _edge_factor(od: OrientedGraphData, a: str, b: str) -> LinFrac:
    """alpha_a(b) / (downward product at b) = theta(a,b) / weight(a,b)."""
    eta = od.graph.edge_weight(a, b)
    return LinFrac(od.rank, od.theta(a, b)).div_weight(eta)


def _path_terms(od: OrientedGraphData, q: str, walk, what: str) -> list[PathTerm]:
    """The ledger of a path walk: one term per walked path that ends at q,
    the downward product at q times the path's product.  walk yields (path,
    (product, levels)); a None product marks a path through a vertex that
    `what` fails to separate from q, which only matters if the path
    actually reaches q."""
    lam_q = od.lambda_minus_linfrac(q)
    ledger: list[PathTerm] = []
    for path, (acc, levels) in walk:
        if path[-1] != q:
            continue
        if acc is None:
            raise WellDefinednessViolation(
                f"{what} along {path} does not separate its vertex from {q}")
        ledger.append(PathTerm(path, lam_q * acc, levels))
    return ledger


def restriction_vertex_classes(
    od: OrientedGraphData, p: str, q: str,
    class_of: Mapping[str, Mapping[str, Weight]],
) -> tuple[Poly, list[PathTerm]]:
    """Path sum over all canonical-graph paths p -> q, each edge (a, b)
    contributing (w_a(b) - w_a(a)) / (w_a(q) - w_a(a)) times the edge label,
    where w_a is the class attached to a.  Paths with a vanishing numerator
    contribute zero and are recorded as such."""
    _require_index_increasing(od)
    n = od.rank

    def step(path, state):
        v, acc = path[-1], state[0]
        if v == q or od.phi[v] >= od.phi[q]:
            return ()
        w = class_of[v]
        den = w[q] - w[v]
        out = []
        for u in od.up[v]:
            if acc is None or den.is_zero():
                out.append((u, (None, None)))
                continue
            num = w[u] - w[v]
            if num.is_zero():
                # the whole completion contributes zero; keep walking so the
                # ledger still lists every path
                out.append((u, (LinFrac(n, 0), None)))
            else:
                factor = _edge_factor(od, v, u).mul_weight(num).div_weight(den)
                out.append((u, (acc * factor, None)))
        return out

    ledger = _path_terms(od, q, walk_paths(p, (LinFrac.one(n), None), step), "a class")
    live = [t.value for t in ledger if not t.value.is_zero()]
    return linfrac_sum_to_poly(live, n), ledger


def build_h_function(
    od: OrientedGraphData, classes: Sequence[Mapping[str, Weight]],
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


def _edge_scalars(filt: PathFilter, a: str, b: str) -> tuple:
    """The scalars of the factor of the canonical edge (a, b): theta(a, b)
    and the primitive splits (form, numerator, denominator) of its weight
    eta and of w_h(b) - w_h(a), h the edge's level.  The factor is theta *
    (w_h(b) - w_h(a)) / eta, a scalar exactly when the two forms agree."""
    j = filt.h_edge[(a, b)]
    eta_form, eta_scale = filt.od.graph.edge_weight(a, b).primitive()
    return (filt.od.theta(a, b), (eta_form, eta_scale.numerator, eta_scale.denominator),
            filt.level_split(j, a, b))


@dataclass
class PathFilter:
    """A filtered path sum's levels: h_edge of each canonical edge, and
    w_level(j, v), the level-j class at v.

    The filter keeps each level's class in integers, built on first use of
    the level, once per table: one positive scale D_j, the lcm of the
    coordinates' denominators, and the integral coordinates of D_j *
    w_level(j, v) at every vertex.  level_split(j, v, u), the primitive
    split of w_j(u) - w_j(v), is read off them without a Fraction and kept
    per (level, value at v, value at u).  The scalars of an edge's factor
    (_edge_scalars) do not depend on the target: edge(a, b) builds them on
    first use and keeps them, once per edge in a table (per edge and
    worker when forked).  factor(a, b), theta/weight * (w_h(b) - w_h(a))
    as the walker multiplies it, is made from them.  Theta is only asked
    of an edge a sum crosses, so the walker's errors and their order
    stay."""

    od: OrientedGraphData
    h_edge: Mapping[tuple[str, str], int]
    w_level: Callable[[int, str], Weight]
    _levels: dict = field(default_factory=dict, repr=False)
    _splits: dict = field(default_factory=dict, repr=False)
    _edges: dict = field(default_factory=dict, repr=False)
    _factors: dict = field(default_factory=dict, repr=False)

    def level(self, j: int) -> tuple[int, dict[str, tuple[int, ...]]]:
        """(D_j, vertex -> integral coordinates of D_j * w_level(j, v))."""
        got = self._levels.get(j)
        if got is None:
            values = {v: self.w_level(j, v).coords for v in self.od.graph.ids}
            scale = lcm(*[c.denominator for coords in values.values() for c in coords])
            got = self._levels[j] = scale, {
                v: tuple(c.numerator * (scale // c.denominator) for c in coords)
                for v, coords in values.items()}
        return got

    def level_split(self, j: int, v: str, u: str) -> tuple | None:
        """The primitive split (form, numerator, denominator) of w_j(u) -
        w_j(v), its scale numerator / denominator in lowest terms with a
        positive denominator; None when the difference vanishes."""
        scale, values = self.level(j)
        key = (j, values[v], values[u])
        if key in self._splits:
            return self._splits[key]
        diff = [b - a for a, b in zip(key[1], key[2])]
        g = gcd(*diff)
        if g == 0:
            got = None
        else:
            if next(c for c in diff if c) < 0:
                g = -g
            d = gcd(g, scale)
            got = (tuple(c // g for c in diff), g // d, scale // d)
        self._splits[key] = got
        return got

    def edge(self, a: str, b: str) -> tuple:
        got = self._edges.get((a, b))
        if got is None:
            got = self._edges[(a, b)] = _edge_scalars(self, a, b)
        return got

    def factor(self, a: str, b: str) -> LinFrac:
        got = self._factors.get((a, b))
        if got is None:
            theta, eta, diff = self.edge(a, b)
            num, den = _part_ratio(theta, diff, eta, 1, 1)
            got = self._factors[(a, b)] = LinFrac(
                self.od.rank, _div_scalar(num, den), (diff[0],), (eta[0],))
        return got


def filtered_path_sum(
    od: OrientedGraphData, p: str, q: str, filt: PathFilter,
) -> tuple[Poly, list[PathTerm]]:
    """Sum over canonical-graph paths p -> q whose edge levels are
    nondecreasing; each edge contributes its factor (PathFilter.factor)
    over w_h(q) - w_h(a), with h the edge's level and a its start.

    The walk only extends a prefix to a vertex u from which q is reachable
    along canonical edges (od.reachable).  This is exact: every path
    p -> q through u continues from u to q along canonical edges, so the
    skipped prefixes are exactly those that never reach q.  They add no
    ledger term, and a WellDefinednessViolation is only raised on reaching
    q, so the ledger, its depth-first order and the cases that raise it are
    those of the unpruned walk.  Canonical edges ascend in phi, so every
    vertex other than q that can still reach q lies below q in phi.  Edge
    scalars are not asked on skipped prefixes."""
    _require_index_increasing(od)
    n = od.rank
    reach = od.reachable

    def step(path, state):
        v = path[-1]
        if v == q:
            return ()
        acc, levels = state
        last = levels[-1] if levels else 0
        out = []
        for u in od.up[v]:
            if q not in reach[u]:
                continue
            j = filt.h_edge[(v, u)]
            if j < last:
                continue
            den = filt.w_level(j, q) - filt.w_level(j, v)
            if acc is None or den.is_zero():
                out.append((u, (None, levels + (j,))))
                continue
            out.append((u, (acc * filt.factor(v, u).div_weight(den), levels + (j,))))
        return out

    ledger = _path_terms(od, q, walk_paths(p, (LinFrac.one(n), ()), step), "a level")
    return linfrac_sum_to_poly([t.value for t in ledger], n), ledger


class _NotPolynomial(Exception):
    """A suffix sum that filtered_path_column cannot keep as a polynomial;
    the whole column is then handed to filtered_path_sum."""


def _part_ratio(theta: int, diff: tuple, eta: tuple, num: int, den: int) -> tuple[int, int]:
    """theta * diff_scale / (eta_scale * num / den) in lowest terms as
    (numerator, positive denominator), diff and eta primitive splits
    (form, numerator, denominator) as _edge_scalars gives them, so that no
    Fraction is made."""
    num, den = theta * diff[1] * eta[2] * den, diff[2] * eta[1] * num
    g = gcd(num, den)
    if den < 0:
        g = -g
    return num // g, den // g


def _over_one_denominator(poly: Poly) -> tuple[dict, int]:
    """(terms, den) with integral terms and poly = terms / den."""
    den = lcm(*[c.denominator for c in poly.terms.values() if type(c) is Fraction])
    return {e: int(c * den) for e, c in poly.terms.items()}, den


def _add_over(acc: tuple[dict, int], terms: dict, den: int) -> tuple[dict, int]:
    """acc + terms / den for integral terms, acc a pair (terms,
    denominator) as _over_one_denominator gives, over the lcm of the two
    denominators, with the content divided out."""
    acc_terms, acc_den = acc
    if acc_terms:
        m = lcm(acc_den, den)
        ka, kb = m // acc_den, m // den
        out = {e: c * ka for e, c in acc_terms.items()}
        for e, c in terms.items():
            t = out.get(e, 0) + c * kb
            if t:
                out[e] = t
            else:
                del out[e]
    else:
        out, m = terms, den
    if m != 1:
        g = gcd(m, *out.values())
        if g != 1:
            out = {e: c // g for e, c in out.items()}
            m //= g
    return out, m


def filtered_path_column(od: OrientedGraphData, filt: PathFilter, q: str) -> dict[str, Poly]:
    """filtered_path_sum from every vertex to q, keyed by p in graph order,
    as one backward dynamic program instead of one walk per pair.

    S(v, l) is lambda_minus(q) times the sum, over the paths v -> q with
    nondecreasing edge levels all at least l, of the products of their
    edge factors; alpha_p(q) = S(p, 0).  An edge (v, u) of level j adds its
    factor over w_j(q) - w_j(v) times S(u, j).  Canonical edges ascend in
    phi, so going down od.order every S(u, .) is known before v needs it.
    S(v, .) only changes at the levels of v's edges, so each vertex keeps
    one cumulative sum per such level.

    The sums are polynomials kept in integers: each is a dict of integral
    coefficients over one positive denominator, its content reduced.  The
    edges of one level j at v share the denominator w_j(q) - w_j(v) =
    scale * form, with form primitive: each adds S(u, j) times its
    factor's scalar (PathFilter.edge) over scale, over the lcm of their
    denominators, and the integral total is divided once, exactly, by
    form.  An integral polynomial that a primitive integral form divides
    has an integral quotient (Gauss's lemma), so the division makes no
    Fraction.  Only the column's entries are divided by their
    denominators.  A vertex with no monotone path to q has no sum, so an
    edge into it never counts, as in the walker.

    The program stops at the first sum it cannot keep as a polynomial: a
    vanishing denominator on a monotone path to q, a factor with a form in
    its denominator, or a level total that its form does not divide.  The
    column is then filtered_path_sum from every p in graph order, which
    gives the walker's values, or raises its first error."""
    _require_index_increasing(od)
    n = od.rank
    zero = Poly.zero(n)
    reach = od.reachable
    top = _over_one_denominator(od.lambda_minus(q))
    # v -> [(level, S(v, level))] ascending, one per level of v's edges;
    # S(v, l) is the first entry whose level is at least l
    sums: dict[str, list] = {}

    def suffix(u: str, j: int):
        if u == q:
            return top
        for level, s in sums[u]:
            if level >= j:
                return s
        return None

    try:
        for v in reversed(od.order):
            if v == q or q not in reach[v]:
                continue
            # level -> (form, scale numerator, scale denominator,
            # [(numerator, denominator, terms)]), one part per edge whose
            # suffix sum is nonzero
            groups: dict[int, tuple] = {}
            for u in od.up[v]:
                if q not in reach[u]:
                    continue
                j = filt.h_edge[(v, u)]
                s = suffix(u, j)
                if s is None:
                    continue
                group = groups.get(j)
                if group is None:
                    split = filt.level_split(j, v, q)
                    if split is None:
                        raise _NotPolynomial
                    group = groups[j] = (Weight.of_exact(split[0]), split[1], split[2], [])
                terms, den = s
                if terms:
                    theta, eta, diff = filt.edge(v, u)
                    if diff[0] != eta[0]:
                        raise _NotPolynomial
                    num, d = _part_ratio(theta, diff, eta, group[1], group[2])
                    group[3].append((num, d * den, terms))
            cumulative = []
            acc: tuple[dict, int] = ({}, 1)
            for j in sorted(groups, reverse=True):
                form, _, _, parts = groups[j]
                if len(parts) == 1:  # one sum times a scalar: no term cancels
                    k, den, terms = parts[0]
                    total = Poly(n, terms if k == 1 else {e: k * a for e, a in terms.items()},
                                 _clean=True)
                else:
                    den = lcm(*[d for _, d, _ in parts])
                    terms = {}
                    for num, d, part in parts:
                        k = num * (den // d)
                        for e, a in part.items():
                            terms[e] = terms.get(e, 0) + k * a
                    total = Poly(n, terms)  # drops the terms that cancelled
                try:
                    quot = total.div_weight(form)
                except NotDivisible:
                    raise _NotPolynomial from None
                acc = _add_over(acc, quot.terms, den)
                cumulative.append((j, acc))
            sums[v] = cumulative[::-1]
    except _NotPolynomial:
        return {p: filtered_path_sum(od, p, q, filt)[0] for p in od.graph.ids}

    col: dict[str, Poly] = {}
    for p in od.graph.ids:
        s = suffix(p, 0) if q in reach[p] else None
        if s is None:
            col[p] = zero
        else:
            terms, den = s
            col[p] = Poly(n, terms if den == 1 else
                          {e: _div_scalar(c, den) for e, c in terms.items()}, _clean=True)
    return col


def ordered_filter(od: OrientedGraphData,
                   classes: Sequence[Mapping[str, Weight]]) -> PathFilter:
    """The filter of an ordered class list, as filtered_path_sum and
    filtered_path_column take it; raises NoSeparatingClass when some
    canonical edge is separated by no class."""
    return PathFilter(od, build_h_function(od, classes), lambda j, v: classes[j - 1][v])


def restriction_ordered(
    od: OrientedGraphData, p: str, q: str,
    classes: Sequence[Mapping[str, Weight]],
) -> tuple[Poly, list[PathTerm]]:
    """Filtered path sum for an ordered list of classes; callers are
    expected to have certified the vanishing hypothesis (verify_tech)."""
    return filtered_path_sum(od, p, q, ordered_filter(od, classes))


def verify_tech(
    od: OrientedGraphData,
    classes: Sequence[Mapping[str, Weight]],
    table: RestrictionTable,
) -> bool:
    """Check the vanishing hypothesis for an ordered class list: whenever
    w_j separates p from q but does not increase in the xi direction,
    alpha_p(q) must vanish."""
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
    congs: Sequence[tuple[Weight, Poly]],
    steps: Sequence[tuple[tuple[Weight, ...] | None, Poly]],
    degree: int, n: int,
) -> Poly:
    """The unique homogeneous polynomial of the given degree congruent to
    f_i modulo the linear form eta_i for every supplied pair (eta_i, f_i).

    Built incrementally: a partial solution g for the first k congruences
    is corrected by a multiple of eta_1*...*eta_k, whose cofactor is
    (f_{k+1} - g) on the (k+1)-st hyperplane divided by eta_1, ..., eta_k
    restricted there.  steps[k] holds those restricted forms, None when one
    of them vanishes, and the unrestricted product
    (OrientedGraphData.congruence_products).  The corrections are summed
    into one term dict.  Degrees are forced, so failure of any exact
    division means the congruences are unsolvable in this degree."""
    total: dict = {}
    g = Poly(n, total, _clean=True)  # local: total is summed in place
    for k, ((eta, f), (forms, prod)) in enumerate(zip(congs, steps, strict=True)):
        u = f.restrict_zero(eta, minus=g)
        if u.is_zero():
            continue
        if k > degree:
            raise NoSolution("correction term would need negative degree")
        if forms is None:
            raise NoSolution("dependent congruence directions")
        try:
            for h in forms:
                u = u.div_weight(h)
        except NotDivisible as exc:
            raise NoSolution(f"congruences are inconsistent: {exc}") from exc
        # total += u * prod, one product per correction
        for e1, c1 in u.terms.items():
            for e2, c2 in prod.terms.items():
                e = tuple(map(add, e1, e2))
                s = total.get(e, 0) + c1 * c2
                if s:
                    total[e] = s
                else:
                    del total[e]
    return g.with_int_coefficients()


def brute_row(od: OrientedGraphData, p: str, until: str | None = None) -> dict[str, Poly]:
    """Row of values alpha_p(.) obtained purely from the defining
    conditions: prescribed value at p, vanishing at indices <= index(p),
    homogeneity, and the divisibility congruences along every edge,
    processed upward in phi.  Each value only depends on those below it,
    so with until the row stops once the value at that vertex is solved:
    the vertices up to it in od.order get their values in the full row,
    and no vertex above it is looked at."""
    g = od.graph
    n = od.rank
    d = od.lam[p]
    row: dict[str, Poly] = {}
    for v in od.order:
        congs = [(g.edge_weight(r, v), row[r]) for r in od.lower_adj[v]]
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
            val = _solve_congruences(congs, od.congruence_products(v), d, n)
            if val and (not val.is_homogeneous() or val.degree() != d):
                raise NoSolution(f"value at {v} is not homogeneous of degree {d}")
        if v == p or od.lam[v] <= d:
            for eta, f in congs:
                if val != f and val.restrict_zero(eta, minus=f):
                    raise NoSolution(
                        f"imposed value at {v} violates the congruence along ({v},...)")
        row[v] = val
        if v == until:
            break
    return row


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


def certify_table(od: OrientedGraphData, table: RestrictionTable) -> Certificate:
    """Check diagonal values, vanishing, homogeneity, edge divisibility,
    and the integrality of (w(r) - w(p)) * alpha_p(r) / lambda_minus(r)
    along canonical edges for the moment map w, when its values are
    integral."""
    g = od.graph
    cert = Certificate()
    moments = {v: g.moment[v] for v in g.ids}
    integral = all(Fraction(c).denominator == 1
                   for w in moments.values() for c in w.coords)
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
            # a zero entry leaves the other one (up to sign) to check
            vb, va = table.get(p, b), table.get(p, a)
            if va.is_zero():
                ok = vb.is_zero() or vb.divisible_by_weight(eta)
            elif vb.is_zero():
                ok = va.divisible_by_weight(eta)
            else:
                ok = (vb - va).divisible_by_weight(eta)
            cert.note(ok, f"alpha_{p}({b}) - alpha_{p}({a}) not divisible by edge weight")
    if integral:
        # the moment map is the one class checked, class 0 in the messages
        for p in g.ids:
            for r in od.up[p]:
                val = table.get(p, r)
                diff = moments[r] - moments[p]
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
                cert.note(ok, f"class 0 fails integrality on edge ({p},{r}): {quot}")
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
