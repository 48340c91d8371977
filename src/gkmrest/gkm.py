"""Moment-graph data model: labelled graphs over fixed points, validation,
generic direction vectors, Morse data with the canonical (index-one)
edges, edge scalars, and the one depth-first path walker.

A graph is stored with both directions of every edge present and mirrored
weights.  A chosen direction vector xi orients it: the value
phi(p) = <moment(p), xi> is strictly increasing along edges whose weight
pairs positively with xi.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter, sub
from fractions import Fraction

from .errors import (
    GenericityError,
    GraphFormatError,
    NonIntegerTheta,
    NotScalarRatio,
)
from .exact import (LinFrac, Poly, Weight, _as_exact, _div_scalar, _form_plan, _primitive,
                    format_scalar, pair)


class GkmGraph:
    """A labelled graph over fixed points.

    vertices: ordered mapping id -> moment image (a Weight of length rank);
    weights: map (src, dst) -> edge weight, closed under mirroring with
    weight(dst, src) == -weight(src, dst).
    """

    def __init__(self, rank: int, vertices, edges):
        """vertices: iterable of (id, Weight); edges: iterable of
        (src, dst, Weight).  Missing mirror edges are synthesized;
        inconsistent explicit mirrors are rejected."""
        self.rank = rank
        self.ids: tuple[str, ...] = tuple(v[0] for v in vertices)
        if len(set(self.ids)) != len(self.ids):
            raise GraphFormatError("duplicate vertex ids")
        for vid in self.ids:
            # "|" joins the two ids of a restriction-table key
            if "|" in vid:
                raise GraphFormatError(f"vertex id {vid!r} contains '|'")
        moment: dict[str, Weight] = {}
        for vid, mom in vertices:
            if len(mom.coords) != rank:
                raise GraphFormatError(f"moment of {vid!r} has wrong length")
            moment[vid] = mom
        weights: dict[tuple[str, str], Weight] = {}
        heads: dict[str, list[str]] = {v: [] for v in self.ids}
        tails: dict[str, list[str]] = {v: [] for v in self.ids}
        for src, dst, w in edges:
            if src not in moment or dst not in moment:
                raise GraphFormatError(f"edge ({src!r},{dst!r}) references unknown vertex")
            if len(w.coords) != rank:
                raise GraphFormatError(f"edge ({src!r},{dst!r}) weight has wrong length")
            if src == dst:
                raise GraphFormatError(f"loop edge at {src!r}")
            key = (src, dst)
            old = weights.get(key)
            if old is None:
                weights[key] = w
                heads[src].append(dst)
                tails[dst].append(src)
            elif old is not w and old != w:
                raise GraphFormatError(f"conflicting weights for edge {key}")
        # every edge has its mirror exactly when each vertex's heads are
        # its tails (no edge is listed twice in either)
        for v, lst in heads.items():
            lst.sort()
            tails[v].sort()
        if heads != tails:
            heads = {v: [] for v in self.ids}
            for (src, dst), w in list(weights.items()):
                heads[src].append(dst)
                if (dst, src) not in weights:
                    weights[(dst, src)] = -w
                    heads[dst].append(src)
            for lst in heads.values():
                lst.sort()
        self.moment = moment
        self.weights = weights
        self.adj: dict[str, tuple[str, ...]] = {v: tuple(lst) for v, lst in heads.items()}

    def edge_weight(self, src: str, dst: str) -> Weight:
        return self.weights[(src, dst)]

    def has_edge(self, src: str, dst: str) -> bool:
        return (src, dst) in self.weights

    # -- serialization ------------------------------------------------------

    @classmethod
    def from_json(cls, data) -> "GkmGraph":
        if isinstance(data, str):
            try:
                data = json.loads(data)
            except json.JSONDecodeError as exc:
                raise GraphFormatError(f"invalid JSON: {exc}") from exc
        try:
            rank = int(data["rank"])
            vertices = [(str(v["id"]), _json_weight(v["moment"])) for v in data["vertices"]]
            edges = [(str(e["src"]), str(e["dst"]), _json_weight(e["weight"]))
                     for e in data["edges"]]
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise GraphFormatError(f"malformed graph JSON: {exc}") from exc
        return cls(rank, vertices, edges)

    def to_json(self) -> dict:
        seen = set()
        edges = []
        for (src, dst), w in sorted(self.weights.items()):
            if (dst, src) in seen:
                continue
            seen.add((src, dst))
            edges.append({"src": src, "dst": dst, "weight": w.to_json()})
        return {
            "rank": self.rank,
            "vertices": [{"id": v, "moment": self.moment[v].to_json()}
                         for v in self.ids],
            "edges": edges,
        }


def _json_weight(coords) -> Weight:
    """A weight read from graph JSON: a list of numbers or number strings.
    A string is not split into digits, nor a bool read as 0 or 1."""
    if not isinstance(coords, list) or any(isinstance(c, bool) for c in coords):
        raise GraphFormatError(
            f"malformed graph JSON: coordinates {json.dumps(coords)} are not a list of numbers")
    return Weight(coords)


@dataclass
class ValidationReport:
    """Itemized axiom violations; empty means the graph is valid."""

    issues: list[tuple[str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues

    def add(self, code: str, message: str):
        self.issues.append((code, message))

    def __str__(self):
        if self.ok:
            return "valid"
        return "\n".join(f"[{code}] {msg}" for code, msg in self.issues)


def validate_gkm(g: GkmGraph) -> ValidationReport:
    """Check the graph axioms: mirrored edges with negated weights, moment
    differences positive multiples of edge weights, pairwise independent
    weights at each vertex, and constant valence."""
    report = ValidationReport()
    for (src, dst), w in g.weights.items():
        if (dst, src) not in g.weights:
            report.add("symmetry", f"edge ({src},{dst}) has no mirror")
        elif g.weights[(dst, src)] != -w:
            report.add("symmetry", f"weight of ({dst},{src}) is not the negation of ({src},{dst})")
        if w.is_zero():
            report.add("zero-weight", f"edge ({src},{dst}) has zero weight")
            continue
        diff = g.moment[dst] - g.moment[src]
        m = _proportionality(diff.coords, w.coords)
        if m is None:
            report.add("positivity", f"moment difference along ({src},{dst}) is not a multiple of the weight")
        elif m <= 0:
            report.add("positivity", f"moment difference along ({src},{dst}) is a non-positive multiple ({m}) of the weight")
    for v in g.ids:
        prims = []
        for u in g.adj[v]:
            w = g.weights.get((u, v))
            if w is None or w.is_zero():
                continue
            prims.append(w.primitive()[0])
        if len(set(prims)) != len(prims):
            report.add("independence", f"vertex {v} has linearly dependent incident weights")
    valences = {len(g.adj[v]) for v in g.ids}
    if len(valences) > 1:
        report.add("regularity", f"valences differ across vertices: {sorted(valences)}")
    return report


def _proportionality(v: tuple, w: tuple):
    """Return the scalar m with v == m*w for coordinate tuples, or None if
    not proportional; an int when integral.  w must be nonzero."""
    m = None
    for a, b in zip(v, w):
        if b == 0:
            if a != 0:
                return None
            continue
        r = _div_scalar(a, b)
        if m is None:
            m = r
        elif m != r:
            return None
    return 0 if m is None else m


def magnitude(g: GkmGraph, src: str, dst: str) -> int | Fraction:
    """The scalar m with moment(dst) - moment(src) = m * weight(src, dst),
    an int when integral."""
    w = g.edge_weight(src, dst)
    m = _proportionality(tuple(map(sub, g.moment[dst].coords, g.moment[src].coords)),
                         w.coords)
    if m is None:
        raise GraphFormatError(f"moment difference along ({src},{dst}) is not a multiple of the weight")
    return m


def choose_generic_xi(g: GkmGraph) -> Weight:
    """A direction pairing nonzero with every edge weight: (1, B, B^2, ...)
    with B one more than the largest l1 norm of a primitive edge weight.

    For a primitive weight p with highest nonzero coordinate k,
    |p_k B^k| >= B^k, while the lower terms of <p, xi> sum to at most
    (sum_{i<k} |p_i|) B^(k-1) < B^k, the l1 norm of p being below B: the
    pairing is never zero."""
    prims = {w.primitive()[0] for w in g.weights.values() if not w.is_zero()}
    base = 1 + max((sum(map(abs, p)) for p in prims), default=1)
    return Weight([base ** i for i in range(g.rank)])


class OrientedGraphData:
    """A graph together with a certified direction vector and the derived
    Morse data: phi values, indices and downward weight multisets, built
    eagerly.  The downward products, edge scalars and the projected forms
    they are made of, gz coefficients, the primitive splits of the edge
    weights, the index-increasing flag, canonical reachability, the lower
    neighbours and the congruence products are memoised on first use.
    """

    def __init__(self, graph: GkmGraph, xi: Weight):
        if len(xi.coords) != graph.rank:
            raise GenericityError("direction vector has wrong length")
        # one pairing per distinct weight, keyed by its coordinates and
        # checked at the weight's first edge; an edge whose weight pairs
        # positively points down into its head
        xi_pair: dict[tuple, int | Fraction] = {}
        downs: dict[str, list[Weight]] = {v: [] for v in graph.ids}
        for (src, dst), w in graph.weights.items():
            t = xi_pair.get(w.coords)
            if t is None:
                t = xi_pair[w.coords] = 0 if w.is_zero() else pair(w, xi)
                if t == 0:
                    raise GenericityError(f"direction pairs to zero with edge ({src},{dst})")
            if t > 0:
                downs[dst].append(w)
        self.graph = graph
        self.xi = xi
        # exact scalars: ints where integral, as on every default orbit
        self.phi: dict[str, int | Fraction] = {
            v: _as_exact(pair(graph.moment[v], xi)) for v in graph.ids
        }
        coords = attrgetter("coords")
        self.neg: dict[str, tuple[Weight, ...]] = {
            v: tuple(sorted(ws, key=coords)) for v, ws in downs.items()}
        self.lam: dict[str, int] = {v: len(ws) for v, ws in downs.items()}
        # canonical out-edges: neighbours one index up
        lam = self.lam
        self.up: dict[str, tuple[str, ...]] = {}
        for v in graph.ids:
            above = lam[v] + 1
            self.up[v] = tuple([u for u in graph.adj[v] if lam[u] == above])
        self.order: tuple[str, ...] = tuple(
            sorted(graph.ids, key=lambda v: (self.phi[v], v))
        )
        self._xi_pair = xi_pair
        self._lambda_minus: dict[str, Poly] = {}
        self._lambda_minus_linfrac: dict[str, LinFrac] = {}
        self._theta_cache: dict[tuple[str, str], int] = {}
        self._projections: dict[tuple[tuple, tuple], tuple | None] = {}
        self._gz_coefficients: dict[tuple[str, str], int | Fraction] = {}
        self._congruence_products: dict[str, tuple] = {}
        self._weight_splits: dict[tuple[str, str], tuple[tuple[int, ...], int | Fraction]] = {}

    @property
    def rank(self) -> int:
        return self.graph.rank

    def lambda_minus(self, p: str) -> Poly:
        got = self._lambda_minus.get(p)
        if got is None:
            got = self._lambda_minus[p] = Poly.from_weight_product(self.rank, self.neg[p])
        return got

    def lambda_minus_linfrac(self, p: str) -> LinFrac:
        got = self._lambda_minus_linfrac.get(p)
        if got is None:
            got = LinFrac.one(self.rank)
            for w in self.neg[p]:
                got = got.mul_weight(w)
            self._lambda_minus_linfrac[p] = got
        return got

    def theta(self, p: str, q: str) -> int:
        """Edge scalar: the ratio of the projected downward product at p to
        the projected downward product at q with the edge weight removed.
        Requires (p, q) to be an ascending edge with index gap one; the
        value is checked to be a nonzero integer and returned as an int.

        Nothing is expanded.  Linear forms are irreducible and the
        polynomial ring is a unique factorisation domain, so two products
        of nonzero linear forms are proportional exactly when their
        multisets of primitive forms agree, and the ratio is then the
        ratio of the leftover scales."""
        key = (p, q)
        got = self._theta_cache.get(key)
        if got is not None:
            return got
        if not self.graph.has_edge(p, q):
            raise GraphFormatError(f"({p},{q}) is not an edge")
        if self.lam[q] != self.lam[p] + 1:
            raise GraphFormatError(f"edge ({p},{q}) does not raise the index by one")
        eta = self.graph.edge_weight(p, q)
        rest = list(self.neg[q])
        if eta not in rest:
            raise GraphFormatError(f"edge weight of ({p},{q}) is not a downward weight at {q}")
        rest.remove(eta)
        # both sides have lam(p) factors, so the projections may all be
        # scaled by the same <eta, xi>
        num = self._scaled_projections(self.neg[p], eta)
        den = self._scaled_projections(rest, eta)
        if den is None:
            raise NotScalarRatio(f"projected product at {q} vanished on edge ({p},{q})")
        # a zero numerator is proportional to anything, so it only vanishes
        if num is None:
            raise NotScalarRatio(f"projected product at {p} vanished on edge ({p},{q})")
        if num[0] != den[0]:
            raise NotScalarRatio(f"projected products at ({p},{q}) are not proportional")
        ratio = _div_scalar(num[1], den[1])
        if type(ratio) is not int:
            raise NonIntegerTheta(f"edge scalar {ratio} at ({p},{q}) is not an integer")
        self._theta_cache[key] = ratio
        return ratio

    def _scaled_projections(self, weights, eta: Weight):
        """Split the product of <eta,xi> * rho_project(w, eta, xi) over
        weights into (sorted primitive forms, product of scales), or None
        when a factor is zero.  Scaling by <eta,xi> keeps integral weights
        integral, so their scales are ints.  Each factor's split depends
        only on the pair (w, eta), so it is memoised per pair of
        coordinate tuples; the pairings with xi are the ones __init__
        took."""
        forms, scale = [], 1
        projections, xi_pair, e = self._projections, self._xi_pair, eta.coords
        for w in weights:
            key = (w.coords, e)
            split = projections.get(key, False)
            if split is False:
                d, t = xi_pair[e], xi_pair[w.coords]
                x = tuple([d * a - t * b for a, b in zip(w.coords, e)])
                split = projections[key] = _primitive(x) if any(x) else None
            if split is None:
                return None
            forms.append(split[0])
            scale *= split[1]
        forms.sort()
        return forms, scale

    def weight_split(self, a: str, b: str) -> tuple[tuple[int, ...], int | Fraction]:
        """The primitive split of the weight of the edge (a, b), memoised."""
        got = self._weight_splits.get((a, b))
        if got is None:
            got = self._weight_splits[(a, b)] = self.graph.weights[(a, b)].primitive()
        return got

    def gz_coefficient(self, v: str, r: str) -> int | Fraction:
        """magnitude(v, r) * theta(v, r): the weight of the value at r in
        the moment-driven dynamic program at v, memoised per canonical
        edge, an int when integral.  theta is asked on every call, a cache
        hit after the first, so a trace counts one theta request per DP
        edge."""
        th = self.theta(v, r)
        c = self._gz_coefficients.get((v, r))
        if c is None:
            c = self._gz_coefficients[(v, r)] = _as_exact(magnitude(self.graph, v, r) * th)
        return c

    def congruence_products(self, v: str) -> tuple[tuple[tuple[Weight, ...] | None, Poly], ...]:
        """For the k-th lower neighbour of v (lower_adj order), with eta_h
        the weight of the edge from the h-th one to v: the forms eta_h for
        h < k restricted to eta_k = 0 (None when one of them vanishes
        there), and the product of those eta_h unrestricted.  These are the
        divisors and multipliers of the brute congruence solver; they do
        not depend on the row, so they are memoised per vertex."""
        got = self._congruence_products.get(v)
        if got is None:
            etas = self.lower_weights[v]
            steps = []
            prod = Poly.const(self.rank, 1)
            for k, eta in enumerate(etas):
                # eta_h on eta = 0: eta_h - (eta_h[piv] / c0) * eta, with
                # the pivot that Poly.restrict_zero eliminates, from eta's plan
                piv, c0 = _form_plan(eta.coords)[:2]
                forms = []
                for h in etas[:k]:
                    t = _div_scalar(h.coords[piv], c0)
                    piece = h - t * eta if t else h
                    if piece.is_zero():
                        forms = None
                        break
                    forms.append(piece)
                steps.append((forms if forms is None else tuple(forms), prod))
                prod = prod.mul_weight(eta)
            got = self._congruence_products[v] = tuple(steps)
        return got

    @cached_property
    def index_increasing(self) -> bool:
        """True when every ascending edge strictly raises the index."""
        lam, phi = self.lam, self.phi
        return all(lam[src] < lam[dst] for (src, dst) in self.graph.weights
                   if phi[src] < phi[dst])

    @cached_property
    def reachable(self) -> dict[str, frozenset[str]]:
        """For each vertex, the vertices reachable from it along canonical
        (up) edges, itself included.  Built in one pass downward in phi,
        which needs canonical edges to ascend: true on index-increasing
        orientations, the only ones the path sums accept."""
        reach: dict[str, frozenset[str]] = {}
        for v in reversed(self.order):
            out = {v}
            for u in self.up[v]:
                out |= reach[u]
            reach[v] = frozenset(out)
        return reach

    @cached_property
    def lower_adj(self) -> dict[str, tuple[str, ...]]:
        """For each vertex, its neighbours with smaller phi, in adjacency
        order."""
        phi = self.phi
        return {v: tuple(r for r in self.graph.adj[v] if phi[r] < phi[v])
                for v in self.graph.ids}

    @cached_property
    def lower_weights(self) -> dict[str, tuple[Weight, ...]]:
        """For each vertex v, the weights of the edges (r, v) from its
        lower neighbours r, in lower_adj order: the congruence directions
        at v of every brute row."""
        weights = self.graph.weights
        return {v: tuple(weights[(r, v)] for r in lower)
                for v, lower in self.lower_adj.items()}


def walk_paths(start, state, step):
    """Depth-first walk over the paths from start, yielding (path, state)
    for each path reached, a path before its extensions.  step(path, state)
    lists the extensions of a path as (vertex, next_state); the last one
    listed is walked first.  The ascending and horizontal path listings,
    the path sums and the slot-monotone cover chains are each one step
    function over this walk."""
    stack = [((start,), state)]
    while stack:
        path, state = stack.pop()
        yield path, state
        for u, nxt in step(path, state):
            stack.append((path + (u,), nxt))


def enumerate_paths(od: OrientedGraphData, p: str, q: str) -> list[tuple[str, ...]]:
    """All ascending paths from p to q in the underlying graph (phi strictly
    increases at every step), in deterministic (depth-first, id-sorted)
    order."""
    adj, phi, top = od.graph.adj, od.phi, od.phi[q]

    def step(path, _):
        v = path[-1]
        if v == q:
            return ()
        return [(u, None) for u in reversed(adj[v])
                if phi[v] < phi[u] and (phi[u] < top or u == q)]

    return [path for path, _ in walk_paths(p, None, step) if path[-1] == q]


def export_dot(od: OrientedGraphData, canonical: bool = False) -> str:
    """Graphviz rendering with index and phi annotations; edges carry the
    weight and, for the full graph, the magnitude."""
    g = od.graph
    lines = ["digraph gkm {"]
    for v in od.order:
        lines.append(
            f'  "{v}" [label="{v}\\nlam={od.lam[v]}\\nphi={format_scalar(od.phi[v])}"];'
        )
    if canonical:
        for p in od.order:
            for q in od.up[p]:
                lines.append(f'  "{p}" -> "{q}" [label="{g.edge_weight(p, q)}"];')
    else:
        for (src, dst), w in sorted(g.weights.items()):
            m = magnitude(g, src, dst)
            lines.append(f'  "{src}" -> "{dst}" [label="{w} (m={format_scalar(m)})"];')
    lines.append("}")
    return "\n".join(lines)
