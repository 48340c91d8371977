"""Moment-graph data model: labelled graphs over fixed points, validation,
generic direction vectors, Morse data, edge scalars, and the canonical
graph built from them.

A graph is stored with both directions of every edge present and mirrored
weights.  A chosen direction vector xi orients it: the value
phi(p) = <moment(p), xi> is strictly increasing along edges whose weight
pairs positively with xi.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

from .errors import (
    GenericityError,
    GraphFormatError,
    NonIntegerTheta,
    NotScalarRatio,
)
from .exact import LinFrac, Poly, Weight, format_scalar, pair


class GkmGraph:
    """A labelled graph over fixed points.

    vertices: ordered mapping id -> moment image (a Weight of length rank);
    weights: map (src, dst) -> edge weight, closed under mirroring with
    weight(dst, src) == -weight(src, dst).
    """

    def __init__(self, rank: int, vertices, edges, synthesize_mirror: bool = True):
        """vertices: iterable of (id, Weight); edges: iterable of
        (src, dst, Weight).  Missing mirror edges are synthesized unless
        disabled; inconsistent explicit mirrors are rejected."""
        self.rank = rank
        self.ids: tuple[str, ...] = tuple(v[0] for v in vertices)
        if len(set(self.ids)) != len(self.ids):
            raise GraphFormatError("duplicate vertex ids")
        self.moment: dict[str, Weight] = {}
        for vid, mom in vertices:
            if len(mom) != rank:
                raise GraphFormatError(f"moment of {vid!r} has wrong length")
            self.moment[vid] = mom
        self.weights: dict[tuple[str, str], Weight] = {}
        for src, dst, w in edges:
            if src not in self.moment or dst not in self.moment:
                raise GraphFormatError(f"edge ({src!r},{dst!r}) references unknown vertex")
            if len(w) != rank:
                raise GraphFormatError(f"edge ({src!r},{dst!r}) weight has wrong length")
            if src == dst:
                raise GraphFormatError(f"loop edge at {src!r}")
            key = (src, dst)
            if key in self.weights and self.weights[key] != w:
                raise GraphFormatError(f"conflicting weights for edge {key}")
            self.weights[key] = w
        if synthesize_mirror:
            for (src, dst), w in list(self.weights.items()):
                mirror = (dst, src)
                if mirror not in self.weights:
                    self.weights[mirror] = -w
        self.adj: dict[str, tuple[str, ...]] = {v: () for v in self.ids}
        nbrs: dict[str, list[str]] = {v: [] for v in self.ids}
        for (src, dst) in self.weights:
            nbrs[src].append(dst)
        for v, lst in nbrs.items():
            self.adj[v] = tuple(sorted(lst))

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
            vertices = [(str(v["id"]), Weight(v["moment"])) for v in data["vertices"]]
            edges = [(str(e["src"]), str(e["dst"]), Weight(e["weight"]))
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
        m = _proportionality(diff, w)
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


def _proportionality(v: Weight, w: Weight):
    """Return the scalar m with v == m*w, or None if not proportional.
    w must be nonzero."""
    m = None
    for a, b in zip(v.coords, w.coords):
        if b == 0:
            if a != 0:
                return None
            continue
        r = Fraction(a, 1) / b
        if m is None:
            m = r
        elif m != r:
            return None
    return Fraction(0) if m is None else m


def magnitude(g: GkmGraph, src: str, dst: str) -> Fraction:
    """The scalar m with moment(dst) - moment(src) = m * weight(src, dst)."""
    w = g.edge_weight(src, dst)
    m = _proportionality(g.moment[dst] - g.moment[src], w)
    if m is None:
        raise GraphFormatError(f"moment difference along ({src},{dst}) is not a multiple of the weight")
    return m


def choose_generic_xi(g: GkmGraph, seed: int = 0) -> Weight:
    """Pick a direction pairing nonzero with every edge weight.

    First candidate is (1, B, B^2, ...) with B one more than the largest
    coordinate sum of a primitive edge weight, which dominates every bad
    hyperplane; a seeded random search is the fallback.  Deterministic for
    a given seed."""
    prims = {w.primitive()[0] for w in g.weights.values() if not w.is_zero()}
    bound = max((sum(abs(c) for c in p) for p in prims), default=1)
    base = bound + 1
    candidate = Weight([base ** i for i in range(g.rank)])
    if all(pair(Weight(p), candidate) != 0 for p in prims):
        return candidate
    rng = random.Random(seed)
    span = 10 * max(len(prims), 1)
    for _ in range(10000):
        candidate = Weight([rng.randint(1, span) for _ in range(g.rank)])
        if all(pair(Weight(p), candidate) != 0 for p in prims):
            return candidate
    raise GenericityError("no generic direction found; graph weights may be degenerate")


class OrientedGraphData:
    """A graph together with a certified direction vector and the derived
    Morse data: phi values, indices, downward weight multisets, and their
    products.  The Morse data is built eagerly; edge scalars, gz
    coefficients and the index-increasing flag are memoised on first use.
    """

    def __init__(self, graph: GkmGraph, xi: Weight):
        if len(xi) != graph.rank:
            raise GenericityError("direction vector has wrong length")
        for (src, dst), w in graph.weights.items():
            if w.is_zero() or pair(w, xi) == 0:
                raise GenericityError(f"direction pairs to zero with edge ({src},{dst})")
        self.graph = graph
        self.xi = xi
        self.phi: dict[str, Fraction] = {
            v: Fraction(pair(graph.moment[v], xi)) for v in graph.ids
        }
        self.neg: dict[str, tuple[Weight, ...]] = {}
        self.lam: dict[str, int] = {}
        for v in graph.ids:
            downs = []
            for u in graph.adj[v]:
                w = graph.weights[(u, v)]
                if pair(w, xi) > 0:
                    downs.append(w)
            downs.sort(key=lambda w: w.coords)
            self.neg[v] = tuple(downs)
            self.lam[v] = len(downs)
        self.lambda_minus_poly: dict[str, Poly] = {
            v: Poly.from_weight_product(graph.rank, self.neg[v]) for v in graph.ids
        }
        # canonical out-edges: neighbours one index up
        self.up: dict[str, tuple[str, ...]] = {
            v: tuple(u for u in graph.adj[v] if self.lam[u] == self.lam[v] + 1)
            for v in graph.ids
        }
        self.order: tuple[str, ...] = tuple(
            sorted(graph.ids, key=lambda v: (self.phi[v], v))
        )
        self._theta_cache: dict[tuple[str, str], Fraction] = {}
        self._gz_coefficients: dict[tuple[str, str], Fraction] = {}

    @property
    def rank(self) -> int:
        return self.graph.rank

    def morse_index(self, p: str) -> int:
        return self.lam[p]

    def lambda_minus(self, p: str) -> Poly:
        return self.lambda_minus_poly[p]

    def lambda_minus_linfrac(self, p: str) -> LinFrac:
        f = LinFrac.one(self.rank)
        for w in self.neg[p]:
            f = f.mul_weight(w)
        return f

    def is_ascending_edge(self, src: str, dst: str) -> bool:
        return self.phi[src] < self.phi[dst]

    def theta(self, p: str, q: str) -> Fraction:
        """Edge scalar: the ratio of the projected downward product at p to
        the projected downward product at q with the edge weight removed.
        Requires (p, q) to be an ascending edge with index gap one; the
        value is checked to be a nonzero integer.

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
        num = _scaled_projections(self.neg[p], eta, self.xi)
        den = _scaled_projections(rest, eta, self.xi)
        if den is None:
            raise NotScalarRatio(f"projected product at {q} vanished on edge ({p},{q})")
        # a zero numerator is proportional to anything, so it only vanishes
        if num is None:
            raise NotScalarRatio(f"projected product at {p} vanished on edge ({p},{q})")
        if num[0] != den[0]:
            raise NotScalarRatio(f"projected products at ({p},{q}) are not proportional")
        ratio = Fraction(num[1]) / den[1]
        if ratio.denominator != 1:
            raise NonIntegerTheta(f"edge scalar {ratio} at ({p},{q}) is not an integer")
        self._theta_cache[key] = ratio
        return ratio

    def gz_coefficient(self, v: str, r: str) -> Fraction:
        """magnitude(v, r) * theta(v, r): the weight of the value at r in
        the moment-driven dynamic program at v, memoised per canonical
        edge.  theta is asked on every call, a cache hit after the first,
        so a trace counts one theta request per DP edge."""
        th = self.theta(v, r)
        c = self._gz_coefficients.get((v, r))
        if c is None:
            c = self._gz_coefficients[(v, r)] = magnitude(self.graph, v, r) * th
        return c

    @cached_property
    def index_increasing(self) -> bool:
        """True when every ascending edge strictly raises the index."""
        return is_index_increasing(self)


def _scaled_projections(weights, eta: Weight, xi: Weight):
    """Split the product of <eta,xi> * rho_project(w, eta, xi) over weights
    into (sorted primitive forms, product of scales), or None when a
    factor is zero.  Scaling by <eta,xi> keeps integral weights integral."""
    d = pair(eta, xi)
    forms, scale = [], 1
    for w in weights:
        t = pair(w, xi)
        x = Weight([d * a - t * b for a, b in zip(w.coords, eta.coords)])
        if x.is_zero():
            return None
        prim, s = x.primitive()
        forms.append(prim)
        scale *= s
    forms.sort()
    return forms, scale


def is_index_increasing(od: OrientedGraphData) -> bool:
    """True when every ascending edge strictly raises the index."""
    g = od.graph
    for (src, dst) in g.weights:
        if od.phi[src] < od.phi[dst] and not od.lam[src] < od.lam[dst]:
            return False
    return True


@dataclass
class CanonicalGraph:
    """Directed graph on the fixed points whose edges raise the index by
    exactly one, labelled by (adjacent restriction)/(downward product)."""

    rank: int
    ids: tuple[str, ...]
    lam: dict[str, int]
    phi: dict[str, Fraction]
    labels: dict[tuple[str, str], LinFrac]
    up: dict[str, tuple[str, ...]]

    def paths(self, p: str, q: str) -> list[tuple[str, ...]]:
        """All directed paths from p to q, in deterministic order.  The
        length-zero path appears exactly when p == q."""
        out: list[tuple[str, ...]] = []
        stack = [(p,)]
        while stack:
            cur = stack.pop()
            v = cur[-1]
            if v == q:
                out.append(cur)
                continue
            if self.phi[v] >= self.phi[q]:
                continue
            for u in reversed(self.up[v]):
                stack.append(cur + (u,))
        return out


def build_canonical_graph(od: OrientedGraphData) -> CanonicalGraph:
    """Assemble the canonical graph of an index-increasing oriented graph,
    labelling each edge with theta(edge)/weight(edge)."""
    labels: dict[tuple[str, str], LinFrac] = {}
    for p in od.graph.ids:
        for q in od.up[p]:
            if od.phi[p] >= od.phi[q]:
                raise GraphFormatError(f"canonical edge ({p},{q}) does not ascend")
            eta = od.graph.edge_weight(p, q)
            th = od.theta(p, q)
            labels[(p, q)] = LinFrac.from_scalar(od.rank, th).div_weight(eta)
    return CanonicalGraph(
        rank=od.rank,
        ids=od.graph.ids,
        lam=dict(od.lam),
        phi=dict(od.phi),
        labels=labels,
        up=dict(od.up),
    )


def enumerate_paths(od: OrientedGraphData, p: str, q: str,
                    ascending_only: bool = True) -> list[tuple[str, ...]]:
    """All paths from p to q in the underlying graph, in deterministic
    (depth-first, id-sorted) order.  Ascending paths strictly increase phi
    at every step; otherwise simple paths (no repeated vertex) are listed,
    which keeps the enumeration finite on mirrored graphs."""
    g = od.graph
    out: list[tuple[str, ...]] = []
    stack: list[tuple[str, ...]] = [(p,)]
    while stack:
        cur = stack.pop()
        v = cur[-1]
        if v == q:
            out.append(cur)
            continue
        for u in reversed(g.adj[v]):
            if ascending_only:
                if od.phi[u] <= od.phi[v]:
                    continue
                if od.phi[u] >= od.phi[q] and u != q:
                    continue
            elif u in cur:
                continue
            stack.append(cur + (u,))
    return out


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
