"""Towers of projections and fiber decompositions.

A tower is a chain of vertex projections from the fixed-point set onto
smaller fixed-point sets, each carrying pulled-back moment values.  The
first level separating two fixed points defines the h-function that
filters path sums; a single projection supports decomposing a restriction
into base-path contributions times restrictions computed on the fiber.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import sub
from typing import Mapping, Sequence

from .errors import (
    GraphFormatError,
    NotHorizontal,
    WeightNotPreserved,
)
from .exact import LinFrac, Poly, Weight, _div_scalar, linfrac_sum_to_poly
from .canonical import (
    PathFilter, PathTerm, _require_index_increasing, build_h_function, filtered_path_sum)
from .gkm import OrientedGraphData, magnitude, walk_paths


@dataclass
class TowerLevel:
    """One stage: where each vertex lands, and the pulled-back moment."""

    projection: Mapping[str, str]
    moment: Mapping[str, Weight]


class TowerSpec:
    """Levels 1..k of vertex projections with pulled-back moments; level k
    must be the identity, and each level's fibers must refine the next
    coarser level's."""

    def __init__(self, levels: Sequence[TowerLevel]):
        if not levels:
            raise GraphFormatError("a tower needs at least one level")
        self.levels = list(levels)

    def __len__(self):
        return len(self.levels)

    def validate(self, od: OrientedGraphData):
        ids = od.graph.ids
        for idx, lvl in enumerate(self.levels, start=1):
            for v in ids:
                if v not in lvl.projection:
                    raise GraphFormatError(f"level {idx} does not project vertex {v}")
                if v not in lvl.moment:
                    raise GraphFormatError(f"level {idx} has no moment for vertex {v}")
            # moments must be constant on fibers
            seen: dict[str, Weight] = {}
            for v in ids:
                b = lvl.projection[v]
                m = lvl.moment[v]
                if b in seen and seen[b] != m:
                    raise GraphFormatError(
                        f"level {idx} moment is not constant on the fiber over {b}")
                seen[b] = m
        top = self.levels[-1].projection
        for v in ids:
            if top[v] != v:
                raise GraphFormatError("top level is not the identity projection")
        for idx in range(len(self.levels) - 1):
            coarse = self.levels[idx].projection
            fine = self.levels[idx + 1].projection
            image: dict[str, str] = {}
            for v in ids:
                b = fine[v]
                if b in image:
                    if image[b] != coarse[v]:
                        raise GraphFormatError(
                            f"level {idx + 1} fibers do not refine level {idx + 2}")
                else:
                    image[b] = coarse[v]


def check_weight_preserving(od: OrientedGraphData, tower: TowerSpec,
                            h: Mapping[tuple[str, str], int]):
    """At each canonical edge's separating level the pulled-back moment
    difference must be a positive multiple of the edge weight.  The
    differences are taken on the integral level coordinates that the
    tower's filter keeps (PathFilter.level), whose positive scale keeps
    their sign, and are compared with the weight without a division."""
    levels = PathFilter(od, h, [lvl.moment for lvl in tower.levels]).level
    for (a, b), j in h.items():
        values = levels(j)[1]
        diff = tuple(map(sub, values[b], values[a]))
        eta = od.graph.edge_weight(a, b).coords
        # diff = m * eta with m > 0 iff every 2x2 minor against the pivot
        # of eta vanishes and diff has eta's sign at the pivot
        piv = next(i for i, c in enumerate(eta) if c != 0)
        if (diff[piv] * eta[piv] <= 0
                or any(d * eta[piv] != diff[piv] * c for d, c in zip(diff, eta))):
            raise WeightNotPreserved(
                f"level {j} moment difference along ({a},{b}) is not a positive "
                f"multiple of the edge weight")


def tower_filter(od: OrientedGraphData, tower: TowerSpec) -> PathFilter:
    """Validate a tower against od and return its filter, as
    filtered_path_sum and filtered_path_column take it: an edge's level is
    the first level whose projection separates its ends, and the level
    classes are the pulled-back moments.  Raises GraphFormatError, then
    WeightNotPreserved, in that order of checks.  A validated tower's top
    level is the identity, so some level separates every edge."""
    tower.validate(od)
    h = build_h_function(od, [lvl.projection for lvl in tower.levels])
    check_weight_preserving(od, tower, h)
    return PathFilter(od, h, [lvl.moment for lvl in tower.levels])


def tower_restriction(od: OrientedGraphData, tower: TowerSpec, p: str, q: str,
                      ) -> tuple[Poly, list[PathTerm]]:
    """Filtered path sum driven by a tower: levels come from the first
    separating projection and the class values are the pulled-back
    moments."""
    return filtered_path_sum(od, p, q, tower_filter(od, tower))


# ---------------------------------------------------------------------------
# Single projections and fiber decomposition
# ---------------------------------------------------------------------------

class FibrationSpec:
    """One projection onto an oriented base graph, with each fiber's vertex
    set and the memoised base step splits of defining_base_term."""

    def __init__(self, base: OrientedGraphData, vertex_map: Mapping[str, str]):
        self.base = base
        self.vertex_map = dict(vertex_map)
        self.fibers: dict[str, set[str]] = {}
        for v, b in self.vertex_map.items():
            if b not in base.graph.moment:
                raise GraphFormatError(f"vertex {v} projects to unknown base vertex {b}")
            self.fibers.setdefault(b, set()).add(v)
        self._steps: dict[tuple[str, str, str], tuple] = {}

    def fiber_over(self, b: str, ids) -> list[str]:
        """The vertices of ids over b, in the order of ids."""
        fiber = self.fibers.get(b, ())
        return [v for v in ids if v in fiber]

    def step_splits(self, ba: str, bb: str, bs: str) -> tuple:
        """The primitive splits of m(bb) - m(ba) and m(bs) - m(ba), m the base moment."""
        key = (ba, bb, bs)
        got = self._steps.get(key)
        if got is None:
            moment = self.base.graph.moment
            den = moment[bs] - moment[ba]
            if den.is_zero():
                raise GraphFormatError(
                    f"base moments of {ba} and {bs} coincide on a horizontal path")
            got = self._steps[key] = ((moment[bb] - moment[ba]).primitive(), den.primitive())
        return got


def skipped_vertices(base_od: OrientedGraphData, base_path: Sequence[str]) -> set[str]:
    """Base vertices strictly below the path's endpoint (in the base phi
    order) that the path does not visit."""
    end = base_path[-1]
    cutoff = base_od.phi[end]
    visited = set(base_path)
    return {r for r in base_od.graph.ids
            if base_od.phi[r] < cutoff and r not in visited}


def is_horizontal(fib: FibrationSpec, path: Sequence[str]) -> bool:
    return all(fib.vertex_map[a] != fib.vertex_map[b]
               for a, b in zip(path, path[1:]))


def horizontal_paths(od: OrientedGraphData, fib: FibrationSpec, p: str,
                     targets: set[str]) -> dict[str, list[tuple[str, ...]]]:
    """All canonical-graph paths from p to each target all of whose steps
    change the base point, keyed by endpoint."""
    vm = fib.vertex_map
    cap = max((od.phi[s] for s in targets), default=od.phi[p])

    def step(path, _):
        v = path[-1]
        if od.phi[v] >= cap:
            return ()
        return [(u, None) for u in od.up[v] if vm[u] != vm[v]]

    out: dict[str, list[tuple[str, ...]]] = {s: [] for s in targets}
    for path, _ in walk_paths(p, None, step):
        if path[-1] in out:
            out[path[-1]].append(path)
    for s in out:
        out[s].sort()
    return out


def defining_base_term(od: OrientedGraphData, fib: FibrationSpec,
                       path: Sequence[str], s: str) -> LinFrac:
    """Base-path contribution in its defining form: the downward product at
    the base image of s, times for each step the ratio of base moment
    differences, times the edge label theta/weight.  Every piece is a
    memoised primitive split (the base's lambda_minus_linfrac,
    FibrationSpec.step_splits, OrientedGraphData.weight_split), so the term
    is one LinFrac, and its scalar one division."""
    if not is_horizontal(fib, path):
        raise NotHorizontal(f"path {tuple(path)} has a vertical step")
    vm = fib.vertex_map
    bs = vm[s]
    lam = fib.base.lambda_minus_linfrac(bs)
    num, den, top, bottom = list(lam.num), [], lam.scalar, 1
    for a, b in zip(path, path[1:]):
        (f, c), (g, d) = fib.step_splits(vm[a], vm[b], bs)
        e, w = od.weight_split(a, b)
        num.append(f)
        den += (g, e)
        top *= c * od.theta(a, b)
        bottom *= d * w
    return LinFrac(fib.base.rank, _div_scalar(top, bottom), num, den)


def explicit_P(od: OrientedGraphData, fib: FibrationSpec,
               path: Sequence[str], s: str) -> LinFrac:
    """Closed form of the base-path contribution on a complete base graph:
    the product over steps of (base magnitude times edge scalar) over the
    magnitude to the base image of s, times the weights from every skipped
    base vertex into that image."""
    if not is_horizontal(fib, path):
        raise NotHorizontal(f"path {tuple(path)} has a vertical step")
    base = fib.base
    ids = base.graph.ids
    for x in ids:
        for y in ids:
            if x != y and not base.graph.has_edge(x, y):
                raise GraphFormatError(
                    "closed form needs a complete base graph")
    bs = fib.vertex_map[s]
    value = LinFrac.one(od.rank)
    base_path = [fib.vertex_map[v] for v in path]
    for (a, b), (ba, bb) in zip(zip(path, path[1:]), zip(base_path, base_path[1:])):
        value = value.mul_scalar(
            Fraction(magnitude(base.graph, ba, bb)) * od.theta(a, b))
        value = value.mul_scalar(1 / Fraction(magnitude(base.graph, ba, bs)))
    for r in sorted(skipped_vertices(base, base_path)):
        value = value.mul_weight(base.graph.edge_weight(r, bs))
    return value


def fiber_decomposition(od: OrientedGraphData, fib: FibrationSpec, p: str, q: str,
                        fiber_table: Mapping[str, Poly]) -> Poly:
    """Assemble alpha_p(q) as the sum over fiber fixed points s of the
    horizontal base-path contributions into s times the fiber restriction
    of s at q.  fiber_table must give the fiber values alpha-hat_s(q) for
    every s in the fiber through q."""
    _require_index_increasing(od)
    bq = fib.vertex_map[q]
    fiber = set(fib.fiber_over(bq, od.graph.ids))
    missing = fiber.difference(fiber_table)
    if missing:
        raise GraphFormatError(f"fiber table lacks values for {sorted(missing)}")
    paths = horizontal_paths(od, fib, p, fiber)
    terms = []
    for s in sorted(fiber):
        mult = fiber_table[s]
        if mult.is_zero():
            continue
        for path in paths[s]:
            terms.append((defining_base_term(od, fib, path, s), mult))
    return linfrac_sum_to_poly(terms, od.rank)
