"""Root systems and Weyl groups of the classical families, generic orbit
graphs, and the type-specific restriction formulas.

A generic orbit is the Weyl orbit of a regular point mu in the dual space;
its graph has the orbit points as vertices, reflection pairs as edges, and
carries a natural tower of projections obtained by collapsing the tail of
mu.  Types A and C admit closed product formulas over level-monotone cover
chains; types B and D are handled by descending to the rank-one base orbit
and solving a smaller orbit of the same type on each fiber (rank three of
type D is translated to type A through the standard isomorphism of the
underlying groups).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from .canonical import PathTerm
from .errors import GraphFormatError, ThetaNotOne
from .exact import LinFrac, Poly, Weight, format_scalar, linfrac_sum_to_poly, pair
from .fibration import FibrationSpec, TowerLevel, TowerSpec
from .gkm import CanonicalGraph, GkmGraph, OrientedGraphData

CARTAN_TYPES = ("A", "B", "C", "D")


class SignedPerm:
    """Signed permutation in one-line notation.

    Entry i (0-based) is the signed image of slot i+1: the linear action
    sends x_{i+1} to sign(entry) * x_{|entry|}.  Type A elements have all
    entries positive.
    """

    __slots__ = ("word",)

    def __init__(self, word: Iterable[int]):
        word = tuple(int(a) for a in word)
        n = len(word)
        if sorted(abs(a) for a in word) != list(range(1, n + 1)):
            raise GraphFormatError(f"not a signed permutation: {word}")
        object.__setattr__(self, "word", word)

    def __setattr__(self, *a):
        raise AttributeError("SignedPerm is immutable")

    @property
    def n(self) -> int:
        return len(self.word)

    @classmethod
    def identity(cls, n: int) -> "SignedPerm":
        return cls(range(1, n + 1))

    @classmethod
    def from_string(cls, text: str) -> "SignedPerm":
        try:
            return cls(int(part) for part in text.split(","))
        except ValueError as exc:
            raise GraphFormatError(f"cannot parse one-line notation {text!r}") from exc

    def __str__(self):
        return ",".join(str(a) for a in self.word)

    def __repr__(self):
        return f"SignedPerm({self})"

    def __eq__(self, other):
        return isinstance(other, SignedPerm) and self.word == other.word

    def __hash__(self):
        return hash(self.word)

    def neg_count(self) -> int:
        return sum(1 for a in self.word if a < 0)

    def act(self, v: Weight) -> Weight:
        """Push a covector through the action x_i -> sign * x_|entry|."""
        out = [0] * len(self.word)
        for i, a in enumerate(self.word):
            c = v.coords[i]
            if c != 0:
                out[abs(a) - 1] = c if a > 0 else -c
        return Weight(out)

    def __mul__(self, other: "SignedPerm") -> "SignedPerm":
        """Composition: (self * other)(x) = self(other(x))."""
        word = []
        for a in other.word:
            b = self.word[abs(a) - 1]
            word.append(b if a > 0 else -b)
        return SignedPerm(word)

    def inverse(self) -> "SignedPerm":
        out = [0] * len(self.word)
        for i, a in enumerate(self.word):
            out[abs(a) - 1] = (i + 1) if a > 0 else -(i + 1)
        return SignedPerm(out)


class RootSystem:
    """Positive and simple roots of one classical family in standard
    coordinates (type A sits inside the sum-zero hyperplane of rank+1
    coordinates; the others use rank coordinates)."""

    def __init__(self, ctype: str, rank: int):
        if ctype not in CARTAN_TYPES:
            raise GraphFormatError(f"unknown type {ctype!r}")
        if rank < 1 or (ctype == "D" and rank < 2):
            raise GraphFormatError(f"invalid rank {rank} for type {ctype}")
        self.ctype = ctype
        self.rank = rank
        self.ambient = rank + 1 if ctype == "A" else rank
        m = self.ambient
        pos: list[Weight] = []

        def e(i, j=None, cj=1):
            w = [0] * m
            w[i] = 1
            if j is not None:
                w[j] = cj
            return Weight(w)

        for i in range(m):
            for j in range(i + 1, m):
                pos.append(e(i, j, -1))
        if ctype in ("B", "C", "D"):
            for i in range(m):
                for j in range(i + 1, m):
                    pos.append(e(i, j, +1))
        if ctype == "B":
            for i in range(m):
                pos.append(e(i))
        if ctype == "C":
            for i in range(m):
                pos.append(2 * e(i))
        self.positive_roots: tuple[Weight, ...] = tuple(pos)
        simples = [e(i, i + 1, -1) for i in range(m - 1)]
        if ctype == "B":
            simples.append(e(m - 1))
        elif ctype == "C":
            simples.append(2 * e(m - 1))
        elif ctype == "D":
            simples.append(e(m - 2, m - 1, +1))
        self.simple_roots: tuple[Weight, ...] = tuple(simples)
        self.simple_perms: tuple[SignedPerm, ...] = tuple(
            self.reflection_perm(a) for a in self.simple_roots)
        self._pos_set = {w.coords for w in pos}
        self._prim_to_root: dict[tuple, tuple[Weight, Fraction]] = {}
        for root in pos:
            prim, scale = root.primitive()
            self._prim_to_root[prim] = (root, Fraction(scale))

    def reflection_perm(self, root: Weight) -> SignedPerm:
        """The reflection across a root as a signed permutation."""
        nz = [(i, c) for i, c in enumerate(root.coords) if c != 0]
        n = self.ambient
        word = list(range(1, n + 1))
        if len(nz) == 1:
            i = nz[0][0]
            word[i] = -(i + 1)
        elif len(nz) == 2:
            (i, ci), (j, cj) = nz
            if (ci > 0) == (cj > 0):
                word[i], word[j] = -(j + 1), -(i + 1)
            else:
                word[i], word[j] = j + 1, i + 1
        else:
            raise GraphFormatError(f"{root} is not a root of type {self.ctype}")
        return SignedPerm(word)

    def is_positive(self, w: Weight) -> bool:
        return w.coords in self._pos_set

    def is_root(self, w: Weight) -> bool:
        return w.coords in self._pos_set or (-w).coords in self._pos_set

    def validate_element(self, w: SignedPerm):
        if w.n != self.ambient:
            raise GraphFormatError(f"element has {w.n} slots, expected {self.ambient}")
        if self.ctype == "A" and w.neg_count():
            raise GraphFormatError("type A elements must be unsigned")
        if self.ctype == "D" and w.neg_count() % 2:
            raise GraphFormatError("type D elements need an even number of signs")


def _is_negative_form(w: Weight) -> bool:
    for c in w.coords:
        if c != 0:
            return c < 0
    return False


def factor_distinct_positive_roots(rs: RootSystem, value: LinFrac) -> Fraction:
    """Write a denominator-free value as a constant times a product of
    distinct positive roots and return the constant.

    Raises NotScalarRatio when the value has a denominator, a factor not
    proportional to a positive root, or a repeated root."""
    from .errors import NotScalarRatio
    if value.den:
        raise NotScalarRatio("value is not a polynomial")
    const = Fraction(value.scalar)
    seen: set[tuple] = set()
    for prim in value.num:
        hit = rs._prim_to_root.get(prim)
        if hit is None:
            raise NotScalarRatio(
                f"factor {Weight(prim)} is not proportional to a positive root")
        root, content = hit
        if root.coords in seen:
            raise NotScalarRatio(f"repeated root factor {root}")
        seen.add(root.coords)
        const /= content
    return const


def weyl_length(rs: RootSystem, w: SignedPerm) -> int:
    """Number of positive roots sent to negative roots."""
    rs.validate_element(w)
    return sum(1 for b in rs.positive_roots if _is_negative_form(w.act(b)))


def reduced_words(rs: RootSystem, w: SignedPerm) -> list[tuple[int, ...]]:
    """All reduced words for w, as tuples of 0-based simple indices, in
    lexicographic order.  Exponential in the length; intended for small
    rank."""
    rs.validate_element(w)
    memo: dict[tuple[int, ...], list[tuple[int, ...]]] = {}

    def go(u: SignedPerm, lu: int) -> list[tuple[int, ...]]:
        if lu == 0:
            return [()]
        got = memo.get(u.word)
        if got is not None:
            return got
        words = []
        for i, s in enumerate(rs.simple_perms):
            v = u * s
            if weyl_length(rs, v) == lu - 1:
                words.extend(word + (i,) for word in go(v, lu - 1))
        words.sort()
        memo[u.word] = words
        return words

    return go(w, weyl_length(rs, w))


def lexmin_reduced_word(rs: RootSystem, w: SignedPerm) -> tuple[int, ...]:
    """Lexicographically smallest reduced word, built greedily."""
    word = []
    u = w
    lu = weyl_length(rs, u)
    while lu:
        # choose the smallest simple index that can END a reduced word of u,
        # scanning from the left of the remaining product
        for i, s in enumerate(rs.simple_perms):
            v = s * u
            if weyl_length(rs, v) == lu - 1:
                word.append(i)
                u = v
                lu -= 1
                break
        else:
            raise GraphFormatError("no descent found; corrupt element")
    return tuple(word)


def inversion_prefix_roots(rs: RootSystem, word: Sequence[int]) -> list[Weight]:
    """Roots s_{i_1}..s_{i_{k-1}}(alpha_{i_k}) for k along a reduced word;
    for a reduced word these are exactly the positive roots the inverse
    sends negative, each once."""
    out = []
    prefix = SignedPerm.identity(rs.ambient)
    for i in word:
        out.append(prefix.act(rs.simple_roots[i]))
        prefix = prefix * rs.simple_perms[i]
    return out


# ---------------------------------------------------------------------------
# Orbit specifications
# ---------------------------------------------------------------------------

class OrbitSpec:
    """A classical type, a rank, and the regular point generating the top
    orbit; lower tower levels collapse the tail of the point."""

    def __init__(self, ctype: str, rank: int, mu: Sequence | None = None):
        self.rs = RootSystem(ctype, rank)
        self.ctype = ctype
        self.rank = rank
        if mu is None:
            mu = self._default_mu()
            self._default = True
        else:
            try:
                mu = Weight(mu)
            except (ValueError, ZeroDivisionError) as exc:
                raise GraphFormatError(f"mu is not a list of rationals: {exc}") from exc
            self._default = False
        if len(mu) != self.rs.ambient:
            raise GraphFormatError(f"mu must have {self.rs.ambient} coordinates")
        for a, b in zip(mu.coords, mu.coords[1:]):
            if not a < b:
                raise GraphFormatError("mu must be strictly increasing")
        for root in self.rs.positive_roots:
            if pair(mu, root) >= 0:
                raise GraphFormatError(
                    "mu must pair strictly negatively with every positive root")
        self.mu = mu

    def _default_mu(self) -> Weight:
        n, m = self.rank, self.rs.ambient
        if self.ctype == "A":
            head = [i - n - 1 for i in range(1, n + 1)]
            tail = Fraction(-sum(head), m - n)
            return Weight(head + [tail] * (m - n))
        return Weight([i - n - 1 for i in range(1, n + 1)])

    def level_mu(self, j: int) -> Weight:
        """The level-j point.  Defaults follow the normalized pattern with
        entries i-j-1 and last head entry -1; a custom point is truncated,
        collapsing the tail to its average for type A and to zero
        otherwise."""
        if not 1 <= j <= self.rank:
            raise GraphFormatError(f"level {j} out of range")
        m = self.rs.ambient
        if self._default:
            head = [i - j - 1 for i in range(1, j + 1)]
        else:
            head = list(self.mu.coords[:j])
        if self.ctype == "A":
            if self._default:
                tail = Fraction(-sum(head), m - j)
            else:
                tail = Fraction(sum(self.mu.coords[j:]), m - j)
            return Weight(head + [tail] * (m - j))
        return Weight(head + [0] * (m - j))

    def __repr__(self):
        return f"OrbitSpec({self.ctype}{self.rank}, mu={self.mu})"


def _vertex_id(point: Weight) -> str:
    return ",".join(format_scalar(c) for c in point.coords)


def build_orbit_gkm(spec: OrbitSpec, level: int | None = None) -> GkmGraph:
    """Orbit graph at a tower level (default: the top level): vertices are
    the orbit points, edges join reflection pairs, and each edge carries
    the root that pairs positively with its head."""
    rs = spec.rs
    mu = spec.level_mu(level if level is not None else spec.rank)
    points: dict[tuple, Weight] = {}
    frontier = [mu]
    points[mu.coords] = mu
    while frontier:
        nxt = []
        for pt in frontier:
            for s in rs.simple_perms:
                img = s.act(pt)
                if img.coords not in points:
                    points[img.coords] = img
                    nxt.append(img)
        frontier = nxt
    vertices = [( _vertex_id(pt), pt) for pt in sorted(points.values(), key=lambda w: w.coords)]
    edges = []
    for pt in points.values():
        src = _vertex_id(pt)
        for root in rs.positive_roots:
            c = pair(pt, root)
            rr = Fraction(2) * c / pair(root, root)
            img = pt - rr * root
            if img == pt:
                continue
            eta = root if pair(img, root) > 0 else -root
            edges.append((src, _vertex_id(img), eta))
    return GkmGraph(rs.ambient, vertices, edges)


def orbit_xi(spec: OrbitSpec) -> Weight:
    """Strictly decreasing positive coordinates, with spread large enough
    that phi separates orbit points and pairs nonzero with every root."""
    den = 1
    for c in spec.mu.coords:
        f = Fraction(c)
        den = den * f.denominator // gcd(den, f.denominator)
    scale = max(1, max(abs(int(Fraction(c) * den)) for c in spec.mu.coords))
    base = 2 * scale + 2
    m = spec.rs.ambient
    return Weight([base ** (m - i) for i in range(m)])


class Orbit:
    """A built orbit: group elements with lengths and covers, the oriented
    top-level graph, and lookups between elements and vertices."""

    def __init__(self, spec: OrbitSpec):
        self.spec = spec
        self.rs = spec.rs
        rs = self.rs
        self.elements: list[SignedPerm] = []
        seen = {SignedPerm.identity(rs.ambient).word}
        frontier = [SignedPerm.identity(rs.ambient)]
        self.elements.append(frontier[0])
        while frontier:
            nxt = []
            for w in frontier:
                for s in rs.simple_perms:
                    u = w * s
                    if u.word not in seen:
                        seen.add(u.word)
                        nxt.append(u)
                        self.elements.append(u)
            frontier = nxt
        self.length: dict[tuple, int] = {
            w.word: weyl_length(rs, w) for w in self.elements
        }
        self.mu = spec.level_mu(spec.rank)
        self.point_of: dict[tuple, Weight] = {
            w.word: w.act(self.mu) for w in self.elements
        }
        self.vid_of: dict[tuple, str] = {
            word: _vertex_id(pt) for word, pt in self.point_of.items()
        }
        self.word_of_vid: dict[str, tuple] = {}
        for word, vid in self.vid_of.items():
            if vid in self.word_of_vid:
                raise GraphFormatError("orbit point hit twice; mu is not regular")
            self.word_of_vid[vid] = word
        self.xi = orbit_xi(spec)
        graph = build_orbit_gkm(spec)
        self.od = OrientedGraphData(graph, self.xi)
        self._certify()
        self._covers: dict[tuple, tuple] = {}
        self._base_od: OrientedGraphData | None = None
        self._base_fib: FibrationSpec | None = None
        self._typed_columns: dict[str, dict[str, Poly]] = {}
        self._fiber_cache: dict = {}
        self._paired_cache: dict[tuple[str, str], dict[str, Poly]] = {}
        self._bucket_cache: dict[tuple[str, str], dict] = {}

    def _certify(self):
        od = self.od
        phis = sorted(od.phi.values())
        for a, b in zip(phis, phis[1:]):
            if a == b:
                raise GraphFormatError("phi is not injective on the orbit; enlarge xi")
        vid0 = self.vid_of[SignedPerm.identity(self.rs.ambient).word]
        if min(od.phi, key=lambda v: od.phi[v]) != vid0:
            raise GraphFormatError("phi does not attain its minimum at mu")

    # -- group-side lookups -------------------------------------------------

    def element(self, w) -> SignedPerm:
        if isinstance(w, SignedPerm):
            return w
        if isinstance(w, str) and w in self.word_of_vid:
            return SignedPerm(self.word_of_vid[w])
        if isinstance(w, str):
            return SignedPerm.from_string(w)
        return SignedPerm(w)

    def vertex(self, w) -> str:
        if isinstance(w, str) and w in self.word_of_vid:
            return w
        vid = self.vid_of.get(self.element(w).word)
        if vid is None:
            raise GraphFormatError(f"{w!r} is not an element of this group")
        return vid

    def covers_up(self, w: SignedPerm) -> tuple:
        """Cover edges upward: (w * s_beta, beta, slot) with the length
        rising by one; slot is the 1-based first coordinate of beta."""
        got = self._covers.get(w.word)
        if got is not None:
            return got
        lw = self.length[w.word]
        out = []
        for beta in self.rs.positive_roots:
            u = w * self.rs.reflection_perm(beta)
            lu = self.length.get(u.word)
            if lu == lw + 1:
                slot = next(i for i, c in enumerate(beta.coords) if c != 0) + 1
                out.append((u, beta, slot))
        got = tuple(out)
        self._covers[w.word] = got
        return got

    def bruhat_leq(self, a: SignedPerm, b: SignedPerm) -> bool:
        """Reachability through upward covers."""
        la, lb = self.length[a.word], self.length[b.word]
        if la > lb:
            return False
        if a.word == b.word:
            return True
        return any(self.bruhat_leq(u, b) for u, _, _ in self.covers_up(a))

    def lambda_minus_linfrac(self, w: SignedPerm) -> LinFrac:
        """Product of the positive roots the inverse sends negative."""
        inv = w.inverse()
        out = LinFrac.one(self.rs.ambient)
        for b in self.rs.positive_roots:
            if _is_negative_form(inv.act(b)):
                out = out.mul_weight(b)
        return out

    # -- tower and base -----------------------------------------------------

    def tower(self) -> TowerSpec:
        levels = []
        for j in range(1, self.spec.rank + 1):
            muj = self.spec.level_mu(j)
            proj: dict[str, str] = {}
            mom: dict[str, Weight] = {}
            for w in self.elements:
                v = self.vid_of[w.word]
                img = w.act(muj)
                proj[v] = _vertex_id(img)
                mom[v] = img
            levels.append(TowerLevel(projection=proj, moment=mom))
        return TowerSpec(levels)

    def base_od(self) -> OrientedGraphData:
        if self._base_od is None:
            self._base_od = OrientedGraphData(
                build_orbit_gkm(self.spec, 1), self.xi)
        return self._base_od

    def base_fibration(self) -> FibrationSpec:
        if self._base_fib is None:
            vmap = {self.vid_of[w.word]: _vertex_id(w.act(self.spec.level_mu(1)))
                    for w in self.elements}
            self._base_fib = FibrationSpec(self.base_od(), vmap)
        return self._base_fib


def canonical_graph_orbit(orbit: Orbit, verify_theta: bool = True) -> CanonicalGraph:
    """Canonical graph of a generic orbit, built from length covers with
    edge labels 1/(w(beta)); optionally verify that every edge scalar of
    the oriented graph equals one."""
    od = orbit.od
    labels: dict[tuple[str, str], LinFrac] = {}
    up: dict[str, tuple[str, ...]] = {}
    for w in orbit.elements:
        src = orbit.vid_of[w.word]
        outs = []
        for u, beta, _ in orbit.covers_up(w):
            dst = orbit.vid_of[u.word]
            eta = w.act(beta)
            labels[(src, dst)] = LinFrac.one(orbit.rs.ambient).div_weight(eta)
            outs.append(dst)
        up[src] = tuple(sorted(outs))
    cg = CanonicalGraph(rank=orbit.rs.ambient, ids=od.graph.ids,
                        lam=dict(od.lam), phi=dict(od.phi),
                        labels=labels, up=up)
    if set(labels) != {(a, b) for a in od.graph.ids for b in od.up[a]}:
        raise GraphFormatError("length covers disagree with index-one edges")
    if verify_theta:
        for (a, b) in labels:
            if od.theta(a, b) != 1:
                raise ThetaNotOne(f"edge ({a},{b}) has scalar {od.theta(a, b)}")
    return cg


# ---------------------------------------------------------------------------
# Closed formulas for types A and C
# ---------------------------------------------------------------------------

def _unit(entry: int, m: int) -> Weight:
    w = [0] * m
    w[abs(entry) - 1] = 1 if entry > 0 else -1
    return Weight(w)


def _monotone_cover_paths(orbit: Orbit, wp: SignedPerm, wq: SignedPerm):
    """DFS over cover chains wp -> wq with nondecreasing slots, yielding
    (elements, slots) pairs.  Slots below the current minimum are frozen
    for the rest of the chain, so chains whose prefix already disagrees
    with the target there are pruned."""
    lq = orbit.length[wq.word]
    stack = [((wp,), ())]
    while stack:
        path, slots = stack.pop()
        w = path[-1]
        lw = orbit.length[w.word]
        if w.word == wq.word:
            yield path, slots
            continue
        if lw >= lq:
            continue
        last = slots[-1] if slots else 0
        for u, _, slot in orbit.covers_up(w):
            if slot < last:
                continue
            if w.word[:slot - 1] != wq.word[:slot - 1]:
                continue
            stack.append((path + (u,), slots + (slot,)))


def formula_AC(orbit: Orbit, p, q) -> tuple[Poly, list[PathTerm]]:
    """Closed product formula for types A and C: the sum over slot-monotone
    cover chains of the downward product at q divided by, for each step,
    the difference of the signed coordinates that the step's slot carries
    at the step's start and at q."""
    if orbit.spec.ctype not in ("A", "C"):
        raise GraphFormatError("closed formula applies to types A and C only")
    m = orbit.rs.ambient
    wp, wq = orbit.element(p), orbit.element(q)
    lam_q = orbit.lambda_minus_linfrac(wq)
    ledger: list[PathTerm] = []
    for path, slots in _monotone_cover_paths(orbit, wp, wq):
        value = lam_q
        dead = False
        for w, slot in zip(path, slots):
            den = _unit(w.word[slot - 1], m) - _unit(wq.word[slot - 1], m)
            if den.is_zero():
                dead = True
                break
            value = value.div_weight(den)
        if dead:
            continue
        ledger.append(PathTerm(tuple(orbit.vid_of[w.word] for w in path),
                               value, slots))
    total = linfrac_sum_to_poly([t.value for t in ledger], m)
    return total, ledger


def formula_An(orbit: Orbit, p, q) -> tuple[Poly, list[PathTerm]]:
    if orbit.spec.ctype != "A":
        raise GraphFormatError("type A formula on a non-A orbit")
    return formula_AC(orbit, p, q)


def formula_Cn(orbit: Orbit, p, q) -> tuple[Poly, list[PathTerm]]:
    if orbit.spec.ctype != "C":
        raise GraphFormatError("type C formula on a non-C orbit")
    return formula_AC(orbit, p, q)


# ---------------------------------------------------------------------------
# Lifting base paths and classifying them (types B and D)
# ---------------------------------------------------------------------------

def lift_path(orbit: Orbit, start, base_path: Sequence[str]) -> tuple[str, ...]:
    """The unique lift of an ascending base path: apply, step by step, the
    reflection across the root joining consecutive base points."""
    base = orbit.base_od()
    v = orbit.od.graph.moment[orbit.vertex(start)]
    out = [orbit.vertex(start)]
    for a, b in zip(base_path, base_path[1:]):
        diff = base.graph.moment[b] - base.graph.moment[a]
        prim, scale = diff.primitive()
        root = Weight(prim)
        if not orbit.rs.is_root(root):
            root = 2 * root
            if not orbit.rs.is_root(root):
                raise GraphFormatError(f"base step ({a},{b}) is not a reflection step")
        rr = Fraction(2) * pair(v, root) / pair(root, root)
        v = v - rr * root
        out.append(_vertex_id(v))
    if out[-1] not in orbit.word_of_vid:
        raise GraphFormatError("lift left the orbit; corrupt base path")
    return tuple(out)


def reflection_word_endpoint(orbit: Orbit, start, base_path: Sequence[str]) -> str:
    """Endpoint computed by composing the step reflections into one group
    element first (latest step outermost), then acting on the start."""
    base = orbit.base_od()
    w = SignedPerm.identity(orbit.rs.ambient)
    for a, b in zip(base_path, base_path[1:]):
        diff = base.graph.moment[b] - base.graph.moment[a]
        prim, _ = diff.primitive()
        root = Weight(prim)
        if not orbit.rs.is_root(root):
            root = 2 * root
        w = orbit.rs.reflection_perm(root) * w
    pt = w.act(orbit.od.graph.moment[orbit.vertex(start)])
    return _vertex_id(pt)


@dataclass
class PathClassification:
    """Horizontal-path bookkeeping for the rank-one descent of types B/D."""

    base_path: tuple[str, ...]
    complete: bool
    k: int | None
    relevant: bool


def _signed_axis(point: Weight) -> tuple[int, int]:
    """(axis, sign) of a base orbit point, which lies on a coordinate axis."""
    for i, c in enumerate(point.coords):
        if c != 0:
            return i + 1, (1 if c > 0 else -1)
    raise GraphFormatError("base point at the origin")


def classify_base_path(orbit: Orbit, base_path: Sequence[str]) -> PathClassification:
    """Complete/incomplete and relevant flags of a projected path.

    Incomplete means the path visits both points on the endpoint's axis
    and, in type B, never hops between opposite points of one axis; it is
    relevant when complete or when the positive point of the first axis
    above the last doubly-visited axis is on the path."""
    base = orbit.base_od()
    pts = [base.graph.moment[v] for v in base_path]
    axes = [_signed_axis(pt) for pt in pts]
    visited = set(axes)
    end_axis, end_sign = axes[-1]
    both = {ax for ax, _ in visited
            if (ax, 1) in visited and (ax, -1) in visited}
    incomplete = (end_axis in both)
    if orbit.spec.ctype == "B" and incomplete:
        for (a1, s1), (a2, s2) in zip(axes, axes[1:]):
            if a1 == a2 and s1 != s2:
                incomplete = False
                break
    if not incomplete:
        return PathClassification(tuple(base_path), True, None, True)
    k = max(both)
    relevant = (k + 1, 1) in visited
    return PathClassification(tuple(base_path), False, k, relevant)


def classify_paths_B(orbit: Orbit, base_paths: Iterable[Sequence[str]]
                     ) -> list[PathClassification]:
    if orbit.spec.ctype != "B":
        raise GraphFormatError("type B classification on a non-B orbit")
    return [classify_base_path(orbit, bp) for bp in base_paths]


def classify_paths_D(orbit: Orbit, base_paths: Iterable[Sequence[str]]
                     ) -> list[PathClassification]:
    if orbit.spec.ctype != "D":
        raise GraphFormatError("type D classification on a non-D orbit")
    return [classify_base_path(orbit, bp) for bp in base_paths]


def _horizontal_bucket(orbit: Orbit, p_vid: str, b_vid: str
                       ) -> dict[str, list[tuple[tuple[str, ...], tuple[str, ...]]]]:
    """Horizontal canonical paths from p into the fiber over the base
    vertex b, found by lifting every ascending base path and keeping the
    lifts whose index rises by exactly one at each step.  Keyed by
    endpoint; values are (base_path, lifted_path) pairs.  Cached."""
    got = orbit._bucket_cache.get((p_vid, b_vid))
    if got is not None:
        return got
    from .gkm import enumerate_paths
    base = orbit.base_od()
    fib = orbit.base_fibration()
    start_b = fib.vertex_map[p_vid]
    out: dict[str, list] = {}
    for base_path in enumerate_paths(base, start_b, b_vid, ascending_only=True):
        lifted = lift_path(orbit, p_vid, base_path)
        ok = all(orbit.od.lam[b] == orbit.od.lam[a] + 1
                 for a, b in zip(lifted, lifted[1:]))
        if not ok:
            continue
        out.setdefault(lifted[-1], []).append((tuple(base_path), lifted))
    orbit._bucket_cache[(p_vid, b_vid)] = out
    return out


def relevant_path_terms(orbit: Orbit, p_vid: str, b_vid: str
                        ) -> list[tuple[str, PathClassification, LinFrac]]:
    """(endpoint, classification, corrected contribution) for every
    relevant horizontal path from p into the fiber over b."""
    out = []
    for s_vid, pairs in sorted(_horizontal_bucket(orbit, p_vid, b_vid).items()):
        for base_path, lifted in pairs:
            cls = classify_base_path(orbit, base_path)
            if not cls.relevant:
                continue
            term = paired_term(orbit, cls,
                               _base_term(orbit, base_path, lifted, s_vid))
            out.append((s_vid, cls, term))
    return out


def _base_term(orbit: Orbit, base_path: Sequence[str], lifted: Sequence[str],
               s_vid: str) -> LinFrac:
    """Defining form of the base contribution of one horizontal path."""
    base = orbit.base_od()
    fib = orbit.base_fibration()
    bs = fib.vertex_map[s_vid]
    value = LinFrac.one(orbit.rs.ambient)
    for w in base.neg[bs]:
        value = value.mul_weight(w)
    ms = base.graph.moment[bs]
    for (a, b), (ba, bb) in zip(zip(lifted, lifted[1:]),
                                zip(base_path, base_path[1:])):
        num = base.graph.moment[bb] - base.graph.moment[ba]
        den = ms - base.graph.moment[ba]
        eta = orbit.od.graph.edge_weight(a, b)
        value = value.mul_weight(num).div_weight(den).div_weight(eta)
    return value


def paired_term(orbit: Orbit, cls: PathClassification, base_term: LinFrac) -> LinFrac:
    """The paired contribution: the base term itself for complete paths;
    for incomplete relevant paths, corrected by twice the endpoint axis
    over the sum of the endpoint axis and the first axis above k."""
    if cls.complete:
        return base_term
    if not cls.relevant:
        raise GraphFormatError("paired contribution of a non-relevant path")
    m = orbit.rs.ambient
    base = orbit.base_od()
    end_axis, end_sign = _signed_axis(base.graph.moment[cls.base_path[-1]])
    axis_w = [0] * m
    axis_w[end_axis - 1] = 2 * end_sign
    other = [0] * m
    other[end_axis - 1] = end_sign
    other[cls.k] = 1
    return base_term.mul_weight(Weight(axis_w)).div_weight(Weight(other))


# ---------------------------------------------------------------------------
# Rank descent for types B and D
# ---------------------------------------------------------------------------

# images of the three rank-D coordinates inside the sum-zero rank-3 type-A
# coordinate space, and the inverse images used to translate values back
_D3_TO_A3 = [
    Weight((Fraction(1, 2), Fraction(1, 2), Fraction(-1, 2), Fraction(-1, 2))),
    Weight((Fraction(1, 2), Fraction(-1, 2), Fraction(1, 2), Fraction(-1, 2))),
    Weight((Fraction(1, 2), Fraction(-1, 2), Fraction(-1, 2), Fraction(1, 2))),
]
_A3_TO_D3 = [
    Weight((Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))),
    Weight((Fraction(1, 2), Fraction(-1, 2), Fraction(-1, 2))),
    Weight((Fraction(-1, 2), Fraction(1, 2), Fraction(-1, 2))),
    Weight((Fraction(-1, 2), Fraction(-1, 2), Fraction(1, 2))),
]


def _d3_point_to_a3(pt: Weight) -> Weight:
    out = Weight((0, 0, 0, 0))
    for c, img in zip(pt.coords, _D3_TO_A3):
        out = out + c * img
    return out


def _embed_poly(poly: Poly, free: Sequence[int], m: int) -> Poly:
    """Reindex a polynomial in len(free) variables into m variables, the
    k-th variable becoming variable free[k] (0-based)."""
    terms = {}
    for e, c in poly.terms.items():
        e2 = [0] * m
        for k, deg in enumerate(e):
            e2[free[k]] = deg
        terms[tuple(e2)] = c
    return Poly(m, terms, _clean=True)


def typed_column(orbit: Orbit, q) -> dict[str, Poly]:
    """Values alpha_._(q) for all sources, computed by this orbit's
    type-specific engine."""
    q_vid = orbit.vertex(q)
    got = orbit._typed_columns.get(q_vid)
    if got is not None:
        return got
    ctype = orbit.spec.ctype
    if ctype in ("A", "C"):
        col = {orbit.vid_of[w.word]: formula_AC(orbit, w, q_vid)[0]
               for w in orbit.elements}
    elif ctype == "D" and orbit.spec.rank == 3:
        col = _d3_column_via_a3(orbit, q_vid)
    elif ctype == "D" and orbit.spec.rank < 3:
        raise GraphFormatError("type D typed engine needs rank at least 3")
    else:
        col = _bd_column(orbit, q_vid)
    orbit._typed_columns[q_vid] = col
    return col


def typed_restriction(orbit: Orbit, p, q) -> Poly:
    """alpha_p(q) by the engine matching the orbit's type."""
    return typed_column(orbit, q)[orbit.vertex(p)]


def formula_Bn(orbit: Orbit, p, q) -> Poly:
    if orbit.spec.ctype != "B":
        raise GraphFormatError("type B formula on a non-B orbit")
    return typed_restriction(orbit, p, q)


def formula_Dn(orbit: Orbit, p, q) -> Poly:
    if orbit.spec.ctype != "D":
        raise GraphFormatError("type D formula on a non-D orbit")
    if orbit.spec.rank < 3:
        raise GraphFormatError("type D needs rank at least 3")
    return typed_restriction(orbit, p, q)


def _rank1_b_column(orbit: Orbit, q_vid: str) -> dict[str, Poly]:
    """Two fixed points: the lower class restricts to one everywhere, the
    upper class to its own weight at the top and zero below."""
    od = orbit.od
    m = orbit.rs.ambient
    lo, hi = sorted(od.graph.ids, key=lambda v: od.phi[v])
    if q_vid == lo:
        return {lo: Poly.const(m, 1), hi: Poly.zero(m)}
    return {lo: Poly.const(m, 1), hi: od.lambda_minus(hi)}


def _fiber_column(orbit: Orbit, q_vid: str) -> dict[str, Poly]:
    """Fiber restrictions alpha-hat_s(q) for all s in the fiber through q,
    solved on a fresh orbit of rank one less (same type) in the free
    coordinates, then re-embedded into the ambient coordinates."""
    fib = orbit.base_fibration()
    b = fib.vertex_map[q_vid]
    axis, sign = _signed_axis(orbit.base_od().graph.moment[b])
    pinned = axis - 1
    m = orbit.rs.ambient
    free = [i for i in range(m) if i != pinned]
    fiber = sorted(fib.fiber_over(b, orbit.od.graph.ids))

    def strip(vid: str) -> Weight:
        pt = orbit.od.graph.moment[vid]
        return Weight([pt.coords[i] for i in free])

    key = (b,)
    cached = orbit._fiber_cache.get(key)
    if cached is None:
        stripped = {v: strip(v) for v in fiber}
        # the child base point is the phi-minimal strip; the xi pattern on
        # the free coordinates preserves the ambient order
        child_xi = Weight([orbit.xi.coords[i] for i in free])
        child_min = min(stripped.values(), key=lambda w: pair(w, child_xi))
        child_spec = OrbitSpec(orbit.spec.ctype, orbit.spec.rank - 1,
                               mu=child_min.coords)
        child = Orbit(child_spec)
        vid_map = {v: _vertex_id(stripped[v]) for v in fiber}
        cached = (child, vid_map)
        orbit._fiber_cache[key] = cached
    child, vid_map = cached
    child_col = typed_column(child, vid_map[q_vid])
    return {v: _embed_poly(child_col[vid_map[v]], free, m) for v in fiber}


def _d3_column_via_a3(orbit: Orbit, q_vid: str) -> dict[str, Poly]:
    """Rank-three type D translated through the rank-three type A orbit:
    points map through the coordinate identification, values map back by
    substituting the inverse forms."""
    m = orbit.rs.ambient  # = 3
    a_points = {v: _d3_point_to_a3(orbit.od.graph.moment[v])
                for v in orbit.od.graph.ids}
    mu_a = _d3_point_to_a3(orbit.mu)
    a_spec = OrbitSpec("A", 3, mu=mu_a.coords)
    a_orbit = orbit._fiber_cache.get(("a3", mu_a.coords))
    if a_orbit is None:
        a_orbit = Orbit(a_spec)
        orbit._fiber_cache[("a3", mu_a.coords)] = a_orbit

    def a_perm(v: str) -> SignedPerm:
        target = a_points[v].coords
        word = [0] * 4
        for slot, c in enumerate(mu_a.coords):
            word[slot] = target.index(c) + 1
        return SignedPerm(word)

    wq = a_perm(q_vid)
    out = {}
    for v in orbit.od.graph.ids:
        val, _ = formula_AC(a_orbit, a_perm(v), wq)
        out[v] = val.substitute(_A3_TO_D3, m)
    return out


def _paired_sums(orbit: Orbit, p_vid: str, b: str) -> dict[str, Poly]:
    """For each fiber endpoint s over b, the sum of corrected contributions
    of the relevant horizontal paths from p; cached, since it is shared by
    every target in the fiber."""
    key = (p_vid, b)
    got = orbit._paired_cache.get(key)
    if got is not None:
        return got
    m = orbit.rs.ambient
    by_s: dict[str, list[LinFrac]] = {}
    for s_vid, _, term in relevant_path_terms(orbit, p_vid, b):
        by_s.setdefault(s_vid, []).append(term)
    out: dict[str, Poly] = {}
    for s_vid, terms in by_s.items():
        val = linfrac_sum_to_poly(terms, m)
        if not val.is_zero():
            out[s_vid] = val
    orbit._paired_cache[key] = out
    return out


def _bd_column(orbit: Orbit, q_vid: str) -> dict[str, Poly]:
    """Inductive formula for types B and D: pair the incomplete horizontal
    paths into the fiber through q, keep the relevant ones with their
    corrected contributions, and weigh fiber restrictions by them."""
    if orbit.spec.ctype == "B" and orbit.spec.rank == 1:
        return _rank1_b_column(orbit, q_vid)
    fib = orbit.base_fibration()
    b = fib.vertex_map[q_vid]
    fiber_col = _fiber_column(orbit, q_vid)
    m = orbit.rs.ambient
    out: dict[str, Poly] = {}
    for w in orbit.elements:
        p_vid = orbit.vid_of[w.word]
        total = Poly.zero(m)
        for s_vid, qsum in _paired_sums(orbit, p_vid, b).items():
            mult = fiber_col[s_vid]
            if not mult.is_zero():
                total = total + qsum * mult
        out[p_vid] = total
    return out


def pairing_check(orbit: Orbit, s) -> dict:
    """For a fiber target s of a type B or D orbit, verify that the
    incomplete horizontal paths into s pair off by swapping the sign of
    the axis above k, with exactly one relevant member per pair, and that
    the two defining contributions add up to the corrected one."""
    if orbit.spec.ctype not in ("B", "D"):
        raise GraphFormatError("pairing applies to types B and D")
    s_vid = orbit.vertex(s)
    fib = orbit.base_fibration()
    base = orbit.base_od()
    bs = fib.vertex_map[s_vid]
    report = {"target": s_vid, "pairs": 0, "complete": 0, "failures": []}
    by_phi = sorted(base.graph.ids, key=lambda v: base.phi[v])
    point_vid = {(_signed_axis(base.graph.moment[v])): v for v in by_phi}
    for w in orbit.elements:
        p_vid = orbit.vid_of[w.word]
        bucket = _horizontal_bucket(orbit, p_vid, bs).get(s_vid, [])
        by_set = {frozenset(bp): (bp, lp) for bp, lp in bucket}
        if len(by_set) != len(bucket):
            report["failures"].append(f"duplicate projected vertex set from {p_vid}")
            continue
        for bp, lp in bucket:
            cls = classify_base_path(orbit, bp)
            if cls.complete:
                report["complete"] += 1
                continue
            if not cls.relevant:
                continue
            axis = cls.k + 1
            mate_set = set(bp)
            plus = point_vid[(axis, 1)]
            minus = point_vid[(axis, -1)]
            if plus not in mate_set:
                report["failures"].append(
                    f"relevant path from {p_vid} misses the positive axis point")
                continue
            mate_vertices = (mate_set - {plus}) | {minus}
            mate_path = tuple(sorted(mate_vertices, key=lambda v: base.phi[v]))
            mate = by_set.get(frozenset(mate_path))
            if mate is None:
                report["failures"].append(
                    f"no mate for relevant path {bp} from {p_vid}")
                continue
            mate_cls = classify_base_path(orbit, mate[0])
            if mate_cls.relevant:
                report["failures"].append(
                    f"mate of {bp} from {p_vid} is also relevant")
                continue
            lhs = linfrac_sum_to_poly(
                [_base_term(orbit, bp, lp, s_vid),
                 _base_term(orbit, mate[0], mate[1], s_vid)], orbit.rs.ambient)
            rhs = paired_term(orbit, cls,
                              _base_term(orbit, bp, lp, s_vid)).to_poly()
            if lhs != rhs:
                report["failures"].append(
                    f"pair sum mismatch for {bp} from {p_vid}")
            report["pairs"] += 1
    return report


def typed_table(orbit: Orbit):
    """Full restriction table via the orbit's type-specific engine."""
    from .canonical import RestrictionTable
    entries = {}
    for q in orbit.od.graph.ids:
        col = typed_column(orbit, q)
        for p_vid, val in col.items():
            entries[(p_vid, q)] = val
    return RestrictionTable(orbit.od, entries)
