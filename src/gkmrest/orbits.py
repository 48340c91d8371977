"""Root systems and Weyl groups of the classical families, generic orbit
graphs, and the type-specific restriction formulas.

A generic orbit is the Weyl orbit of a regular point mu in the dual space;
its graph has the orbit points as vertices, reflection pairs as edges, and
carries a natural tower of projections obtained by collapsing the tail of
mu.  Types A and C admit a closed product formula over slot-monotone cover
chains, the filtered path sum of the coordinate classes, whose columns the
column dynamic program computes; types B and D descend to the rank-one base
orbit: the horizontal paths into the fiber through q are enumerated by
fibration.horizontal_paths on the canonical graph, classified by their
projections to the base, and weighed by the restrictions on the fiber,
which a smaller orbit of the same type solves (rank three of type D is
translated to type A through the standard isomorphism of the underlying
groups).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import itemgetter, neg
from typing import Iterable, Sequence

from .canonical import PathFilter, PathTerm, RestrictionTable, filtered_path_column, ordered_filter
from .errors import GraphFormatError, ThetaNotOne
from .exact import LinFrac, Poly, Weight, _div_scalar, linfrac_sum_to_poly, pair
from .fibration import (
    FibrationSpec,
    TowerLevel,
    TowerSpec,
    defining_base_term,
    horizontal_paths,
)
from .gkm import GkmGraph, OrientedGraphData, walk_paths

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
    def of_word(cls, word: tuple) -> "SignedPerm":
        """The element of a tuple already known to be a signed
        permutation, taken as it is."""
        w = object.__new__(cls)
        object.__setattr__(w, "word", word)
        return w

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
        for c, a in zip(v.coords, self.word):
            if c != 0:
                out[abs(a) - 1] = c if a > 0 else -c
        return Weight.of_exact(tuple(out))

    def __mul__(self, other: "SignedPerm") -> "SignedPerm":
        """Composition: (self * other)(x) = self(other(x))."""
        word = []
        for a in other.word:
            b = self.word[abs(a) - 1]
            word.append(b if a > 0 else -b)
        return SignedPerm.of_word(tuple(word))


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
        return SignedPerm.of_word(tuple(word))

    @cached_property
    def reflections(self) -> tuple[SignedPerm, ...]:
        """The reflections across the positive roots, in their order."""
        return tuple(self.reflection_perm(root) for root in self.positive_roots)

    def is_right_ascent(self, u: SignedPerm, i: int) -> bool:
        """Whether l(u s_i) = l(u) + 1, that is, whether u sends the simple
        root alpha_i to a positive root (else l(u s_i) = l(u) - 1)."""
        return not _leads_negative(u.act(self.simple_roots[i]).coords)

    def is_left_descent(self, u: SignedPerm, i: int) -> bool:
        """Whether l(s_i u) = l(u) - 1, that is, whether u^-1 sends the
        simple root alpha_i to a negative root; entry j of u^-1(v) is
        sign(u_j) * v_|u_j|."""
        a = self.simple_roots[i].coords
        return _leads_negative(a[x - 1] if x > 0 else -a[-x - 1] for x in u.word)

    def validate_element(self, w: SignedPerm):
        if w.n != self.ambient:
            raise GraphFormatError(f"element has {w.n} slots, expected {self.ambient}")
        if self.ctype == "A" and w.neg_count():
            raise GraphFormatError("type A elements must be unsigned")
        if self.ctype == "D" and w.neg_count() % 2:
            raise GraphFormatError("type D elements need an even number of signs")


def _leads_negative(coords: Iterable) -> bool:
    """Whether the first nonzero coordinate is negative: for a root, that
    it is a negative root."""
    for c in coords:
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
    return sum(1 for b in rs.positive_roots if _leads_negative(w.act(b).coords))


def lexmin_reduced_word(rs: RootSystem, w: SignedPerm) -> tuple[int, ...]:
    """Lexicographically smallest reduced word, built greedily: the
    smallest left descent s of the remaining element u begins the rest of
    the word, and u becomes s * u, one shorter.  Only the length of w is
    swept over every positive root; each descent is one simple root's
    image."""
    word = []
    u = w
    lu = weyl_length(rs, u)
    while lu:
        for i, s in enumerate(rs.simple_perms):
            if rs.is_left_descent(u, i):
                word.append(i)
                u = s * u
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


def _format_point(coords: tuple) -> str:
    # str of an int or a Fraction is its format_scalar text
    return ",".join(map(str, coords))


def _signed_getter(perm: SignedPerm) -> itemgetter:
    """Entry k of the word of w * perm is entry |perm[k]| of w's word,
    negated when perm[k] < 0: one itemgetter over a tuple followed by its
    negation (see _with_negation) picks those entries.  A reflection is
    its own inverse, so for one the same getter is also its action on
    coordinate tuples.  In one coordinate the getter takes a slice, so
    that it too gives a tuple."""
    n = len(perm.word)
    picks = [abs(a) - 1 + (n if a < 0 else 0) for a in perm.word]
    return itemgetter(*picks) if n > 1 else itemgetter(slice(picks[0], picks[0] + 1))


def _signed_entries(values: tuple):
    """The map a -> sign(a) * values[|a| - 1] on the signed slots a = ±1..±n.
    Mapped over the word of w^-1 it gives the point w(values) (entry j of
    w(x) is sign(a) * x_|a| for the entry a of w^-1 at slot j); mapped over
    the word of u it gives the word of s * u when values is the word of s."""
    n = len(values)
    return {a: values[a - 1] if a > 0 else -values[-a - 1]
            for a in range(-n, n + 1) if a}.__getitem__


def _with_negation(pt: tuple) -> tuple:
    return pt + tuple(map(neg, pt))


def build_orbit_gkm(orbit: Orbit, level: int | None = None) -> GkmGraph:
    """Orbit graph at a tower level (default: the top level): vertices are
    the orbit points, edges join reflection pairs, and each edge carries
    the root that pairs positively with its head.

    The points are read off the group's words: the word of w, read through
    the level point, gives w^-1(mu_j), and in the order of the group's walk
    the first of each point comes in the order of a breadth-first walk over
    the points.  They are taken as integer tuples (the point times the
    common denominator of its coordinates), each kept with its negation, so
    that a reflection acts through one itemgetter."""
    spec = orbit.spec
    rs = spec.rs
    j = level if level is not None else spec.rank
    mu = spec.level_mu(j)
    den = lcm(*(c.denominator for c in mu.coords))
    at = _signed_entries(tuple(int(c * den) for c in mu.coords))
    # the point read through w is that of w^-1, whose vertex id the orbit has
    ids = orbit.level_ids(j)
    points, vid = {}, {}
    for w, inv in orbit._inverse.items():
        pt = tuple(map(at, w))
        if pt not in points:
            points[pt] = _with_negation(pt)
            vid[pt] = ids[inv]
    exact = {pt: pt if den == 1 else
             tuple(c // den if c % den == 0 else Fraction(c, den) for c in pt)
             for pt in points}
    vertices = [(vid[pt], Weight.of_exact(exact[pt])) for pt in sorted(points)]
    # the reflection across a root moves pt by a positive multiple of
    # -<pt, root> times the root, and every positive root's first nonzero
    # coordinate is positive: comparing pt with its image there gives the
    # sign of <pt, root>, and equality means pt is fixed
    reflections = [(next(i for i, c in enumerate(root.coords) if c != 0),
                    root, -root, _signed_getter(perm))
                   for root, perm in zip(rs.positive_roots, rs.reflections)]
    edges = []
    for pt, both in points.items():
        src = vid[pt]
        for lead, root, neg_root, act in reflections:
            img = act(both)
            a, b = pt[lead], img[lead]
            if a != b:
                edges.append((src, vid[img], root if a < b else neg_root))
    return GkmGraph(rs.ambient, vertices, edges)


def orbit_xi(spec: OrbitSpec) -> Weight:
    """Strictly decreasing positive coordinates, with spread large enough
    that phi separates orbit points and pairs nonzero with every root."""
    den = lcm(*(c.denominator for c in spec.mu.coords))
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
        n = rs.ambient
        self.mu = spec.level_mu(spec.rank)
        # breadth first over the simple reflections: an element's depth is
        # the fewest simple reflections it is a product of, its length.
        # The products w * s are taken on the words, and with them the
        # inverse words s * w^-1, whose signed entries relabel through s.
        moves = [(_signed_getter(s), _signed_entries(s.word)) for s in rs.simple_perms]
        identity = tuple(range(1, n + 1))
        length = {identity: 0}
        inverse = {identity: identity}  # word -> the word of its inverse
        frontier = [identity]
        while frontier:
            nxt = []
            for w in frontier:
                lu = length[w] + 1
                both, inv = _with_negation(w), inverse[w]
                for act, relabel in moves:
                    u = act(both)
                    if u not in length:
                        length[u] = lu
                        inverse[u] = tuple(map(relabel, inv))
                        nxt.append(u)
            frontier = nxt
        self.length: dict[tuple, int] = length
        self._inverse: dict[tuple, tuple] = inverse
        # element word -> vertex id, the top level's entry of level_ids
        self.vid_of: dict[tuple, str] = {
            w: _format_point(pt) for w, pt in self._points(self.mu).items()}
        self._level_ids: dict[int, dict[tuple, str]] = {spec.rank: self.vid_of}
        self.word_of_vid: dict[str, tuple] = {vid: w for w, vid in self.vid_of.items()}
        if len(self.word_of_vid) < len(length):
            raise GraphFormatError("orbit point hit twice; mu is not regular")
        self.xi = orbit_xi(spec)
        self._covers: dict[tuple, tuple] = {}
        self._base_od: OrientedGraphData | None = None
        self._base_fib: FibrationSpec | None = None
        # the whole typed columns computed so far (typed_column), by vertex
        self._columns: dict[str, dict[str, Poly]] = {}
        # orbits the typed engine solves on (fibers, the type A image of
        # rank-three type D), one per distinct spec (type, rank, mu)
        self._children: dict[tuple[str, int, tuple], Orbit] = {}
        # per base vertex: the fiber's child orbit, the free coordinates,
        # and the map from fiber vertices to child vertices
        self._fiber_children: dict[str, tuple[Orbit, list[int], dict[str, str]]] = {}
        self._paired_sums: dict[tuple[str, str], dict[str, Poly]] = {}

    @cached_property
    def elements(self) -> list[SignedPerm]:
        """The group elements in breadth-first order (the order of
        length)."""
        return [SignedPerm.of_word(w) for w in self.length]

    @cached_property
    def od(self) -> OrientedGraphData:
        """The oriented top-level graph, built and certified on first use;
        the group-side lookups and the billey engine never need it."""
        od = OrientedGraphData(build_orbit_gkm(self), self.xi)
        self._certify(od)
        return od

    def _points(self, mu: Weight) -> dict[tuple, tuple]:
        """The coordinates of w(mu) for each element w, by its word."""
        at = _signed_entries(mu.coords)
        return {w: tuple(map(at, inv)) for w, inv in self._inverse.items()}

    def level_ids(self, j: int) -> dict[tuple, str]:
        """Element word -> the vertex id of w(mu_j) at tower level j, each
        point formatted once per orbit (vid_of is the top level's)."""
        got = self._level_ids.get(j)
        if got is None:
            points = self._points(self.spec.level_mu(j))
            text = {pt: _format_point(pt) for pt in set(points.values())}
            got = self._level_ids[j] = {w: text[pt] for w, pt in points.items()}
        return got

    def lambda_minus_linfrac(self, w) -> LinFrac:
        """The downward product at w's vertex, read off the group: the
        positive roots beta with <w(mu), beta> > 0.  They are the weights
        of the edges from w(mu) down in phi (build_orbit_gkm, orbit_xi), so
        this equals od.lambda_minus_linfrac at that vertex, and it builds
        no graph."""
        point = Weight.of_exact(tuple(map(_signed_entries(self.mu.coords),
                                          self._inverse[self.element(w).word])))
        f = LinFrac.one(self.rs.ambient)
        for beta in self.rs.positive_roots:
            if pair(beta, point) > 0:
                f = f.mul_weight(beta)
        return f

    def _certify(self, od: OrientedGraphData):
        phis = sorted(od.phi.values())
        for a, b in zip(phis, phis[1:]):
            if a == b:
                raise GraphFormatError("phi is not injective on the orbit; enlarge xi")
        vid0 = self.vid_of[SignedPerm.identity(self.rs.ambient).word]
        if min(od.phi, key=lambda v: od.phi[v]) != vid0:
            raise GraphFormatError("phi does not attain its minimum at mu")

    # -- group-side lookups -------------------------------------------------

    def element(self, w) -> SignedPerm:
        """w itself when a SignedPerm, else the element of the vertex id w."""
        return w if isinstance(w, SignedPerm) else SignedPerm(self.word_of_vid[self.vertex(w)])

    def vertex(self, w) -> str:
        """w itself when a vertex id, else the vertex of the SignedPerm w."""
        vid = self.vid_of.get(w.word) if isinstance(w, SignedPerm) else w
        if vid not in self.word_of_vid:
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
        for beta, reflection in zip(self.rs.positive_roots, self.rs.reflections):
            u = w * reflection
            lu = self.length.get(u.word)
            if lu == lw + 1:
                slot = next(i for i, c in enumerate(beta.coords) if c != 0) + 1
                out.append((u, beta, slot))
        got = tuple(out)
        self._covers[w.word] = got
        return got

    # -- tower and base -----------------------------------------------------

    def tower(self) -> TowerSpec:
        levels = []
        for j in range(1, self.spec.rank + 1):
            ids, points = self.level_ids(j), self._points(self.spec.level_mu(j))
            levels.append(TowerLevel(
                projection={self.vid_of[w]: vid for w, vid in ids.items()},
                moment={self.vid_of[w]: Weight.of_exact(pt) for w, pt in points.items()}))
        return TowerSpec(levels)

    def base_od(self) -> OrientedGraphData:
        if self._base_od is None:
            self._base_od = OrientedGraphData(
                build_orbit_gkm(self, 1), self.xi)
        return self._base_od

    def base_fibration(self) -> FibrationSpec:
        if self._base_fib is None:
            vmap = {self.vid_of[w]: vid for w, vid in self.level_ids(1).items()}
            self._base_fib = FibrationSpec(self.base_od(), vmap)
        return self._base_fib

    # -- child orbits of the typed engine -------------------------------------

    def child(self, ctype: str, rank: int, mu: Weight) -> "Orbit":
        """The orbit of (ctype, rank, mu), built on first request and kept
        on this orbit, so fibers with the same spec share one orbit and its
        typed columns."""
        key = (ctype, rank, mu.coords)
        got = self._children.get(key)
        if got is None:
            got = self._children[key] = Orbit(OrbitSpec(ctype, rank, mu=mu.coords))
        return got

    def fiber_child(self, b: str) -> tuple["Orbit", list[int], dict[str, str]]:
        """The orbit of rank one less (same type) solving the fiber over the
        base vertex b, the free coordinates (all but b's axis), and the map
        from fiber vertices, in sorted order, to child vertices."""
        got = self._fiber_children.get(b)
        if got is not None:
            return got
        fib = self.base_fibration()
        axis, _ = _signed_axis(self.base_od().graph.moment[b])
        free = [i for i in range(self.rs.ambient) if i != axis - 1]
        moment = self.od.graph.moment
        stripped = {v: Weight([moment[v].coords[i] for i in free])
                    for v in sorted(fib.fibers.get(b, ()))}
        # the child base point is the phi-minimal strip; the xi pattern on
        # the free coordinates preserves the ambient order
        child_xi = Weight([self.xi.coords[i] for i in free])
        child_min = min(stripped.values(), key=lambda w: pair(w, child_xi))
        child = self.child(self.spec.ctype, self.spec.rank - 1, child_min)
        vid_map = {v: _format_point(pt.coords) for v, pt in stripped.items()}
        got = self._fiber_children[b] = (child, free, vid_map)
        return got

    # -- typed engine memos ---------------------------------------------------

    def paired_sums(self, p_vid: str, b: str) -> dict[str, Poly]:
        """For each fiber endpoint s over the base vertex b, the sum of
        corrected contributions of the relevant horizontal paths from p;
        kept on this orbit, since it is shared by every target in the
        fiber."""
        key = (p_vid, b)
        got = self._paired_sums.get(key)
        if got is not None:
            return got
        by_s: dict[str, list[LinFrac]] = {}
        for s_vid, _, term in relevant_path_terms(self, p_vid, b):
            by_s.setdefault(s_vid, []).append(term)
        got = {}
        for s_vid, terms in by_s.items():
            val = linfrac_sum_to_poly(terms, self.rs.ambient)
            if not val.is_zero():
                got[s_vid] = val
        self._paired_sums[key] = got
        return got

    @cached_property
    def coordinate_filter(self) -> PathFilter:
        """Types A and C: the filter of the coordinate classes x_k(w) =
        e(w[k]), k = 1..rank.  It gives each cover edge its slot as level,
        so its filtered path sum is the closed formula of formula_AC."""
        m = self.rs.ambient
        classes = [{self.vid_of[w.word]: _unit(w.word[k], m) for w in self.elements}
                   for k in range(self.spec.rank)]
        return ordered_filter(self.od, classes)

    @cached_property
    def a3_vertices(self) -> dict[str, str]:
        """Rank-three type D only: each vertex's vertex in the type A orbit
        of the translated point (see _d3_column_via_a3), in graph order;
        read off the points, without the graph."""
        return {self.vid_of[w]: _format_point(_d3_point_to_a3(Weight.of_exact(pt)).coords)
                for w, pt in sorted(self._points(self.mu).items(), key=itemgetter(1))}


def check_orbit_edges(orbit: Orbit) -> int:
    """Acceptance criterion 4 on a generic orbit: the group's length covers
    are exactly the index-one edges of the oriented graph, and the edge
    scalar of each is one.  Returns the number of edges."""
    od = orbit.od
    covers = [(orbit.vid_of[w.word], orbit.vid_of[u.word])
              for w in orbit.elements for u, _, _ in orbit.covers_up(w)]
    if set(covers) != {(a, b) for a in od.graph.ids for b in od.up[a]}:
        raise GraphFormatError("length covers disagree with index-one edges")
    for a, b in covers:
        if od.theta(a, b) != 1:
            raise ThetaNotOne(f"edge ({a},{b}) has scalar {od.theta(a, b)}")
    return len(covers)


# ---------------------------------------------------------------------------
# Closed formulas for types A and C
# ---------------------------------------------------------------------------

def _unit(entry: int, m: int) -> Weight:
    w = [0] * m
    w[abs(entry) - 1] = 1 if entry > 0 else -1
    return Weight(w)


def _monotone_cover_paths(orbit: Orbit, wp: SignedPerm, wq: SignedPerm):
    """Cover chains wp -> wq with nondecreasing slots, as (elements, slots)
    pairs in depth-first order.  Slots below the current minimum are frozen
    for the rest of the chain, so chains whose prefix already disagrees
    with the target there are pruned."""
    lq = orbit.length[wq.word]

    def step(path, slots):
        w = path[-1]
        if w.word == wq.word or orbit.length[w.word] >= lq:
            return ()
        last = slots[-1] if slots else 0
        return [(u, slots + (slot,)) for u, _, slot in orbit.covers_up(w)
                if slot >= last and w.word[:slot - 1] == wq.word[:slot - 1]]

    return ((path, slots) for path, slots in walk_paths(wp, (), step)
            if path[-1].word == wq.word)


def formula_AC(orbit: Orbit, p, q) -> tuple[Poly, list[PathTerm]]:
    """Closed product formula for types A and C: the sum over slot-monotone
    cover chains of the downward product at q divided by, for each step,
    the difference of the signed coordinates that the step's slot carries
    at the step's start and at q.  The per-entry reference, with a ledger,
    of the typed columns, which take the same sum from typed_column."""
    if orbit.spec.ctype not in ("A", "C"):
        raise GraphFormatError("closed formula applies to types A and C only")
    m = orbit.rs.ambient
    wp, wq = orbit.element(p), orbit.element(q)
    lam_q = orbit.lambda_minus_linfrac(wq)
    ledger: list[PathTerm] = []
    for path, slots in _monotone_cover_paths(orbit, wp, wq):
        value = lam_q
        # a cover at slot i moves the entry there strictly up in the order
        # 1 < .. < n < -n < .. < -1, and later covers have slots >= i: no
        # step starts with q's entry at its slot, so no difference is zero
        for w, slot in zip(path, slots):
            value = value.div_weight(_unit(w.word[slot - 1], m) - _unit(wq.word[slot - 1], m))
        ledger.append(PathTerm(tuple(orbit.vid_of[w.word] for w in path),
                               value, slots))
    total = linfrac_sum_to_poly([t.value for t in ledger], m)
    return total, ledger


# ---------------------------------------------------------------------------
# Classifying base paths (types B and D)
# ---------------------------------------------------------------------------

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


def relevant_path_terms(orbit: Orbit, p_vid: str, b_vid: str
                        ) -> list[tuple[str, PathClassification, LinFrac]]:
    """(endpoint, classification, corrected contribution) for every
    relevant horizontal path from p into the fiber over b."""
    od, fib = orbit.od, orbit.base_fibration()
    out = []
    fiber = fib.fibers.get(b_vid, set())
    for s_vid, paths in sorted(horizontal_paths(od, fib, p_vid, fiber).items()):
        for path in paths:
            cls = classify_base_path(orbit, tuple(fib.vertex_map[v] for v in path))
            if cls.relevant:
                term = defining_base_term(od, fib, path, s_vid)
                out.append((s_vid, cls, paired_term(orbit, cls, term)))
    return out


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
    # 2 sign e_end / (sign e_end + e_(k+1)) = 2 e_end / (e_end + sign
    # e_(k+1)); the end axis is at most k, so both forms are primitive
    axis = [0] * m
    axis[end_axis - 1] = 1
    other = axis.copy()
    other[cls.k] = end_sign
    return LinFrac(m, 2 * base_term.scalar, base_term.num + (tuple(axis),),
                   base_term.den + (tuple(other),))


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
    # the i-th coordinate of the image is sum_k pt_k * _D3_TO_A3[k][i], a
    # sum of +-pt_k / 2
    return Weight.of_exact(tuple(
        _div_scalar(sum(c if img.coords[i] > 0 else -c for c, img in zip(pt.coords, _D3_TO_A3)), 2)
        for i in range(4)))


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


def typed_column(orbit: Orbit, q, sources: Iterable[str] | None = None) -> dict[str, Poly]:
    """Values alpha_p(q) for the sources p (all vertices when None), by
    this orbit's type-specific engine: the closed formula for types A and
    C (by the column dynamic program the ordered and tower tables share),
    rank-three type D through type A, and the fiber recursion for types B
    and D.  A kept column is read.  Otherwise, given sources, rank-three
    type D translates only their entries from type A, and types B (rank
    two and up) and D (rank four and up) compute each by typed_entry
    alone; every other column is computed whole and kept on the orbit."""
    q_vid = orbit.vertex(q)
    got = orbit._columns.get(q_vid)
    if got is None:
        ctype, rank = orbit.spec.ctype, orbit.spec.rank
        if ctype in ("A", "C"):
            got = filtered_path_column(orbit.od, orbit.coordinate_filter, q_vid)
        elif ctype == "D" and rank < 3:
            raise GraphFormatError("type D typed engine needs rank at least 3")
        elif ctype == "D" and rank == 3:
            got = _d3_column_via_a3(orbit, q_vid, sources)
            if sources is not None:
                return got
        elif rank == 1:  # type B, two fixed points
            got = _rank1_b_column(orbit, q_vid)
        elif sources is not None:
            return {p: typed_entry(orbit, p, q_vid) for p in sources}
        else:
            # typed_entry from every source, over one fiber column
            fiber_col = _fiber_column(orbit, q_vid)
            got = {p: typed_entry(orbit, p, q_vid, fiber_col) for p in orbit.word_of_vid}
        orbit._columns[q_vid] = got
    return got if sources is None else {p: got[p] for p in sources}


def typed_restriction(orbit: Orbit, p, q) -> tuple[Poly, list[PathTerm] | None]:
    """alpha_p(q) by the typed engine, with its ledger: the chain walk of
    formula_AC on types A and C, the one entry of typed_column (and no
    ledger) on the other types."""
    if orbit.spec.ctype in ("A", "C"):
        return formula_AC(orbit, p, q)
    p_vid = orbit.vertex(p)
    return typed_column(orbit, q, [p_vid])[p_vid], None


def _rank1_b_column(orbit: Orbit, q_vid: str) -> dict[str, Poly]:
    """Two fixed points: the lower class restricts to one everywhere, the
    upper class to its own weight at the top and zero below."""
    od = orbit.od
    m = orbit.rs.ambient
    lo, hi = sorted(od.graph.ids, key=lambda v: od.phi[v])
    if q_vid == lo:
        return {lo: Poly.const(m, 1), hi: Poly.zero(m)}
    return {lo: Poly.const(m, 1), hi: od.lambda_minus(hi)}


def _fiber_column(orbit: Orbit, q_vid: str,
                  sources: Iterable[str] | None = None) -> dict[str, Poly]:
    """Fiber restrictions alpha-hat_s(q) for the sources s in the fiber
    through q (all of it when None), solved on the child orbit of rank one
    less (same type) in the free coordinates by typed_column, then
    re-embedded into the ambient coordinates."""
    child, free, vid_map = orbit.fiber_child(orbit.base_fibration().vertex_map[q_vid])
    child_col = typed_column(child, vid_map[q_vid],
                             None if sources is None else [vid_map[s] for s in sources])
    if sources is None:
        sources = vid_map
    m = orbit.rs.ambient
    return {s: _embed_poly(child_col[vid_map[s]], free, m) for s in sources}


def _d3_column_via_a3(orbit: Orbit, q_vid: str,
                      sources: Iterable[str] | None = None) -> dict[str, Poly]:
    """Rank-three type D translated through the rank-three type A orbit:
    points map through the coordinate identification, values map back by
    substituting the inverse forms; for the given sources only (all
    vertices when None)."""
    a_orbit = orbit.child("A", 3, _d3_point_to_a3(orbit.mu))
    a_vid = orbit.a3_vertices
    col = typed_column(a_orbit, a_vid[q_vid])
    return {v: col[a_vid[v]].substitute(_A3_TO_D3, 3)
            for v in (a_vid if sources is None else sources)}


def typed_entry(orbit: Orbit, p, q, fiber_col: dict[str, Poly] | None = None) -> Poly:
    """alpha_p(q) by the inductive formula for types B (rank two and up)
    and D (rank four and up), computed alone: pair the incomplete
    horizontal paths from p into the fiber through q, keep the relevant
    ones with their corrected contributions, and weigh the fiber
    restrictions at q by them.  fiber_col, when not given, is built here
    for the fiber endpoints the paired sums name, and for no other."""
    ctype, rank = orbit.spec.ctype, orbit.spec.rank
    if ctype not in ("B", "D") or rank < (2 if ctype == "B" else 4):
        raise GraphFormatError(f"no single-entry typed formula for {ctype}{rank}")
    p_vid, q_vid = orbit.vertex(p), orbit.vertex(q)
    sums = orbit.paired_sums(p_vid, orbit.base_fibration().vertex_map[q_vid])
    if fiber_col is None and sums:
        fiber_col = _fiber_column(orbit, q_vid, sums)
    total = Poly.zero(orbit.rs.ambient)
    for s_vid, qsum in sums.items():
        mult = fiber_col[s_vid]
        if not mult.is_zero():
            total = total + qsum * mult
    return total


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
    report = {"target": s_vid, "pairs": 0, "complete": 0, "failures": []}
    by_phi = sorted(base.graph.ids, key=lambda v: base.phi[v])
    point_vid = {(_signed_axis(base.graph.moment[v])): v for v in by_phi}
    for w in orbit.elements:
        p_vid = orbit.vid_of[w.word]
        bucket = [(tuple(fib.vertex_map[v] for v in lp), lp)
                  for lp in horizontal_paths(orbit.od, fib, p_vid, {s_vid})[s_vid]]
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
            term = defining_base_term(orbit.od, fib, lp, s_vid)
            lhs = linfrac_sum_to_poly(
                [term, defining_base_term(orbit.od, fib, mate[1], s_vid)],
                orbit.rs.ambient)
            rhs = paired_term(orbit, cls, term).to_poly()
            if lhs != rhs:
                report["failures"].append(
                    f"pair sum mismatch for {bp} from {p_vid}")
            report["pairs"] += 1
    return report


def typed_table(orbit: Orbit) -> RestrictionTable:
    """Full restriction table via the orbit's type-specific engine."""
    from .oracle import engine_entries
    return RestrictionTable(orbit.od, engine_entries(orbit, "typed"))
