"""Test-side references: helpers the tests check the package against and
that the package itself never calls.  Each one states a definition
directly (a reduced word, the Bruhat order, the lift of a base path, the
text form of a polynomial), independently of the engines."""

from fractions import Fraction
from typing import Sequence

from gkmrest.errors import GraphFormatError, NotHorizontal
from gkmrest.exact import LinFrac, Poly, Weight, _as_exact, pair
from gkmrest.fibration import is_horizontal
from gkmrest.orbits import (
    Orbit, RootSystem, SignedPerm, _format_point, _signed_axis, weyl_length)


def parse_poly(text: str, n: int) -> Poly:
    """Parse the human-readable polynomial format produced by str(Poly).

    Accepts terms like '3*x1^2*x2', 'x3', '-5', '1/2*x1'.
    """
    s = text.replace("-", "+-").replace(" ", "")
    out = Poly.zero(n)
    for chunk in s.split("+"):
        if not chunk:
            continue
        coeff: int | Fraction = 1
        e = [0] * n
        if chunk.startswith("-"):
            coeff = -1
            chunk = chunk[1:]
        for factor in chunk.split("*"):
            if not factor:
                raise ValueError(f"cannot parse term in {text!r}")
            if factor[0] == "x":
                if "^" in factor:
                    var, _, p = factor.partition("^")
                else:
                    var, p = factor, "1"
                i = int(var[1:]) - 1
                if not (0 <= i < n):
                    raise ValueError(f"variable {var} out of range")
                e[i] += int(p)
            else:
                coeff = coeff * _as_exact(factor)
        out = out + Poly(n, {tuple(e): coeff})
    return out


def is_positive(rs: RootSystem, w: Weight) -> bool:
    return w.coords in {root.coords for root in rs.positive_roots}


def is_root(rs: RootSystem, w: Weight) -> bool:
    return is_positive(rs, w) or is_positive(rs, -w)


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


def bruhat_leq(orbit: Orbit, a: SignedPerm, b: SignedPerm) -> bool:
    """Reachability through upward covers: a depth-first search that
    visits each element at most once and stops at the length of b."""
    lb = orbit.length[b.word]
    seen = {a.word}
    stack = [a]
    while stack:
        w = stack.pop()
        if w.word == b.word:
            return True
        if orbit.length[w.word] >= lb:
            continue
        for u, _, _ in orbit.covers_up(w):
            if u.word not in seen:
                seen.add(u.word)
                stack.append(u)
    return False


def lift_path(orbit: Orbit, start, base_path: Sequence[str]) -> tuple[str, ...]:
    """The unique lift of an ascending base path: apply, step by step, the
    reflection across the root joining consecutive base points."""
    base = orbit.base_od()
    v = orbit.od.graph.moment[orbit.vertex(start)]
    out = [orbit.vertex(start)]
    for a, b in zip(base_path, base_path[1:]):
        diff = base.graph.moment[b] - base.graph.moment[a]
        prim, _ = diff.primitive()
        root = Weight(prim)
        if not is_root(orbit.rs, root):
            root = 2 * root
            if not is_root(orbit.rs, root):
                raise GraphFormatError(f"base step ({a},{b}) is not a reflection step")
        rr = Fraction(2) * pair(v, root) / pair(root, root)
        v = v - rr * root
        out.append(_format_point(v.coords))
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
        if not is_root(orbit.rs, root):
            root = 2 * root
        w = orbit.rs.reflection_perm(root) * w
    pt = w.act(orbit.od.graph.moment[orbit.vertex(start)])
    return _format_point(pt.coords)


def defining_base_term(od, fib, path: Sequence[str], s: str) -> LinFrac:
    """The base-path contribution built one step at a time: the downward
    product at the base image of s, then per step one mul_weight by the
    base moment difference and two div_weights, by the difference to the
    image of s and by the edge weight; the thetas are multiplied in at the
    end."""
    if not is_horizontal(fib, path):
        raise NotHorizontal(f"path {tuple(path)} has a vertical step")
    base = fib.base
    bs = fib.vertex_map[s]
    value = base.lambda_minus_linfrac(bs)
    ms = base.graph.moment[bs]
    theta = 1
    for a, b in zip(path, path[1:]):
        ba, bb = fib.vertex_map[a], fib.vertex_map[b]
        den = ms - base.graph.moment[ba]
        if den.is_zero():
            raise GraphFormatError(
                f"base moments of {ba} and {bs} coincide on a horizontal path")
        value = value.mul_weight(base.graph.moment[bb] - base.graph.moment[ba]).div_weight(
            den).div_weight(od.graph.edge_weight(a, b))
        theta *= od.theta(a, b)
    return value.mul_scalar(theta)


def paired_term(orbit: Orbit, cls, base_term: LinFrac) -> LinFrac:
    """The paired contribution with its factor applied as two weights: the
    base term itself for complete paths, else times 2 sign e_end over
    sign e_end + e_(k+1), where e_end is the signed axis of the base path's
    endpoint and k the classification's index."""
    if cls.complete:
        return base_term
    if not cls.relevant:
        raise GraphFormatError("paired contribution of a non-relevant path")
    m = orbit.rs.ambient
    end_axis, end_sign = _signed_axis(orbit.base_od().graph.moment[cls.base_path[-1]])
    axis_w = [0] * m
    axis_w[end_axis - 1] = 2 * end_sign
    other = [0] * m
    other[end_axis - 1] = end_sign
    other[cls.k] = 1
    return base_term.mul_weight(Weight(axis_w)).div_weight(Weight(other))


def filtered_path_count(od, filt, q: str) -> dict[str, int]:
    """Per vertex p, the number of canonical paths p -> q whose edge levels
    are nondecreasing under the filter's h-function (one, the empty path,
    for p = q).  A backward pass over (vertex, level) in integers:
    count[v][l] is the number of such paths v -> q with every level at
    least l, summed over the level j >= l of their first edge.  It keeps a
    count per level, so it assumes nothing of where the paths start."""
    top = max(filt.h_edge.values(), default=0)
    count = {q: [1] * (top + 2)}
    for v in reversed(od.order):
        if v == q:
            continue
        row = [0] * (top + 2)
        for u in od.up[v]:
            if u in count:
                j = filt.h_edge[(v, u)]
                row[j] += count[u][j]
        for level in range(top, -1, -1):
            row[level] += row[level + 1]
        count[v] = row
    return {p: count[p][0] if p in count else 0 for p in od.graph.ids}
