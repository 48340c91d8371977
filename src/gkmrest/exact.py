"""Exact arithmetic core: rationals, weight covectors, sparse multivariate
polynomials, and fractions whose numerator and denominator are products of
linear forms.

All coefficients are exact rationals: Python ints (arbitrary precision)
and ``Fraction``s, which interoperate transparently.  An integral value is
not always an int.  Scalar division (``_div_scalar``, which every
polynomial and ``LinFrac`` division goes through), ``Poly.substitute`` and
``Poly.with_int_coefficients`` return ints for integral values; ``+``,
``*``, ``scale``, ``mul_weight`` and the one- and two-coordinate paths of
``restrict_zero`` keep whatever their operands give, so half-integers that
combine to an integer leave a ``Fraction(k, 1)``.  Equality, hashing and
``format_scalar`` treat both alike.  The primitive split of a linear form
(``Weight.primitive``) has an int scale exactly when the form is integral,
so integral forms are split, multiplied and divided without a ``Fraction``.

Conventions:
  * a ``Weight`` is a covector in m coordinates x_1..x_m;
  * a ``Poly`` maps exponent tuples (length m) to nonzero coefficients;
  * term order is graded lexicographic with x_1 > x_2 > ... > x_m;
  * linear forms stored inside a ``LinFrac`` are primitive: integer
    coordinates with content 1 and positive first nonzero entry, the
    leftover rational scale being absorbed into the scalar.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import chain
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .errors import GenericityError, NotDivisible


def _as_exact(x) -> int | Fraction:
    """Coerce an int, Fraction, or 'a/b' string to an exact scalar."""
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    if isinstance(x, float):
        raise TypeError("floating point input rejected; use int, Fraction, or 'a/b'")
    if type(x) is str and _is_int_text(x):
        return int(x)
    f = Fraction(x)
    return int(f) if f.denominator == 1 else f


def _is_int_text(x: str) -> bool:
    """ASCII digits with an optional leading minus: text that int() and
    Fraction() both read, to the same value."""
    body = x[1:] if x[:1] == "-" else x
    return body.isascii() and body.isdigit()


def _div_scalar(c, d):
    """Exact scalar division, staying integral when possible."""
    if isinstance(c, int) and isinstance(d, int):
        if c % d == 0:
            return c // d
        return Fraction(c, d)
    v = Fraction(c) / d
    return int(v) if v.denominator == 1 else v


def format_scalar(c) -> str:
    """Serialize a scalar as 'a/b', or 'a' when the denominator is 1."""
    if type(c) is int:
        return str(c)
    f = Fraction(c)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


class Weight:
    """A covector with exact rational coordinates, e.g. an edge weight.

    Immutable and hashable; arithmetic returns new instances.
    """

    __slots__ = ("coords",)

    def __init__(self, coords: Iterable):
        object.__setattr__(self, "coords", tuple(_as_exact(c) for c in coords))

    @classmethod
    def of_exact(cls, coords: tuple) -> "Weight":
        """The weight of a tuple whose entries are already exact scalars
        (ints, and Fractions that are not integral), taken as it is."""
        w = object.__new__(cls)
        object.__setattr__(w, "coords", coords)
        return w

    def __setattr__(self, *a):
        raise AttributeError("Weight is immutable")

    def __len__(self):
        return len(self.coords)

    def __eq__(self, other):
        return isinstance(other, Weight) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(a + b for a, b in zip(self.coords, other.coords, strict=True))

    def __sub__(self, other: "Weight") -> "Weight":
        return Weight(a - b for a, b in zip(self.coords, other.coords, strict=True))

    def __neg__(self) -> "Weight":
        return Weight(-a for a in self.coords)

    def __rmul__(self, c) -> "Weight":
        c = _as_exact(c)
        return Weight(c * a for a in self.coords)

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)

    def primitive(self) -> tuple[tuple[int, ...], int | Fraction]:
        """Split self = scale * prim with prim integral, content 1, and
        positive leading (first nonzero) coordinate.  The scale is an int
        when every coordinate is integral, else a Fraction.  Raises on
        zero."""
        return _primitive(self.coords)

    def __str__(self):
        return format_weight(self.coords)

    def __repr__(self):
        return f"Weight({self})"

    def to_json(self):
        return [format_scalar(c) for c in self.coords]


def _primitive(coords: Sequence) -> tuple[tuple[int, ...], int | Fraction]:
    try:
        g = gcd(*coords)  # integral coordinates: no Fraction is made
        ints, den = coords, 1
    except TypeError:  # a Fraction among them
        den = 1
        for c in coords:
            den = lcm(den, c.denominator)
        ints = [int(c * den) for c in coords]
        g = gcd(*ints)
    if g == 0:
        raise ValueError("zero form has no primitive representative")
    if next(v for v in ints if v != 0) < 0:
        g = -g
    prim = tuple(ints) if g == 1 else tuple(v // g for v in ints)
    return prim, (g if den == 1 else Fraction(g, den))


def pair(w: Weight, xi: Weight):
    """Bilinear pairing sum_i w_i * xi_i.  Lengths must agree."""
    if len(w.coords) != len(xi.coords):
        raise ValueError(f"length mismatch: {len(w)} vs {len(xi)}")
    return sum(map(mul, w.coords, xi.coords))


def rho_project(x: Weight, eta: Weight, xi: Weight) -> Weight:
    """Project x along eta onto the hyperplane pairing to zero with xi:
    x - (<x,xi>/<eta,xi>) * eta."""
    d = pair(eta, xi)
    if d == 0:
        raise GenericityError("projection direction pairs to zero with xi")
    t = Fraction(pair(x, xi), 1) / d
    if t == 0:
        return x
    return x - t * eta


def format_weight(coords: Sequence) -> str:
    """The linear form sum_i c_i * x_i as str(Poly) writes it."""
    return str(Poly.from_weight(Weight.of_exact(tuple(coords))))


# ---------------------------------------------------------------------------
# Sparse multivariate polynomials
# ---------------------------------------------------------------------------

# One tuple per exponent vector read by Poly.from_json or made by a
# quotient of Poly.div_weight, so that a table holds each monomial once.
# Degree D in n variables has C(D+n, n) monomials, 1,820 for a rank-4
# table and 54,264 for rank five of type A; the limit only keeps unrelated
# inputs in one process from growing it without end.
_EXP_POOL: dict[tuple[int, ...], tuple[int, ...]] = {}
_EXP_POOL_LIMIT = 1 << 16


def _grlex_key(exp: tuple[int, ...]):
    return (sum(exp), exp)


class Poly:
    """Sparse polynomial over the rationals in x_1..x_m.

    ``terms`` maps exponent tuples to nonzero coefficients; the zero
    polynomial has an empty dict.  Instances are immutable: no code changes
    ``terms`` after construction, so Poly.zero can share one instance.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict | None = None, _clean: bool = False):
        self.n = n
        if terms is None:
            self.terms = {}
        elif _clean:
            self.terms = terms
        else:
            self.terms = {e: c for e, c in terms.items() if c != 0}

    # -- constructors -----------------------------------------------------

    @classmethod
    @cache
    def zero(cls, n: int) -> "Poly":
        """The zero polynomial in n variables, one shared instance per n."""
        return cls(n, {}, _clean=True)

    @classmethod
    def const(cls, n: int, c) -> "Poly":
        c = _as_exact(c)
        return cls(n, {} if c == 0 else {(0,) * n: c}, _clean=True)

    @classmethod
    def from_weight(cls, w: Weight) -> "Poly":
        n = len(w)
        terms = {}
        for i, c in enumerate(w.coords):
            if c != 0:
                e = [0] * n
                e[i] = 1
                terms[tuple(e)] = c
        return cls(n, terms, _clean=True)

    @classmethod
    def from_weight_product(cls, n: int, weights: Iterable[Weight]) -> "Poly":
        p = cls.const(n, 1)
        for w in weights:
            p = p.mul_weight(w)
        return p

    # -- predicates and views ---------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def leading(self) -> tuple[tuple[int, ...], int | Fraction]:
        """Leading (exponent, coefficient) in graded lex order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=_grlex_key)
        return e, self.terms[e]

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int | Fraction]]:
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)

    def with_int_coefficients(self) -> "Poly":
        """The same polynomial with every integral coefficient an int."""
        return Poly(self.n, {e: c.numerator if type(c) is Fraction and c.denominator == 1
                             else c for e, c in self.terms.items()}, _clean=True)

    def integer_coefficients(self) -> bool:
        return all(Fraction(c).denominator == 1 for c in self.terms.values())

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        out = dict(a)
        for e, c in b.items():
            s = out.get(e, 0) + c
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
        return Poly(self.n, out, _clean=True)

    def __neg__(self) -> "Poly":
        return Poly(self.n, {e: -c for e, c in self.terms.items()}, _clean=True)

    def __sub__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) - c
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
        return Poly(self.n, out, _clean=True)

    def __mul__(self, other: "Poly") -> "Poly":
        if len(self.terms) > len(other.terms):
            self, other = other, self
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s == 0:
                    out.pop(e, None)
                else:
                    out[e] = s
        return Poly(self.n, out, _clean=True)

    def scale(self, c) -> "Poly":
        c = _as_exact(c)
        if c == 0:
            return Poly.zero(self.n)
        if c == 1:
            return self
        return Poly(self.n, {e: c * v for e, v in self.terms.items()}, _clean=True)

    def mul_weight(self, w: Weight) -> "Poly":
        """Multiply by a linear form, term by term."""
        out: dict = {}
        for i, wc in enumerate(w.coords):
            if wc == 0:
                continue
            for e, c in self.terms.items():
                e2 = e[:i] + (e[i] + 1,) + e[i + 1:]
                s = out.get(e2, 0) + wc * c
                if s == 0:
                    out.pop(e2, None)
                else:
                    out[e2] = s
        return Poly(self.n, out, _clean=True)

    # -- exact division ----------------------------------------------------

    def div_exact(self, d: "Poly") -> "Poly":
        """Exact quotient self / d; raises NotDivisible on any remainder."""
        if d.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return Poly.zero(self.n)
        if d.degree() == 1 and len({sum(e) for e in d.terms}) == 1:
            coords = [0] * self.n
            for e, c in d.terms.items():
                coords[e.index(1)] = c
            return self.div_weight(Weight(coords))
        return self._div_general(d)

    def div_weight(self, w: Weight) -> "Poly":
        """Exact division by a linear form: synthetic division in the
        form's leading variable x_piv, the one kernel every division by a
        form goes through (path columns, gz columns, div_exact).

        Writing self = sum_k x_piv^k a_k, the quotient's part q_{k-1} at
        pivot exponent k - 1 is (a_k - rest * q_k) / c0, c0 the pivot
        coefficient and rest the form's other terms; at k = 0 the remainder
        a_0 - rest * q_0 must vanish.  The dividend is bucketed by pivot
        exponent into dicts of its own terms, into which the carries
        -rest * q_k are merged.  Each quotient exponent is the term's
        exponent with its pivot slot lowered, and each carry that exponent
        with one more slot raised, both edited in one list per term.  An
        int coefficient over an int pivot is divided inline; any other
        goes through _div_scalar, so integral coefficients come out as
        ints.  The quotient's exponent tuples come from _EXP_POOL."""
        coords = w.coords
        piv = next((i for i, c in enumerate(coords) if c != 0), None)
        if piv is None:
            raise ZeroDivisionError("division by zero form")
        if not self.terms:
            return self
        c0 = coords[piv]
        rest = [(i, c) for i, c in enumerate(coords) if c != 0 and i != piv]
        levels: dict[int, dict] = {}
        for e, c in self.terms.items():
            level = levels.get(e[piv])
            if level is None:
                levels[e[piv]] = {e: c}
            else:
                level[e] = c
        pool = _EXP_POOL
        if len(pool) >= _EXP_POOL_LIMIT:
            pool.clear()
        keep = pool.setdefault
        int_pivot = type(c0) is int
        unit = int_pivot and c0 == 1
        quot: dict = {}
        for k in range(max(levels), 0, -1):
            num = levels.pop(k, None)
            if not num:
                continue
            below = None  # the level the carries land in, made on demand
            if rest:
                below = levels.get(k - 1)
                if below is None:
                    below = levels[k - 1] = {}
            for e, c in num.items():
                if type(c) is not int or not int_pivot:
                    qc = _div_scalar(c, c0)
                elif unit:
                    qc = c
                elif c % c0:
                    qc = Fraction(c, c0)
                else:
                    qc = c // c0
                edit = list(e)
                edit[piv] = k - 1
                qe = tuple(edit)
                quot[keep(qe, qe)] = qc
                for i, rc in rest:
                    edit[i] += 1
                    ce = tuple(edit)
                    edit[i] -= 1
                    s = below.get(ce, 0) - rc * qc
                    if s:
                        below[ce] = s
                    else:
                        del below[ce]
        if levels.get(0):
            raise NotDivisible(f"not divisible by linear form {format_weight(coords)}")
        return Poly(self.n, quot, _clean=True)

    def _div_general(self, d: "Poly") -> "Poly":
        lead_d, cd = d.leading()
        rem = dict(self.terms)
        quot: dict = {}
        while rem:
            e = max(rem, key=_grlex_key)
            ce = rem[e]
            qe = tuple(a - b for a, b in zip(e, lead_d))
            if any(a < 0 for a in qe):
                raise NotDivisible("leading monomial not divisible")
            qc = _div_scalar(ce, cd)
            quot[qe] = qc
            for e2, c2 in d.terms.items():
                e3 = tuple(a + b for a, b in zip(qe, e2))
                s = rem.get(e3, 0) - qc * c2
                if s == 0:
                    rem.pop(e3, None)
                else:
                    rem[e3] = s
        return Poly(self.n, quot, _clean=True)

    # -- substitution ------------------------------------------------------

    def restrict_zero(self, w: Weight, minus: "Poly | None" = None) -> "Poly":
        """Restrict to the hyperplane w = 0 by eliminating the form's
        leading variable.  The result lives in the same variable set with
        that variable absent.  self is divisible by w iff this is zero.
        With minus, the restriction of self - minus, made without building
        the difference."""
        piv = next((i for i, c in enumerate(w.coords) if c != 0), None)
        if piv is None:
            raise ZeroDivisionError("restriction along zero form")
        c0 = w.coords[piv]
        rest = [(i, c) for i, c in enumerate(w.coords) if c != 0 and i != piv]
        if not rest:
            # substitute x_piv = 0: drop terms touching the pivot
            out = {e: c for e, c in self.terms.items() if e[piv] == 0}
            if minus is not None:
                for e, c in minus.terms.items():
                    if e[piv] == 0:
                        s = out.get(e, 0) - c
                        if s:
                            out[e] = s
                        else:
                            del out[e]
            return Poly(self.n, out, _clean=True)
        if len(rest) == 1:
            # substitute x_piv = r * x_j: a monomial rename with a scale;
            # minus's terms are scaled by the negated powers of r
            j, cj = rest[0]
            r = _div_scalar(-cj, c0)
            parts = [(self.terms, [1])]
            if minus is not None:
                parts.append((minus.terms, [-1]))
            out = {}
            for terms, powers in parts:
                for e, c in terms.items():
                    k = e[piv]
                    if k:
                        while len(powers) <= k:
                            powers.append(powers[-1] * r)
                        e2 = list(e)
                        e2[piv] = 0
                        e2[j] += k
                        e = tuple(e2)
                    s = out.get(e, 0) + c * powers[k]
                    if s == 0:
                        out.pop(e, None)
                    else:
                        out[e] = s
            return Poly(self.n, out, _clean=True)
        # any other form: x_piv -> -(rest)/c0, every other variable fixed
        images = [Weight(int(i == j) for i in range(self.n)) for j in range(self.n)]
        images[piv] = Weight(0 if i == piv else _div_scalar(-c, c0)
                             for i, c in enumerate(w.coords))
        items = self.terms.items()
        if minus is not None:
            items = chain(items, ((e, -c) for e, c in minus.terms.items()))
        return _substituted(items, images, self.n)

    def divisible_by_weight(self, w: Weight) -> bool:
        return self.restrict_zero(w).is_zero()

    def substitute(self, images: Sequence[Weight], n_out: int) -> "Poly":
        """Linear change of variables x_i -> images[i] (a form in n_out
        coordinates), by _substituted."""
        return _substituted(self.terms.items(), images, n_out)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> list[dict]:
        return [{"exp": list(e), "coeff": format_scalar(c)}
                for e, c in self.sorted_terms()]

    @classmethod
    def from_json(cls, n: int, data: list[dict]) -> "Poly":
        """Read a term list.  Equal exponent vectors share one tuple from
        _EXP_POOL, so a table read back holds each monomial once, and every
        zero read back is the shared Poly.zero(n)."""
        terms = {}
        if len(_EXP_POOL) >= _EXP_POOL_LIMIT:
            _EXP_POOL.clear()
        for item in data:
            e = tuple(map(int, item["exp"]))
            if len(e) != n:
                raise ValueError("exponent length mismatch")
            terms[_EXP_POOL.setdefault(e, e)] = _as_exact(item["coeff"])
        out = cls(n, terms)
        return out if out.terms else cls.zero(n)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            mono = "*".join(
                f"x{i + 1}" if k == 1 else f"x{i + 1}^{k}"
                for i, k in enumerate(e) if k
            )
            if not mono:
                body = format_scalar(abs(c) if parts else c)
                if parts:
                    parts.append(("- " if c < 0 else "+ ") + body)
                else:
                    parts.append(body)
                continue
            ac = abs(c)
            coef = "" if ac == 1 else format_scalar(ac) + "*"
            if parts:
                parts.append(("- " if c < 0 else "+ ") + coef + mono)
            else:
                parts.append(("-" if c < 0 else "") + coef + mono)
        return " ".join(parts)

    def __repr__(self):
        return f"Poly({self})"


def _substituted(items: Iterable, images: Sequence[Weight], n_out: int) -> Poly:
    """The sum of the terms (exponent, coefficient) after the linear change
    of variables x_i -> images[i] (a form in n_out coordinates).

    The images are scaled by the common denominator D of their
    coordinates, so the expansion multiplies integral forms; a term of
    degree k picks up D^k, which is divided out at the end.  Integral
    coefficients come out as ints."""
    den = 1
    for w in images:
        for c in w.coords:
            if type(c) is Fraction:
                den = den * c.denominator // gcd(den, c.denominator)
    img = [Poly.from_weight(den * w) if not w.is_zero() else Poly.zero(n_out)
           for w in images]
    cache: dict[tuple[int, int], Poly] = {}

    def power(i, k):
        if k == 0:
            return Poly.const(n_out, 1)
        got = cache.get((i, k))
        if got is None:
            got = power(i, k - 1) * img[i]
            cache[(i, k)] = got
        return got

    out: dict = {}
    for e, c in items:
        t = Poly.const(n_out, c)
        for i, k in enumerate(e):
            if k:
                t = t * power(i, k)
        for e2, c2 in t.terms.items():
            s = out.get(e2, 0) + c2
            if s == 0:
                out.pop(e2, None)
            else:
                out[e2] = s
    return Poly(n_out, {e: _div_scalar(c, den ** sum(e)) for e, c in out.items()},
                _clean=True)


# ---------------------------------------------------------------------------
# Fractions of products of linear forms
# ---------------------------------------------------------------------------

def _cancel(num: tuple, den: tuple) -> tuple[tuple, tuple]:
    """The multiset differences num - den and den - num of two sorted
    tuples, by one merge; they come back sorted."""
    if not num or not den or num[-1] < den[0] or den[-1] < num[0]:
        return num, den
    keep_num, keep_den, i, j = [], [], 0, 0
    while i < len(num) and j < len(den):
        a, b = num[i], den[j]
        if a < b:
            keep_num.append(a)
            i += 1
        elif b < a:
            keep_den.append(b)
            j += 1
        else:
            i, j = i + 1, j + 1
    return tuple(keep_num) + num[i:], tuple(keep_den) + den[j:]


class LinFrac:
    """scalar * (product of primitive linear forms) / (product of primitive
    linear forms).

    Proportional numerator/denominator pairs cancel into the scalar, so a
    form never appears on both sides.  The zero element has scalar 0 and no
    forms.
    """

    __slots__ = ("n", "scalar", "num", "den")

    def __init__(self, n: int, scalar, num: tuple = (), den: tuple = ()):
        scalar = _as_exact(scalar)
        if scalar == 0:
            num, den = (), ()
        else:
            num, den = _cancel(tuple(sorted(num)), tuple(sorted(den)))
        self.n = n
        self.scalar = scalar
        self.num = num
        self.den = den

    @classmethod
    def one(cls, n: int) -> "LinFrac":
        return cls(n, 1)

    @classmethod
    def from_weight(cls, w: Weight) -> "LinFrac":
        prim, scale = w.primitive()
        return cls(len(w), scale, (prim,))

    def __eq__(self, other):
        return (isinstance(other, LinFrac) and self.n == other.n
                and self.scalar == other.scalar and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        return hash((self.n, self.scalar, self.num, self.den))

    def is_zero(self) -> bool:
        return self.scalar == 0

    def __mul__(self, other: "LinFrac") -> "LinFrac":
        if self.scalar == 0 or other.scalar == 0:
            return LinFrac(self.n, 0)
        return LinFrac(self.n, self.scalar * other.scalar,
                       self.num + other.num, self.den + other.den)

    def mul_scalar(self, c) -> "LinFrac":
        c = _as_exact(c)
        return LinFrac(self.n, self.scalar * c, self.num, self.den)

    def mul_weight(self, w: Weight) -> "LinFrac":
        prim, scale = w.primitive()
        return LinFrac(self.n, self.scalar * scale,
                       self.num + (prim,), self.den)

    def div_weight(self, w: Weight) -> "LinFrac":
        prim, scale = w.primitive()
        return LinFrac(self.n, _div_scalar(self.scalar, scale), self.num,
                       self.den + (prim,))

    def to_poly(self) -> Poly:
        if self.den:
            raise NotDivisible("fraction has a nontrivial denominator")
        p = Poly.const(self.n, self.scalar)
        for f in self.num:
            p = p.mul_weight(Weight(f))
        return p

    def __str__(self):
        if self.scalar == 0:
            return "0"
        if not self.num:
            s = format_scalar(self.scalar)
        elif self.scalar == 1:
            s = "*".join(f"({format_weight(f)})" for f in self.num)
        else:
            s = format_scalar(self.scalar) + "*" + "*".join(
                f"({format_weight(f)})" for f in self.num)
        if self.den:
            den = "*".join(f"({format_weight(f)})" for f in self.den)
            s += f" / {den}"
        return s

    def __repr__(self):
        return f"LinFrac({self})"


def frac_sum(terms: Sequence[tuple[Poly, tuple]], n: int) -> tuple[Poly, tuple]:
    """The sum of fractions (num, den), den a sorted tuple of primitive
    forms whose product is the denominator, over their least common
    denominator (maximum multiplicity of each form).  Every form of it that
    divides the summed numerator is divided out; the forms left over come
    back sorted, so an empty tuple means the sum is a polynomial."""
    lcd: Counter = Counter()
    for _, den in terms:
        lcd |= Counter(den)
    total = Poly.zero(n)
    for num, den in terms:
        for form, k in (lcd - Counter(den)).items():
            for _ in range(k):
                num = num.mul_weight(Weight(form))
        total = total + num
    if total.is_zero():
        return total, ()
    left: list[tuple[int, ...]] = []
    for form, k in lcd.items():
        w = Weight(form)
        for i in range(k):
            try:
                total = total.div_weight(w)
            except NotDivisible:
                left += [form] * (k - i)
                break
    return total.with_int_coefficients(), tuple(sorted(left))


def linfrac_sum_to_poly(terms: Iterable, n: int) -> Poly:
    """Sum a collection of LinFrac values (optionally paired with polynomial
    multipliers) into an exact polynomial in n variables, by frac_sum.

    Each element is either a LinFrac or a tuple (LinFrac, Poly).  Raises
    NotDivisible if the sum is not a polynomial.
    """
    fracs = []
    for t in terms:
        f, mult = (t, None) if isinstance(t, LinFrac) else t
        if f.scalar != 0:
            p = Poly.const(n, f.scalar)
            for form in f.num:
                p = p.mul_weight(Weight(form))
            fracs.append((p if mult is None else p * mult, f.den))
    total, left = frac_sum(fracs, n)
    if left:
        # name the form the division first fails at, the first of the lcd
        first = next(form for _, den in fracs for form in den if form in left)
        raise NotDivisible(f"not divisible by linear form {format_weight(first)}")
    return total
