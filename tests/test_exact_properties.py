"""Property tests of the exact core against sympy.

Every engine rests on gkmrest.exact, so engine agreement cannot catch a
fault there.  These tests check each operation on random polynomials (up to
four variables and degree four, with integer, negative and half-integer
coefficients; a dividend of a division by a form also reaches degree eight
in the form's pivot variable) and random linear forms (one, two, or three
or more nonzero coordinates) against sympy's own arithmetic.  The two
shortcuts of the brute solver are checked against the operations they
replace: the restriction of f - g taken without building it, and a
division by a product of forms taken one form at a time.  Divisions and
restrictions read each form's plan from a shared table; they are checked
with the table empty and filled, and with equal forms typed differently."""

from fractions import Fraction
from math import gcd

import pytest

pytest.importorskip("hypothesis")
sp = pytest.importorskip("sympy")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from gkmrest import exact  # noqa: E402
from gkmrest.errors import NotDivisible  # noqa: E402
from gkmrest.exact import (  # noqa: E402
    LinFrac,
    Poly,
    Weight,
    _as_exact,
    _primitive,
    frac_sum,
    linfrac_sum_to_poly,
)

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=40)
XS = sp.symbols("x1:5")

coefficients = st.one_of(
    st.integers(-6, 6),
    st.integers(-9, 9).map(lambda k: _as_exact(Fraction(k, 2))),
)
nonzero = coefficients.filter(lambda c: c != 0)


@st.composite
def monomials(draw, n):
    """An exponent vector of total degree at most four.  The degree bound
    is sampled rather than drawn as an integer, which hypothesis would pull
    towards zero and so towards constants."""
    left, e = draw(st.sampled_from((2, 3, 4, 1, 0))), []
    for _ in range(n):
        e.append(draw(st.integers(0, left)))
        left -= e[-1]
    return tuple(e)


def polys(n, max_terms=5):
    """A polynomial with one to max_terms drawn terms."""
    return st.dictionaries(monomials(n), coefficients, min_size=1,
                           max_size=max_terms).map(lambda t: Poly(n, t))


@st.composite
def forms(draw, n, support=None):
    """A nonzero form in n coordinates; support is its number of nonzero
    coordinates, drawn from 1, 2 and 3..n when not given."""
    if support is None:
        support = draw(st.integers(1, n))
    where = draw(st.permutations(range(n)))[:support]
    coords = [0] * n
    for i in where:
        coords[i] = draw(nonzero)
    return Weight(coords)


def rat(c):
    return sp.Rational(Fraction(c).numerator, Fraction(c).denominator)


def sym(p: Poly):
    return sp.Add(*(rat(c) * sp.Mul(*(x ** k for x, k in zip(XS, e)))
                    for e, c in p.terms.items()))


def sym_form(w: Weight):
    return sp.Add(*(rat(c) * x for c, x in zip(w.coords, XS)))


def sym_terms(expr, n: int) -> dict:
    """The term dict of a sympy polynomial in x1..xn, to compare with
    Poly.terms without going through Poly.__eq__."""
    terms = sp.Poly(sp.expand(expr), *XS[:n]).terms()
    return {e: Fraction(int(c.p), int(c.q)) for e, c in terms if c != 0}


def divides(d, expr, n: int) -> bool:
    """d divides expr in Q[x]: one polynomial is a Groebner basis of the
    ideal it spans, so the division remainder is zero exactly then."""
    return sp.div(sp.expand(expr), d, *XS[:n])[1] == 0


@st.composite
def poly_and_form(draw, support):
    """A polynomial and a form with 1, 2, or (support 3) three or more
    nonzero coordinates."""
    n = draw(st.integers(support, 4))
    if support == 3:
        support = draw(st.integers(3, n))
    return n, draw(polys(n)), draw(forms(n, support))


SUPPORTS = [1, 2, 3]


@SETTINGS
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(polys(n), polys(n), forms(n), coefficients)))
def test_ring_operations(args):
    a, b, w, c = args
    n = a.n
    assert (a + b).terms == sym_terms(sym(a) + sym(b), n)
    assert (a - b).terms == sym_terms(sym(a) - sym(b), n)
    assert (a * b).terms == sym_terms(sym(a) * sym(b), n)
    assert a.scale(c).terms == sym_terms(sym(a) * rat(c), n)
    assert a.mul_weight(w).terms == sym_terms(sym(a) * sym_form(w), n)
    assert (a == b) == (a.n == b.n and not sym_terms(sym(a) - sym(b), n))


@st.composite
def deep_polys(draw, n, piv):
    """A polynomial with one to twelve terms whose exponents in x_piv
    reach up to eight, so that a division by a form with pivot piv
    carries across several pivot levels."""
    def monomial(k):
        e = [draw(st.integers(0, 2)) for _ in range(n)]
        e[piv] = k
        return tuple(e)
    levels = draw(st.lists(st.sampled_from((8, 5, 3, 6, 1, 0, 7, 2, 4)), min_size=1, max_size=12))
    return Poly(n, {monomial(k): draw(nonzero) for k in levels})


def integral_coefficients_are_ints(q: Poly) -> bool:
    return not any(type(c) is Fraction and c.denominator == 1 for c in q.terms.values())


def check_div_weight(n, p, w):
    exact = p.mul_weight(w).div_weight(w)
    assert exact.terms == p.terms
    assert integral_coefficients_are_ints(exact)
    try:
        q = p.div_weight(w)
    except NotDivisible:
        assert not divides(sym_form(w), sym(p), n)
    else:
        assert q.mul_weight(w).terms == p.terms
        assert divides(sym_form(w), sym(p), n)
        assert integral_coefficients_are_ints(q)


@pytest.mark.parametrize("support", SUPPORTS)
@SETTINGS
@given(data=st.data())
def test_div_weight(support, data):
    """Each example divides a polynomial of total degree at most four and
    one of pivot degree up to eight by the same form."""
    n, p, w = data.draw(poly_and_form(support))
    check_div_weight(n, p, w)
    piv = next(i for i, c in enumerate(w.coords) if c != 0)
    check_div_weight(n, data.draw(deep_polys(n, piv)), w)


@SETTINGS
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(polys(n, 3), forms(n), forms(n))))
def test_div_exact_by_two_forms(args):
    p, u, v = args
    n = p.n
    d = Poly.from_weight(u).mul_weight(v)
    assert p.mul_weight(u).mul_weight(v).div_exact(d).terms == p.terms
    try:
        q = p.div_exact(d)
    except NotDivisible:
        assert not divides(sym(d), sym(p), n)
    else:
        assert (q * d).terms == p.terms


@pytest.mark.parametrize("support", SUPPORTS)
@SETTINGS
@given(data=st.data())
def test_restrict_zero(support, data):
    n, p, w = data.draw(poly_and_form(support))
    if data.draw(st.integers(0, 3)) == 0:
        p = Poly.const(n, data.draw(coefficients))  # zero or a constant
    piv = next(i for i, c in enumerate(w.coords) if c)
    form = sym_form(w)
    x = XS[piv]
    image = sp.expand(x - form / form.coeff(x))
    got = p.restrict_zero(w)
    assert got.terms == sym_terms(sym(p).subs(x, image), n)
    assert all(e[piv] == 0 for e in got.terms)
    assert p.divisible_by_weight(w) == divides(form, sym(p), n)


@pytest.mark.parametrize("support", SUPPORTS)
@SETTINGS
@given(data=st.data())
def test_restrict_zero_minus(support, data):
    """The restriction of f - g, made without building f - g.  g is drawn
    apart from f, equal to it, or f plus a few terms, so that the two
    cancel in part or in whole."""
    n, f, w = data.draw(poly_and_form(support))
    extra = data.draw(polys(n, 3))
    g = data.draw(st.sampled_from((extra, f, f + extra, Poly.zero(n))))
    got = f.restrict_zero(w, minus=g)
    assert got.terms == (f - g).restrict_zero(w).terms
    assert f.restrict_zero(w, minus=Poly.zero(n)).terms == f.restrict_zero(w).terms


@SETTINGS
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    polys(n, 3), st.lists(forms(n), min_size=1, max_size=3), st.booleans())))
def test_division_form_by_form(args):
    """Dividing by up to three forms one at a time through div_weight
    equals div_exact by their product, or both raise NotDivisible; half of
    the dividends are multiples of the product."""
    p, ws, multiple = args
    n = p.n
    d = Poly.from_weight_product(n, ws)
    if multiple:
        p = p * d
    try:
        want = p.div_exact(d)
    except NotDivisible:
        want = None
    try:
        got = p
        for w in ws:
            got = got.div_weight(w)
    except NotDivisible:
        got = None
    assert (got is None) == (want is None)
    if got is not None:
        assert got.terms == want.terms
        assert integral_coefficients_are_ints(got)
    assert (want is not None) == divides(sym(d), sym(p), n)


@SETTINGS
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    polys(n), st.integers(1, 4).flatmap(lambda m: st.lists(
        st.lists(st.integers(-5, 5).map(lambda k: Fraction(k, 2)), min_size=m, max_size=m),
        min_size=n, max_size=n)))))
def test_substitute_half_integer_images(args):
    p, rows = args
    n, m = p.n, len(rows[0])
    images = [Weight(r) for r in rows]
    want = sym(p).subs({XS[i]: sym_form(w) for i, w in enumerate(images)},
                       simultaneous=True)
    got = p.substitute(images, m)
    assert got.terms == sym_terms(want, m)
    assert all(type(c) is int for c in got.terms.values() if Fraction(c).denominator == 1)


@SETTINGS
@given(st.integers(1, 4).flatmap(polys))
def test_json_roundtrip(p):
    back = Poly.from_json(p.n, p.to_json())
    assert back.n == p.n and back.terms == p.terms


@st.composite
def linfrac_terms(draw):
    """(LinFrac, Poly multiplier, sympy value of the LinFrac) triples, the
    value built from the drawn scalar and forms.  With repair, each fraction
    g/D with multiplier m is followed by -g/D with multiplier m + D*r, so
    the sum is a polynomial."""
    n = draw(st.integers(1, 4))
    repair = draw(st.booleans())
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        c = draw(nonzero)
        f, value = LinFrac.one(n).mul_scalar(c), rat(c)
        for _ in range(draw(st.integers(0, 1))):
            w = draw(forms(n))
            f, value = f.mul_weight(w), value * sym_form(w)
        den = [draw(forms(n)) for _ in range(draw(st.integers(0, 2)))]
        for w in den:
            f, value = f.div_weight(w), value / sym_form(w)
        mult = draw(polys(n, 2))
        terms.append((f, mult, value))
        if repair:
            d = Poly.from_weight_product(n, den)
            terms.append((f.mul_scalar(-1), mult + d * draw(polys(n, 2)), -value))
    return n, terms


def sym_linfrac(f: LinFrac):
    num = sp.Mul(*(sym_form(Weight(w)) for w in f.num))
    den = sp.Mul(*(sym_form(Weight(w)) for w in f.den))
    return rat(f.scalar) * num / den


@SETTINGS
@given(linfrac_terms())
def test_linfrac_sum_to_poly(args):
    n, terms = args
    total = sp.cancel(sp.together(sp.Add(*(value * sym(m) for _, m, value in terms))))
    num, den = sp.fraction(total)
    pairs = [(f, m) for f, m, _ in terms]
    if den.free_symbols:
        with pytest.raises(NotDivisible):
            linfrac_sum_to_poly(pairs, n)
    else:
        assert linfrac_sum_to_poly(pairs, n).terms == sym_terms(num / den, n)


def sym_over(num: Poly, den: tuple):
    return sym(num) / sp.Mul(*(sym_form(Weight(w)) for w in den))


@settings(SETTINGS, max_examples=20)
@given(linfrac_terms())
def test_linfrac_product_and_frac_sum(args):
    """LinFrac products cancel (no form on both sides) and keep their value;
    frac_sum keeps the value of the fractions linfrac_sum_to_poly hands it,
    and leaves over only forms that do not divide its numerator."""
    n, terms = args
    prod = LinFrac.one(n)
    for f, _, value in terms:
        assert sp.cancel(sym_linfrac(f) - value) == 0
        prod = prod * f
    assert not set(prod.num) & set(prod.den)
    assert sp.cancel(sym_linfrac(prod) - sp.Mul(*(value for _, _, value in terms))) == 0
    fracs = [(Poly.from_weight_product(n, map(Weight, f.num)).scale(f.scalar) * m, f.den)
             for f, m, _ in terms]
    for (_, m, value), s in zip(terms, fracs):
        assert sp.cancel(sym_over(*s) - value * sym(m)) == 0
    total, left = frac_sum(fracs, n)
    assert list(left) == sorted(left)
    assert sp.cancel(sym_over(total, left) - sp.Add(*(sym_over(*s) for s in fracs))) == 0
    for w in set(left):
        assert not divides(sym_form(Weight(w)), sym(total), n)


# coordinates of a form as a caller may hold them: ints, proper Fractions,
# and Fractions with denominator one
raw_coordinates = st.one_of(
    st.integers(-12, 12),
    st.builds(Fraction, st.integers(-12, 12), st.sampled_from((1, 2, 3, 4, 6))),
)


@SETTINGS
@given(st.lists(raw_coordinates, min_size=1, max_size=5).filter(any))
def test_primitive_split(coords):
    """scale * prim is the form; prim has content one and a positive lead;
    the scale is an int exactly when every coordinate is integral, whether
    the coordinates are read raw or through Weight."""
    integral = all(Fraction(c).denominator == 1 for c in coords)
    for prim, scale in (_primitive(tuple(coords)), Weight(coords).primitive()):
        assert tuple(scale * a for a in prim) == tuple(coords)
        assert all(type(a) is int for a in prim)
        assert gcd(*prim) == 1
        assert next(a for a in prim if a) > 0
        assert (type(scale) is int) == integral
        assert type(scale) in (int, Fraction)


@SETTINGS
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    nonzero, st.lists(forms(n), min_size=1, max_size=3))))
def test_linfrac_scalars_stay_exact(args):
    """Multiplying and dividing a LinFrac by forms keeps its scalar an
    exact int or Fraction, an int where integral."""
    c, ws = args
    n = len(ws[0])
    for f in (LinFrac(n, c), LinFrac(n, Fraction(c) / 3)):
        for w in ws:
            for g in (f.mul_weight(w), f.div_weight(w), f.div_weight(w).mul_weight(w)):
                assert type(g.scalar) in (int, Fraction)
                assert type(g.scalar) is int or g.scalar.denominator != 1
        back = f
        for w in ws:
            back = back.div_weight(w)
        for w in ws:
            back = back.mul_weight(w)
        assert back == f


# ---------------------------------------------------------------------------
# LinFrac cancellation by a merge of sorted form tuples
# ---------------------------------------------------------------------------

from collections import Counter  # noqa: E402

from gkmrest.exact import LinFrac, Weight, _cancel, format_weight  # noqa: E402

_FORMS = [(1, 0), (0, 1), (1, -1), (1, 1), (1, 2), (2, -1)]


@st.composite
def form_lists(draw):
    """Lists of primitive forms in two variables, repeats likely."""
    return draw(st.lists(st.sampled_from(_FORMS), max_size=6))


@SETTINGS
@given(form_lists(), form_lists())
def test_cancel_is_the_multiset_difference(num, den):
    cn, cd = Counter(num), Counter(den)
    assert _cancel(tuple(sorted(num)), tuple(sorted(den))) == (
        tuple(sorted((cn - cd).elements())), tuple(sorted((cd - cn).elements())))


@SETTINGS
@given(form_lists(), form_lists(), st.integers(-6, 6).filter(bool), st.randoms())
def test_linfrac_does_not_depend_on_input_order(num, den, c, rnd):
    shuffled = []
    for forms in (num, den):
        forms = list(forms)
        rnd.shuffle(forms)
        shuffled.append(forms)
    a = LinFrac(2, Fraction(c, 3), tuple(sorted(num)), tuple(sorted(den)))
    b = LinFrac(2, Fraction(c, 3), *shuffled)
    assert a == b and hash(a) == hash(b) and str(a) == str(b)
    cn, cd = Counter(num), Counter(den)
    assert a.num == tuple(sorted((cn - cd).elements()))
    assert a.den == tuple(sorted((cd - cn).elements()))
    assert hash(a) == hash((2, a.scalar, a.num, a.den))
    w = Weight((2, -4))
    assert (a * b) == LinFrac(2, a.scalar ** 2, shuffled[0] + num, den + shuffled[1])
    assert a.mul_weight(w) == b.mul_weight(w) == LinFrac(2, a.scalar * 2, num + [(1, -2)], den)
    assert a.div_weight(w) == b.div_weight(w) == LinFrac(2, Fraction(a.scalar) / 2, num, den + [(1, -2)])
    if not a.den:
        assert a.to_poly() == b.to_poly()
    if a.num and a.scalar == 1:
        assert str(a).startswith("*".join(f"({format_weight(f)})" for f in a.num))


# ---------------------------------------------------------------------------
# The plan table: a division or restriction by a form does not depend on
# what the table held before it, nor on how the form's coordinates are typed
# ---------------------------------------------------------------------------

def typed(p: Poly) -> dict:
    """The term dict with each coefficient's type, so that an int and an
    equal Fraction(k, 1) tell apart."""
    return {e: (c, type(c)) for e, c in p.terms.items()}


def cold(op):
    """op() with an empty plan table."""
    exact._FORM_PLANS.clear()
    return op()


@pytest.mark.parametrize("support", SUPPORTS)
@SETTINGS
@given(data=st.data())
def test_division_by_a_multiple_cold_and_warm(support, data):
    """div_weight(mul_weight(p, w), w) is p, coefficient types included,
    with the form's plan derived by the call itself and read from the
    table."""
    n, p, w = data.draw(poly_and_form(support))
    prod = p.mul_weight(w)
    first = cold(lambda: prod.div_weight(w))
    again = prod.div_weight(w)
    assert typed(first) == typed(again) == typed(p)


@pytest.mark.parametrize("support", SUPPORTS)
@SETTINGS
@given(data=st.data())
def test_restriction_cold_and_warm(support, data):
    """A restriction, with or without minus, is the same whether the plan
    is derived for it or left by restrictions of other polynomials, which
    grow the power lists of a two-coordinate plan first."""
    n, p, w = data.draw(poly_and_form(support))
    piv = next(i for i, c in enumerate(w.coords) if c)
    q = data.draw(deep_polys(n, piv))
    g = data.draw(st.sampled_from((None, p, Poly.zero(n))))
    want = cold(lambda: q.restrict_zero(w, minus=g))
    exact._FORM_PLANS.clear()
    p.restrict_zero(w)
    p.restrict_zero(w, minus=q)
    for _ in range(2):  # after the others, then after itself
        assert typed(q.restrict_zero(w, minus=g)) == typed(want)


@pytest.mark.parametrize("support", SUPPORTS)
@SETTINGS
@given(data=st.data())
def test_equal_forms_typed_differently_share_results(support, data):
    """A form whose coordinates are all Fractions (integral ones with
    denominator one) finds the plan of the same form with int coordinates,
    and derives the same plan when it comes first."""
    n, p, w = data.draw(poly_and_form(support))
    alt = Weight.of_exact(tuple(Fraction(c) for c in w.coords))
    assert alt.coords == w.coords
    prod = p.mul_weight(w)
    # the same dividend with every coefficient a Fraction
    typed_prod = Poly(n, {e: Fraction(c) for e, c in prod.terms.items()})

    def results(first, second):
        exact._FORM_PLANS.clear()
        out = []
        for form in (first, second):
            out += [prod.div_weight(form), typed_prod.div_weight(form),
                    p.restrict_zero(form), prod.restrict_zero(form, minus=p)]
            try:
                out.append(p.div_weight(form))
            except NotDivisible as exc:
                out.append(str(exc))
        return [typed(r) if isinstance(r, Poly) else r for r in out]

    k = len(results(w, alt)) // 2
    for got in (results(w, alt), results(alt, w)):
        assert got[:k] == got[k:] == results(w, w)[:k]


def test_half_integral_pivots_cold_and_warm():
    """Forms with a Fraction pivot and one, two or three coordinates."""
    p = Poly(3, {(3, 1, 0): Fraction(1, 2), (1, 0, 2): 3, (0, 2, 1): -2, (2, 0, 0): Fraction(5, 3)})
    for coords in ((Fraction(1, 2), 0, 0), (Fraction(-3, 2), 1, 0),
                   (Fraction(1, 2), Fraction(-1, 3), 2)):
        w = Weight(coords)
        prod = p.mul_weight(w)
        quot = cold(lambda: prod.div_weight(w))
        rest = cold(lambda: p.restrict_zero(w, minus=prod))
        assert typed(quot) == typed(prod.div_weight(w)) == typed(p)
        assert typed(rest) == typed(p.restrict_zero(w, minus=prod))
        assert sym_terms(sym(rest), 3) == (p - prod).restrict_zero(w).terms


def test_plan_table_is_bounded(monkeypatch):
    """The plan table is cleared at _EXP_POOL_LIMIT, like _EXP_POOL, and
    a division after a clear derives its plan again."""
    monkeypatch.setattr(exact, "_FORM_PLANS", {})
    monkeypatch.setattr(exact, "_EXP_POOL_LIMIT", 2)
    for k in range(1, 6):
        w = Weight((1, -k))
        assert Poly.from_weight(w).mul_weight(w).div_weight(w) == Poly.from_weight(w)
        assert Poly.from_weight(w).restrict_zero(w).is_zero()
        assert len(exact._FORM_PLANS) <= 2
        assert (1, -k) in exact._FORM_PLANS

