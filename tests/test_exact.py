"""Tests for the exact arithmetic layer."""

import random
from fractions import Fraction

import pytest

from gkmrest.errors import GenericityError, NotDivisible
from gkmrest.exact import (
    LinFrac,
    Poly,
    Weight,
    _as_exact,
    format_scalar,
    format_weight,
    linfrac_sum_to_poly,
    pair,
    rho_project,
)

from reference import parse_poly


def W(*coords):
    return Weight(coords)


def lin(n, *coords):
    return Poly.from_weight(Weight(coords))


class TestPair:
    def test_direct_dot_product(self):
        # w = x1 - x2 against xi = (1, 2)
        assert pair(W(1, -1), W(1, 2)) == -1

    def test_zero_weight(self):
        assert pair(W(0, 0, 0), W(5, 7, 11)) == 0

    def test_scaled(self):
        assert pair(W(2, 0), W(3, 5)) == 6

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pair(W(1, 2), W(1, 2, 3))


class TestRhoProject:
    def test_definition(self):
        # X = x1, eta = x1 - x2, xi = (1, 2): X - (1/-1) eta = 2x1 - x2
        got = rho_project(W(1, 0), W(1, -1), W(1, 2))
        assert got == W(2, -1)
        assert pair(got, W(1, 2)) == 0

    def test_eta_projects_to_zero(self):
        eta = W(3, -2, 1)
        xi = W(1, 1, 1)
        assert rho_project(eta, eta, xi).is_zero()

    def test_fixed_when_already_orthogonal(self):
        x = W(1, -1)
        xi = W(1, 1)
        assert rho_project(x, W(1, 2), xi) == x

    def test_degenerate_direction(self):
        with pytest.raises(GenericityError):
            rho_project(W(1, 0), W(1, -1), W(1, 1))

    def test_always_orthogonal(self):
        rng = random.Random(7)
        for _ in range(50):
            m = rng.randint(2, 4)
            x = W(*[rng.randint(-4, 4) for _ in range(m)])
            eta = W(*[rng.randint(-4, 4) for _ in range(m)])
            xi = W(*[rng.randint(1, 9) for _ in range(m)])
            if pair(eta, xi) == 0:
                continue
            assert pair(rho_project(x, eta, xi), xi) == 0


class TestWeight:
    def test_primitive_normalization(self):
        prim, scale = W(Fraction(-2, 3), Fraction(4, 3)).primitive()
        assert prim == (1, -2)
        assert scale == Fraction(-2, 3)
        assert scale * Weight(prim) == W(Fraction(-2, 3), Fraction(4, 3))

    def test_primitive_of_zero(self):
        with pytest.raises(ValueError):
            W(0, 0).primitive()

    def test_str(self):
        assert str(W(1, -1, 0)) == "x1 - x2"
        assert str(W(0, Fraction(1, 2), 2)) == "1/2*x2 + 2*x3"


class TestPolyBasics:
    def test_add_mul(self):
        n = 3
        a = lin(n, 1, -1, 0)  # x1 - x2
        b = lin(n, 0, 1, -1)  # x2 - x3
        prod = a * b
        assert prod == parse_poly("x1*x2 - x1*x3 - x2^2 + x2*x3", n)
        assert a + b == lin(n, 1, 0, -1)

    def test_str_and_parse_roundtrip(self):
        rng = random.Random(3)
        for _ in range(40):
            n = rng.randint(1, 4)
            terms = {}
            for _ in range(rng.randint(0, 6)):
                e = tuple(rng.randint(0, 3) for _ in range(n))
                terms[e] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            p = Poly(n, terms)
            assert parse_poly(str(p), n) == p

    def test_json_roundtrip(self):
        p = parse_poly("2*x1^2 - 1/3*x2 + 7", 2)
        assert Poly.from_json(2, p.to_json()) == p

    def test_leading_grlex(self):
        p = parse_poly("x2^3 + x1*x2", 2)
        e, c = p.leading()
        assert e == (0, 3) and c == 1

    def test_homogeneous(self):
        assert parse_poly("x1*x2 + x2^2", 2).is_homogeneous()
        assert not parse_poly("x1 + 1", 2).is_homogeneous()


def random_poly(rng, n, size):
    terms = {}
    for _ in range(size):
        e = tuple(rng.randint(0, 3) for _ in range(n))
        terms[e] = rng.choice([rng.randint(-4, 4), Fraction(rng.randint(-9, 9), rng.randint(1, 4))])
    return Poly(n, terms)


def typed_terms(p):
    return {e: (type(c), c) for e, c in p.terms.items()}


class TestSubtraction:
    """a - b merges b's terms into a copy of a; the reference is
    a + (-b), down to the type of each coefficient."""

    def test_matches_adding_the_negation(self):
        rng = random.Random(8)
        for _ in range(300):
            n = rng.randint(1, 4)
            a, b = random_poly(rng, n, rng.randint(0, 8)), random_poly(rng, n, rng.randint(0, 8))
            # share some terms, and cancel some of them exactly
            for e, c in list(a.terms.items())[: rng.randint(0, len(a.terms))]:
                b = b + Poly(n, {e: c if rng.random() < 0.5 else c + 1})
            for x, y in ((a, b), (b, a), (a, a), (a, Poly.zero(n)), (Poly.zero(n), a)):
                got = x - y
                assert typed_terms(got) == typed_terms(x + (-y))
                assert 0 not in got.terms.values()
            assert (a - a).terms == {}

    def test_operands_unchanged(self):
        a, b = parse_poly("x1 + 2*x2", 2), parse_poly("x1 - 1/2*x2", 2)
        before = (dict(a.terms), dict(b.terms))
        assert a - b == parse_poly("5/2*x2", 2)
        assert (a.terms, b.terms) == before


class TestFromJson:
    def test_roundtrip_random(self):
        rng = random.Random(13)
        for _ in range(200):
            n = rng.randint(1, 4)
            p = random_poly(rng, n, rng.randint(0, 8))
            assert Poly.from_json(n, p.to_json()) == p

    def test_reads_share_exponent_tuples(self):
        data = parse_poly("3*x1^2*x3 - 1/2*x2 + 5", 3).to_json()
        first, second = Poly.from_json(3, data), Poly.from_json(3, data)
        assert first == second
        assert all(a is b for a, b in zip(first.terms, second.terms, strict=True))

    def test_length_mismatch_and_string_exponents(self):
        with pytest.raises(ValueError):
            Poly.from_json(3, [{"exp": [1, 0], "coeff": "1"}])
        p = Poly.from_json(2, [{"exp": ["2", "1"], "coeff": "3"}])
        assert p == parse_poly("3*x1^2*x2", 2)

    def test_pool_is_bounded(self, monkeypatch):
        import gkmrest.exact as exact
        monkeypatch.setattr(exact, "_EXP_POOL", {})
        monkeypatch.setattr(exact, "_EXP_POOL_LIMIT", 2)
        for k in range(5):
            assert Poly.from_json(1, [{"exp": [k], "coeff": "1"}]).terms == {(k,): 1}
            assert len(exact._EXP_POOL) <= 2


class TestDivision:
    def test_exact_linear_factor(self):
        n = 3
        p = lin(n, 1, -1, 0) * lin(n, 1, 0, -1)
        assert p.div_exact(lin(n, 1, -1, 0)) == lin(n, 1, 0, -1)

    def test_difference_of_squares(self):
        n = 2
        p = parse_poly("x1^2 - x2^2", n)
        assert p.div_exact(parse_poly("x1 + x2", n)) == parse_poly("x1 - x2", n)

    def test_not_divisible(self):
        n = 2
        with pytest.raises(NotDivisible):
            parse_poly("x1*x2", n).div_exact(parse_poly("x1 + x2", n))

    def test_div_weight_matches_general(self):
        n = 3
        p = parse_poly("x1^3 - x3^3", n) * parse_poly("x1 + 2*x2", n)
        w = Weight((1, 2, 0))
        assert p.div_weight(w) == p._div_general(Poly.from_weight(w))

    def test_quotient_exponents_shared_and_pool_bounded(self, monkeypatch):
        """Quotients of equal inputs share their exponent tuples, which
        keeps a table's monomials once in memory, and _EXP_POOL stays
        within its limit across divisions, as for from_json."""
        import gkmrest.exact as exact
        monkeypatch.setattr(exact, "_EXP_POOL", {})
        n = 3
        p = parse_poly("x1^3 - x3^3", n) * parse_poly("x1 + 2*x2 - x3", n)
        w = Weight((1, 2, -1))
        first, second = p.div_weight(w), Poly(n, dict(p.terms)).div_weight(w)
        assert first == parse_poly("x1^3 - x3^3", n)
        assert list(first.terms) == list(second.terms)
        assert all(a is b for a, b in zip(first.terms, second.terms, strict=True))
        monkeypatch.setattr(exact, "_EXP_POOL_LIMIT", 2)
        for k in range(5):
            # (x1 - x2) * x1^k: one carry, a one-term quotient
            q = parse_poly(f"x1^{k + 1} - x1^{k}*x2", 2).div_weight(Weight((1, -1)))
            assert q.terms == {(k, 0): 1}
            assert next(iter(q.terms)) is exact._EXP_POOL[(k, 0)]
            assert len(exact._EXP_POOL) <= 2

    def test_roundtrip_random(self):
        rng = random.Random(11)
        for _ in range(60):
            n = rng.randint(1, 3)
            def rand_poly():
                terms = {}
                for _ in range(rng.randint(1, 5)):
                    e = tuple(rng.randint(0, 2) for _ in range(n))
                    terms[e] = rng.randint(-5, 5)
                return Poly(n, terms)
            a, b = rand_poly(), rand_poly()
            if a.is_zero() or b.is_zero():
                continue
            assert (a * b).div_exact(b) == a

    def test_restrict_zero_detects_divisibility(self):
        n = 3
        w = Weight((1, 1, 0))
        p = parse_poly("x1^2 - x2^2", n)
        assert p.divisible_by_weight(w)
        assert not parse_poly("x1^2 + x2^2", n).divisible_by_weight(w)

    def test_substitute_linear_change(self):
        # p(x1, x2) = x1 * x2 with x1 -> y1 + y2, x2 -> y1 - y2
        p = parse_poly("x1*x2", 2)
        q = p.substitute([Weight((1, 1)), Weight((1, -1))], 2)
        assert q == parse_poly("x1^2 - x2^2", 2)

    def test_substitute_half_integer_images(self):
        # against expanding each monomial by Poly arithmetic; the images
        # are the rank-three type A to type D forms, plus a zero image
        half = Fraction(1, 2)
        images = [W(half, half, half), W(half, -half, -half),
                  W(-half, half, -half), W(0, 0, 0)]
        rng = random.Random(7)
        for _ in range(20):
            terms = {}
            for _ in range(6):
                e = tuple(rng.randint(0, 2) for _ in range(4))
                terms[e] = rng.choice([1, -2, 3, Fraction(1, 3), Fraction(-5, 2)])
            p = Poly(4, terms)
            want = Poly.zero(3)
            for e, c in p.terms.items():
                t = Poly.const(3, c)
                for i, k in enumerate(e):
                    for _ in range(k):
                        t = t * Poly.from_weight(images[i])
                want = want + t
            got = p.substitute(images, 3)
            assert got == want
            for c in got.terms.values():
                assert type(c) is int or c.denominator != 1

    def test_substitute_integral_result_is_int(self):
        # (x1 + x2)^2 under x_i -> forms with halves: 4 * (1/2)^2 * y1^2
        half = Fraction(1, 2)
        p = parse_poly("x1^2 + 2*x1*x2 + x2^2", 2)
        got = p.substitute([W(half, half), W(half, -half)], 2)
        assert got.terms == {(2, 0): 1}
        assert type(got.terms[(2, 0)]) is int


class TestScalarText:
    """The int fast paths of _as_exact and format_scalar agree with going
    through Fraction: same values, same types, same exceptions."""

    TEXTS = ["+3", " 3", "3_0", "007", "-0", "1/2", "", "--3", "3", "-12",
             "0", "-", "3 ", "1/0", "-4/2", "1.5", "\u0663", "\u00b2", "-+3",
             "12345678901234567890123"]

    @staticmethod
    def _via_fraction(x):
        f = Fraction(x)
        return int(f) if f.denominator == 1 else f

    @staticmethod
    def _outcome(fn, x):
        try:
            v = fn(x)
        except Exception as exc:  # compared by type below
            return ("raises", type(exc))
        return ("value", type(v), v)

    @pytest.mark.parametrize("text", TEXTS)
    def test_as_exact_matches_fraction(self, text):
        assert self._outcome(_as_exact, text) == self._outcome(self._via_fraction, text)

    @pytest.mark.parametrize("c", [0, 1, -1, 7, -12, 2 ** 70, -(3 ** 50), True,
                                   Fraction(1, 2), Fraction(-6, 4), Fraction(4, 2)])
    def test_format_scalar_matches_fraction(self, c):
        f = Fraction(c)
        want = str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
        assert format_scalar(c) == want

    def test_from_json_reads_ints(self):
        p = Poly.from_json(2, [{"exp": [1, 0], "coeff": "-3"},
                               {"exp": [0, 1], "coeff": "4/2"}])
        assert p.terms == {(1, 0): -3, (0, 1): 2}
        assert all(type(c) is int for c in p.terms.values())


def _reference_format_weight(coords):
    """The former hand-written text of a linear form, kept as the
    reference for format_weight."""
    parts = []
    for i, c in enumerate(coords):
        if c == 0:
            continue
        var = f"x{i + 1}"
        if c == 1:
            term = var
        elif c == -1:
            term = f"-{var}"
        else:
            term = f"{format_scalar(c)}*{var}"
        if parts and not term.startswith("-"):
            parts.append("+ " + term)
        elif parts:
            parts.append("- " + term[1:])
        else:
            parts.append(term)
    return " ".join(parts) if parts else "0"


class TestWeightText:
    COEFFS = [0, 1, -1, 2, -2, 3, -7, Fraction(1, 2), Fraction(-1, 2),
              Fraction(3, 4), Fraction(-5, 3), Fraction(2, 1)]

    def test_matches_reference_on_seeded_forms(self):
        rng = random.Random(20)
        for _ in range(5000):
            coords = tuple(rng.choice(self.COEFFS) for _ in range(rng.randint(1, 6)))
            assert format_weight(coords) == _reference_format_weight(coords), coords
            assert str(Weight(coords)) == _reference_format_weight(coords), coords

    @pytest.mark.parametrize("coords", [(), (0, 0), (1,), (-1, 0, 1), (0, Fraction(-1, 2))])
    def test_matches_reference_at_the_edges(self, coords):
        assert format_weight(coords) == _reference_format_weight(coords)

    def test_not_divisible_message(self):
        with pytest.raises(NotDivisible) as exc:
            lin(2, 1, 0).div_weight(W(-1, Fraction(1, 2)))
        assert str(exc.value) == "not divisible by linear form -x1 + 1/2*x2"


class TestLinFrac:
    def test_cancellation(self):
        n = 2
        f = LinFrac.from_weight(W(2, -2)).div_weight(W(1, -1))
        assert not f.den
        assert f.scalar == 2 and f.num == () and f.den == ()

    def test_commutative_and_cancel(self):
        n = 3
        a = LinFrac.from_weight(W(1, -1, 0)).div_weight(W(0, 1, -1))
        b = LinFrac.from_weight(W(0, 1, -1)).mul_scalar(Fraction(3, 2))
        assert a * b == b * a
        prod = a * b
        assert not prod.den
        assert prod.to_poly() == lin(3, 1, -1, 0).scale(Fraction(3, 2))

    def test_scalar_absorbs_normalization(self):
        f = LinFrac.from_weight(W(Fraction(-1, 2), Fraction(1, 2)))
        assert f.scalar == Fraction(-1, 2)
        assert f.num == ((1, -1),)

    def test_no_form_on_both_sides(self):
        f = LinFrac(2, 1, ((1, -1), (1, 1)), ((1, -1),))
        assert f.num == ((1, 1),)
        assert f.den == ()


class TestLinFracSum:
    def test_cancellation_to_zero(self):
        n = 2
        terms = [
            LinFrac.one(n).div_weight(W(1, -1)),
            LinFrac.one(n).div_weight(W(-1, 1)),
        ]
        assert linfrac_sum_to_poly(terms, n).is_zero()

    def test_already_polynomial(self):
        n = 2
        c = Fraction(5, 3)
        terms = [LinFrac.from_weight(W(1, -1)).mul_scalar(c)]
        assert linfrac_sum_to_poly(terms, n) == lin(n, 1, -1).scale(c)

    def test_poly_multiplier(self):
        n = 2
        t = (LinFrac.one(n).div_weight(W(1, -1)), parse_poly("x1^2 - x2^2", n))
        assert linfrac_sum_to_poly([t], n) == parse_poly("x1 + x2", n)

    def test_not_polynomial_raises(self):
        n = 2
        with pytest.raises(NotDivisible):
            linfrac_sum_to_poly([LinFrac.one(n).div_weight(W(1, -1))], n)

    def test_reordering_invariance(self):
        n = 3
        rng = random.Random(5)
        forms = [W(1, -1, 0), W(0, 1, -1), W(1, 0, -1), W(1, 1, 0)]
        base = []
        for _ in range(6):
            t = LinFrac(n, rng.randint(1, 4))
            for _ in range(rng.randint(0, 2)):
                t = t.mul_weight(rng.choice(forms))
            t = t.div_weight(rng.choice(forms))
            base.append(t)
        # make the sum polynomial by adding the mirrored terms over the
        # same denominators, then permute
        terms = base + [t.mul_scalar(-1) for t in base] + [LinFrac(n, 3)]
        expected = linfrac_sum_to_poly(terms, n)
        assert expected == Poly.const(n, 3)
        for _ in range(5):
            rng.shuffle(terms)
            assert linfrac_sum_to_poly(terms, n) == expected
