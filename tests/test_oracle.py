"""Tests for the reduced-subword oracle and the comparison harness."""

import random
from fractions import Fraction

import pytest

import gkmrest.oracle as oracle
from gkmrest.errors import GkmError, SubwordCapExceeded
from gkmrest.exact import Poly, Weight
from gkmrest.oracle import (
    ENGINES,
    SUBWORD_CAP,
    available_engines,
    billey_column,
    billey_restriction,
    compare_tables,
    cross_validate,
    engine_entries,
    engine_entry,
)
from gkmrest.orbits import (
    Orbit,
    OrbitSpec,
    RootSystem,
    SignedPerm,
    inversion_prefix_roots,
    lexmin_reduced_word,
    weyl_length,
)

from conftest import restriction_table
from reference import bruhat_leq, is_positive, parse_poly, reduced_words


@pytest.fixture(scope="module")
def a2():
    return Orbit(OrbitSpec("A", 2))


@pytest.fixture(scope="module")
def b2():
    return Orbit(OrbitSpec("B", 2))


class TestBilley:
    def test_identity_source(self, a2):
        rs = a2.rs
        for v in a2.elements:
            assert billey_restriction(rs, SignedPerm.identity(3), v) == Poly.const(3, 1)

    def test_a2_single_subword(self):
        rs = RootSystem("A", 2)
        s1, s2 = SignedPerm((2, 1, 3)), SignedPerm((1, 3, 2))
        assert billey_restriction(rs, s1, s1 * s2) == parse_poly("x1 - x2", 3)

    def test_diagonal_is_downward_product(self, a2, b2):
        for orbit in (a2, b2):
            for w in orbit.elements:
                got = billey_restriction(orbit.rs, w, w)
                assert got == orbit.od.lambda_minus(orbit.vid_of[w.word])

    def test_reduced_word_invariance(self, a2, b2):
        for orbit in (a2, b2):
            rs = orbit.rs
            for v in orbit.elements:
                words = reduced_words(rs, v)
                for w in orbit.elements:
                    vals = {billey_restriction(rs, w, v, word) for word in words}
                    assert len(vals) == 1

    def test_zero_iff_not_below(self, b2):
        for w in b2.elements:
            for v in b2.elements:
                val = billey_restriction(b2.rs, w, v)
                assert (not val.is_zero()) == bruhat_leq(b2, w, v)

    def test_prefix_roots_positive(self, a2, b2):
        # each subword factor is a positive root: positivity is manifest
        for orbit in (a2, b2):
            for v in orbit.elements:
                word = lexmin_reduced_word(orbit.rs, v)
                for root in inversion_prefix_roots(orbit.rs, word):
                    assert is_positive(orbit.rs, root)

    def test_nonnegative_in_simple_root_coordinates(self, b2):
        # expand values in the simple-root basis (a genuine basis for
        # types B/C/D) and check coefficient signs
        rs = b2.rs
        mat = [list(a.coords) for a in rs.simple_roots]
        # invert the 2x2 matrix exactly
        (a, b), (c, d) = mat
        det = Fraction(a * d - b * c)
        inv = [[d / det, -b / det], [-c / det, a / det]]
        # row i of the inverse expresses x_i in the alpha basis
        images = [Weight(inv[i]) for i in range(2)]
        for w in b2.elements:
            for v in b2.elements:
                val = billey_restriction(rs, w, v)
                expanded = val.substitute(images, 2)
                assert all(Fraction(cf).denominator == 1 and cf > 0
                           for cf in expanded.terms.values())

    def test_oracle_equality_small(self, a2):
        gz = restriction_table(a2.od)
        for entry, val in engine_entries(a2, "billey").items():
            assert val == gz.entries[entry]

    def test_oracle_equality_rank3_even_orthogonal(self):
        orbit = Orbit(OrbitSpec("D", 3))
        gz = restriction_table(orbit.od)
        for entry, val in engine_entries(orbit, "billey").items():
            assert val == gz.entries[entry]

    def test_cap(self):
        rs = RootSystem("A", 3)
        with pytest.raises(SubwordCapExceeded):
            billey_restriction(rs, SignedPerm.identity(4), SignedPerm((4, 3, 2, 1)),
                               word=tuple([0, 1, 0] * 5))


def reference_lexmin_word(rs: RootSystem, w: SignedPerm) -> tuple[int, ...]:
    """The greedy lexicographically smallest reduced word, each left
    descent found by comparing full lengths (weyl_length)."""
    word, u, lu = [], w, weyl_length(rs, w)
    while lu:
        i = next(i for i, s in enumerate(rs.simple_perms) if weyl_length(rs, s * u) == lu - 1)
        word.append(i)
        u, lu = rs.simple_perms[i] * u, lu - 1
    return tuple(word)


def reference_billey(rs: RootSystem, w: SignedPerm, v: SignedPerm) -> Poly:
    """billey_restriction as a recursion over the positions of the
    reference word of v, each length from weyl_length; a branch stops
    when the positions left cannot make up the length of w."""
    word = reference_lexmin_word(rs, v)
    roots = inversion_prefix_roots(rs, word)
    m, lw = rs.ambient, weyl_length(rs, w)

    def go(j, u, lu, prod):
        if lw - lu > len(word) - j:
            return Poly.zero(m)
        if j == len(word):
            return prod if u == w else Poly.zero(m)
        total = go(j + 1, u, lu, prod)
        u2 = u * rs.simple_perms[word[j]]
        if lu < lw and weyl_length(rs, u2) == lu + 1:
            total = total + go(j + 1, u2, lu + 1, prod.mul_weight(roots[j]))
        return total

    return go(0, SignedPerm.identity(m), 0, Poly.const(m, 1))


class TestBilleyLengths:
    """billey tests l(u s) = l(u) + 1, and lexmin_reduced_word l(s u) =
    l(u) - 1, by the sign of one simple root's image."""

    @pytest.mark.parametrize("ctype,rank", [("B", 3), ("D", 4)])
    def test_descent_tests_agree_with_weyl_length(self, ctype, rank, monkeypatch):
        orbit = Orbit(OrbitSpec(ctype, rank))
        rs = orbit.rs
        seen = {"right": [], "left": []}

        def recording(kind, original):
            def recorded(self, u, i):
                got = original(self, u, i)
                seen[kind].append((u, i, got))
                return got
            return recorded

        monkeypatch.setattr(RootSystem, "is_right_ascent",
                            recording("right", RootSystem.is_right_ascent))
        monkeypatch.setattr(RootSystem, "is_left_descent",
                            recording("left", RootSystem.is_left_descent))
        rng = random.Random(f"billey-lengths:{ctype}{rank}")
        for _ in range(40):
            wp, wq = rng.choice(orbit.elements), rng.choice(orbit.elements)
            if orbit.length[wq.word] <= SUBWORD_CAP:
                billey_restriction(rs, wp, wq)
        assert len(seen["right"]) > 100 and len(seen["left"]) > 100
        for u, i, got in seen["right"]:
            s = rs.simple_perms[i]
            assert got == (weyl_length(rs, u * s) == weyl_length(rs, u) + 1), (u, i)
        for u, i, got in seen["left"]:
            s = rs.simple_perms[i]
            assert got == (weyl_length(rs, s * u) == weyl_length(rs, u) - 1), (u, i)

    @pytest.mark.parametrize("ctype", ["A", "B"])
    def test_values_unchanged_on_all_rank3_pairs(self, ctype):
        orbit = Orbit(OrbitSpec(ctype, 3))
        rs = orbit.rs
        for wq in orbit.elements:
            assert lexmin_reduced_word(rs, wq) == reference_lexmin_word(rs, wq)
            for wp in orbit.elements:
                assert billey_restriction(rs, wp, wq) == reference_billey(rs, wp, wq), (wp, wq)


class TestBilleyColumn:
    """billey_column walks the reduced subwords of one word of q once for
    the whole column; billey_restriction walks them again for each entry
    and stays the reference."""

    @staticmethod
    def check(orbit, q):
        rs, wq = orbit.rs, orbit.element(q)
        column = billey_column(orbit, q)
        assert list(column) == [orbit.vid_of[w.word] for w in orbit.elements]
        return column, lambda p: billey_restriction(rs, orbit.element(p), wq)

    @pytest.mark.parametrize("name", ["A2", "A3", "B2", "B3", "C3", "D3"])
    def test_every_pair(self, name):
        orbit = Orbit(OrbitSpec(name[0], int(name[1])))
        for q in orbit.vid_of.values():
            column, entry = self.check(orbit, q)
            for p, value in column.items():
                assert value == entry(p), (p, q)

    @pytest.mark.parametrize("name", ["A4", "D4"])
    def test_sampled_rank_four_pairs(self, name):
        orbit = Orbit(OrbitSpec(name[0], 4))
        rng = random.Random(f"billey-column:{name}")
        for q in rng.sample(sorted(orbit.vid_of.values()), 8):
            column, entry = self.check(orbit, q)
            for p in rng.sample(sorted(column), 30):
                assert column[p] == entry(p), (p, q)

    def test_cap_is_checked_before_the_walk(self, monkeypatch):
        orbit = Orbit(OrbitSpec("B", 4))
        longest = max(orbit.elements, key=lambda w: orbit.length[w.word])
        assert orbit.length[longest.word] > SUBWORD_CAP

        def refuse(*args):
            raise AssertionError("the column walked subwords above the cap")

        monkeypatch.setattr(oracle, "inversion_prefix_roots", refuse)
        with pytest.raises(SubwordCapExceeded):
            billey_column(orbit, orbit.vid_of[longest.word])


class TestCrossValidate:
    def test_a2_all_engines(self, a2):
        rep = cross_validate(a2)
        assert rep.ok
        assert rep.pairs_checked == 36
        assert set(rep.engines) >= {"gz", "typed", "brute", "ordered", "tower", "billey"}

    def test_negative_control(self, a2):
        """Injected mismatches in two of three engines: one record per
        (pair, engine) that differs from the first engine, in pair order,
        then engine order."""
        good = engine_entries(a2, "gz")
        ids = a2.od.graph.ids
        live = [(p, q) for p in ids for q in ids if not good[(p, q)].is_zero()]
        first, last = live[0], live[-1]
        one, two = dict(good), dict(good)
        one[last] = one[last] + Poly.const(3, 1)
        two[first] = two[first] - Poly.const(3, 1)
        two[last] = two[last] * Poly.const(3, 2)
        rep = compare_tables({"gz": good, "one": one, "two": two}, ids)
        assert not rep.ok
        assert rep.pairs_checked == 36

        def record(key, engine, table):
            return {"p": key[0], "q": key[1], "engine_a": "gz", "value_a": str(good[key]),
                    "engine_b": engine, "value_b": str(table[key])}

        assert rep.mismatches == [record(first, "two", two), record(last, "one", one),
                                  record(last, "two", two)]

    def test_report_json_shape(self, a2):
        rep = cross_validate(a2, engines=["gz", "brute"])
        data = rep.to_json()
        assert set(data) == {"engines", "pairs_checked", "mismatches"}


class TestRegistry:
    """engine_entry and engine_entries are two views of one registry
    record, so they must agree entry by entry."""

    @staticmethod
    def _check_parity(target, od, engine):
        table = engine_entries(target, engine)
        ids = od.graph.ids
        assert set(table) == {(p, q) for p in ids for q in ids}
        ledgers = set()
        for p in ids:
            for q in ids:
                value, ledger = engine_entry(target, engine, p, q)
                assert value == table[(p, q)], (engine, p, q)
                ledgers.add(ledger is not None)
        return ledgers

    @pytest.mark.parametrize("engine", list(ENGINES))
    def test_entry_matches_table_on_orbits(self, a2, b2, engine):
        for orbit in (a2, b2):
            ledgers = self._check_parity(orbit, orbit.od, engine)
            has_ledger = engine in ("ordered", "tower") or (
                engine == "typed" and orbit.spec.ctype in ("A", "C"))
            assert ledgers == {has_ledger}, (engine, orbit.spec)

    @pytest.mark.parametrize("engine", ["gz", "ordered", "brute"])
    def test_entry_matches_table_on_graph(self, cp2_oriented, engine):
        ledgers = self._check_parity(cp2_oriented, cp2_oriented, engine)
        assert ledgers == {engine == "ordered"}

    @pytest.mark.parametrize("engine", list(ENGINES))
    def test_jobs_give_the_serial_table_on_orbits(self, a2, engine):
        assert engine_entries(a2, engine, jobs=2) == engine_entries(a2, engine, jobs=1)

    @pytest.mark.parametrize("engine", ["gz", "ordered", "brute"])
    def test_jobs_give_the_serial_table_on_graph(self, cp2_oriented, engine):
        assert (engine_entries(cp2_oriented, engine, jobs=2)
                == engine_entries(cp2_oriented, engine, jobs=1))

    def test_engine_choices_are_the_registry(self):
        import argparse
        from gkmrest.cli import build_parser
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        for command in ("restrict", "table"):
            action = next(a for a in sub.choices[command]._actions if a.dest == "engine")
            assert list(action.choices) == list(ENGINES)

    def test_available_engines_unchanged(self, cp2_oriented):
        assert available_engines(Orbit(OrbitSpec("A", 3))) == [
            "gz", "typed", "brute", "ordered", "tower", "billey"]
        assert available_engines(Orbit(OrbitSpec("B", 3))) == [
            "gz", "typed", "brute", "ordered", "tower"]
        assert available_engines(cp2_oriented) == ["gz", "ordered", "brute"]

    @pytest.mark.parametrize("engine", ["tower", "typed", "billey"])
    def test_orbit_only_engines_refuse_a_graph(self, cp2_oriented, engine):
        with pytest.raises(GkmError, match=engine):
            engine_entry(cp2_oriented, engine, "p1", "p2")
        with pytest.raises(GkmError, match=engine):
            engine_entries(cp2_oriented, engine)

    def test_unknown_engine(self, a2):
        with pytest.raises(GkmError, match="nope"):
            engine_entries(a2, "nope")
