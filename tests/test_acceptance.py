"""Acceptance suite: one test per exit criterion, each printing a PASS
line (run with -s or -rA to see them).  All equality checks are exact
polynomial identity - zero tolerance; the only numeric bounds are the two
stated runtime ceilings.

The instance list shared by most criteria is A1, A2, A3, C2, C3, B2, B3,
D4.  Orbits and engine tables are computed once, inside the timed
criterion, and reused afterwards.
"""

import time
from fractions import Fraction

from gkmrest.canonical import (
    RestrictionTable,
    certify_table,
    restriction_ordered,
    restriction_vertex_classes,
    single_form_column,
)
from gkmrest.exact import Poly
from gkmrest.fibration import tower_restriction
from gkmrest.oracle import compare_tables, engine_entries
from gkmrest.orbits import (
    Orbit,
    OrbitSpec,
    check_orbit_edges,
    factor_distinct_positive_roots,
    formula_AC,
    pairing_check,
    relevant_path_terms,
    typed_column,
    typed_table,
)

from conftest import restriction_table
from reference import parse_poly


INSTANCES = (("A", 1), ("A", 2), ("A", 3), ("C", 2), ("C", 3),
             ("B", 2), ("B", 3), ("D", 4))

STATE: dict = {}


def _orbit(ctype, rank) -> Orbit:
    key = (ctype, rank)
    if key not in STATE:
        STATE[key] = {"orbit": Orbit(OrbitSpec(ctype, rank))}
    return STATE[key]["orbit"]


def _tables(ctype, rank) -> dict[str, RestrictionTable]:
    entry = STATE[(ctype, rank)]
    if "tables" not in entry:
        orbit = entry["orbit"]
        entry["tables"] = {
            "typed": typed_table(orbit),
            "brute": restriction_table(orbit.od, "brute"),
            "gz": restriction_table(orbit.od),
        }
    return entry["tables"]


def test_criterion_1_worked_example_all_engines():
    """Rank-two orthogonal orbit: alpha_{-2x1+x2}(2x1+x2) = x1 + x2 by
    four engines, in under a second."""
    t0 = time.perf_counter()
    orbit = _orbit("B", 2)
    p, q = "-2,1", "2,1"
    expected = parse_poly("x1 + x2", 2)
    got = {
        "gz": single_form_column(orbit.od, q)[p],
        "typed": typed_column(orbit, q)[p],
        "brute": restriction_table(orbit.od, "brute").get(p, q),
        "ordered": restriction_ordered(
            orbit.od, p, q, [lvl.moment for lvl in orbit.tower().levels])[0],
    }
    elapsed = time.perf_counter() - t0
    assert all(v == expected for v in got.values()), got
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 1 PASS: B2 worked example = x1 + x2 via "
          f"{sorted(got)} in {elapsed:.2f}s")


def test_criterion_2_engine_agreement_under_60s():
    """typed = brute = single-form dynamic program on every pair of every
    listed instance, total runtime under 60 seconds."""
    t0 = time.perf_counter()
    total_pairs = 0
    for ctype, rank in INSTANCES:
        orbit = _orbit(ctype, rank)
        tables = _tables(ctype, rank)
        ids = orbit.od.graph.ids
        report = compare_tables(
            {name: tab.entries for name, tab in tables.items()}, ids)
        assert report.ok, f"{ctype}{rank}: {report.mismatches[:3]}"
        total_pairs += report.pairs_checked
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 2 PASS: typed = brute = gz on {total_pairs} pairs "
          f"across {len(INSTANCES)} instances in {elapsed:.1f}s")


def test_criterion_3_subword_oracle_equality():
    """Reduced-subword values equal the table values on A1-A3, B2, C2."""
    checked = 0
    for ctype, rank in (("A", 1), ("A", 2), ("A", 3), ("B", 2), ("C", 2)):
        orbit = _orbit(ctype, rank)
        table = _tables(ctype, rank)["gz"]
        for entry, val in engine_entries(orbit, "billey").items():
            assert val == table.entries[entry], (ctype, rank, entry)
            checked += 1
    print(f"\nACCEPTANCE 3 PASS: subword oracle matches on {checked} pairs")


def test_criterion_4_theta_is_one_everywhere():
    """Edge scalar equals one on every canonical edge of every instance."""
    edges = 0
    for ctype, rank in INSTANCES:
        orbit = _orbit(ctype, rank)
        edges += check_orbit_edges(orbit)
    print(f"\nACCEPTANCE 4 PASS: edge scalar 1 on {edges} canonical edges")


def test_criterion_5_path_term_certificates():
    """Per-path terms factor as distinct positive roots times a constant
    in the asserted set: positive integers for A/C, {1,2} for B, {1} for
    D; every contributing path of every listed instance."""
    counted = {"A": 0, "B": 0, "C": 0, "D": 0}
    for ctype, rank in INSTANCES:
        orbit = _orbit(ctype, rank)
        if ctype in ("A", "C"):
            for wp in orbit.elements:
                for wq in orbit.elements:
                    _, ledger = formula_AC(orbit, wp, wq)
                    for term in ledger:
                        c = factor_distinct_positive_roots(orbit.rs, term.value)
                        assert c.denominator == 1 and c > 0, (ctype, rank, c)
                        counted[ctype] += 1
        else:
            allowed = {1, 2} if ctype == "B" else {1}
            for w in orbit.elements:
                p_vid = orbit.vid_of[w.word]
                for b in orbit.base_od().graph.ids:
                    for _, _, term in relevant_path_terms(orbit, p_vid, b):
                        c = factor_distinct_positive_roots(orbit.rs, term)
                        assert c in allowed, (ctype, rank, c)
                        counted[ctype] += 1
    print(f"\nACCEPTANCE 5 PASS: path terms certified "
          f"(A:{counted['A']} C:{counted['C']} B:{counted['B']} D:{counted['D']})")


def test_criterion_6_tower_reduces_paths():
    """On the rank-two special-unitary flag presented as a tower, some pair
    is computed over strictly fewer paths with the same value."""
    orbit = _orbit("A", 2)
    tower = orbit.tower()
    ids = orbit.od.graph.ids
    moment = dict(orbit.od.graph.moment)
    gz = _tables("A", 2)["gz"]
    witness = None
    for p in ids:
        for q in ids:
            val, filtered = tower_restriction(orbit.od, tower, p, q)
            assert val == gz.get(p, q)
            _, full = restriction_vertex_classes(
                orbit.od, p, q, {v: moment for v in ids})
            assert len(filtered) <= len(full)
            if len(filtered) < len(full) and witness is None:
                witness = (p, q, len(filtered), len(full))
    assert witness is not None
    p, q, c, s = witness
    print(f"\nACCEPTANCE 6 PASS: tower path reduction, e.g. ({p})->({q}) "
          f"uses {c} of {s} paths")


def test_criterion_7_incomplete_path_pairing():
    """For B2, B3, D3, D4 and every fiber target, incomplete horizontal
    paths pair off by the axis swap and each pair sums to the corrected
    term.  The totals of pairs and of complete paths are pinned, so a
    dropped path fails here even when no pair breaks."""
    # (pairs, complete paths) summed over every target
    expected = {("B", 2): (1, 22), ("B", 3): (20, 246),
                ("D", 3): (17, 90), ("D", 4): (324, 1370)}
    stats = []
    for (ctype, rank), totals in expected.items():
        orbit = _orbit(ctype, rank)
        pairs = complete = 0
        for s in orbit.od.graph.ids:
            report = pairing_check(orbit, s)
            assert not report["failures"], (ctype, rank, s, report["failures"][:3])
            pairs += report["pairs"]
            complete += report["complete"]
        assert (pairs, complete) == totals, (ctype, rank)
        stats.append(f"{ctype}{rank}:{pairs}/{complete}")
    print(f"\nACCEPTANCE 7 PASS: incomplete paths pair exactly ({', '.join(stats)})")


def test_criterion_8_certificates_and_fault_detection():
    """The full certificate passes on every computed table; a one-entry
    perturbation is detected."""
    checks = 0
    for ctype, rank in INSTANCES:
        orbit = _orbit(ctype, rank)
        table = _tables(ctype, rank)["gz"]
        cert = certify_table(orbit.od, table)
        assert cert.ok, (ctype, rank, cert.failures[:3])
        checks += cert.checks
        for val in table.entries.values():
            assert val.integer_coefficients(), (ctype, rank)
    # injected fault: bump one entry of a copied table
    orbit = _orbit("B", 2)
    good = _tables("B", 2)["gz"]
    bad = dict(good.entries)
    key = next(k for k, v in bad.items() if v.degree() >= 1)
    bad[key] = bad[key] + Poly.const(orbit.rs.ambient, 1)
    cert = certify_table(orbit.od, RestrictionTable(orbit.od, bad))
    assert not cert.ok
    print(f"\nACCEPTANCE 8 PASS: {checks} certificate checks pass; "
          f"injected fault detected")


def test_criterion_9_point_choice_invariance():
    """Type-A tables agree, Weyl element by Weyl element, for two distinct
    valid choices of the regular point."""
    pairs = 0
    for rank, mu in ((2, [-5, -1, 6]), (3, [-7, -2, Fraction(1, 2), Fraction(17, 2)])):
        base = _orbit("A", rank)
        other = Orbit(OrbitSpec("A", rank, mu=mu))
        t1 = _tables("A", rank)["typed"]
        t2 = typed_table(other)
        for wp in base.elements:
            for wq in base.elements:
                assert t1.get(base.vertex(wp), base.vertex(wq)) == \
                    t2.get(other.vertex(wp), other.vertex(wq))
                pairs += 1
    print(f"\nACCEPTANCE 9 PASS: tables invariant under the point choice "
          f"({pairs} pairs compared)")
