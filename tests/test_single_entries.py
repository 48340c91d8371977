"""Single typed B/D entries computed alone (typed_entry) against the typed
columns, single typed B1 and D3 entries read from their column, the one
paired sum a D4 typed query needs, the B2 column a B3 typed query does not
keep, and the compact gz
columns: one shared zero per variable count and pooled exponent tuples."""

import io
import random
from contextlib import redirect_stdout

import pytest

import gkmrest.exact as exact
from gkmrest.canonical import single_form_column
from gkmrest.cli import main
from gkmrest.errors import GraphFormatError
from gkmrest.exact import Poly
from gkmrest.oracle import engine_entries, engine_entry
from gkmrest.orbits import Orbit, OrbitSpec, SignedPerm, typed_column, typed_entry


def ids(orbit: Orbit) -> list[str]:
    return [orbit.vid_of[w.word] for w in orbit.elements]


@pytest.mark.parametrize("rank", [2, 3])
def test_typed_entry_matches_column_on_every_b_pair(rank):
    columns = Orbit(OrbitSpec("B", rank))
    alone = Orbit(OrbitSpec("B", rank))
    for q in ids(columns):
        col = typed_column(columns, q)
        for p in ids(columns):
            assert typed_entry(alone, p, q) == col[p], (p, q)


def test_typed_entry_matches_column_on_seeded_d4_pairs():
    columns = Orbit(OrbitSpec("D", 4))
    alone = Orbit(OrbitSpec("D", 4))
    rng = random.Random(0)
    vids = ids(columns)
    for _ in range(300):
        p, q = rng.choice(vids), rng.choice(vids)
        assert typed_entry(alone, p, q) == typed_column(columns, q)[p], (p, q)


@pytest.mark.parametrize("ctype,rank", [("A", 3), ("C", 2), ("B", 1), ("D", 3)])
def test_typed_entry_refuses_other_types(ctype, rank):
    orbit = Orbit(OrbitSpec(ctype, rank))
    v = ids(orbit)[0]
    with pytest.raises(GraphFormatError):
        typed_entry(orbit, v, v)


@pytest.mark.parametrize("ctype,rank,pairs", [("B", 1, 4), ("D", 3, 576)])
def test_typed_single_entry_on_b1_and_d3_equals_gz(ctype, rank, pairs):
    orbit = Orbit(OrbitSpec(ctype, rank))
    gz = engine_entries(orbit, "gz")
    assert len(gz) == pairs
    for (p, q), val in gz.items():
        assert engine_entry(orbit, "typed", p, q)[0] == val, (p, q)


def test_d3_typed_restrict():
    orbit = Orbit(OrbitSpec("D", 3))
    p, q = orbit.vertex(SignedPerm((2, 1, 3))), orbit.vertex(SignedPerm((-3, -2, 1)))
    with redirect_stdout(io.StringIO()) as out:
        rc = main(["restrict", "--type", "D", "--rank", "3", "--p", "w:2,1,3",
                   "--q", "w:-3,-2,1", "--engine", "typed"])
    assert rc == 0
    assert out.getvalue().strip() == str(engine_entries(orbit, "gz")[(p, q)]) == "x1 + x3"


def test_d4_typed_restrict_makes_one_paired_sum(monkeypatch):
    calls = []
    original = Orbit.paired_sums

    def counted(orbit, p_vid, b):
        calls.append((orbit.spec.ctype, orbit.spec.rank, p_vid, b))
        return original(orbit, p_vid, b)

    monkeypatch.setattr(Orbit, "paired_sums", counted)
    with redirect_stdout(io.StringIO()) as out:
        rc = main(["restrict", "--type", "D", "--rank", "4", "--p", "w:1,2,3,4",
                   "--q", "w:-1,-2,-3,-4", "--engine", "typed"])
    assert rc == 0 and out.getvalue().strip() != "0"
    assert len(calls) == 1 and calls[0][:2] == ("D", 4)


def test_b3_typed_restrict_keeps_no_b2_column():
    """One B3 entry takes the B2 fiber entries its paired sums name one at
    a time, keeping no B2 column, and equals the typed table's entry."""
    orbit = Orbit(OrbitSpec("B", 3))
    p, q = orbit.vertex(SignedPerm((1, -3, -2))), orbit.vertex(SignedPerm((-1, -2, -3)))
    value, ledger = engine_entry(orbit, "typed", p, q)
    assert ledger is None and not value.is_zero()
    assert value == engine_entries(Orbit(OrbitSpec("B", 3)), "typed")[(p, q)]
    b2 = [child for child in orbit._children.values() if child.spec.rank == 2]
    assert b2 and all(child._columns == {} for child in b2)


def test_d4_gz_column_is_compact():
    """Zero entries are the shared Poly.zero(4), and every exponent tuple
    off the diagonal (which is the downward product) is the _EXP_POOL
    tuple."""
    exact._EXP_POOL.clear()
    od = Orbit(OrbitSpec("D", 4)).od
    q = od.order[len(od.order) // 2]
    col = single_form_column(od, q)
    zeros = [v for v, val in col.items() if val.is_zero()]
    assert zeros and all(col[v] is Poly.zero(4) for v in zeros)
    terms = [e for v, val in col.items() if v != q for e in val.terms]
    assert terms and all(exact._EXP_POOL[e] is e for e in terms)


def test_from_json_reads_the_shared_zero():
    assert Poly.from_json(3, []) is Poly.zero(3)
    assert Poly.from_json(3, [{"exp": [1, 0, 0], "coeff": "0"}]) is Poly.zero(3)
    assert Poly.zero(3) is not Poly.zero(4) and Poly.zero(4).n == 4
