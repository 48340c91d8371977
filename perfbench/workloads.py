"""The three gkmrest benchmark workloads.

Each workload is a closed loop with one client: a round is a fixed list of
operations, each started only after the previous one returned.  Every
operation goes through ``gkmrest.cli.main`` (or, for the certificate,
through the library on freshly built objects), so each one builds its own
``Orbit`` and ``OrientedGraphData`` exactly as a command-line user would,
and no cache is warm that a user would find cold.

Inputs are drawn from the workload seed: for seed 0 the orbits use the
package's default regular point, for any other seed a strictly increasing
negative-integer point ``mu``.  The seed also draws the query stream and the
``--seed`` passed with graph inputs.  Outputs are checked after the timed
operations; ``check`` marks every failed operation.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import statistics
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction


@dataclass
class Result:
    """One timed operation and what is needed to check it afterwards."""

    kind: str
    round: int
    op: int
    seconds: float = 0.0
    entries: int = 0
    payload: dict = field(default_factory=dict)
    failure: str | None = None

    def fail(self, message: str):
        if self.failure is None:
            self.failure = message


def call_cli(argv: list[str]) -> dict:
    """Run one gkmrest command in-process, capturing its output."""
    from gkmrest import cli
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def draw_mu(seed: int, ctype: str, rank: int) -> list[str] | None:
    """None (the package default) for seed 0; otherwise a strictly
    increasing point of negative integers, n+1 coordinates for type A."""
    if seed == 0:
        return None
    size = rank + 1 if ctype == "A" else rank
    rng = random.Random(f"{seed}:mu:{ctype}{rank}")
    return [str(v) for v in sorted(rng.sample(range(-(size + 4), 0), size))]


def orbit_args(ctype: str, rank: int, mu: list[str] | None) -> list[str]:
    args = ["--type", ctype, "--rank", str(rank)]
    if mu is not None:
        args += ["--mu", ",".join(mu)]
    return args


def _check_rc(res: Result):
    rc = res.payload.get("rc")
    if rc != 0:
        tail = (res.payload.get("stderr") or "").strip().splitlines()[-1:]
        res.fail(f"exit code {rc}: {' '.join(tail)}")


# ---------------------------------------------------------------------------
# table-d4
# ---------------------------------------------------------------------------

class TableD4:
    name = "table-d4"
    why = ("Rank-4 table the roadmap tracks (192 points, 36,864 entries): theta and "
           "the DP, brute congruences, typed D fiber recursion, the certificate "
           "and 6 MB of JSON per table.")
    block_rounds = 1
    engines = ("gz", "typed", "brute")
    size = 192

    def prepare(self, seed: int, out_dir: str, reference: dict):
        self.mu = draw_mu(seed, "D", 4)
        self.argv = ["table", *orbit_args("D", 4, self.mu), "--jobs", "1"]
        self.reference = reference if seed == 0 else None

    def round_ops(self, k: int):
        outputs: dict[str, str] = {}
        for engine in self.engines:
            yield f"table.{engine}", lambda e=engine: self._table(e, outputs)
        yield "certify", lambda: self._certify(outputs)

    def _table(self, engine: str, outputs: dict) -> dict:
        got = call_cli(self.argv + ["--engine", engine])
        outputs[engine] = got["stdout"]
        got["entries"] = self.size ** 2
        return got

    def _certify(self, outputs: dict) -> dict:
        """Load the gz table a user received and certify it on a fresh
        orbit."""
        from gkmrest.canonical import RestrictionTable, certify_table
        from gkmrest.exact import Poly
        from gkmrest.orbits import Orbit, OrbitSpec
        orbit = Orbit(OrbitSpec("D", 4, mu=self.mu))
        n = orbit.od.rank
        entries = {tuple(key.split("|")): Poly.from_json(n, value)
                   for key, value in json.loads(outputs["gz"]).items()}
        cert = certify_table(orbit.od, RestrictionTable(orbit.od, entries))
        return {"ok": cert.ok, "checks": cert.checks, "entries_read": len(entries),
                "failures": cert.failures[:3]}

    def check(self, rounds: list[list[Result]]) -> dict:
        digests = []
        for results in rounds:
            by_kind = {r.kind: r for r in results}
            gz = by_kind.get("table.gz")
            for res in results:
                if res.kind.startswith("table."):
                    _check_rc(res)
                    if gz is not None and res.payload.get("stdout") != gz.payload.get("stdout"):
                        res.fail("stdout differs from the gz table")
                elif res.kind == "certify":
                    p = res.payload
                    if not p.get("ok") or p.get("entries_read") != self.size ** 2:
                        res.fail(f"certificate failed: {p}")
            if gz is not None and gz.payload.get("stdout") is not None:
                d = digest(gz.payload["stdout"])
                digests.append(d)
                if self.reference is not None and d != self.reference.get("gz_table"):
                    for res in results:
                        if res.kind.startswith("table."):
                            res.fail("table digest differs from the stored seed-0 digest")
            for res in results:  # drop the 6 MB outputs once checked
                res.payload.pop("stdout", None)
        return {"gz_table_sha256": sorted(set(digests))}

    def extras(self, results: list[Result]) -> dict:
        out = {}
        for engine in self.engines:
            times = [r.seconds for r in results if r.kind == f"table.{engine}"]
            out[f"table_s.{engine}"] = statistics.median(times)
        out["certify_s"] = statistics.median(
            r.seconds for r in results if r.kind == "certify")
        return out


# ---------------------------------------------------------------------------
# compare-rank3
# ---------------------------------------------------------------------------

def projective_space(n: int) -> tuple[list, list]:
    """CP^n: n+1 fixed points, moment of p_i is (1/(n+1)) sum_j (x_j - x_i),
    weight of the edge p_i -> p_j is x_i - x_j."""
    m = n + 1
    vertices = []
    for i in range(m):
        coords = [Fraction(1, m)] * m
        coords[i] = Fraction(1 - m, m)
        vertices.append((f"p{i + 1}", coords))
    edges = []
    for i in range(m):
        for j in range(i + 1, m):
            w = [0] * m
            w[i], w[j] = 1, -1
            edges.append((f"p{i + 1}", f"p{j + 1}", w))
    return vertices, edges


def product_graph_json(dims: tuple[int, ...]) -> dict:
    """Product of projective spaces in gkmrest's graph JSON format: vertex
    ids join factor ids with '*', edges move one factor, and weights live in
    disjoint coordinate blocks."""
    import itertools
    factors = [projective_space(n) for n in dims]
    offsets, total = [], 0
    for n in dims:
        offsets.append(total)
        total += n + 1

    def widen(coords, k):
        out = [Fraction(0)] * total
        for i, c in enumerate(coords):
            out[offsets[k] + i] = Fraction(c)
        return out

    def fmt(coords):
        return [str(c) for c in coords]

    moments = [dict(vs) for vs, _ in factors]
    combos = list(itertools.product(*([v for v, _ in vs] for vs, _ in factors)))
    vertices = []
    for combo in combos:
        moment = [Fraction(0)] * total
        for k, v in enumerate(combo):
            moment = [a + b for a, b in zip(moment, widen(moments[k][v], k))]
        vertices.append({"id": "*".join(combo), "moment": fmt(moment)})
    edges = []
    for combo in combos:
        for k, (_, fedges) in enumerate(factors):
            for src, dst, w in fedges:
                if combo[k] != src:
                    continue
                other = list(combo)
                other[k] = dst
                edges.append({"src": "*".join(combo), "dst": "*".join(other),
                              "weight": fmt(widen(w, k))})
    return {"rank": total, "vertices": vertices, "edges": edges}


class CompareRank3:
    name = "compare-rank3"
    why = ("Default engine sets on A3, B3, C3 and two product graphs: the exponential "
           "path sums (ordered, tower) and LinFrac sums dominate; the graphs alone go "
           "through validation and the xi search.")
    block_rounds = 1
    orbit_engines = {
        "A3": ["gz", "typed", "brute", "ordered", "tower", "billey"],
        "B3": ["gz", "typed", "brute", "ordered", "tower"],
        "C3": ["gz", "typed", "brute", "ordered", "tower"],
    }
    graph_dims = {"CP1xCP1xCP1xCP1": (1, 1, 1, 1), "CP2xCP3": (2, 3)}

    def prepare(self, seed: int, out_dir: str, reference: dict):
        graph_seed = 0 if seed == 0 else random.Random(f"{seed}:graph").randrange(1, 2 ** 31)
        self.reference = reference if seed == 0 else None
        self.cases = []  # (label, argv, expected engines, vertex count)
        for label, engines in self.orbit_engines.items():
            ctype, rank = label[0], int(label[1:])
            mu = draw_mu(seed, ctype, rank)
            argv = ["compare", *orbit_args(ctype, rank, mu)]
            size = {"A": 24, "B": 48, "C": 48}[ctype]
            self.cases.append((label, argv, engines, size))
        for label, dims in self.graph_dims.items():
            path = os.path.join(out_dir, f"{label}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(product_graph_json(dims), fh, sort_keys=True)
            size = 1
            for n in dims:
                size *= n + 1
            argv = ["compare", "--graph", path, "--seed", str(graph_seed)]
            self.cases.append((label, argv, ["gz", "ordered", "brute"], size))

    def round_ops(self, k: int):
        for label, argv, engines, size in self.cases:
            def op(argv=argv, entries=len(engines) * size ** 2):
                got = call_cli(argv + ["--format", "json", "--jobs", "1"])
                got["entries"] = entries
                return got
            yield f"compare.{label}", op

    def check(self, rounds: list[list[Result]]) -> dict:
        expected = {f"compare.{label}": (engines, size)
                    for label, _, engines, size in self.cases}
        digests: dict[str, list[str]] = {}
        for results in rounds:
            for res in results:
                _check_rc(res)
                engines, size = expected[res.kind]
                try:
                    report = json.loads(res.payload.get("stdout") or "")
                except json.JSONDecodeError:
                    res.fail("compare output is not JSON")
                    continue
                if report.get("mismatches"):
                    res.fail(f"{len(report['mismatches'])} mismatches")
                if report.get("engines") != engines:
                    res.fail(f"engine set {report.get('engines')} != {engines}")
                if report.get("pairs_checked") != size ** 2:
                    res.fail(f"pairs_checked {report.get('pairs_checked')} != {size ** 2}")
                d = digest(res.payload["stdout"])
                digests.setdefault(res.kind, []).append(d)
                if self.reference is not None and d != self.reference.get(res.kind):
                    res.fail("report digest differs from the stored seed-0 digest")
        return {k: sorted(set(v)) for k, v in digests.items()}

    def extras(self, results: list[Result]) -> dict:
        return {f"compare_s.{label}": statistics.median(
                    r.seconds for r in results if r.kind == f"compare.{label}")
                for label, *_ in self.cases}


# ---------------------------------------------------------------------------
# query-mix
# ---------------------------------------------------------------------------

class QueryMix:
    name = "query-mix"
    why = ("Seeded single-entry restrict queries: each rebuilds the orbit and computes "
           "a column (brute: a table) to read one entry, so orbit set-up, CLI dispatch "
           "and cold theta dominate.")
    # one round is one pass over every (instance, engine) pair, in this order
    combos = (("B3", "gz"), ("B3", "typed"), ("B3", "billey"), ("B3", "brute"),
              ("B3", "ordered"), ("A4", "gz"), ("A4", "typed"), ("A4", "billey"),
              ("D4", "gz"), ("D4", "typed"), ("D4", "billey"))
    # a block is one round per stratum of the cost-sorted pair list: 110
    # queries, so that p90 has at least ten samples above it.  One draw from
    # each of ten strata varies less from seed to seed than two draws from
    # each of five.
    block_rounds = 10

    def prepare(self, seed: int, out_dir: str, reference: dict):
        from gkmrest.orbits import Orbit, OrbitSpec
        self.seed = seed
        self.reference = reference if seed == 0 else None
        self.instances = {}
        for label in ("B3", "A4", "D4"):
            ctype, rank = label[0], int(label[1:])
            mu = draw_mu(seed, ctype, rank)
            # built for drawing pairs and for checking only; timed queries
            # never see this orbit
            orbit = Orbit(OrbitSpec(ctype, rank, mu=mu))
            self.instances[label] = {
                "args": orbit_args(ctype, rank, mu),
                "orbit": orbit,
                "pairs": self._bruhat_pairs(orbit),
            }

    @staticmethod
    def _bruhat_pairs(orbit) -> list[tuple[str, str]]:
        """All (p, q) with q above or equal to p in Bruhat order, sorted by
        the lengths of q and p, which is what a query's cost grows with."""
        above: dict[tuple, set] = {}
        for w in sorted(orbit.elements, key=lambda w: -orbit.length[w.word]):
            up = {w.word}
            for u, _, _ in orbit.covers_up(w):
                up |= above[u.word]
            above[w.word] = up
        length, vid = orbit.length, orbit.vid_of
        return [(vid[p], vid[q]) for p, q in sorted(
            ((p, q) for p, ups in above.items() for q in ups),
            key=lambda pq: (length[pq[1]], length[pq[0]], vid[pq[0]], vid[pq[1]]))]

    def _draw(self, pairs: list, combo: str, k: int, rng: random.Random):
        """A uniformly drawn pair, stratified over each block of rounds:
        every round of a block draws from another tenth of the cost-sorted
        pair list, so each block sees cheap and costly pairs in the same
        proportions whatever the seed."""
        strata = self.block_rounds
        block, j = divmod(k, strata)
        order = random.Random(f"{self.seed}:strata:{block}:{combo}").sample(
            range(strata), strata)
        index = int((order[j] + rng.random()) * len(pairs) / strata)
        return pairs[min(index, len(pairs) - 1)]

    def round_ops(self, k: int):
        rng = random.Random(f"{self.seed}:queries:{k}")
        for label, engine in self.combos:
            inst = self.instances[label]
            p, q = self._draw(inst["pairs"], f"{label}.{engine}", k, rng)
            argv = ["restrict", *inst["args"], "--p", p, "--q", q,
                    "--engine", engine, "--format", "json"]

            def op(argv=argv, label=label, engine=engine, p=p, q=q):
                got = call_cli(argv)
                got.update(entries=1, instance=label, engine=engine, p=p, q=q)
                return got
            yield f"query.{label}.{engine}", op

    def check(self, rounds: list[list[Result]]) -> dict:
        """billey checks the gz, typed, brute and ordered answers; gz checks
        the billey answers."""
        from gkmrest.canonical import single_form_column
        from gkmrest.exact import Poly
        from gkmrest.oracle import billey_restriction
        from gkmrest.orbits import SignedPerm
        billey_memo: dict = {}
        gz_columns: dict = {}
        stream = hashlib.sha256()
        for results in rounds:
            for res in results:
                pl = res.payload
                if res.round < self.block_rounds:
                    stream.update((pl.get("stdout") or "").encode("utf-8"))
                _check_rc(res)
                if res.failure:
                    continue
                orbit = self.instances[pl["instance"]]["orbit"]
                try:
                    answer = json.loads(pl["stdout"])
                    value = Poly.from_json(orbit.od.rank, answer["value"])
                except (json.JSONDecodeError, KeyError, ValueError) as exc:
                    res.fail(f"unreadable answer: {exc}")
                    continue
                if (answer.get("p"), answer.get("q"), answer.get("engine")) != (
                        pl["p"], pl["q"], pl["engine"]):
                    res.fail("answer names another pair or engine")
                    continue
                p, q = pl["p"], pl["q"]
                if pl["engine"] == "billey":
                    key = (pl["instance"], q)
                    if key not in gz_columns:
                        gz_columns[key] = single_form_column(orbit.od, q)
                    expected = gz_columns[key][p]
                else:
                    key = (pl["instance"], p, q)
                    if key not in billey_memo:
                        billey_memo[key] = billey_restriction(
                            orbit.rs, SignedPerm(orbit.word_of_vid[p]),
                            SignedPerm(orbit.word_of_vid[q]))
                    expected = billey_memo[key]
                if value != expected:
                    res.fail(f"{pl['engine']} answer at ({p},{q}) disagrees with the check engine")
        d = stream.hexdigest()
        if self.reference is not None and d != self.reference.get("first_rounds"):
            for results in rounds[:self.block_rounds]:
                for res in results:
                    res.fail("query stream digest differs from the stored seed-0 digest")
        return {"first_rounds_sha256": d}

    def extras(self, results: list[Result]) -> dict:
        ms = sorted(r.seconds * 1000 for r in results)
        deciles = statistics.quantiles(ms, n=10)
        return {"query_p50_ms": statistics.median(ms), "query_p90_ms": deciles[8],
                "query_samples": len(ms),
                "query_samples_above_p90": sum(1 for v in ms if v > deciles[8])}


WORKLOADS = {w.name: w for w in (TableD4, CompareRank3, QueryMix)}
