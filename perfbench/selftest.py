"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py [--workload query-mix] [--seed 1]

1. The tracer wraps every binding of a traced function, including the
   names imported into other modules, and restores them all.
2. The orbit guard flags an ``Orbit`` reused across timed operations, and
   stays quiet for operations that build their own.
3. Two traced runs with the same seed (in two processes, so with two string
   hash seeds) give identical exact-core counts, ``*_calls`` counts and
   ``gkm.theta_distinct``.

Exits 0 when every check passes.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from tracer import Tracer  # noqa: E402
from workloads import call_cli  # noqa: E402


def check_bindings() -> list[str]:
    import gkmrest.canonical as canonical
    import gkmrest.cli as cli
    import gkmrest.exact as exact
    import gkmrest.fibration as fibration
    import gkmrest.gkm as gkm
    import gkmrest.oracle as oracle
    import gkmrest.orbits as orbits
    required = [(gkm, "magnitude"), (canonical, "magnitude"), (fibration, "magnitude"),
                (exact, "linfrac_sum_to_poly"), (canonical, "linfrac_sum_to_poly"),
                (fibration, "linfrac_sum_to_poly"), (orbits, "linfrac_sum_to_poly"),
                (oracle, "engine_entries"), (cli, "engine_entries")]
    before = {(m.__name__, name): getattr(m, name) for m, name in required}
    problems = []
    tracer = Tracer()
    tracer.install()
    try:
        for mod, name in required:
            if not hasattr(getattr(mod, name), "__wrapped__"):
                problems.append(f"{mod.__name__}.{name} is not wrapped")
        originals = {id(getattr(m, n).__wrapped__) for m, n in required
                     if hasattr(getattr(m, n), "__wrapped__")}
        for mod in (canonical, cli, exact, fibration, gkm, oracle, orbits):
            for attr, value in vars(mod).items():
                if id(value) in originals:
                    problems.append(f"{mod.__name__}.{attr} still holds the unwrapped function")
    finally:
        tracer.uninstall()
    for (mod_name, name), fn in before.items():
        if getattr(sys.modules[mod_name], name) is not fn:
            problems.append(f"{mod_name}.{name} was not restored")
    return problems


def check_orbit_guard() -> list[str]:
    from gkmrest.orbits import Orbit, OrbitSpec, typed_table
    problems = []
    tracer = Tracer()
    tracer.install()
    try:
        for op in (1, 2):
            tracer.begin_op(op)
            got = call_cli(["restrict", "--type", "B", "--rank", "2", "--p", "-2,-1",
                            "--q", "2,1", "--engine", "typed"])
            tracer.end_op()
            if got["rc"] != 0:
                problems.append(f"restrict failed: {got['stderr']}")
        if tracer.orbit_violations:
            problems.append(f"false alarm: {tracer.orbit_violations}")
        tracer.begin_op(3)
        orbit = Orbit(OrbitSpec("B", 2))
        tracer.end_op()
        tracer.begin_op(4)
        typed_table(orbit)
        tracer.end_op()
        if not any(op == 4 for op, _ in tracer.orbit_violations):
            problems.append("an Orbit reused across operations went unnoticed")
    finally:
        tracer.uninstall()
    return problems


def traced_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    report = json.loads(proc.stdout.splitlines()[-2])
    return {k: v for k, v in report["per_layer_all"].items()
            if k.startswith("exact.") or k.endswith("_calls") or k == "gkm.theta_distinct"}


def check_counts_repeat(workload: str, seed: int) -> list[str]:
    first, second = traced_counts(workload, seed), traced_counts(workload, seed)
    return [f"{k}: {first[k]} then {second.get(k)}" for k in sorted(first)
            if first[k] != second.get(k)]


def main() -> int:
    ap = argparse.ArgumentParser(description="benchmark self-tests")
    ap.add_argument("--workload", default="query-mix")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    failed = False
    for label, fn in (("bindings", check_bindings),
                      ("orbit guard", check_orbit_guard),
                      ("counts repeat", lambda: check_counts_repeat(args.workload, args.seed))):
        problems = fn()
        print(f"{'FAIL' if problems else 'ok'}: {label}")
        for p in problems:
            print(f"  {p}")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
