"""gkmrest benchmark: one command, three workloads, one process per run.

    python3 perfbench/run.py --workload table-d4 --seed 0 --seconds 30 --trace 0

Run it from the root of a gkmrest checkout; it imports the package from
``src/``.  With ``--trace 0`` it measures the workload for about
``--seconds`` seconds in whole blocks of rounds (at least one block) and
prints the end-to-end metrics, with times scaled to a reference machine
speed (see ``Speedometer``).  With ``--trace 1`` it runs one block twice,
first untraced and then with the layer tracer installed, and
prints the per-layer metrics; the difference of the two round times is the
tracing overhead.  Every operation's output is checked after the timed
loop.

The second-to-last line of standard output is a report (machine, reasons,
per-operation medians, the full per-layer table, digests, failures); the
last line is the result object.  Both are also written under
``perfbench/out/``, with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# set-up is repeated at least this many times and for at least this long;
# setup_s is the median, at reference speed
SETUP_REPS = 7
SETUP_MIN_SECONDS = 2.0

# while set-up and the timed operations run, a fixed stdlib kernel runs
# every TICK_S seconds; CAL_REF_S is the kernel's time at reference speed
TICK_S = 0.25
CAL_REF_S = 0.010

# which end-to-end metric each layer should move, and on which workload
LAYER_MAP = {
    "orbits": "orbit build -> setup_s and ref_wall_s on query-mix; typed -> table_s.typed on table-d4",
    "gkm": "theta -> table_s.gz on table-d4 and query_p50_ms on query-mix; validate/xi -> compare_s.<graph> on compare-rank3",
    "canonical": "gz/brute/certify -> table_s.* and certify_s on table-d4; ordered -> ref_wall_s on compare-rank3; brute -> query_p90_ms on query-mix",
    "fibration": "tower -> ref_wall_s on compare-rank3",
    "oracle": "billey and compare_tables -> ref_wall_s on compare-rank3, query_p50_ms on query-mix",
    "cli": "parsing, vertex resolution, json.dumps -> table_s.* on table-d4, query_p50_ms on query-mix",
    "exact": "operation counts -> every metric on every workload; they repeat exactly",
}


def machine_info() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "cpu_model": cpu}


def fresh_import():
    """Drop every loaded gkmrest module and import the package again, so
    each set-up repetition pays the import."""
    for name in [n for n in sys.modules if n == "gkmrest" or n.startswith("gkmrest.")]:
        del sys.modules[name]
    pkg = importlib.import_module("gkmrest")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"gkmrest imported from {pkg.__file__}, not from {SRC}")
    return pkg


def speed_kernel() -> Fraction:
    """A fixed piece of pure-Python work shaped like gkmrest's (tuple-keyed
    dicts, sorting, Fraction arithmetic) that uses no gkmrest code, so a
    change to the package cannot change it.  It holds little memory at a
    time, so that landing inside an operation barely moves peak RSS."""
    total = Fraction(0)
    for _ in range(5):
        table = {}
        for i in range(1000):
            table[(i % 97, i % 89, i)] = [i, str(i)]
        sorted(table, key=lambda key: (key[2] % 13, key))
        for i in range(1, 80):
            total += Fraction(len(table[(i % 97, i % 89, i)][1]), i) * Fraction(i + 1, 3)
    return total


def time_kernel() -> float:
    """Time one kernel call with the garbage collector off: the kernel makes
    no cycles, and a collection of the workload's heap that its allocations
    set off would be charged to the sample."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        speed_kernel()
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


class Speedometer:
    """Samples the machine's speed while set-up and operations run.

    A shared VM's speed drifts by 10-20 % over minutes, far more than a
    30-second mean of one workload varies otherwise.  Inside ``with``, a
    timer interrupts the program every TICK_S seconds and times one call of
    the kernel.  That time is taken out of the interrupted operation's time
    (``stolen``), and the mean kernel time over a phase gives the phase's
    speed factor.  No thread or process is started: the handler runs in the
    main thread, between bytecodes."""

    def __init__(self):
        self.samples: list[float] = []
        self.stolen = 0.0

    def _tick(self, signum, frame):
        dt = time_kernel()
        self.samples.append(dt)
        self.stolen += dt

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, first: int = 0) -> float:
        """Seconds at reference speed per second measured, from the samples
        taken since sample number ``first``."""
        return CAL_REF_S / statistics.mean(self.samples[first:] or [time_kernel()])


def run_round(workload, k: int, op_ids, tracer=None, speed=None):
    from workloads import Result
    results = []
    for kind, fn in workload.round_ops(k):
        gc.collect()
        res = Result(kind=kind, round=k, op=next(op_ids))
        if tracer is not None:
            tracer.begin_op(res.op)
        stolen = speed.stolen if speed is not None else 0.0
        t0 = time.perf_counter()
        try:
            res.payload = fn()
        except Exception:  # an operation that raises is a failed operation
            res.failure = traceback.format_exc(limit=3).strip().splitlines()[-1]
        res.seconds = time.perf_counter() - t0
        if speed is not None:
            res.seconds -= speed.stolen - stolen
        if tracer is not None:
            tracer.end_op()
        res.entries = res.payload.get("entries", 0)
        results.append(res)
    return results


def run_block(workload, first: int, op_ids, tracer=None, speed=None) -> list:
    """One block: the rounds that together cover the workload's input mix."""
    return [run_round(workload, k, op_ids, tracer, speed)
            for k in range(first, first + workload.block_rounds)]


def run_measured(workload, seconds: float, op_ids, speed) -> list:
    """Whole blocks until the next one would end past the deadline, and at
    least one, so every run weighs the input mix alike."""
    rounds, block_times = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rounds += run_block(workload, len(rounds), op_ids, speed=speed)
        block_times.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(block_times) > seconds:
            return rounds


def round_wall(rounds) -> float:
    """Mean round time: total operation time over the number of rounds."""
    return sum(r.seconds for rnd in rounds for r in rnd) / len(rounds)


def main(argv=None) -> int:
    from workloads import WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "gkmrest", "__init__.py")):
        print(f"error: no gkmrest package under {SRC}; run from a gkmrest checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    machine = machine_info()
    load_start = os.getloadavg()

    workload = WORKLOADS[args.workload]()
    speed = Speedometer()
    setup_times = []
    with speed:
        while len(setup_times) < SETUP_REPS or sum(setup_times) < SETUP_MIN_SECONDS:
            stolen, t0 = speed.stolen, time.perf_counter()
            fresh_import()
            workload.prepare(args.seed, OUT, reference.get(workload.name, {}))
            setup_times.append(time.perf_counter() - t0 - (speed.stolen - stolen))
    setup_factor, first_sample = speed.factor(), len(speed.samples)

    op_ids = iter(range(1, 1 << 30))
    report: dict = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
                    "why": workload.why, "layer_map": LAYER_MAP, "machine": machine}
    if args.trace:
        from tracer import Tracer
        untraced = run_block(workload, 0, op_ids)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_block(workload, 0, op_ids, tracer)
        finally:
            tracer.uninstall()
        portions = [untraced, traced]
    else:
        with speed:
            portions = [run_measured(workload, args.seconds, op_ids, speed)]
        run_factor = speed.factor(first_sample)

    report["digests"] = [workload.check(rounds) for rounds in portions]
    results = [r for rounds in portions for rnd in rounds for r in rnd]
    if args.trace:
        by_op = {r.op: r for r in results}
        for op, name in tracer.orbit_violations:
            if op in by_op:
                by_op[op].fail(f"{name} used an Orbit built outside this operation")
    failures = [f"round {r.round} {r.kind}: {r.failure}" for r in results if r.failure]
    attempted, failed = len(results), sum(1 for r in results if r.failure)

    if args.trace:
        layer = tracer.metrics()
        traced_wall, untraced_wall = round_wall(traced), round_wall(untraced)
        report.update({
            "per_layer_all": layer,
            "table_s_by_engine": {name.split("[")[1].rstrip("]"): t
                                  for name, t in tracer.inclusive.items()
                                  if name.startswith("oracle.engine_entries[")},
            "wall_s_traced": traced_wall, "wall_s_untraced": untraced_wall,
            "trace_overhead_s": traced_wall - untraced_wall,
            "orbit_reuse_violations": len(tracer.orbit_violations),
            "spans": len(tracer.spans),
        })
        tracer.write_spans(os.path.join(
            OUT, f"spans-{workload.name}-seed{args.seed}.jsonl"))
        metrics = {m["name"]: {"value": layer[m["name"]], "unit": m["unit"]}
                   for m in declared["per_layer"]}
        correct = failed == 0 and not tracer.orbit_violations
    else:
        (rounds,) = portions
        entries_per_s = sum(r.entries for r in results) / sum(r.seconds for r in results)
        values = {
            "setup_s": statistics.median(setup_times) * setup_factor,
            "ref_wall_s": round_wall(rounds) * run_factor,
            "ref_entries_per_s": entries_per_s / run_factor,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        report.update({
            "setup_s_raw": statistics.median(setup_times),
            "wall_s": round_wall(rounds), "entries_per_s": entries_per_s,
            "speed_factor_setup": setup_factor, "speed_factor_run": run_factor,
            "speed_samples": len(speed.samples), "speed_kernel_total_s": speed.stolen,
        })
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in declared["end_to_end"]}
        report.update(workload.extras(results))
        report["rounds"] = len(rounds)
        correct = failed == 0

    report.update({"setup_s_all": setup_times, "attempted": attempted, "failed": failed,
                   "failed_frac": failed / attempted, "failures": failures[:20]})
    report["machine"]["loadavg_start"] = load_start
    report["machine"]["loadavg_end"] = os.getloadavg()
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump({"report": report, "result": result}, fh, indent=1, sort_keys=True)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
