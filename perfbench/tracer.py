"""Layer tracer that wraps gkmrest from outside the package.

Every public function of the six timed modules (cli, orbits, gkm,
canonical, fibration, oracle) and a few class methods are replaced by
timing wrappers, in every gkmrest module that holds a binding to them, so
names imported with ``from .x import f`` are traced too.  The exact core
(``gkmrest.exact``) is not timed: its polynomial operations are counted,
and their results feed two high-water marks.

Spans stay in memory (name, start, end, parent span, operation id) and are
written out once, when the run ends.  Two hot functions, ``magnitude`` and
``OrientedGraphData.theta``, are called once per DP edge; they are
aggregated into per-name totals without a span record of their own, which
keeps the span list to a few tens of thousands per workload round.

While installed, the tracer also checks that no ``Orbit`` built outside the
current timed operation is used inside it, because an orbit carries caches
(typed columns, fiber orbits, paired sums, theta) that a CLI user never
finds warm.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
import weakref
from collections import defaultdict

TIMED_MODULES = ("cli", "orbits", "gkm", "canonical", "fibration", "oracle")

# class methods traced in addition to the module-level public functions
METHODS = {
    "orbits": {"Orbit": ("__init__", "tower", "base_od", "base_fibration")},
    "gkm": {"GkmGraph": ("__init__", "from_json"),
            "OrientedGraphData": ("__init__", "theta")},
    "canonical": {"RestrictionTable": ("to_json",)},
    "fibration": {"TowerSpec": ("__init__", "validate"),
                  "FibrationSpec": ("__init__", "fiber_over")},
}

HOT = frozenset({"gkm.magnitude", "gkm.OrientedGraphData.theta"})

# spans named per engine, from the argument at this position
SPLIT_BY_ARG = {"oracle.engine_entries": 1}

# exact-core operations counted (not timed): counter name -> Poly method
POLY_COUNTED = {
    "exact.mul_calls": "__mul__",
    "exact.add_calls": "__add__",
    "exact.mul_weight_calls": "mul_weight",
    "exact.div_weight_calls": "div_weight",
    "exact.div_exact_calls": "div_exact",
    "exact.restrict_zero_calls": "restrict_zero",
    "exact.substitute_calls": "substitute",
}
LINFRAC_SUM = "exact.linfrac_sum_calls"

# named per-function metrics: metric stem -> traced span name
NAMED = {
    "orbits.orbit_init": "orbits.Orbit.__init__",
    "orbits.build_orbit_gkm": "orbits.build_orbit_gkm",
    "orbits.typed_column": "orbits.typed_column",
    "orbits.formula_AC": "orbits.formula_AC",
    "orbits.relevant_path_terms": "orbits.relevant_path_terms",
    "gkm.oriented_init": "gkm.OrientedGraphData.__init__",
    "gkm.theta": "gkm.OrientedGraphData.theta",
    "gkm.magnitude": "gkm.magnitude",
    "gkm.validate": "gkm.validate_gkm",
    "gkm.generic_xi": "gkm.choose_generic_xi",
    "canonical.gz_column": "canonical.single_form_column",
    "canonical.brute_row": "canonical.brute_row",
    "canonical.ordered": "canonical.restriction_ordered",
    "canonical.certify": "canonical.certify_table",
    "canonical.to_json": "canonical.RestrictionTable.to_json",
    "fibration.tower_restriction": "fibration.tower_restriction",
    "oracle.billey": "oracle.billey_restriction",
    "oracle.compare_tables": "oracle.compare_tables",
}


def _public_functions(mod):
    for name, obj in sorted(vars(mod).items()):
        if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                and not name.startswith("_")):
            yield name, obj


def _coeff_bits(c) -> int:
    if type(c) is int:
        return c.bit_length()
    return max(c.numerator.bit_length(), c.denominator.bit_length())


class Tracer:
    """Owns the wrappers, the span list, the per-name totals and the
    exact-core counters of one traced run."""

    def __init__(self):
        self.spans: list = []          # [name, start, end, parent, op]
        self.calls = defaultdict(int)
        self.inclusive = defaultdict(float)   # outermost calls of a name only
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.max_terms = 0
        self.max_coeff_bits = 0
        self.theta_distinct = 0
        self.orbit_violations: list[tuple[int | None, str]] = []
        self.op = None
        self._stack: list = []          # frames [name, start, child, span_id]
        self._depth = defaultdict(int)
        self._orbit_op = weakref.WeakKeyDictionary()
        self._restore: list = []
        self._orbit_cls = None
        self._t0 = time.perf_counter()

    # -- operations --------------------------------------------------------

    def begin_op(self, op_id: int):
        self.op = op_id

    def end_op(self):
        self.op = None

    # -- wrappers ----------------------------------------------------------

    def _timed(self, name: str, fn):
        tracer = self
        stack = self._stack
        spans = self.spans
        depth = self._depth
        hot = name in HOT
        checks_orbit = not name.endswith(".__init__")
        split = SPLIT_BY_ARG.get(name)
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            if checks_orbit and args and isinstance(args[0], tracer._orbit_cls):
                tracer._check_orbit(args[0], name)
            cur = name if split is None else f"{name}[{args[split]}]"
            parent = None
            for frame in reversed(stack):
                if frame[3] is not None:
                    parent = frame[3]
                    break
            span_id = None
            if not hot:
                span_id = len(spans)
                spans.append(None)
            frame = [cur, perf(), 0.0, span_id]
            stack.append(frame)
            depth[cur] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                depth[cur] -= 1
                dur = end - frame[1]
                tracer.calls[cur] += 1
                tracer.self_time[cur] += dur - frame[2]
                if depth[cur] == 0:
                    tracer.inclusive[cur] += dur
                if stack:
                    stack[-1][2] += dur
                if span_id is not None:
                    spans[span_id] = [cur, frame[1] - tracer._t0,
                                      end - tracer._t0, parent, tracer.op]

        wrapper.__wrapped__ = fn
        return wrapper

    def _check_orbit(self, orbit, name: str):
        if self.op is None or self._orbit_op.get(orbit) != self.op:
            self.orbit_violations.append((self.op, name))

    def _orbit_init(self, fn):
        tracer = self

        def __init__(orbit, *args, **kwargs):
            tracer._orbit_op[orbit] = tracer.op
            return fn(orbit, *args, **kwargs)

        return __init__

    def _theta_probe(self, fn):
        tracer = self

        def theta(od, p, q):
            if (p, q) not in od._theta_cache:
                tracer.theta_distinct += 1
            return fn(od, p, q)

        return theta

    def _observe(self, poly):
        terms = poly.terms
        if len(terms) > self.max_terms:
            self.max_terms = len(terms)
        if terms:
            bits = max(map(_coeff_bits, terms.values()))
            if bits > self.max_coeff_bits:
                self.max_coeff_bits = bits

    def _counted(self, counter: str, fn):
        tracer = self
        counts = self.counts

        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            counts[counter] += 1
            tracer._observe(out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- install / uninstall ----------------------------------------------

    def _rebind_everywhere(self, original, replacement):
        """Replace every binding of `original` in every gkmrest module."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "gkmrest" or mod_name.startswith("gkmrest.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._restore.append((mod, attr, original))

    def _replace_method(self, cls, attr, replacement):
        self._restore.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def install(self):
        """Wrap the public functions of the timed modules, the listed class
        methods, and the counted exact-core operations."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        import gkmrest.exact as exact
        import gkmrest.orbits as orbits
        self._orbit_cls = orbits.Orbit
        mods = {m: sys.modules[f"gkmrest.{m}"] for m in TIMED_MODULES}
        for layer, mod in mods.items():
            for name, fn in list(_public_functions(mod)):
                self._rebind_everywhere(fn, self._timed(f"{layer}.{name}", fn))
        for layer, classes in METHODS.items():
            for cls_name, attrs in classes.items():
                cls = getattr(mods[layer], cls_name)
                for attr in attrs:
                    raw = cls.__dict__[attr]
                    fn = raw.__func__ if isinstance(raw, classmethod) else raw
                    if cls_name == "Orbit" and attr == "__init__":
                        fn = self._orbit_init(fn)
                    if cls_name == "OrientedGraphData" and attr == "theta":
                        fn = self._theta_probe(fn)
                    wrapped = self._timed(f"{layer}.{cls_name}.{attr}", fn)
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(wrapped)
                    self._replace_method(cls, attr, wrapped)
        for counter, attr in POLY_COUNTED.items():
            self._replace_method(exact.Poly, attr,
                                 self._counted(counter, exact.Poly.__dict__[attr]))
        self._rebind_everywhere(exact.linfrac_sum_to_poly,
                                self._counted(LINFRAC_SUM, exact.linfrac_sum_to_poly))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def layer_self(self, layer: str) -> float:
        prefix = layer + "."
        return sum(t for name, t in self.self_time.items() if name.startswith(prefix))

    def metrics(self) -> dict[str, float | int]:
        """Every per-layer figure the tracer can give, by metric name."""
        out: dict[str, float | int] = {}
        for stem, name in NAMED.items():
            out[f"{stem}_s"] = self.inclusive.get(name, 0.0)
            out[f"{stem}_calls"] = self.calls.get(name, 0)
        out["canonical.gz_column_self_s"] = self.self_time.get(
            NAMED["canonical.gz_column"], 0.0)
        out["gkm.theta_distinct"] = self.theta_distinct
        for layer in TIMED_MODULES:
            out[f"{layer}.self_s"] = self.layer_self(layer)
        for counter in list(POLY_COUNTED) + [LINFRAC_SUM]:
            out[counter] = self.counts.get(counter, 0)
        out["exact.max_terms"] = self.max_terms
        out["exact.max_coeff_bits"] = self.max_coeff_bits
        return out

    def write_spans(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

