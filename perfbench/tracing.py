"""Spans recorded from outside the program, and the per-layer metrics
derived from them.

``install`` replaces every public function of the layers ``maps``,
``hardy``, ``spectrum``, ``verifier`` and ``cli`` with a timing
wrapper, on the module object.  Calls inside a module resolve through
its globals and calls across modules through the module attribute, so
both reach the wrapper.  ``mp.svd_c`` is wrapped as the layer
``mpmath``.  Private helpers are not wrapped: their time is the self
time of the public function that called them.

Spans stay in memory while the call runs and are written out after it.
"""

import functools
import importlib
import inspect
import json
import math
import time

from workloads import SUITES

LAYERS = ("maps", "hardy", "spectrum", "verifier", "cli")


def _size(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is not None:
        return int(math.prod(shape))
    return len(x) if hasattr(x, "__len__") else 1


def _column_gram_counts(a, result):
    # Computed from the arguments, not counted: the real flops of the
    # M_j^H M_j products and the bytes of those operands plus the Gram.
    d, q = a["spec"].max_degree, a["spec"].quad_points
    widths = [(d + 1) * (d + 1 - j) for j in range(d + 1)]
    order = (d + 1) ** 2
    return {"gram_order": order,
            "flops": sum(8 * q * n * n for n in widths),
            "bytes": sum(16 * q * n for n in widths) + 16 * order * order}


def _gram_values_counts(a, result):
    floor = 10.0 * result.tail_bound
    values = result.values
    return {"useful": int((values > floor).sum()), "computed": len(values)}


def _fit_decay_counts(a, result):
    exp, size = a["schedule_exponent"], len(a["spectrum"])
    admissible = {int(n) for n in a["n_range"]
                  if n >= 1 and int(n) ** exp <= size}
    return {"usable_points": len(result.usable_n),
            "admissible_points": len(admissible)}


def _report_counts(a, result):
    return {"violations": len(result.violations)}


# Counts taken at a layer boundary from the call's arguments (bound to
# parameter names) and its result.
COUNTERS = {
    "maps.cusp_on_circle": lambda a, r: {"points": _size(a["t"])},
    "maps.cusp_values": lambda a, r: {"points": _size(a["z"])},
    "hardy.symbol_boundary_data": lambda a, r: {"nodes": _size(a["t1"])},
    "hardy.column_gram": _column_gram_counts,
    "spectrum.gram_values": _gram_values_counts,
    "spectrum.fit_decay": _fit_decay_counts,
}
COUNTERS.update({"verifier.check_" + s: _report_counts for s in SUITES})


class Tracer:
    """Records one span per wrapped call: name, start, end, parent span
    index, plus any counts, all sharing the tracer's run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # [name, parent, start, end, counts]
        self._stack = []

    def wrap(self, name, func):
        counter = COUNTERS.get(name)
        signature = inspect.signature(func) if counter else None
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[4] = counter(bound.arguments, result)
            return result

        return traced

    def install(self) -> None:
        for layer in LAYERS:
            module = importlib.import_module("cuspdecay." + layer)
            for attr, obj in list(vars(module).items()):
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    setattr(module, attr,
                            self.wrap("%s.%s" % (layer, attr), obj))
        from mpmath import mp
        mp.svd_c = self.wrap("mpmath.svd_c", mp.svd_c)

    def dump(self, path: str, t0: float, t1: float) -> None:
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "start": t0, "end": t1,
                       "spans": [[self.run_id] + s for s in self.spans]}, fh)


def analyse(trace: dict) -> dict:
    """Inclusive time, calls and counts per span name, and self time per
    layer.  Self time of a span is its duration minus its children's;
    spans run one at a time, so children never overlap.  Inclusive time
    of a name skips spans nested in a span of the same name."""
    spans = [s[1:] for s in trace["spans"]]
    wall = trace["end"] - trace["start"]
    inclusive, calls, counts, own, self_layer = {}, {}, {}, {}, {}
    child_time = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    top = 0.0
    for i, (name, parent, start, end, cnt) in enumerate(spans):
        dur = end - start
        layer = name.split(".", 1)[0]
        own[name] = own.get(name, 0.0) + dur - child_time[i]
        self_layer[layer] = self_layer.get(layer, 0.0) + dur - child_time[i]
        calls[name] = calls.get(name, 0) + 1
        if parent < 0:
            top += dur
        p, nested = parent, False
        while p >= 0 and not nested:
            nested = spans[p][0] == name
            p = spans[p][1]
        if not nested:
            inclusive[name] = inclusive.get(name, 0.0) + dur
        for key, val in (cnt or {}).items():
            counts.setdefault(name, {})
            counts[name][key] = counts[name].get(key, 0) + val
    self_layer["bench"] = wall - top
    return {"wall_s": wall, "spans": len(spans), "inclusive": inclusive,
            "calls": calls, "counts": counts, "own": own, "self": self_layer}


def layer_metrics(a: dict) -> dict:
    """The per-layer metrics of one traced call, by benchmark name."""
    inc, calls, cnt = a["inclusive"], a["calls"], a["counts"]

    def s(name):
        return inc.get(name, 0.0)

    def c(name, key):
        return cnt.get(name, {}).get(key, 0)

    m = {}
    for name in ("maps.build_params", "maps.cusp_on_circle", "maps.cusp_mp",
                 "maps.cusp_values", "maps.cusp_from_gap",
                 "maps.cusp_near_one", "maps.cusp_taylor_mp",
                 "hardy.symbol_boundary_data", "hardy.column_gram",
                 "spectrum.gram_values", "spectrum.one_dim_plateau",
                 "cli.load_config", "cli.resolve_params"):
        m[name + ".s"] = s(name)
    m["maps.cusp_mp.calls"] = calls.get("maps.cusp_mp", 0)
    m["maps.cusp_on_circle.points"] = c("maps.cusp_on_circle", "points")
    m["maps.cusp_values.points"] = c("maps.cusp_values", "points")
    m["hardy.symbol_boundary_data.nodes"] = c("hardy.symbol_boundary_data",
                                              "nodes")
    for key in ("gram_order", "flops", "bytes"):
        m["hardy.column_gram." + key] = c("hardy.column_gram", key)
    computed = c("spectrum.gram_values", "computed")
    m["spectrum.gram_values.useful_ratio"] = (
        c("spectrum.gram_values", "useful") / computed if computed else 0.0)
    for key in ("usable_points", "admissible_points"):
        m["spectrum.fit_decay." + key] = c("spectrum.fit_decay", key)
    m["spectrum.plateau.svd_s"] = s("mpmath.svd_c")
    # one_dim_plateau's own time: the O(N^3) mpf column build, outside
    # the SVD, the Taylor coefficients and the sup bound it calls
    m["spectrum.plateau.build_s"] = a["own"].get("spectrum.one_dim_plateau",
                                                 0.0)
    for suite in SUITES:
        name = "verifier.check_" + suite
        m["verifier.%s.s" % suite] = s(name)
        m["verifier.%s.violations" % suite] = c(name, "violations")
    for layer in LAYERS + ("mpmath", "bench"):
        m["layer.%s.self_s" % layer] = a["self"].get(layer, 0.0)
    m["trace.spans"] = a["spans"]
    return m
