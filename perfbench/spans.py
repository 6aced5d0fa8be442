"""Per-layer spans, recorded from outside the library.

A span opens around a call into a public function. The function is patched
on the module that calls it (``flagmirror.verify.class_product``), or on the
class for the ``FMinusChart`` methods. The worker is single-threaded, so spans
nest on one stack and a span's self time is its duration minus that of its
direct children. Spans are summed per name in memory: the stalled Gr(2,5)
search alone opens about half a million of them.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

CRIT = "crit.find_critical_points"
ROOTS = ("verify.check_mirror_spectrum", "verify.key_identity_sweep",
         "verify.check_det_formula")

# name -> unit of every per-layer metric, in print order
LAYER_UNITS = {
    "crit.self_s": "s",
    "crit.det_calls": "count",
    "crit.solve_calls": "count",
    "crit.hessians_per_point": "calls/point",
    "crit.points": "count",
    "crit.degenerate_points": "count",
    "crit.mismatch_warnings": "count",
    "mirror.gradient_calls": "count",
    "mirror.gradient_us": "us",
    "mirror.hessian_calls": "count",
    "mirror.hessian_us": "us",
    "mirror.compile_s": "s",
    "qhpartial.c1_spectrum_s": "s",
    "schubring.monk_s": "s",
    "schubring.monk_calls": "count",
    "schubring.qschubert_s": "s",
    "schubring.qschubert_misses": "count",
    "schubring.apply_s": "s",
    "schubring.normal_form_s": "s",
    "schubring.class_product_calls": "count",
    "schubring.class_product_misses": "count",
    "verify.self_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.total = defaultdict(float)   # inclusive seconds per span name
        self.self_time = defaultdict(float)
        self.active = Counter()           # open spans per name
        self.counts = Counter()           # counters that open no span
        self._stack: list[list] = []      # [name, start, seconds in children]

    def _enter(self, name):
        self.calls[name] += 1
        self.active[name] += 1
        self._stack.append([name, time.perf_counter(), 0.0])

    def _exit(self):
        name, start, children = self._stack.pop()
        dt = time.perf_counter() - start
        self.total[name] += dt
        self.self_time[name] += dt - children
        self.active[name] -= 1
        if self._stack:
            self._stack[-1][2] += dt

    def patch(self, owner, attr, name):
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()

        setattr(owner, attr, traced)

    def patch_counter(self, owner, attr, name, while_open):
        """Count the calls made while a span named ``while_open`` is open,
        without a span of their own: these calls are too hot for one."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.active[while_open]:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        setattr(owner, attr, counted)

    def table(self):
        """Rows (name, calls, inclusive s, self s), slowest first."""
        return sorted(((n, self.calls[n], self.total[n], self.self_time[n])
                       for n in self.calls), key=lambda row: -row[2])


def install():
    """Patch every layer boundary the benchmark measures; returns the tracer
    and the memoised functions whose ``cache_info`` gives the misses."""
    import numpy.linalg

    from flagmirror import crit, mirror, schubring, verify

    memo = {"qschubert": schubring.quantum_schubert,
            "class_product": schubring.class_product}
    tr = Tracer()
    for name in ROOTS:
        tr.patch(verify, name.split(".")[1], name)
    tr.patch(verify, "c1_spectrum", "qhpartial.c1_spectrum")
    tr.patch(verify, "find_critical_points", CRIT)
    tr.patch(verify, "class_product", "schubring.class_product")
    tr.patch(verify, "normal_form", "schubring.normal_form")
    tr.patch(verify, "quantum_H", "schubring.quantum_H")
    tr.patch(crit, "f_minus_chart", "mirror.f_minus_chart")
    tr.patch(crit, "toeplitz_residual", "crit.toeplitz_residual")
    for method in ("value", "gradient", "hessian", "term_values"):
        tr.patch(mirror.FMinusChart, method, f"mirror.{method}")
    tr.patch(schubring, "monk_operators", "schubring.monk_operators")
    tr.patch(schubring, "quantum_schubert", "schubring.quantum_schubert")
    tr.patch(schubring, "apply_polynomial", "schubring.apply_polynomial")
    tr.patch_counter(numpy.linalg, "det", "crit.det_calls", CRIT)
    tr.patch_counter(numpy.linalg, "solve", "crit.solve_calls", CRIT)
    return tr, memo


def layer_metrics(tr: Tracer, memo, crit_counts, wall_s) -> dict:
    """Every per-layer metric except ``trace.overhead_s``, which needs the
    untraced runs and is filled in by the runner."""
    calls, total = tr.calls, tr.total

    def mean_us(name):
        return 1e6 * total[name] / calls[name] if calls[name] else 0.0

    mult = crit_counts["multiplicity"]
    return {
        # the direct children of the search are its mirror calls and
        # toeplitz_residual, so its self time is the Toeplitz multistart,
        # chart lift, dedupe and local-degree bookkeeping
        "crit.self_s": tr.self_time[CRIT],
        "crit.det_calls": tr.counts["crit.det_calls"],
        "crit.solve_calls": tr.counts["crit.solve_calls"],
        "crit.hessians_per_point": calls["mirror.hessian"] / mult if mult else 0.0,
        "crit.points": crit_counts["points"],
        "crit.degenerate_points": crit_counts["degenerate_points"],
        "crit.mismatch_warnings": crit_counts["mismatch_warnings"],
        "mirror.gradient_calls": calls["mirror.gradient"],
        "mirror.gradient_us": mean_us("mirror.gradient"),
        "mirror.hessian_calls": calls["mirror.hessian"],
        "mirror.hessian_us": mean_us("mirror.hessian"),
        "mirror.compile_s": total["mirror.f_minus_chart"],
        "qhpartial.c1_spectrum_s": total["qhpartial.c1_spectrum"],
        "schubring.monk_s": total["schubring.monk_operators"],
        "schubring.monk_calls": calls["schubring.monk_operators"],
        "schubring.qschubert_s": total["schubring.quantum_schubert"],
        "schubring.qschubert_misses": memo["qschubert"].cache_info().misses,
        "schubring.apply_s": total["schubring.apply_polynomial"],
        "schubring.normal_form_s": total["schubring.normal_form"],
        "schubring.class_product_calls": calls["schubring.class_product"],
        "schubring.class_product_misses": memo["class_product"].cache_info().misses,
        "verify.self_s": sum(tr.self_time[r] for r in ROOTS),
        "trace.unattributed_s": wall_s - sum(total[r] for r in ROOTS),
    }
