"""One benchmark pass: a fresh, single-threaded process that imports
flagmirror, runs one workload once, checks every verdict and prints one JSON
line. ``run.py`` starts it; it is not meant to be run by hand.

The process is fresh on purpose: the in-memory caches (the ``lru_cache``s on
``quantum_schubert``, ``class_product``, ``_slice_expander``, ``partial_ring``
and ``f_minus_chart``, and ``_monk_memory``) fill during every CLI invocation,
so filling them is part of the timed pass.
"""

import argparse
import json
import os
import random
import resource
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import scipy

from flagmirror import verify
from flagmirror.combinat import FlagShape
from flagmirror.crit import CritConfig
from flagmirror.schubring import monk_operators

import spans

ROOT = Path(__file__).resolve().parent.parent

# Shapes of the paper's desk sweep (the acceptance shapes without Gr(2,5)).
DESK_SHAPES = ("1;2", "1;3", "2;4", "1,2;3", "1,2;4", "1,3;4", "1,2,3;4")
DESK_PERTURBED_FIBERS = 2
KEY_SWEEP_N, KEY_SWEEP_INSTANCES = 8, 303
DET_COUNTS = {2: 2, 3: 5, 4: 14, 5: 42}  # 321-avoiding permutations of S_n
TOEPLITZ_TOL = 1e-7


class Tally:
    """Checks attempted and failed in one pass. A failure is counted; it
    never aborts the pass."""

    def __init__(self, inject_fault=False):
        self.attempted = 0
        self.failures = []
        self.inject_fault = inject_fault
        self.crit = {"points": 0, "degenerate_points": 0, "multiplicity": 0,
                     "mismatch_warnings": 0}

    def check(self, label, ok, detail):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{label}: {detail}")

    def want(self, count):
        """An expected count; with an injected fault the first one is off by one."""
        if self.inject_fault:
            self.inject_fault = False
            return count + 1
        return count

    def guarded(self, label, fn):
        """``fn()``, or None after counting a raised error as a failed check."""
        try:
            return fn()
        except Exception as exc:  # any error is a failed verdict, not an aborted run
            self.check(label, False, f"raised {type(exc).__name__}: {exc}")
            return None


def check_mirror(tally, shape_str, q, seed):
    """Pass only when the spectra match, the total multiplicity is the
    Schubert-basis size and every Toeplitz residual is below TOEPLITZ_TOL."""
    shape = FlagShape.from_string(shape_str)
    label = f"{shape_str} at q=({', '.join(f'{complex(v):.3f}' for v in q)})"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rep = tally.guarded(label, lambda: verify.check_mirror_spectrum(
            shape, q, CritConfig(seed=seed)))
    tally.crit["mismatch_warnings"] += sum(
        "total multiplicity" in str(w.message) for w in caught)
    if rep is None:
        return
    mult = sum(p.multiplicity for p in rep.points)
    resid = max((p.toeplitz_residual for p in rep.points), default=float("inf"))
    want = tally.want(shape.basis_size)
    tally.crit["points"] += len(rep.points)
    tally.crit["degenerate_points"] += sum(p.multiplicity > 1 for p in rep.points)
    tally.crit["multiplicity"] += mult
    tally.check(label, rep.passed and mult == want and resid < TOEPLITZ_TOL,
                f"passed={rep.passed} multiplicity={mult} (want {want}) "
                f"max toeplitz residual={resid:.2e}")


def perturbed_fiber(rng, r):
    """A fiber with |q_j - 1| < 0.3, drawn as in acceptance criterion 5."""
    return [1.0 + 0.29 * rng.random() ** 0.5 * np.exp(2j * np.pi * rng.random())
            for _ in range(r)]


def mirror_desk(seed, tally):
    rng = random.Random(seed)
    for sstr in DESK_SHAPES:
        r = FlagShape.from_string(sstr).r
        fibers = [[1.0] * r] + [perturbed_fiber(rng, r)
                                for _ in range(DESK_PERTURBED_FIBERS)]
        for q in fibers:
            check_mirror(tally, sstr, q, seed)


def mirror_gr25(seed, tally):
    check_mirror(tally, "2;5", [1.0], seed)


def check_ring(tally, sweep_n, sweep_instances, det_counts):
    reports = tally.guarded(f"key_identity_sweep({sweep_n})",
                            lambda: verify.key_identity_sweep(sweep_n, strict=False))
    if reports is not None:
        for rep in reports:
            tally.check(f"key identity {rep.shape.to_string()} j={rep.j} i={rep.i}", rep.ok,
                        "nonzero residue")
        want = tally.want(sweep_instances)
        tally.check(f"key_identity_sweep({sweep_n}) size", len(reports) == want,
                    f"{len(reports)} instances (want {want})")
    for n, count in det_counts.items():
        label = f"check_det_formula({n})"
        rep = tally.guarded(label, lambda: verify.check_det_formula(n, strict=False))
        if rep is not None:
            want = tally.want(count)
            tally.check(label, rep.ok and rep.checked == want,
                        f"ok={rep.ok} checked={rep.checked} (want {want})")


def ring_identities(seed, tally):
    # exact and deterministic: the seed changes nothing
    check_ring(tally, KEY_SWEEP_N, KEY_SWEEP_INSTANCES, DET_COUNTS)


def smoke(seed, tally):
    """A few seconds of every layer, for the benchmark's self-test."""
    for sstr in ("1;2", "2;4"):
        check_mirror(tally, sstr, [1.0], seed)
    check_ring(tally, 5, 7, {2: 2, 3: 5, 4: 14})


WORKLOADS = {"mirror-desk": mirror_desk, "mirror-gr25": mirror_gr25,
             "ring-identities": ring_identities, "smoke": smoke}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() of the parent just before the spawn")
    ap.add_argument("--mode", choices=("probe", "fill", "run"), required=True)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--inject-fault", action="store_true")
    args = ap.parse_args()

    # set-up ends here, once flagmirror.verify is imported; CLOCK_MONOTONIC
    # is one clock for every process on the machine
    setup_s = time.monotonic() - args.spawned
    if not Path(verify.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"flagmirror was imported from {verify.__file__}, not this checkout")
    if not os.environ.get("FLAGMIRROR_CACHE_DIR"):
        sys.exit("FLAGMIRROR_CACHE_DIR is unset; the operator cache would go to ~/.cache")
    if args.mode == "probe":
        print(json.dumps({"setup_s": setup_s}))
        return
    if args.mode == "fill":
        for n in (6, 7, 8):
            monk_operators(n)  # builds and saves to FLAGMIRROR_CACHE_DIR
        print(json.dumps({"filled": sorted(os.listdir(os.environ["FLAGMIRROR_CACHE_DIR"]))}))
        return

    tracer = None
    if args.trace:
        tracer, memo = spans.install()
    tally = Tally(args.inject_fault)
    t0 = time.perf_counter()
    WORKLOADS[args.workload](args.seed, tally)
    wall_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    out = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
           "attempted": tally.attempted, "failures": tally.failures,
           "versions": {"python": sys.version.split()[0],
                        "numpy": np.__version__, "scipy": scipy.__version__}}
    if tracer is not None:
        out["layers"] = spans.layer_metrics(tracer, memo, tally.crit, wall_s)
        out["spans"] = tracer.table()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
