#!/usr/bin/env python3
"""Time the chart evaluator of F_-: compile milliseconds and the median
microseconds per `value`, per `gradient` and per `hessian` call, one row per
shape.

The shapes are the desk shapes plus 2;5, 2,4;6, Fl_6 and 2,4;7. Compile time
runs from building `FMinusChart` through its first value, gradient and
Hessian call, so a route that compiles its derivatives lazily is timed in
full. Each call is timed over --repeats repeats at each of --points seeded
chart points, at the fiber q_j = 0.9 + 0.13ij; the median is over all of
them. Only the public `FMinusChart` methods are called, so the script runs
against either tree's src:

    PYTHONPATH=src python scripts/evaluator_timing.py --points 20 --seed 0
"""

import argparse
import random
import statistics
import time

from flagmirror.combinat import FlagShape
from flagmirror.mirror import FMinusChart, random_z_vector

SHAPES = ("1;2", "1;3", "2;4", "1,2;3", "1,2;4", "1,3;4", "1,2,3;4",
          "2;5", "2,4;6", "1,2,3,4,5;6", "2,4;7")


def time_calls(fn, points, q, repeats: int) -> float:
    """Median microseconds per call of fn(z, q) over points and repeats."""
    out = []
    for z in points:
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn(z, q)
            out.append(time.perf_counter() - t0)
    return 1e6 * statistics.median(out)


def time_shape(shape: FlagShape, points: int, repeats: int, seed: int):
    """(compile ms, value us, gradient us, Hessian us) for one shape."""
    rng = random.Random(seed)
    zs = [random_z_vector(shape, rng) for _ in range(points)]
    q = [0.9 + 0.13j * j for j in range(1, shape.r + 1)]
    t0 = time.perf_counter()
    fm = FMinusChart(shape)
    fm.value(zs[0], q)
    fm.gradient(zs[0], q)
    fm.hessian(zs[0], q)
    compile_ms = 1e3 * (time.perf_counter() - t0)
    return (compile_ms, *(time_calls(fn, zs, q, repeats)
                          for fn in (fm.value, fm.gradient, fm.hessian)))


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--points", type=int, default=20)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    print(f"{'shape':<13}{'dim':>4}{'compile ms':>12}{'value us':>10}{'gradient us':>13}"
          f"{'hessian us':>12}")
    for sstr in SHAPES:
        shape = FlagShape.from_string(sstr)
        cms, vus, gus, hus = time_shape(shape, args.points, args.repeats, args.seed)
        print(f"{sstr:<13}{shape.dim:>4}{cms:>12.1f}{vus:>10.1f}{gus:>13.1f}{hus:>12.1f}")
