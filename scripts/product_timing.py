#!/usr/bin/env python3
"""Time `class_product` on seeded random pairs of S_7 and print the median
milliseconds per pair.

Every memo of `flagmirror.schubring` (products, Monk columns, polynomials,
expansion slices) is cleared before each pair, so each pair is timed as the
first product of a fresh process and the median does not depend on how many
pairs ran before it.

    PYTHONPATH=src python scripts/product_timing.py --pairs 20 --seed 0
"""

import argparse
import random
import statistics
import time

from flagmirror import schubring
from flagmirror.combinat import Permutation

N = 7


def clear_memos():
    for obj in vars(schubring).values():
        if callable(getattr(obj, "cache_clear", None)):
            obj.cache_clear()


def time_pairs(pairs: int, seed: int) -> list[float]:
    rng = random.Random(seed)
    out = []
    for _ in range(pairs):
        u, v = (Permutation(tuple(rng.sample(range(N), N))) for _ in range(2))
        clear_memos()
        t0 = time.perf_counter()
        schubring.class_product(u, v, N)
        out.append(time.perf_counter() - t0)
    return out


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pairs", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    ms = [1e3 * t for t in time_pairs(args.pairs, args.seed)]
    print(f"class_product S_{N}: {len(ms)} pairs (seed {args.seed}), "
          f"median {statistics.median(ms):.1f} ms/pair "
          f"(min {min(ms):.1f}, max {max(ms):.1f})")
