#!/usr/bin/env python3
"""Time the exact ring layer: `class_product` on seeded random pairs of S_7
(median milliseconds per pair), then one row for `key_identity_sweep(8)`,
one per n for `check_det_formula(n)`, n = 2..7, one for the benchmark's
`ring-identities` pass, `key_identity_sweep(8)` then `check_det_formula(n)`
for n = 2..5, and two for `quantum_schubert`, on every w of S_6 and on
QS_WORDS seeded words of S_7 (median of REPEATS runs).

Every memo of `flagmirror.schubring` and `flagmirror.combinat` (products as
classes and as operator vectors, Monk operators with their X_i entries and
transitions, q-exponents, polynomials, the divided-difference
coefficients of the quantum Schubert polynomials, minimal representatives)
is cleared before each pair and each run, so each is timed as the first call
of a fresh process and the median does not depend on how many ran before
it.

    PYTHONPATH=src python scripts/product_timing.py --pairs 20 --seed 0
"""

import argparse
import itertools
import random
import statistics
import time

from flagmirror import combinat, schubring, verify
from flagmirror.combinat import Permutation

N = 7
SWEEP_N = 8
DET_NS = (2, 3, 4, 5, 6, 7)
RING_DET_NS = (2, 3, 4, 5)
REPEATS = 5
QS_WORDS = 5


def clear_memos():
    for module in (schubring, combinat):
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def ring_identities():
    verify.key_identity_sweep(SWEEP_N)
    for n in RING_DET_NS:
        verify.check_det_formula(n)


def timed(fn) -> float:
    """Seconds of one call of fn after clearing every memo."""
    clear_memos()
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def time_pairs(pairs: int, seed: int) -> list[float]:
    rng = random.Random(seed)
    out = []
    for _ in range(pairs):
        u, v = (Permutation(tuple(rng.sample(range(N), N))) for _ in range(2))
        out.append(timed(lambda: schubring.class_product(u, v, N)))
    return out


def quantum_schubert_all(words, n):
    for w in words:
        schubring.quantum_schubert(w, n)


def layer_rows(seed: int):
    """(label, seconds of each run) for the key identity sweep, the
    determinantal formula per n, the ring-identities pass and the quantum
    Schubert polynomials."""
    yield (f"key_identity_sweep({SWEEP_N})",
           [timed(lambda: verify.key_identity_sweep(SWEEP_N)) for _ in range(REPEATS)])
    for n in DET_NS:
        yield (f"check_det_formula({n})",
               [timed(lambda: verify.check_det_formula(n)) for _ in range(REPEATS)])
    yield "ring-identities", [timed(ring_identities) for _ in range(REPEATS)]
    s6 = sorted(map(Permutation, itertools.permutations(range(6))),
                key=lambda w: (w.length, w.oneline))
    yield (f"quantum_schubert S_6 ({len(s6)} words)",
           [timed(lambda: quantum_schubert_all(s6, 6)) for _ in range(REPEATS)])
    rng = random.Random(seed)
    s7 = [Permutation(tuple(rng.sample(range(N), N))) for _ in range(QS_WORDS)]
    yield (f"quantum_schubert S_{N} ({QS_WORDS} words, seed {seed})",
           [timed(lambda: quantum_schubert_all(s7, N)) for _ in range(REPEATS)])


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pairs", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    ms = [1e3 * t for t in time_pairs(args.pairs, args.seed)]
    print(f"class_product S_{N}: {len(ms)} pairs (seed {args.seed}), "
          f"median {statistics.median(ms):.1f} ms/pair "
          f"(min {min(ms):.1f}, max {max(ms):.1f})")
    for label, runs in layer_rows(args.seed):
        ms = [1e3 * t for t in runs]
        print(f"{label}: median {statistics.median(ms):.1f} ms of {len(ms)} runs "
              f"(min {min(ms):.1f}, max {max(ms):.1f})")
