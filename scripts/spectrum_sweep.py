#!/usr/bin/env python3
"""Sweep the spectrum-versus-critical-values comparison over all desk-scale
shapes, at the all-ones fiber and at randomly perturbed fibers."""

import argparse
import random
import time

import numpy as np

from flagmirror.combinat import FlagShape
from flagmirror.crit import CritConfig
from flagmirror.verify import ACCEPTANCE_SHAPES, check_mirror_spectrum


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--perturbations", type=int, default=2)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    ok = True
    for sstr in ACCEPTANCE_SHAPES:
        shape = FlagShape.from_string(sstr)
        fibers = [[1.0] * shape.r]
        for _ in range(args.perturbations):
            fibers.append([1.0 + 0.29 * rng.random() * np.exp(2j * np.pi * rng.random())
                           for _ in range(shape.r)])
        for q in fibers:
            t0 = time.time()
            rep = check_mirror_spectrum(shape, q, CritConfig(seed=42))
            ok &= rep.passed
            qs = ",".join(f"{complex(v):.3f}" for v in q)
            print(f"{'PASS' if rep.passed else 'FAIL'} {sstr:10s} q=({qs}) "
                  f"pairs={len(rep.critical_values):3d} "
                  f"maxdist={rep.max_distance:.2e} ({time.time() - t0:.1f}s)")
    print("overall:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
