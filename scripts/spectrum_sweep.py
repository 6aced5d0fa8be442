#!/usr/bin/env python3
"""Run the mirror check on every flag shape with 3 <= n <= 6, at q = 1 and
at the fiber q_j = 0.9 + 0.13ij.

Each check prints one line on stdout: the verdict, the shape, the fiber,
the number of critical points, their total multiplicity, `max_distance`,
a hash of every point's exact value, chart coordinates and multiplicity,
in the order `find_critical_points` returns them (the mirror side), and a
hash of the c_1 eigenvalues, in the order `check_mirror_spectrum` returns
them (the quantum cohomology side).  The seconds of each check go to
stderr, so that the stdout of two trees can be diffed directly:

    diff <(PYTHONHASHSEED=0 PYTHONPATH=old/src python scripts/spectrum_sweep.py 2>/dev/null) \\
         <(PYTHONHASHSEED=0 PYTHONPATH=src python scripts/spectrum_sweep.py 2>/dev/null)

Shape strings given as arguments restrict the sweep to those shapes, and
`--n N` to every shape of one n (`--n 7` is the n = 7 sweep).  The points
can move with the BLAS thread count, so compare runs made with the same
thread settings.
"""

import argparse
import hashlib
import sys
import time
import warnings

import numpy as np

from flagmirror.combinat import FlagShape, all_shapes
from flagmirror.verify import check_mirror_spectrum


def points_hash(points) -> str:
    """sha256 prefix of the points' values, coordinates and multiplicities."""
    h = hashlib.sha256()
    for p in points:
        h.update(np.complex128(p.value).tobytes())
        h.update(np.asarray(p.z, dtype=np.complex128).tobytes())
        h.update(int(p.multiplicity).to_bytes(4, "little"))
    return h.hexdigest()[:16]


def eigenvalues_hash(eig) -> str:
    """sha256 prefix of the c_1 eigenvalues."""
    return hashlib.sha256(np.asarray(eig, dtype=np.complex128).tobytes()).hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("shapes", nargs="*", help="shape strings such as '1,5;6' (default: all)")
    ap.add_argument("--n", type=int, help="every shape of this n instead")
    args = ap.parse_args()
    if args.n is not None and args.shapes:
        ap.error("give shape strings or --n, not both")
    shapes = ([FlagShape.from_string(s) for s in args.shapes] or
              [s for n in ([args.n] if args.n is not None else range(3, 7))
               for s in all_shapes(n)])
    ok = True
    for shape in shapes:
        for label, q in (("1", [1.0] * shape.r),
                         ("g", [0.9 + 0.13j * j for j in range(1, shape.r + 1)])):
            t0 = time.perf_counter()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # a count mismatch is a FAIL line
                rep = check_mirror_spectrum(shape, q)
            ok &= rep.passed
            print(f"{'PASS' if rep.passed else 'FAIL'} {shape.to_string():<12} q={label} "
                  f"points={len(rep.points)} multiplicity={len(rep.critical_values)} "
                  f"max_distance={rep.max_distance:.3e} hash={points_hash(rep.points)} "
                  f"eig={eigenvalues_hash(rep.eigenvalues)}",
                  flush=True)
            print(f"{shape.to_string()} q={label}: {time.perf_counter() - t0:.2f}s",
                  file=sys.stderr, flush=True)
    print("overall:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
