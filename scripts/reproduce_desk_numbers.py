#!/usr/bin/env python3
"""Reproduce the headline desk-scale numbers:

* Fl(1,2;4) at q = (1,1): twelve critical points, one with value -3, and the
  matching c_1 eigenvalues;
* Gr(2,4) at q = 1: six critical points with values {+-4 sqrt2, +-4i sqrt2, 0, 0}.
"""

from flagmirror.combinat import FlagShape
from flagmirror.verify import check_mirror_spectrum


def show(shape_str, q):
    shape = FlagShape.from_string(shape_str)
    rep = check_mirror_spectrum(shape, q)
    print(f"\n== {shape_str} at q = {q} ==")
    print(f"critical points: {len(rep.points)} "
          f"(total multiplicity {sum(p.multiplicity for p in rep.points)}, "
          f"expected {shape.basis_size})")
    eig = sorted(rep.eigenvalues, key=lambda z: (round(z.real, 6), round(z.imag, 6)))
    vals = sorted(rep.critical_values, key=lambda z: (round(z.real, 6), round(z.imag, 6)))
    print(f"{'critical value':>32}  {'eigenvalue':>32}")
    for v, e in zip(vals, eig):
        print(f"{v.real:+15.9f} {v.imag:+14.9f}i  {e.real:+15.9f} {e.imag:+14.9f}i")
    print("match:", "PASS" if rep.passed else "FAIL",
          f"(max distance {rep.max_distance:.2e})")
    print("max Toeplitz residual:",
          f"{max(p.toeplitz_residual for p in rep.points):.2e}")


if __name__ == "__main__":
    show("1,2;4", [1.0, 1.0])
    show("2;4", [1.0])
