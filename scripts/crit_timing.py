#!/usr/bin/env python3
"""Time the stages of one critical-point search: the median seconds of each
stage that `crit_report`'s "search" counts report, one row per shape and
fiber, with the number of Toeplitz candidates.

The shapes are the desk shapes plus 2;5, 2,4;6 and Fl_6, each at q = 1 and
at the fiber q_j = 0.9 + 0.13ij. Each search runs --repeats times in one
process (the first run also builds the ring and compiles the chart
evaluator); every column is the median over the runs. `cands` is the number
of character candidates (roots tried), `clusters` the eigenvalue clusters
that the cluster step solved (0 when the characters sufficed) and `croots`
the Toeplitz roots it kept. `degree` is the multiplicity stage, which
searches the nearby fiber when the fiber has a degenerate point. `certify`
is the wall time of the search minus `search`, so it also covers a route
that reports no finer stage; a stage the search does not report prints as
`-`.

    PYTHONPATH=src python scripts/crit_timing.py --repeats 3
"""

import argparse
import statistics
import time
import warnings

from flagmirror.combinat import FlagShape
from flagmirror.crit import _search

SHAPES = ("1;2", "1;3", "2;4", "1,2;3", "1,2;4", "1,3;4", "1,2,3;4",
          "2;5", "2,4;6", "1,2,3,4,5;6")
STAGES = ("search_s", "polish_s", "merge_s", "degree_s", "residual_s")


def time_search(shape: FlagShape, q, repeats: int) -> dict:
    """Median stage seconds, certify and wall seconds, and the counts."""
    runs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a count mismatch is a row, not an error
            _, stats = _search(shape, q)
        wall = time.perf_counter() - t0
        runs.append(dict(stats, wall_s=wall, certify_s=wall - stats["search_s"]))
    out = {k: statistics.median(r[k] for r in runs)
           for k in (*STAGES, "certify_s", "wall_s") if k in runs[0]}
    out["cands"], out["clusters"], out["croots"] = (
        runs[0]["roots_tried"], runs[0]["clusters_solved"], runs[0]["cluster_roots_kept"])
    return out


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()
    cols = ("search", "polish", "merge", "degree", "residual", "certify", "wall")
    print(f"{'shape':<13}{'q':>3}{'cands':>7}{'clusters':>9}{'croots':>7}"
          + "".join(f"{c:>10}" for c in cols))
    for sstr in SHAPES:
        shape = FlagShape.from_string(sstr)
        for label, q in (("1", [1.0] * shape.r),
                         ("g", [0.9 + 0.13j * j for j in range(1, shape.r + 1)])):
            row = time_search(shape, q, args.repeats)
            secs = "".join(f"{row[c + '_s']:>10.4f}" if c + "_s" in row else f"{'-':>10}"
                           for c in cols)
            print(f"{sstr:<13}{label:>3}{row['cands']:>7}{row['clusters']:>9}{row['croots']:>7}"
                  f"{secs}", flush=True)
