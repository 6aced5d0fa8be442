#!/usr/bin/env python3
"""Benchmark for flagmirror: time to verdict, set-up time, memory and the
share of verdicts that pass, on the workloads listed in BENCHMARK.json.

    python3 perfbench/run.py --workload mirror-gr25 --seed 3 --seconds 10 --trace 0

Run it from the root of a checkout. The load is a closed-loop batch job. Each
pass is one fresh, single-threaded worker process (perfbench/worker.py) that
runs the workload once; passes run one after another until --seconds have
gone by, and at least one runs. The run also starts SETUP_PROBES processes
that only import flagmirror.verify, so that set-up time is a median.

--trace 0 prints the end-to-end metrics. --trace 1 prints the per-layer
metrics of one traced pass instead; its tracing overhead is taken against the
untraced passes of the same workload, seed and source recorded in
.bench_build/, and one untraced pass runs first when none is recorded. Either
way the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.

The Monk-operator disk cache persists between a user's invocations, so it is
filled once per checkout, in .bench_build/, before the first timed pass.
~/.cache/flagmirror is never read or written.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
CACHE_DIR = BUILD / "flagmirror-cache"
UNTRACED_LOG = BUILD / "untraced.jsonl"

WORKLOADS = ("mirror-desk", "mirror-gr25", "ring-identities", "smoke")
SETUP_PROBES = 2
DEADLINE_S = 170.0      # a run, not counting the cache fill, ends within this
FILL_TIMEOUT_S = 850.0
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
# The share of failed checks is printed as fail_frac and reported as
# pass_frac = 1 - fail_frac, because a reported metric must never read 0.
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
                    "pass_frac": "ratio"}


class BenchError(Exception):
    """The benchmark itself cannot produce a result."""


def worker_env():
    env = dict(os.environ)
    env.update(THREAD_ENV)
    # set and dict order, and with it the search's work, follow the hash
    # seed; fixing it makes a seed's work repeat exactly
    env.update(PYTHONPATH=str(SRC), FLAGMIRROR_CACHE_DIR=str(CACHE_DIR),
               PYTHONHASHSEED="0")
    return env


def run_worker(args, timeout):
    """Start one worker, wait for it and return its JSON line."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--spawned", repr(time.monotonic()), *args]
    try:
        proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, timeout=timeout,
                              capture_output=True, text=True)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        raise BenchError(f"worker {' '.join(args)} ran over {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {' '.join(args)} printed no result")
    return json.loads(lines[-1])


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "flagmirror").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def fill_cache():
    """Build the Monk operators for n = 6, 7, 8 into CACHE_DIR, once per
    version of schubring.py."""
    stamp = CACHE_DIR / "filled-by"
    key = hashlib.sha256((SRC / "flagmirror" / "schubring.py").read_bytes()).hexdigest()
    if stamp.is_file() and stamp.read_text() == key:
        return
    CACHE_DIR.mkdir(parents=True, exist_ok=True)
    t0 = time.monotonic()
    run_worker(["--mode", "fill"], FILL_TIMEOUT_S)
    stamp.write_text(key)
    print(f"filled the operator cache in {time.monotonic() - t0:.1f} s", file=sys.stderr)


def git_revision():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def workload_why(name):
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return None
    return next((w["why"] for w in spec.get("workloads", []) if w["name"] == name), None)


def untraced_median(key):
    """Median wall time of the untraced passes recorded in this checkout for
    this workload, seed and source, or None."""
    try:
        rows = [json.loads(line) for line in UNTRACED_LOG.read_text().splitlines()]
    except OSError:
        return None
    walls = [r["wall_s"] for r in rows if r["key"] == key]
    return statistics.median(walls) if walls else None


def measure(args, key):
    """Run the passes; return (untraced passes, traced pass or None, setup samples)."""
    deadline = time.monotonic() + DEADLINE_S
    setups = [] if args.trace else [
        run_worker(["--mode", "probe"], deadline - time.monotonic())["setup_s"]
        for _ in range(SETUP_PROBES)]
    base = ["--mode", "run", "--workload", args.workload, "--seed", str(args.seed)]
    fault = ["--inject-fault"] if args.inject_fault else []
    passes = []
    first = time.monotonic()
    # in a traced run, untraced passes are needed only for the overhead
    need = not args.trace or untraced_median(key) is None
    while need:
        t0 = time.monotonic()
        passes.append(run_worker(base + fault, deadline - t0))
        with UNTRACED_LOG.open("a") as fh:
            fh.write(json.dumps({"key": key, "wall_s": passes[-1]["wall_s"]}) + "\n")
        now = time.monotonic()
        need = (not args.trace and now - first < args.seconds
                and now + (now - t0) < deadline)
    traced = None
    if args.trace:
        traced = run_worker(base + fault + ["--trace"], deadline - time.monotonic())
    return passes, traced, setups + [p["setup_s"] for p in passes]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject-fault", action="store_true",
                    help="make the first expected count wrong (self-test only)")
    args = ap.parse_args()

    if not (SRC / "flagmirror" / "verify.py").is_file():
        print(f"error: no flagmirror sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    key = {"workload": args.workload, "seed": args.seed, "src_sha256": source_digest()}
    try:
        fill_cache()
        passes, traced, setups = measure(args, key)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    runs = passes + ([traced] if traced else [])
    attempted = sum(r["attempted"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    for f in failures:
        print(f"FAIL {f}")
        # also on stderr, where a caller that keeps only the tail of standard
        # output still sees which check failed and how to repeat it
        print(f"FAIL {f} (workload {args.workload}, seed {args.seed})", file=sys.stderr)
    provenance = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "why": workload_why(args.workload),
        "git_revision": git_revision(), "src_sha256": key["src_sha256"],
        **runs[0]["versions"], "platform": platform.platform(),
        "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
        "thread_env": {**THREAD_ENV, "PYTHONHASHSEED": "0"},
        "untraced_passes": len(passes), "setup_samples": len(setups),
    }
    print("provenance " + json.dumps(provenance))

    if args.trace:
        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = traced["wall_s"] - untraced_median(key)
        for name, calls, total, self_s in traced["spans"]:
            print(f"span {name:34s} calls {calls:8d}  total {total:10.4f} s"
                  f"  self {self_s:10.4f} s")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in spans.LAYER_UNITS.items()}
        notes = {}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
            "pass_frac": 1 - len(failures) / attempted,
        }
        notes = {name: f"median of {len(passes)}" for name in END_TO_END_UNITS}
        notes["setup_s"] = f"median of {len(setups)}"
        notes["pass_frac"] = f"of {attempted} checks"
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
        print(f"fail_frac {len(failures) / attempted:.6g} ratio "
              f"({len(failures)} of {attempted} checks failed)")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']} "
              f"({notes.get(name, 'traced pass')})")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
