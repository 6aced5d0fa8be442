#!/usr/bin/env python3
"""Self-test of the benchmark on its small ``smoke`` workload.

    python3 perfbench/selftest.py

It checks that
- an untraced run prints every end-to-end metric of BENCHMARK.json with its
  unit, and a traced run every per-layer metric;
- an injected wrong expectation is counted as a failed check, not raised;
- two traced runs at one seed give identical call, miss and point counts;
- in a directory that holds only BENCHMARK.json and the benchmark, the
  benchmark exits with a non-zero code and prints no result.
The first run in a checkout also fills the operator cache (about a minute).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
problems = []


def expect(ok, message):
    if not ok:
        problems.append(message)


def bench(*extra, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
           "--workload", "smoke", "--seed", "7", "--seconds", "1", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)


def result(proc, label):
    """The final JSON line of a run that must have succeeded."""
    if proc.returncode != 0:
        sys.exit(f"{label}: exited with {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    out = json.loads(lines[-1])
    expect(set(out) == RESULT_KEYS, f"{label}: result keys {sorted(out)}")
    return out, lines[:-1]


def expect_metrics(out, printed, specs, label):
    units = {m["name"]: m["unit"] for m in specs}
    got = {name: m["unit"] for name, m in out["metrics"].items()}
    expect(got == units, f"{label}: metrics {got} differ from BENCHMARK.json {units}")
    for name, unit in units.items():
        expect(any(line.startswith(f"{name} ") and f" {unit} " in line for line in printed),
               f"{label}: no printed line for {name} in {unit}")


def counts(metrics):
    return {name: m["value"] for name, m in metrics.items()
            if name.endswith(("_calls", "_misses")) or name == "crit.points"}


def main():
    out, printed = result(bench("--trace", "0"), "untraced run")
    expect(out["correct"] and out["failed"] == 0, "untraced run: a check failed")
    expect_metrics(out, printed, SPEC["end_to_end"], "untraced run")
    expect(any(line.startswith("fail_frac 0 ratio") for line in printed),
           "untraced run: fail_frac is not printed as 0")

    out, printed = result(bench("--trace", "0", "--inject-fault"), "injected fault")
    expect(not out["correct"] and out["failed"] == 1,
           f"injected fault: {out['failed']} failed checks, want 1")
    expect(out["metrics"]["pass_frac"]["value"] == 1 - 1 / out["attempted"],
           "injected fault: pass_frac does not count the failure")
    expect(any(line.startswith("FAIL ") for line in printed),
           "injected fault: the failed check is not printed")

    traced = []
    for k in (1, 2):
        out, printed = result(bench("--trace", "1"), f"traced run {k}")
        expect(out["correct"], f"traced run {k}: a check failed")
        expect_metrics(out, printed, SPEC["per_layer"], f"traced run {k}")
        traced.append(counts(out["metrics"]))
    expect(traced[0] == traced[1], f"traced counts differ: {traced[0]} vs {traced[1]}")
    expect(traced[0]["crit.det_calls"] > 0 and traced[0]["schubring.monk_calls"] > 0,
           f"traced counts miss a layer: {traced[0]}")

    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench("--trace", "0", cwd=bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    shutil.rmtree(bare)

    for p in problems:
        print("SELFTEST FAIL:", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
