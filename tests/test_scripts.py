"""The scripts in ``scripts/`` import the package by name and are not
imported by any test, so a rename in ``src/`` would break them silently.
Each runs here in a fresh interpreter on a small input, with ``src`` on the
path, and must exit 0 and print its expected lines."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DESK = ["1;2", "1;3", "2;4", "1,2;3", "1,2;4", "1,3;4", "1,2,3;4", "2;5", "2,4;6",
        "1,2,3,4,5;6"]


def run_script(name: str, *args: str, timeout: float = 120) -> list[str]:
    """The stdout lines of scripts/<name> run with args; it must exit 0."""
    paths = [str(ROOT / "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], env=env,
                          cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_spectrum_sweep_on_two_shapes():
    lines = run_script("spectrum_sweep.py", "1;2", "2;4")
    assert [line.split()[:3] for line in lines[:-1]] == [
        ["PASS", s, f"q={q}"] for s in ("1;2", "2;4") for q in "1g"]
    assert all("hash=" in line and "eig=" in line for line in lines[:-1])
    assert lines[-1] == "overall: PASS"


def test_reproduce_desk_numbers():
    lines = run_script("reproduce_desk_numbers.py")
    assert "critical points: 12 (total multiplicity 12, expected 12)" in lines
    assert "critical points: 6 (total multiplicity 6, expected 6)" in lines
    assert sum(line.startswith("match: PASS") for line in lines) == 2
    assert any(line.split()[:1] == ["-3.000000000"] for line in lines)


def test_evaluator_timing_one_point():
    lines = run_script("evaluator_timing.py", "--points", "1", "--repeats", "1")
    assert lines[0].split()[:2] == ["shape", "dim"]
    assert [line.split()[0] for line in lines[1:]] == DESK + ["2,4;7"]


@pytest.mark.slow
def test_crit_timing_one_repeat():
    lines = run_script("crit_timing.py", "--repeats", "1", timeout=300)
    assert lines[0].split()[:6] == ["shape", "q", "cands", "kept", "clusters", "croots"]
    assert [line.split()[:2] for line in lines[1:]] == [[s, q] for s in DESK for q in "1g"]


@pytest.mark.slow
def test_product_timing_one_pair():
    lines = run_script("product_timing.py", "--pairs", "1", timeout=600)
    assert lines[0].startswith("class_product S_7: 1 pairs (seed 0), median")
    labels = [line.split(": median")[0] for line in lines[1:]]
    assert labels == (["key_identity_sweep(8)",
                       "key_identity_sweep(8), Monk operators and product_vec warm"]
                      + [f"check_det_formula({n})" for n in range(2, 8)]
                      + ["ring-identities", "quantum_schubert S_6 (720 words)",
                         "quantum_schubert S_7 (5 words, seed 0)"])
