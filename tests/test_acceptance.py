"""Acceptance suite: one test per criterion, each printing a PASS line with
its elapsed time and asserting the stated tolerance and runtime budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the mirror-spectrum results are shared between criteria 5 and 9.
"""

import itertools
import random
import time
from fractions import Fraction

import numpy as np
from tests_support import fraction_inverse, monk_apply, sorted_perms, straighten

from flagmirror.combinat import FlagShape, all_shapes
from flagmirror.crit import find_critical_points
from flagmirror.errors import NearPole, PivotFailure
from flagmirror.exactalg import MPoly, det, minor
from flagmirror.mirror import (
    divisor_equations,
    f_minus_eval,
    f_minus_eval_uv,
    pluecker_table,
    random_z_vector,
    superpotential,
    uv_from_z,
    z_from_vector,
)
from flagmirror.schubring import class_product, quantum_schubert
from flagmirror.verify import (
    ACCEPTANCE_SHAPES,
    check_det_formula,
    check_key_identity,
    check_mirror_spectrum,
    key_identity_sweep,
)

RESULTS: dict = {}


def _report(num, ok, elapsed, budget, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status} in {elapsed:.1f}s (budget {budget:.0f}s) {detail}")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded budget: {elapsed:.1f}s"


def _pvar(shape, cols_1based):
    from flagmirror.mirror import pluecker_name
    name = pluecker_name([c - 1 for c in cols_1based], shape.n)
    return MPoly.var(pluecker_table(shape), name)


def _qvar(shape, j):
    return MPoly.var(pluecker_table(shape), f"q{shape.nj(j)}")


def test_criterion_1_superpotential_fidelity():
    t0 = time.time()
    # the 8-summand expression for Fl(2,4;7), term for term
    shape = FlagShape(7, (2, 4))
    tk = {t.divisor_k: t for t in superpotential(shape)}
    assert len(tk) == 8
    expected = {
        1: (_pvar(shape, [2, 7]), _pvar(shape, [1, 7])),
        2: (_pvar(shape, [1, 3]), _pvar(shape, [1, 2])),
        3: (_pvar(shape, [2, 4]) * _pvar(shape, [1, 5, 6, 7])
            - _pvar(shape, [1, 4]) * _pvar(shape, [2, 5, 6, 7])
            + _pvar(shape, [1, 2]) * _pvar(shape, [4, 5, 6, 7]),
            _pvar(shape, [2, 3]) * _pvar(shape, [1, 5, 6, 7])
            - _pvar(shape, [1, 3]) * _pvar(shape, [2, 5, 6, 7])
            + _pvar(shape, [1, 2]) * _pvar(shape, [3, 5, 6, 7])),
        4: (_pvar(shape, [1, 2, 3, 5]), _pvar(shape, [1, 2, 3, 4])),
        5: (_pvar(shape, [2, 3, 4, 6]), _pvar(shape, [2, 3, 4, 5])),
        6: (_pvar(shape, [3, 4, 5, 7]), _pvar(shape, [3, 4, 5, 6])),
        7: (_qvar(shape, 1) * _pvar(shape, [4, 6]), _pvar(shape, [6, 7])),
        8: (_qvar(shape, 2) * _pvar(shape, [1, 4, 6, 7]), _pvar(shape, [4, 5, 6, 7])),
    }
    for k, (num, den) in expected.items():
        assert tk[k].numerator == num, f"numerator of divisor {k}"
        assert tk[k].denominator == den, f"denominator of divisor {k}"

    # Grassmannian and complete-flag shapes against the closed formulas
    def srt(vals):
        return sorted(vals)

    for (k, n) in [(1, 3), (2, 4), (2, 5), (3, 7), (1, 7), (6, 7)]:
        s = FlagShape(n, (k,))
        terms = {t.divisor_k: t for t in superpotential(s)}
        assert not any(t.family == "u-mid" for t in terms.values())
        for i in range(1, k):
            assert terms[i].numerator == _pvar(
                s, srt(list(range(1, i)) + [i + 1] + list(range(n - k + i + 1, n + 1))))
            assert terms[i].denominator == _pvar(
                s, srt(list(range(1, i + 1)) + list(range(n - k + i + 1, n + 1))))
        for i in range(k + 1, n):
            assert terms[i].numerator == _pvar(s, srt(set(range(i - k + 1, i + 2)) - {i}))
            assert terms[i].denominator == _pvar(s, srt(range(i - k + 1, i + 1)))
        assert terms[k].numerator == _pvar(s, srt(list(range(1, k)) + [k + 1]))
        assert terms[k].denominator == _pvar(s, srt(range(1, k + 1)))
        assert terms[n].numerator == _qvar(s, 1) * _pvar(s, srt({1} | set(range(n - k + 1, n))))
        assert terms[n].denominator == _pvar(s, srt(range(n - k + 1, n + 1)))

    for n in (3, 4, 5, 6, 7):
        s = FlagShape(n, tuple(range(1, n)))
        terms = {t.divisor_k: t for t in superpotential(s)}
        assert not any(t.family == "u-mid" for t in terms.values())
        for i in range(1, n):
            assert terms[i].numerator == _pvar(s, srt(list(range(1, i)) + [i + 1]))
            assert terms[i].denominator == _pvar(s, srt(range(1, i + 1)))
            assert terms[n - 1 + i].numerator == _qvar(s, i) * _pvar(
                s, srt(set(range(n - i, n + 1)) - {n - i + 1}))
            assert terms[n - 1 + i].denominator == _pvar(s, srt(range(n - i + 1, n + 1)))
    _report(1, True, time.time() - t0, 5.0, "ex F247 + Grassmannian + complete flags")


def test_criterion_2_divisor_bijection():
    t0 = time.time()
    shapes = 0
    for n in range(2, 9):
        for shape in all_shapes(n):
            shapes += 1
            divs = divisor_equations(shape)
            terms = superpotential(shape)
            ks = sorted(t.divisor_k for t in terms)
            assert ks == list(range(1, shape.n + shape.r)), shape
            for t in terms:
                assert t.denominator == divs[t.divisor_k], (shape, t.divisor_k)
    _report(2, True, time.time() - t0, 120.0, f"{shapes} shapes, n <= 8")


def test_criterion_3_factorization_oracle():
    t0 = time.time()
    rng = random.Random(314)
    shapes = checked = 0
    for n in range(2, 8):
        for shape in all_shapes(n):
            shapes += 1
            done = 0
            while done < 100:
                zv = random_z_vector(shape, rng, 0.5, 1.5)
                z = z_from_vector(shape, zv)
                q = [0.7 + 0.6 * rng.random() + 0.3j * (rng.random() - 0.5)
                     for _ in range(shape.r)]
                try:
                    a = f_minus_eval(z, q, shape)
                    b = f_minus_eval_uv(z, q, shape)
                    u, v = uv_from_z(z, shape)
                except (NearPole, PivotFailure):
                    continue
                done += 1
                checked += 1
                assert abs(a - b) <= 1e-9 * (1 + abs(a)), shape
                # minor formulas for the factor entries
                i = rng.randint(1, n - 1)
                num = minor(z, range(i), list(range(i - 1)) + [i])
                den = minor(z, range(i), range(i))
                assert abs(u[i - 1, i] - num / den) < 1e-10 * (1 + abs(num / den))
                for j in range(1, shape.r + 1):
                    nj = shape.nj(j)
                    cols = sorted(({n - shape.nj(j + 1)} | set(range(n - nj, n)))
                                  - {n - shape.nj(j - 1) - 1})
                    num = minor(z, range(nj), cols)
                    den = minor(z, range(nj), range(n - nj, n))
                    assert abs(v[nj - 1, nj] - num / den) < 1e-10 * (1 + abs(num / den))
    _report(3, True, time.time() - t0, 60.0,
            f"{checked} samples over {shapes} shapes, n <= 7")


def test_criterion_4_desk_numbers():
    t0 = time.time()
    pts = find_critical_points(FlagShape(4, (1, 2)), [1.0, 1.0])
    assert len(pts) == 12 and all(p.multiplicity == 1 for p in pts)
    assert sum(1 for p in pts if abs(p.value + 3) < 1e-8) == 1
    t1 = time.time() - t0
    assert t1 < 30.0
    t0b = time.time()
    pts = find_critical_points(FlagShape(4, (2,)), [1.0])
    assert len(pts) == 6 and all(p.multiplicity == 1 for p in pts)
    t2 = time.time() - t0b
    assert t2 < 30.0
    _report(4, True, t1 + t2, 60.0, "12 points (one at -3) and 6 points")


def test_criterion_5_and_9_mirror_spectrum():
    t0 = time.time()
    rng = random.Random(2718)
    all_pass = True
    worst_toeplitz = 0.0
    details = []
    for sstr in ACCEPTANCE_SHAPES:
        shape = FlagShape.from_string(sstr)
        qs = [[1.0] * shape.r]
        for _ in range(5):
            q = []
            for _ in range(shape.r):
                radius = 0.29 * (rng.random() ** 0.5)
                phase = 2 * np.pi * rng.random()
                q.append(1.0 + radius * np.exp(1j * phase))
            qs.append(q)
        for q in qs:
            assert all(abs(complex(v) - 1) < 0.3 for v in q)
            rep = check_mirror_spectrum(shape, q)
            all_pass &= rep.passed
            if not rep.passed:
                details.append(f"{sstr}@{q}")
            worst = max((p.toeplitz_residual for p in rep.points), default=0.0)
            worst_toeplitz = max(worst_toeplitz, worst)
    RESULTS["worst_toeplitz"] = worst_toeplitz
    _report(5, all_pass, time.time() - t0, 600.0,
            f"8 shapes x 6 fibers{'; failing: ' + ','.join(details) if details else ''}")
    _report(9, worst_toeplitz < 1e-7, 0.0, 600.0,
            f"max toeplitz residual {worst_toeplitz:.2e}")


def test_criterion_6_key_identity():
    t0 = time.time()
    rep = check_key_identity(FlagShape(7, (2, 4)), 1, 4)
    assert rep.ok and rep.terms == 3
    reports = key_identity_sweep(6)
    assert all(r.ok for r in reports)
    _report(6, True, time.time() - t0, 900.0,
            f"(2,4;7) instance + {len(reports)} swept instances, n <= 6")


def test_criterion_7_det_formula():
    t0 = time.time()
    total = 0
    for n in range(2, 7):
        rep = check_det_formula(n)
        assert rep.ok
        total += rep.checked
    assert total == 2 + 5 + 14 + 42 + 132
    _report(7, True, time.time() - t0, 600.0,
            f"{total} 321-avoiding permutations, n <= 6")


def test_criterion_8_ring_engine_soundness():
    t0 = time.time()
    # operator route vs the straightening oracle of tests_support, all pairs in S_4
    perms = sorted_perms(4)
    for u in perms:
        pu = quantum_schubert(u, 4)
        for v in perms:
            assert class_product(u, v, 4) == straighten(pu * quantum_schubert(v, 4), 4)
    # Monk operators (the oracle's columns) commute pairwise for n <= 5
    for n in range(2, 6):
        words = list(itertools.permutations(range(n)))
        cols = [[monk_apply(k, {(w, 0): 1}) for w in words]
                for k in range(1, n)]
        for a in range(1, n):
            for b in range(a + 1, n):
                for ci in range(len(words)):
                    assert monk_apply(b, cols[a - 1][ci]) == monk_apply(a, cols[b - 1][ci])
    # grading on every term of random products
    rng = random.Random(7)
    for _ in range(30):
        u, v = rng.choice(perms), rng.choice(perms)
        for w, c in class_product(u, v, 4).terms.items():
            for bexp in c.terms:
                assert u.length + v.length == w.length + 2 * sum(bexp)
    # Jacobi / generalized Cramer on 200 random rational matrices
    done = 0
    rng = random.Random(99)
    while done < 200:
        n = rng.randint(2, 6)
        A = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
             for _ in range(n)]
        dA = det(A)
        if dA == 0:
            continue
        Ainv = fraction_inverse(A)
        size = rng.randint(1, min(3, n))
        J = sorted(rng.sample(range(n), size))
        K = sorted(rng.sample(range(n), size))
        sign = (-1) ** (sum(j + 1 for j in J) + sum(k + 1 for k in K))
        Jc = [x for x in range(n) if x not in J]
        Kc = [x for x in range(n) if x not in K]
        assert minor(Ainv, J, K) == Fraction(sign * minor(A, Kc, Jc), dA)
        done += 1
    _report(8, True, time.time() - t0, 300.0,
            "576 oracle pairs, commuting operators, grading, 200 minor identities")
