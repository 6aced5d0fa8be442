import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from tests_support import fraction_inverse

from flagmirror.errors import DimensionMismatch, PivotFailure
from flagmirror.exactalg import (
    MPoly,
    VarTable,
    det,
    eigenvalues,
    lu_unipotent,
    minor,
)

TAB = VarTable.make([("x1", "x", 1), ("x2", "x", 1), ("q1", "q", 2)])


def _vars():
    return (MPoly.var(TAB, "x1"), MPoly.var(TAB, "x2"), MPoly.var(TAB, "q1"))


coeffs = st.integers(min_value=-5, max_value=5)
exps = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2))
polys = st.dictionaries(exps, coeffs, max_size=6).map(
    lambda d: MPoly(TAB, {e: Fraction(c) for e, c in d.items()}))


@given(polys, polys, polys)
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a - a == MPoly.zero(TAB)


@given(polys, polys)
@settings(max_examples=40, deadline=None)
def test_divexact_roundtrip(a, b):
    if b.is_zero():
        return
    assert (a * b).divexact(b) == a


def test_canonical_order_and_json():
    x1, x2, q1 = _vars()
    p = x2 + x1 + q1 + 3
    # graded order: q1 (weight 2) first, then x1, x2, then the constant
    assert list(p.to_json().items()) == [("q1", "1"), ("x1", "1"), ("x2", "1"), ("1", "3")]


def test_derivative_and_substitute():
    x1, x2, q1 = _vars()
    p = x1 ** 2 * x2 + 2 * q1
    assert p.derivative(0) == 2 * x1 * x2
    assert p.substitute([2, 3, Fraction(1, 2)]) == 13
    f = p.as_pyfunc()
    assert abs(f([2.0, 3.0, 0.5]) - 13.0) < 1e-12


def test_minor_basics():
    eye = [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]
    assert minor(eye, [2], [2]) == 1
    assert minor(eye, [], []) == 1
    assert minor([[1, 2], [3, 4]], [0], [1]) == 2  # rows {1}, cols {2}
    with pytest.raises(DimensionMismatch):
        minor(eye, [0, 1], [0])


def _laplace_det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        sub = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * _laplace_det(sub)
        total = total + term if j % 2 == 0 else total - term
    return total


def test_bareiss_vs_laplace_random_rational():
    rng = random.Random(0)
    for _ in range(10):
        M = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(5)]
             for _ in range(5)]
        assert det(M) == _laplace_det(M)


def test_bareiss_on_polynomial_matrix():
    x1, x2, q1 = _vars()
    M = [[x1, 1, 0], [x2, 0, 1], [1, 0, 0]]
    assert det(M) == MPoly.const(TAB, 1)
    M2 = [[x1, q1], [1, x2]]
    assert det(M2) == x1 * x2 - q1


def test_jacobi_identity_200_random():
    rng = random.Random(1)
    done = 0
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
        lhs = minor(Ainv, J, K)
        sign = (-1) ** (sum(j + 1 for j in J) + sum(k + 1 for k in K))
        Jc = [i for i in range(n) if i not in J]
        Kc = [i for i in range(n) if i not in K]
        assert lhs == sign * minor(A, Kc, Jc) / dA
        done += 1


def test_lu_unipotent_examples():
    A = [[Fraction(2), Fraction(0)], [Fraction(3), Fraction(5)]]
    L, U = lu_unipotent(A)
    assert L == [list(map(Fraction, r)) for r in ((2, 0), (3, 5))]
    assert U == [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    L, U = lu_unipotent([[Fraction(1), Fraction(1)], [Fraction(1), Fraction(2)]])
    assert L == [[Fraction(1), Fraction(0)], [Fraction(1), Fraction(1)]]
    assert U == [[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]]


def test_lu_exact_reconstruction():
    rng = random.Random(3)
    for _ in range(10):
        A = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)]
             for _ in range(4)]
        try:
            L, U = lu_unipotent(A)
        except PivotFailure:
            continue
        for i in range(4):
            for j in range(4):
                assert sum(L[i][k] * U[k][j] for k in range(4)) == A[i][j]


def test_lu_numeric_residual_and_pivot_failure():
    rng = np.random.default_rng(4)
    A = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)) + 3 * np.eye(6)
    L, U = lu_unipotent(A)
    assert np.abs(L @ U - A).max() / np.abs(A).max() < 1e-12
    assert np.abs(np.diag(U) - 1).max() == 0
    with pytest.raises(PivotFailure):
        lu_unipotent(np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_eigenvalues_examples():
    vals = sorted(eigenvalues(np.diag([3.0, 1.0, 2.0])).real)
    assert np.allclose(vals, [1, 2, 3])
    comp = np.array([[0, 1], [1, 0]], dtype=complex)  # companion of t^2 - 1
    assert np.allclose(sorted(eigenvalues(comp).real), [-1, 1])


def test_eigenvalues_gr24_c1_matrix():
    # multiplication by 4*sigma_1 on the Schubert basis of Gr(2,4) at q = 1,
    # in the basis (empty, 1, 2, 11, 21, 22); oracle: 4 * sums of pairs of
    # distinct roots of z^4 = -1
    M = np.zeros((6, 6), dtype=complex)
    basis = ["e", "1", "2", "11", "21", "22"]
    ix = {b: i for i, b in enumerate(basis)}
    prod = {
        "e": {"1": 1}, "1": {"2": 1, "11": 1}, "2": {"21": 1},
        "11": {"21": 1}, "21": {"22": 1, "e": 1}, "22": {"1": 1},
    }
    for col, row_map in prod.items():
        for row, c in row_map.items():
            M[ix[row], ix[col]] = c
    got = sorted(np.round(eigenvalues(4 * M), 8), key=lambda z: (z.real, z.imag))
    roots = [np.exp(1j * np.pi * (2 * k + 1) / 4) for k in range(4)]
    want = sorted(
        (4 * (roots[a] + roots[b]) for a, b in itertools.combinations(range(4), 2)),
        key=lambda z: (round(z.real, 8), round(z.imag, 8)))
    assert np.allclose(got, np.round(want, 8), atol=1e-7)


def test_eigenvalue_similarity_invariance():
    rng = np.random.default_rng(5)
    M = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
    S = rng.normal(size=(7, 7)) + np.eye(7) * 4
    a = sorted(eigenvalues(M), key=lambda z: (round(z.real, 6), round(z.imag, 6)))
    b = sorted(eigenvalues(S @ M @ np.linalg.inv(S)),
               key=lambda z: (round(z.real, 6), round(z.imag, 6)))
    assert np.abs(np.array(a) - np.array(b)).max() < 1e-6
