import itertools
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from tests_support import as_pyfunc, fraction_inverse, laplace_det, reference_lu

from flagmirror.combinat import FlagShape, Permutation, all_shapes
from flagmirror.errors import ConvergenceFailure, DimensionMismatch, PivotFailure
from flagmirror.exactalg import (
    MPoly,
    VarTable,
    det,
    eigenvalues,
    leading_minors,
    lu_unipotent,
    minor,
)
from flagmirror.mirror import superpotential
from flagmirror.schubring import normal_form, quantum_H, quantum_schubert, xq_table

TAB = VarTable.make([("x1", "x", 1), ("x2", "x", 1), ("q1", "q", 2)])


def _vars():
    return (MPoly.var(TAB, "x1"), MPoly.var(TAB, "x2"), MPoly.var(TAB, "q1"))


coeffs = st.integers(min_value=-5, max_value=5)
exps = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2))
polys = st.dictionaries(exps, coeffs, max_size=6).map(lambda d: MPoly(TAB, d))


@given(polys, polys, polys)
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a - a == MPoly.zero(TAB)


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
    f = as_pyfunc(p)
    assert abs(f([2.0, 3.0, 0.5]) - 13.0) < 1e-12


def test_minor_basics():
    eye = [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]
    assert minor(eye, [2], [2]) == 1
    assert minor(eye, [], []) == 1
    assert minor([[1, 2], [3, 4]], [0], [1]) == 2  # rows {1}, cols {2}
    with pytest.raises(DimensionMismatch):
        minor(eye, [0, 1], [0])


def test_det_matches_recursive_laplace_random_rational():
    rng = random.Random(0)
    for _ in range(10):
        M = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(5)]
             for _ in range(5)]
        assert det(M) == laplace_det(M)


def test_det_of_integer_matrix_is_an_exact_int():
    # the expansion never divides, so int entries give an int, never a float
    got = det([[2, 1, 0], [1, 3, 1], [0, 1, 4]])
    assert got == 18 and type(got) is int
    a = 10 ** 17
    M = [[a + 3, 5, 7], [2, a - 11, 13], [17, 19, a + 53]]
    got = det(M)
    assert type(got) is int and got == laplace_det(M)
    assert float(got) != got  # past 2^53: a float result could not be exact


def test_det_of_polynomial_matrix():
    x1, x2, q1 = _vars()
    M = [[x1, 1, 0], [x2, 0, 1], [1, 0, 0]]
    assert det(M) == MPoly.const(TAB, 1)
    M2 = [[x1, q1], [1, x2]]
    assert det(M2) == x1 * x2 - q1


def test_singular_polynomial_matrix_gives_the_zero_mpoly():
    # rows 1 and 3 are proportional; the zero must be an MPoly of the
    # entries' table, not a bare int, so normal_form accepts it
    n = 3
    x1, x2 = MPoly.var(xq_table(n), "x1"), MPoly.var(xq_table(n), "x2")
    M = [[x1, x2, 1], [x2, 0, x1 * x2], [2 * x1, 2 * x2, 2]]
    d = det(M)
    assert type(d) is MPoly and d.table == xq_table(n) and d == MPoly.zero(xq_table(n))
    assert normal_form(d, n).is_zero()
    minors = leading_minors([[0, x1], [0, x2]], 2)
    assert all(type(m) is MPoly for m in minors.values())
    assert minors[()] == 1 and minors[(0,)] == 0 and minors[(0, 1)] == 0


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
        assert lhs == Fraction(sign * minor(A, Kc, Jc), dA)
        done += 1


def _assert_int_coefficients(p: MPoly):
    for c in p.terms.values():
        assert type(c) is int, (p, c)


def test_coefficients_are_ints():
    # every coefficient is an int, and no float or fraction ever enters: on
    # the superpotential, the quantum Schubert polynomials and determinants
    for n in range(2, 6):
        for shape in all_shapes(n):
            for t in superpotential(shape):
                _assert_int_coefficients(t.numerator)
                _assert_int_coefficients(t.denominator)
    for ol in itertools.permutations(range(4)):
        _assert_int_coefficients(quantum_schubert(Permutation(ol), 4))
    quantum_H.cache_clear()  # a determinant of quantum elementary polynomials
    _assert_int_coefficients(quantum_H(3, 2, 5))
    x1, x2, q1 = _vars()
    M = [[x1 * 3, q1, 1], [x2, x1 * x2, -2], [3, x2 * 2, x1 + q1]]
    d = det(M)
    _assert_int_coefficients(d)
    assert d == laplace_det(M)
    # any other coefficient is refused, an integral Fraction too, and a
    # polynomial has no division
    for c in (Fraction(4, 2), Fraction(-1, 2), 0.5, 2.0):
        with pytest.raises(TypeError):
            MPoly.const(TAB, c)
    with pytest.raises(TypeError):
        x1 / 2
    # arithmetic with a scalar that is neither an int nor an MPoly is refused
    # as unsupported, not failed inside the table check
    for expr in (lambda: x1 * 0.5, lambda: x1 + 0.5, lambda: 0.5 * x1):
        with pytest.raises(TypeError, match="unsupported operand"):
            expr()
    # and a subtraction is reported as one, not as the addition it becomes
    for expr in (lambda: x1 - Fraction(1, 2), lambda: x1 - 0.5, lambda: 0.5 - x1,
                 lambda: Fraction(1, 2) - x1):
        with pytest.raises(TypeError, match="unsupported operand type.s. for -:"):
            expr()
    assert 3 - x1 == -(x1 - 3)
    # a denominator whose leading coefficient is not a unit does not normalise
    shape = FlagShape.from_string("2;4")
    t = superpotential(shape)[0]
    with pytest.raises(AssertionError, match=rf"coefficient 2 at D_{t.divisor_k} of 2;4 "):
        replace(t, denominator=2 * t.denominator).normalized(shape)


def test_lu_unipotent_examples():
    # small integer entries: every operation is exact in floating point
    L, U = lu_unipotent([[2, 0], [3, 5]])
    assert L.dtype == U.dtype == complex
    assert L.tolist() == [[2, 0], [3, 5]] and U.tolist() == [[1, 0], [0, 1]]
    L, U = lu_unipotent([[1, 1], [1, 2]])
    assert L.tolist() == [[1, 0], [1, 1]] and U.tolist() == [[1, 1], [0, 1]]
    with pytest.raises(DimensionMismatch):
        lu_unipotent(np.ones((2, 3)))


def test_lu_stack_matches_reference_lu():
    # the batched LU against the per-matrix Crout loop on seeded complex
    # stacks, with some leading principal minors made to vanish: the same
    # matrices rejected (nan in the stack, PivotFailure for one matrix), and
    # L and U equal to 1e-12 relative elsewhere
    rng = np.random.default_rng(21)
    for n in range(1, 8):
        A = rng.normal(size=(40, n, n)) + 1j * rng.normal(size=(40, n, n))
        for i, k in enumerate(rng.integers(1, n + 1, size=8)):
            A[i, :k, :k] = A[i, :k, :k] @ np.diag([0] + [1] * (k - 1))  # minor k vanishes
        L, U = lu_unipotent(A)
        rejected = 0
        for a, l, u in zip(A, L, U):
            try:
                want_l, want_u = reference_lu(a)
            except PivotFailure:
                rejected += 1
                assert np.isnan(l).all() and np.isnan(u).all()
                with pytest.raises(PivotFailure):
                    lu_unipotent(a)
                continue
            assert np.abs(l - want_l).max() <= 1e-12 * np.abs(want_l).max()
            assert np.abs(u - want_u).max() <= 1e-12 * np.abs(want_u).max()
            single_l, single_u = lu_unipotent(a)
            assert np.array_equal(single_l, l) and np.array_equal(single_u, u)
        assert rejected == 8
    L, U = lu_unipotent(np.zeros((0, 3, 3)))
    assert L.shape == U.shape == (0, 3, 3)


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
    # LAPACK refuses a non-finite matrix; that is a ConvergenceFailure too
    with pytest.raises(ConvergenceFailure):
        eigenvalues(np.array([[np.nan, 1.0], [0.0, 1.0]]))


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
