import random
from collections import Counter

import numpy as np
import pytest
from tests_support import chevalley_terms, eigenvalues, monk_column

from flagmirror.combinat import (
    FlagShape,
    Permutation,
    all_shapes,
    build_xi_and_wJ,
    grassmannian_word,
    is_minimal_rep,
    min_rep_of,
    minimal_reps,
)
from flagmirror.crit import find_critical_points
from flagmirror.errors import InvalidRange
from flagmirror.qhpartial import (
    c1_matrix,
    c1_spectrum,
    partial_ring,
    spectrum_report,
    validate_q,
)
from flagmirror.schubring import class_product
from flagmirror.verify import _min_cost_assignment


def P(s):
    return Permutation.from_string(s)


def table_terms(shape, w, j):
    """The entries of sigma_{s_{n_j}} * sigma_w in the table of
    ``partial_ring(shape)``: (target, q-exponent vector) -> multiplicity."""
    ring = partial_ring(shape)
    return Counter((ring.basis[row], d)
                   for row, d in ring.chevalley_cols[j - 1][ring.index(w)])


def test_chevalley_gr24_example():
    shape = FlagShape(4, (2,))
    got = table_terms(shape, P("2413"), 1)
    assert got == {(P("3412"), (0,)): 1, (P("1234"), (1,)): 1}


def test_chevalley_identity():
    shape = FlagShape(7, (2, 4))
    for j in (1, 2):
        got = table_terms(shape, Permutation.identity(7), j)
        s = Permutation.identity(7).times_s(shape.nj(j))
        assert got == {(s, (0, 0)): 1}


def test_chevalley_matrix_rejects_bad_divisor_index():
    ring = partial_ring(FlagShape(4, (1, 2)))
    for j in (0, 3, -1):
        with pytest.raises(InvalidRange, match=f"j={j} outside 1..2"):
            ring.chevalley_matrix(j, [1.0, 1.0])


def test_non_finite_quantum_parameters_are_input_errors():
    # nan and inf are rejected before any matrix is built: not reported as a
    # solver failure (ConvergenceFailure) or an untyped OverflowError
    shape = FlagShape(4, (2,))
    nan, inf = float("nan"), float("inf")
    for q in ([nan], [inf], [-inf], [complex(1, inf)], [complex(nan, 1)], ["1e400"]):
        want = f"quantum parameters must be finite, got {[complex(v) for v in q]}"
        for call in (validate_q, c1_spectrum, find_critical_points):
            with pytest.raises(ValueError) as got:
                call(shape, q)
            assert str(got.value) == want
    with pytest.raises(ValueError, match="must be finite"):
        validate_q(FlagShape(4, (1, 2)), [1.0, nan])


def test_numeric_operators_reject_non_finite_values():
    # the operators allow q = 0, so they do not call validate_q; a nan or inf
    # in q or in the weights is still an input error, not a matrix of nan
    shape = FlagShape(4, (1, 2))
    ring = partial_ring(shape)
    nan, inf = float("nan"), float("inf")
    for bad in ([nan, 1.0], [1.0, inf], [complex(1, -inf), 0.0]):
        want = f"quantum parameters must be finite, got {[complex(v) for v in bad]}"
        for call in (lambda: ring.chevalley_matrix(2, bad), lambda: c1_matrix(shape, bad),
                     lambda: ring.divisor_combination([1, 1], bad)):
            with pytest.raises(ValueError) as got:
                call()
            assert str(got.value) == want
        with pytest.raises(ValueError) as got:
            ring.divisor_combination(bad, [1.0, 1.0])
        assert str(got.value) == f"weights must be finite, got {bad}"
    with pytest.raises(ValueError, match="must be finite"):
        c1_matrix(FlagShape(4, (2,)), [nan])


def test_numeric_operators_reject_a_wrong_number_of_values():
    # a missing q_j is not read as 1 and an extra one is not ignored; the
    # message is the one validate_q gives
    shape = FlagShape(4, (1, 2))
    ring = partial_ring(shape)
    for q in ([2.0], [2.0, 1.0, 3.0], []):
        with pytest.raises(ValueError) as want:
            validate_q(shape, q)
        assert str(want.value) == f"1,2;4 takes one quantum parameter per step (2), got {len(q)}"
        for call in (lambda: ring.chevalley_matrix(1, q), lambda: c1_matrix(shape, q),
                     lambda: ring.divisor_combination([1, 1], q)):
            with pytest.raises(ValueError) as got:
                call()
            assert str(got.value) == str(want.value)
    for weights in ([1], [1, 2, 3]):
        with pytest.raises(ValueError, match=rf"takes one weight per step \(2\), got {len(weights)}"):
            ring.divisor_combination(weights, [1.0, 1.0])
    # q = 0 is the classical limit, not an error
    M = c1_matrix(shape, [0, 0])
    assert np.array_equal(M, ring.divisor_combination(shape.qdegs, [0.0, 0.0]))
    assert not np.linalg.matrix_power(M, ring.dim).any()  # nilpotent


def test_quantum_term_matches_wJ_remark():
    # sigma_{J u [i+1, n]} * sigma_{s_{n_{j+1}}} has quantum part
    # q_{n_{j+1}} sigma_{w_J} for every J in Xi
    shape = FlagShape(7, (2, 4))
    j, i = 1, 4
    for J0, wJ in build_xi_and_wJ(shape, j, i).items():
        first = set(J0) | set(range(i, shape.n))
        w = Permutation(grassmannian_word(first, shape.n))
        w = min_rep_of(w, shape)
        out = table_terms(shape, w, j + 1)
        quantum = {(t, d): c for (t, d), c in out.items() if any(d)}
        if wJ is None:
            assert not quantum
        else:
            d = tuple(int(m == j + 1) for m in range(1, shape.r + 1))
            assert quantum == {(Permutation(wJ), d): 1}


def _monkrule_oracle(w, j, shape):
    """Grassmannian quantum Pieri: classical Monk terms plus at most one
    quantum term sigma_{w tau}, per the stated existence condition."""
    n, r = shape.n, shape.r
    nj = shape.nj(j)
    ol = w.oneline
    out = {}
    for a in range(1, nj + 1):
        for b in range(nj + 1, n + 1):
            wt = w.times_transposition(a - 1, b - 1)
            if wt.length == w.length + 1 and is_minimal_rep(wt, shape):
                out[wt] = out.get(wt, 0) + 1
    njm1, nj1 = shape.nj(j - 1), shape.nj(j + 1)
    # existence: w(n_j) > w(n_{j+1}) and w(n_j + 1) < w(n_{j-1} + 1)
    exists = ol[nj - 1] > ol[nj1 - 1] and ol[nj] < ol[njm1]
    tau_word = list(range(nj, nj1)) + list(range(nj - 1, njm1, -1))
    quantum = None
    if exists:
        wt = w
        for s in tau_word:
            wt = wt.times_s(s)
        quantum = wt
    return out, quantum


def test_grassmannian_case_reproduces_quantum_pieri():
    for n in range(2, 7):
        for shape in all_shapes(n):
            for j in range(1, shape.r + 1):
                nj = shape.nj(j)
                for w in minimal_reps(shape):
                    ol = w.oneline
                    grassmannian = all(ol[a] < ol[a + 1]
                                       for a in range(n - 1) if a + 1 != nj)
                    if not grassmannian:
                        continue
                    got = table_terms(shape, w, j)
                    classical, quantum = _monkrule_oracle(w, j, shape)
                    cterms = {t: c for (t, d), c in got.items() if not any(d)}
                    qterms = {(t, d): c for (t, d), c in got.items() if any(d)}
                    assert cterms == classical
                    assert len(qterms) <= 1  # at most one quantum term
                    if quantum is not None:
                        d = tuple(1 if m == j else 0 for m in range(1, shape.r + 1))
                        assert qterms == {(quantum, d): 1}
                    else:
                        assert not qterms


def _sym_matmul(A, B, dim, r):
    out = [dict() for _ in range(dim)]
    for col in range(dim):
        for mid, d1 in B[col].items():
            for row, d2 in A[mid].items():
                key = tuple(a + b for a, b in zip(d1, d2))
                acc = out[col]
                acc[(row, key)] = acc.get((row, key), 0) + 1
    return out


def test_chevalley_operators_commute_symbolically():
    for n in range(2, 7):
        for shape in all_shapes(n):
            ring = partial_ring(shape)
            dim = ring.dim
            mats = [[dict(col) for col in cols] for cols in ring.chevalley_cols]
            for a in range(shape.r):
                for b in range(a + 1, shape.r):
                    ab = _sym_matmul(mats[a], mats[b], dim, shape.r)
                    ba = _sym_matmul(mats[b], mats[a], dim, shape.r)
                    assert ab == ba


def test_classical_limit_vs_complete_flag_monk():
    # at q = 0 the Chevalley matrix agrees with classical Monk computed in the
    # complete-flag ring and restricted to W^P
    for n in range(3, 6):
        for shape in all_shapes(n):
            if shape.r == n - 1:  # complete flags
                continue
            reps = set(minimal_reps(shape))
            for w in minimal_reps(shape)[:6]:
                for j in range(1, shape.r + 1):
                    classical = {t for t, d in table_terms(shape, w, j) if not any(d)}
                    s = Permutation.identity(n).times_s(shape.nj(j))
                    full = class_product(s, w, n)
                    want = set()
                    for t, c in full.terms.items():
                        if any(any(e) for e in c.terms):
                            continue
                        if t in reps:
                            want.add(t)
                    assert classical == want


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_chevalley_terms_match_monk_columns_on_complete_flags(n):
    # the partial-flag quantum Chevalley rule on 1,...,n-1;n and the
    # complete-flag quantum Monk rule of the operators are the same rule
    shape = FlagShape(n, tuple(range(1, n)))
    ring = partial_ring(shape)
    for ci, w in enumerate(ring.basis):
        cols = monk_column(w.oneline)
        for j in range(1, n):
            got = sorted((ring.basis[row].oneline, d)
                         for row, d in ring.chevalley_cols[j - 1][ci])
            assert got == sorted(cols[j - 1]), (w, j)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_chevalley_tables_match_per_pair_rule(n):
    # the hoisted, pruned tables of partial_ring against the rule applied one
    # transposition at a time, entry order included
    for shape in all_shapes(n):
        ring = partial_ring(shape)
        index = {w: i for i, w in enumerate(ring.basis)}
        for j in range(1, shape.r + 1):
            want = tuple(tuple((index[t], d) for t, d in chevalley_terms(w, j, shape))
                         for w in ring.basis)
            assert ring.chevalley_cols[j - 1] == want, (shape, j)


def _per_pair_combination(shape, weights, q):
    """sum_j weights[j-1] C_j(q), each C_j assembled from ``chevalley_terms``
    in its entry order, the same floating-point operations as the table's."""
    basis = minimal_reps(shape)
    index = {w: i for i, w in enumerate(basis)}
    M = np.zeros((len(basis), len(basis)), dtype=complex)
    for j, weight in enumerate(weights, 1):
        C = np.zeros_like(M)
        for ci, w in enumerate(basis):
            for t, d in chevalley_terms(w, j, shape):
                val = 1.0 + 0j
                for dm, qv in zip(d, q):
                    if dm:
                        val *= qv ** dm
                C[index[t], ci] += val
        M += weight * C
    return M


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_divisor_combination_matches_per_pair_rule(n):
    # the numeric operators at q = 1 and at a complex multi-parameter fiber,
    # for the weights of c_1 and for seeded complex ones, byte for byte
    rng = random.Random(11)
    for shape in all_shapes(n):
        ring = partial_ring(shape)
        for q in ([1.0] * shape.r, [0.9 + 0.13j * j for j in range(1, shape.r + 1)]):
            q = [complex(v) for v in q]
            weights = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(shape.r)]
            for w in (shape.qdegs, weights):
                got = ring.divisor_combination(w, q)
                assert got.tobytes() == _per_pair_combination(shape, w, q).tobytes(), (shape, q, w)
            assert c1_matrix(shape, q).tobytes() == \
                ring.divisor_combination(shape.qdegs, q).tobytes()


def test_c1_class_examples():
    # c_1 = c_1 * sigma_id read off the identity column of c1_matrix at q = 0
    def c1_class(shape):
        ring = partial_ring(shape)
        col = c1_matrix(shape, [0] * shape.r)[:, ring.index(Permutation.identity(shape.n))]
        return {ring.basis[i]: col[i] for i in np.flatnonzero(col)}

    got = c1_class(FlagShape(7, (2, 4)))
    s2 = Permutation.identity(7).times_s(2)
    s4 = Permutation.identity(7).times_s(4)
    assert got == {s2: 4, s4: 5}
    assert c1_class(FlagShape(5, (2,))) == {Permutation.identity(5).times_s(2): 5}
    assert sorted(c1_class(FlagShape(3, (1, 2))).values()) == [2, 2]


def test_c1_spectrum_examples():
    got = sorted(np.round(c1_spectrum(FlagShape(4, (2,)), [1.0]), 8),
                 key=lambda z: (z.real, z.imag))
    s = 4 * np.sqrt(2)
    want = sorted([s, -s, 1j * s, -1j * s, 0, 0],
                  key=lambda z: (np.real(z), np.imag(z)))
    assert np.allclose(got, want, atol=1e-7)
    assert np.allclose(sorted(c1_spectrum(FlagShape(2, (1,)), [1.0]).real), [-2, 2])


def _check_against_eigvals(shape):
    # c_1's values are Rayleigh quotients of the eigenvectors of the seeded
    # divisor combination; the oracle is LAPACK's eigvals of c1_matrix
    for q in ([1.0] * shape.r, [0.9 + 0.13j * j for j in range(1, shape.r + 1)]):
        want = eigenvalues(c1_matrix(shape, q))
        got = c1_spectrum(shape, q)
        cost = np.abs(got[:, None] - want[None, :])
        rows, cols = _min_cost_assignment(cost)
        assert cost[rows, cols].max() <= 1e-12 * (1 + np.abs(want).max()), q


@pytest.mark.parametrize("shape", [s for n in range(2, 6) for s in all_shapes(n)],
                         ids=FlagShape.to_string)
def test_c1_spectrum_matches_eigvals(shape):
    _check_against_eigvals(shape)


@pytest.mark.slow
@pytest.mark.parametrize("shape", all_shapes(6), ids=FlagShape.to_string)
def test_c1_spectrum_matches_eigvals_n6(shape):
    _check_against_eigvals(shape)


def test_trace_zero():
    rng = random.Random(0)
    for n in range(2, 6):
        for shape in all_shapes(n):
            q = [complex(0.8 + rng.random(), rng.random() - 0.5)
                 for _ in range(shape.r)]
            M = c1_matrix(shape, q)
            assert abs(np.trace(M)) < 1e-10
            assert abs(c1_spectrum(shape, q).sum()) < 1e-7


def test_spectrum_invariance_under_basis_permutation():
    rng = np.random.default_rng(1)
    shape = FlagShape(4, (1, 2))
    q = [1.3, 0.7 + 0.2j]
    M = c1_matrix(shape, q)
    perm = rng.permutation(M.shape[0])
    Q = np.eye(M.shape[0])[perm]
    a = sorted(c1_spectrum(shape, q), key=lambda z: (round(z.real, 6), round(z.imag, 6)))
    b = sorted(eigenvalues(Q @ M @ Q.T),
               key=lambda z: (round(z.real, 6), round(z.imag, 6)))
    assert np.abs(np.array(a) - np.array(b)).max() < 1e-8


def test_spectrum_report_schema():
    rep = spectrum_report(FlagShape(2, (1,)), [1.0])
    assert rep["shape"] == "1;2" and rep["dim"] == 2
    assert all(len(v) == 2 for v in rep["eigenvalues"])
    with pytest.raises(ValueError):
        c1_spectrum(FlagShape(2, (1,)), [0.0])
