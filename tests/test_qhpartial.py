import random

import numpy as np
import pytest
from tests_support import chevalley_terms, monk_column

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
from flagmirror.errors import InvalidRange, NotMinimalRep
from flagmirror.exactalg import MPoly
from flagmirror.qhpartial import (
    c1_class,
    c1_matrix,
    c1_spectrum,
    chevalley_multiply,
    partial_q_table,
    partial_ring,
    spectrum_report,
)
from flagmirror.schubring import QHClass, class_product


def P(s):
    return Permutation.from_string(s)


def qvar(shape, j):
    return MPoly.var(partial_q_table(shape), f"q{shape.nj(j)}")


def one(shape, w, coeff=1):
    return QHClass(shape, {w: MPoly.const(partial_q_table(shape), coeff)})


def test_chevalley_gr24_example():
    shape = FlagShape(4, (2,))
    got = chevalley_multiply(P("2413"), 1, shape)
    want = one(shape, P("3412")) + QHClass(shape, {P("1234"): qvar(shape, 1)})
    assert got == want


def test_chevalley_identity():
    shape = FlagShape(7, (2, 4))
    for j in (1, 2):
        got = chevalley_multiply(Permutation.identity(7), j, shape)
        s = Permutation.identity(7).times_s(shape.nj(j))
        assert got == one(shape, s)


def test_chevalley_rejects_non_reps():
    with pytest.raises(NotMinimalRep):
        chevalley_multiply(P("2143"), 1, FlagShape(4, (2,)))


def test_chevalley_rejects_bad_divisor_index():
    shape = FlagShape(4, (1, 2))
    for j in (0, 3):
        with pytest.raises(InvalidRange):
            chevalley_multiply(P("2134"), j, shape)


def test_quantum_term_matches_wJ_remark():
    # sigma_{J u [i+1, n]} * sigma_{s_{n_{j+1}}} has quantum part
    # q_{n_{j+1}} sigma_{w_J} for every J in Xi
    shape = FlagShape(7, (2, 4))
    j, i = 1, 4
    for J0, wJ in build_xi_and_wJ(shape, j, i).items():
        first = set(J0) | set(range(i, shape.n))
        w = Permutation(grassmannian_word(first, shape.n))
        w = min_rep_of(w, shape)
        out = chevalley_multiply(w, j + 1, shape)
        quantum = {t: c for t, c in out.terms.items()
                   if any(any(e) for e in c.terms)}
        if wJ is None:
            assert not quantum
        else:
            wJ = Permutation(wJ)
            assert set(quantum) == {wJ}
            assert quantum[wJ] == qvar(shape, j + 1)


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
                    got = chevalley_multiply(w, j, shape)
                    classical, quantum = _monkrule_oracle(w, j, shape)
                    want = {}
                    for t, c in classical.items():
                        want[t] = MPoly.const(partial_q_table(shape), c)
                    qterms = {t: c for t, c in got.terms.items()
                              if any(any(e) for e in c.terms)}
                    cterms = {t: c for t, c in got.terms.items()
                              if not any(any(e) for e in c.terms)}
                    assert cterms == want
                    assert len(qterms) <= 1  # at most one quantum term
                    if quantum is not None:
                        d = tuple(1 if m == j else 0 for m in range(1, shape.r + 1))
                        assert qterms == {quantum: MPoly.monomial(
                            partial_q_table(shape), d)}
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
            mats = []
            for j in range(1, shape.r + 1):
                m = [dict(ring.chevalley_cols[j - 1][c]) for c in range(dim)]
                mats.append([{row: d for row, d in col.items()} for col in m])
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
            if shape.is_complete:
                continue
            reps = set(minimal_reps(shape))
            for w in minimal_reps(shape)[:6]:
                for j in range(1, shape.r + 1):
                    got = chevalley_multiply(w, j, shape)
                    classical = {t for t, c in got.terms.items()
                                 if not any(any(e) for e in c.terms)}
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
            want = {ci: tuple((index[t], d) for t, d in chevalley_terms(w, j, shape))
                    for ci, w in enumerate(ring.basis)}
            assert ring.chevalley_cols[j - 1] == want, (shape, j)


def test_c1_class_examples():
    shape = FlagShape(7, (2, 4))
    got = c1_class(shape)
    s2 = Permutation.identity(7).times_s(2)
    s4 = Permutation.identity(7).times_s(4)
    assert got.terms[s2].constant() == 4
    assert got.terms[s4].constant() == 5
    shape = FlagShape(5, (2,))
    assert c1_class(shape).terms[Permutation.identity(5).times_s(2)].constant() == 5
    shape = FlagShape(3, (1, 2))
    vals = sorted(c.constant() for c in c1_class(shape).terms.values())
    assert vals == [2, 2]


def test_c1_spectrum_examples():
    got = sorted(np.round(c1_spectrum(FlagShape(4, (2,)), [1.0]), 8),
                 key=lambda z: (z.real, z.imag))
    s = 4 * np.sqrt(2)
    want = sorted([s, -s, 1j * s, -1j * s, 0, 0],
                  key=lambda z: (np.real(z), np.imag(z)))
    assert np.allclose(got, want, atol=1e-7)
    assert np.allclose(sorted(c1_spectrum(FlagShape(2, (1,)), [1.0]).real), [-2, 2])


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
    from flagmirror.exactalg import eigenvalues
    b = sorted(eigenvalues(Q @ M @ Q.T),
               key=lambda z: (round(z.real, 6), round(z.imag, 6)))
    assert np.abs(np.array(a) - np.array(b)).max() < 1e-8


def test_spectrum_report_schema():
    rep = spectrum_report(FlagShape(2, (1,)), [1.0])
    assert rep["shape"] == "1;2" and rep["dim"] == 2
    assert all(len(v) == 2 for v in rep["eigenvalues"])
    with pytest.raises(ValueError):
        c1_spectrum(FlagShape(2, (1,)), [0.0])
