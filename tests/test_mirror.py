import logging
import random
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from tests_support import (LambdaChart, as_pyfunc, laplace_det, minor, reduced_word,
                           young_view_L)

from flagmirror.combinat import FlagShape, Permutation, all_shapes
from flagmirror.errors import BadSubsetSize, NearPole, OffChart, PivotFailure
from flagmirror.exactalg import MPoly, leading_minors
from flagmirror.mirror import (
    POLE_GUARD,
    _evaluator_source,
    _poly_src,
    chart_table,
    chart_vector,
    divisor_equations,
    f_minus_chart,
    f_minus_eval,
    f_minus_eval_uv,
    index_term_to_young,
    pluecker,
    pluecker_columns,
    pluecker_name,
    pluecker_table,
    random_z_vector,
    superpotential,
    symbolic_z,
    term_to_json,
    term_to_latex,
    uv_from_z,
    w0_matrix,
    wPw0_matrix,
    young_name,
    young_table,
    young_view,
    z_from_vector,
    zchart,
)

RNG = random.Random(11)


def _terms_by_k(shape):
    return {t.divisor_k: t for t in superpotential(shape)}


def _pvar(shape, digits):
    return MPoly.var(pluecker_table(shape), f"p_{digits}")


def _qvar(shape, nj):
    return MPoly.var(pluecker_table(shape), f"q{nj}")


def test_example_f247_term_for_term():
    shape = FlagShape(7, (2, 4))
    tk = _terms_by_k(shape)
    assert len(tk) == 8
    assert (tk[1].numerator, tk[1].denominator) == (_pvar(shape, "27"), _pvar(shape, "17"))
    assert (tk[2].numerator, tk[2].denominator) == (_pvar(shape, "13"), _pvar(shape, "12"))
    num = (_pvar(shape, "24") * _pvar(shape, "1567")
           - _pvar(shape, "14") * _pvar(shape, "2567")
           + _pvar(shape, "12") * _pvar(shape, "4567"))
    den = (_pvar(shape, "23") * _pvar(shape, "1567")
           - _pvar(shape, "13") * _pvar(shape, "2567")
           + _pvar(shape, "12") * _pvar(shape, "3567"))
    assert (tk[3].numerator, tk[3].denominator) == (num, den)
    assert (tk[4].numerator, tk[4].denominator) == (_pvar(shape, "1235"), _pvar(shape, "1234"))
    assert (tk[5].numerator, tk[5].denominator) == (_pvar(shape, "2346"), _pvar(shape, "2345"))
    assert (tk[6].numerator, tk[6].denominator) == (_pvar(shape, "3457"), _pvar(shape, "3456"))
    assert (tk[7].numerator, tk[7].denominator) == (
        _qvar(shape, 2) * _pvar(shape, "46"), _pvar(shape, "67"))
    assert (tk[8].numerator, tk[8].denominator) == (
        _qvar(shape, 4) * _pvar(shape, "1467"), _pvar(shape, "4567"))


def test_example_fl124():
    shape = FlagShape(4, (1, 2))
    tk = _terms_by_k(shape)
    assert (tk[1].numerator, tk[1].denominator) == (_pvar(shape, "2"), _pvar(shape, "1"))
    assert (tk[2].numerator, tk[2].denominator) == (_pvar(shape, "13"), _pvar(shape, "12"))
    assert (tk[3].numerator, tk[3].denominator) == (_pvar(shape, "24"), _pvar(shape, "23"))
    assert (tk[4].numerator, tk[4].denominator) == (
        _qvar(shape, 1) * _pvar(shape, "3"), _pvar(shape, "4"))
    assert (tk[5].numerator, tk[5].denominator) == (
        _qvar(shape, 2) * _pvar(shape, "14"), _pvar(shape, "34"))


def _set_str(vals):
    return "".join(str(v) for v in sorted(vals))


def test_complete_flag_shape_formula():
    # no middle terms; u-terms p_{[i-1] u {i+1}} / p_{[i]} and the quantum
    # terms q_i p_{[n-i, n] minus {n-i+1}} / p_{[n-i+1, n]}
    for n in (3, 4, 5):
        shape = FlagShape(n, tuple(range(1, n)))
        tk = _terms_by_k(shape)
        assert not any(t.family == "u-mid" for t in tk.values())
        for i in range(1, n):
            num = _set_str(list(range(1, i)) + [i + 1])
            den = _set_str(range(1, i + 1))
            assert tk[i].numerator == _pvar(shape, num)
            assert tk[i].denominator == _pvar(shape, den)
            qnum = _set_str(set(range(n - i, n + 1)) - {n - i + 1})
            qden = _set_str(range(n - i + 1, n + 1))
            assert tk[n - 1 + i].numerator == _qvar(shape, i) * _pvar(shape, qnum)
            assert tk[n - 1 + i].denominator == _pvar(shape, qden)


def test_grassmannian_shape_formula():
    # no middle terms; the quantum numerator always contains column 1
    for (k, n) in [(2, 4), (2, 5), (3, 7), (1, 4), (3, 4)]:
        shape = FlagShape(n, (k,))
        tk = _terms_by_k(shape)
        assert not any(t.family == "u-mid" for t in tk.values())
        for i in range(1, k):
            num = _set_str(list(range(1, i)) + [i + 1] + list(range(n - k + i + 1, n + 1)))
            den = _set_str(list(range(1, i + 1)) + list(range(n - k + i + 1, n + 1)))
            assert (tk[i].numerator, tk[i].denominator) == (
                _pvar(shape, num), _pvar(shape, den))
        for i in range(k + 1, n):
            num = _set_str(set(range(i - k + 1, i + 2)) - {i})
            den = _set_str(range(i - k + 1, i + 1))
            assert (tk[i].numerator, tk[i].denominator) == (
                _pvar(shape, num), _pvar(shape, den))
        assert (tk[k].numerator, tk[k].denominator) == (
            _pvar(shape, _set_str(list(range(1, k)) + [k + 1])),
            _pvar(shape, _set_str(range(1, k + 1))))
        qnum = _set_str({1} | set(range(n - k + 1, n)))
        qden = _set_str(range(n - k + 1, n + 1))
        assert (tk[n].numerator, tk[n].denominator) == (
            _qvar(shape, k) * _pvar(shape, qnum), _pvar(shape, qden))


def test_divisor_equation_cases():
    shape = FlagShape(7, (2, 4))
    divs = divisor_equations(shape)
    assert divs[2] == _pvar(shape, "12")
    assert divs[4] == _pvar(shape, "1234")
    assert divs[7] == _pvar(shape, "67")  # quantum divisor of the first step
    assert divs[8] == _pvar(shape, "4567")
    want = (_pvar(shape, "12") * _pvar(shape, "3567")
            - _pvar(shape, "13") * _pvar(shape, "2567")
            + _pvar(shape, "23") * _pvar(shape, "1567"))
    assert divs[3] == want
    assert divs[1] == _pvar(shape, "17")


def test_divisor_equations_are_fresh_per_call():
    shape = FlagShape(7, (2, 4))
    divisor_equations(shape).pop(1)
    assert divisor_equations(shape)[1] == _pvar(shape, "17")


def test_divisor_bijection_small():
    for n in range(2, 7):
        for shape in all_shapes(n):
            divs = divisor_equations(shape)
            ks = sorted(t.divisor_k for t in superpotential(shape))
            assert ks == list(range(1, shape.n + shape.r))
            for t in superpotential(shape):
                assert t.denominator == divs[t.divisor_k]


def test_pluecker_basics():
    shape = FlagShape(7, (2, 4))
    z = z_from_vector(shape, random_z_vector(shape, RNG))
    # last n_j columns give the identity blocks, determinant +-1
    for k in shape.steps:
        val = pluecker(z, range(7 - k, 7), shape)
        assert abs(abs(val) - 1) < 1e-12
    with pytest.raises(BadSubsetSize):
        pluecker(z, [0, 1, 2], shape)
    s = FlagShape(3, (1,))
    z3 = z_from_vector(s, [0.3 + 0.1j, 0.7])
    assert abs(pluecker(z3, [0], s) - z3[0, 0]) < 1e-15
    # Laplace consistency with the exact determinant of the submatrix
    got = pluecker(z, [0, 2, 4, 6], shape)
    assert abs(got - minor(z, range(4), [0, 2, 4, 6])) < 1e-12


def test_pluecker_rejects_columns_outside_or_repeated():
    shape = FlagShape(3, (2,))
    for cols in ([0, 5], [-1, 1], [0, 3], [0, 0], [2, 2]):
        with pytest.raises(BadSubsetSize, match=r"\[0, 3\)"):
            pluecker(np.eye(3), cols, shape)
    assert pluecker(np.eye(3), [1, 0], shape) == 1


def test_symbolic_z_and_chart():
    for n in range(2, 7):
        for shape in all_shapes(n):
            assert len(zchart(shape)) == shape.dim
            z = z_from_vector(shape, random_z_vector(shape, RNG))
            assert abs(np.linalg.det(z) - 1) < 1e-9
            M = symbolic_z(shape)
            vec = random_z_vector(shape, RNG)
            z2 = z_from_vector(shape, vec)
            for i in range(n):
                for j in range(n):
                    v = M[i][j]
                    got = v.substitute(list(vec)) if isinstance(v, MPoly) else v
                    assert abs(complex(got) - z2[i, j]) < 1e-12


def test_symbolic_z_is_fresh_per_call():
    shape = FlagShape(4, (2,))
    symbolic_z(shape)[0][0] = 7
    M = symbolic_z(shape)
    assert type(M[0][0]) is MPoly and M[0][0] == MPoly.var(chart_table(shape), "z1_1")


def test_chart_minors_match_recursive_laplace():
    # the chart's Plucker coordinates, typed over its table even when they
    # vanish, against the n!-term expansion of each submatrix
    for n in range(2, 6):
        for shape in all_shapes(n):
            zsym = symbolic_z(shape)
            for K, poly in leading_minors(zsym, shape.steps[-1]).items():
                assert type(poly) is MPoly and poly.table == chart_table(shape)
                assert poly == laplace_det([[zsym[i][c] for c in K] for i in range(len(K))])


def simple_reflection_matrix(i: int, n: int) -> np.ndarray:
    """exp(E_{i,i+1}) exp(-E_{i+1,i}) exp(E_{i,i+1}); i is 1-based."""
    M = np.eye(n)
    M[i - 1, i - 1] = 0.0
    M[i, i] = 0.0
    M[i - 1, i] = 1.0
    M[i, i - 1] = -1.0
    return M


def word_matrix(word, n: int) -> np.ndarray:
    """Representative matrix of s_{i_1} ... s_{i_m} from a reduced word."""
    M = np.eye(n)
    for i in word:
        M = M @ simple_reflection_matrix(i, n)
    return M


def test_representative_matrices():
    # the closed forms of w0_matrix and wPw0_matrix against products of
    # simple-reflection representatives, and word independence
    s1 = simple_reflection_matrix(1, 2)
    assert np.allclose(s1, [[0, 1], [-1, 0]])
    for n in range(2, 6):
        w0 = Permutation.longest(n)
        assert np.allclose(word_matrix(reduced_word(w0), n), w0_matrix(n))
        # a second reduced word via the reversed descent scan
        word = reduced_word(w0)
        alt = tuple(n - i for i in word)  # image under the diagram flip
        acc = Permutation.identity(n)
        for i in alt:
            acc = acc.times_s(i)
        if acc == w0:
            assert np.allclose(word_matrix(alt, n), w0_matrix(n))
    for shape in all_shapes(4) + all_shapes(5):
        n = shape.n
        # w_P^{-1} w_0 as a permutation: block reversal composed with reversal
        blocks = []
        for j in range(1, shape.r + 2):
            blocks.extend(reversed(range(shape.nj(j - 1), shape.nj(j))))
        wp = Permutation(tuple(blocks))
        w = wp.inverse
        w0 = Permutation.longest(n)
        prod = Permutation(tuple(w.oneline[i] for i in w0.oneline))
        assert np.allclose(
            word_matrix(reduced_word(prod), n), wPw0_matrix(shape))


def test_uvprop_minor_formulas():
    for n in range(2, 7):
        for shape in all_shapes(n):
            for _ in range(3):
                z = z_from_vector(shape, random_z_vector(shape, RNG, 0.5, 1.5))
                u, v = uv_from_z(z, shape)
                for i in range(1, n):
                    num = minor(z, range(i), list(range(i - 1)) + [i])
                    den = minor(z, range(i), range(i))
                    want = num / den
                    assert abs(u[i - 1, i] - want) < 1e-10 * (1 + abs(want))
                for j in range(1, shape.r + 1):
                    nj = shape.nj(j)
                    cols = sorted(({n - shape.nj(j + 1)} | set(range(n - nj, n)))
                                  - {n - shape.nj(j - 1) - 1})
                    num = minor(z, range(nj), cols)
                    den = minor(z, range(nj), range(n - nj, n))
                    want = num / den
                    assert abs(v[nj - 1, nj] - want) < 1e-10 * (1 + abs(want))
                    closed = (-1) ** (nj + 1) * z[nj - 1, n - shape.nj(j + 1)]
                    assert abs(v[nj - 1, nj] - closed) < 1e-10
                # v vanishes on the superdiagonal at non-step positions
                for i in range(1, n):
                    if i not in shape.steps:
                        assert abs(v[i - 1, i]) < 1e-9


def test_uv_outside_chart_pivot_failure():
    shape = FlagShape(4, (2,))
    z = wPw0_matrix(shape)  # all free entries zero: leading minors vanish
    with pytest.raises(PivotFailure):
        uv_from_z(z, shape)


def test_uv_off_chart_form_is_a_typed_error():
    # a random complex matrix has an LU, but wPw0 z^{-1} is not unipotent
    rng = np.random.default_rng(5)
    z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) + 3 * np.eye(4)
    with pytest.raises(OffChart, match="outside the chart form"):
        uv_from_z(z, FlagShape(4, (2,)))


def test_route_agreement_and_gradient():
    shapes = [FlagShape(4, (1, 2)), FlagShape(5, (2, 4)), FlagShape(4, (2,)),
              FlagShape(3, (1, 2))]
    for shape in shapes:
        for _ in range(20):
            zv = random_z_vector(shape, RNG, 0.5, 1.5)
            z = z_from_vector(shape, zv)
            q = [0.8 + RNG.random() + 0.3j * RNG.random() for _ in range(shape.r)]
            try:
                a = f_minus_eval(z, q, shape)
                b = f_minus_eval_uv(z, q, shape)
            except (NearPole, PivotFailure):
                continue
            assert abs(a - b) <= 1e-9 * (1 + abs(a))
            g = f_minus_chart(shape).gradient(chart_vector(shape, z), q)
            h = 1e-6
            for idx in range(min(3, shape.dim)):
                zp, zm = np.array(zv, complex), np.array(zv, complex)
                zp[idx] += h
                zm[idx] -= h
                fd = (f_minus_eval(z_from_vector(shape, zp), q, shape)
                      - f_minus_eval(z_from_vector(shape, zm), q, shape)) / (2 * h)
                assert abs(g[idx] - fd) < 1e-5 * (1 + abs(fd))


SHAPES_UP_TO_6 = [s for n in range(2, 7) for s in all_shapes(n)]


def _complex_in_annulus(draw, lo, hi):
    mod = draw(st.floats(lo, hi))
    return mod * np.exp(1j * draw(st.floats(0.0, 2 * np.pi)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_chart_derivatives_against_central_differences(data):
    # gradient against differences of value, Hessian against differences of
    # gradient, at a random chart point and fiber of a random shape, n <= 6
    shape = data.draw(st.sampled_from(SHAPES_UP_TO_6))
    zv = np.array([_complex_in_annulus(data.draw, 0.5, 1.5) for _ in range(shape.dim)])
    q = [_complex_in_annulus(data.draw, 0.7, 1.3) for _ in range(shape.r)]
    fm = f_minus_chart(shape)
    try:
        g = fm.gradient(zv, q)
        H = fm.hessian(zv, q)
    except NearPole:
        assume(False)
    h = 1e-6
    fd_g = np.empty(shape.dim, dtype=complex)
    fd_H = np.empty((shape.dim, shape.dim), dtype=complex)
    for a in range(shape.dim):
        e = np.zeros(shape.dim, dtype=complex)
        e[a] = h
        fd_g[a] = (fm.value(zv + e, q) - fm.value(zv - e, q)) / (2 * h)
        fd_H[:, a] = (fm.gradient(zv + e, q) - fm.gradient(zv - e, q)) / (2 * h)
    assert np.linalg.norm(g - fd_g) <= 1e-7 * (1 + np.linalg.norm(g))
    assert np.linalg.norm(H - fd_H) <= 1e-7 * (1 + np.linalg.norm(H))
    assert np.allclose(H, H.T)


def test_full_flag_fl3_instantiation():
    # hand-checkable 3-dimensional chart of the complete flag variety
    shape = FlagShape(3, (1, 2))
    a, b, c = 0.7 + 0.2j, -0.4 + 0.9j, 1.1 - 0.3j
    z = z_from_vector(shape, [a, b, c])
    # z = [[a, b, 1], [c, -1, 0], [1, 0, 0]]
    assert np.allclose(z, [[a, b, 1], [c, -1, 0], [1, 0, 0]])
    q = [1.3, 0.8]
    p1, p2, p3 = a, b, 1
    p12 = -a - b * c
    p13 = -c
    p23 = 1
    # formula: sum p_{[i-1] u {i+1}}/p_{[i]} + sum q_i p_{[n-i,n] - {n-i+1}}/p_{[n-i+1,n]}
    want = p2 / p1 + p13 / p12 + q[0] * p2 / p3 + q[1] * (p13 / p23)
    got = f_minus_eval(z, q, shape)
    assert abs(got - want) < 1e-12


def test_young_bijection_names():
    shape = FlagShape(7, (2, 4))
    assert pluecker_name([0, 3, 5], 7) == "p_146"
    assert young_name(3, (3, 2, 0)) == "p(3)(3,2)"
    # p_[k] maps to the empty partition
    t = _terms_by_k(shape)[4]
    yt = index_term_to_young(t, shape)
    assert str(yt.denominator) == "p(4)()"
    assert str(yt.numerator) == "p(4)(1)"


def test_young_view_relabels_the_superpotential():
    # both tables are the one symbol list, q_{n_j} then p_K for K in
    # pluecker_columns, with p_K named by its columns or by |K| and lambda(K);
    # so a Young term has its Plucker term's exponent dicts, unchanged
    for n in range(2, 8):
        for shape in all_shapes(n):
            ptab, ytab, cols = pluecker_table(shape), young_table(shape), pluecker_columns(shape)
            assert len(cols) == ptab.size - shape.r and ptab.weights == ytab.weights
            assert ptab.names[:shape.r] == ytab.names[:shape.r] == tuple(
                f"q{nj}" for nj in shape.steps)
            for K, pname, yname in zip(cols, ptab.names[shape.r:], ytab.names[shape.r:]):
                # lambda_t counts the columns outside K below its t-th largest
                lam = [sum(x not in K for x in range(c)) for c in sorted(K, reverse=True)]
                assert (pname, yname) == (pluecker_name(K, n), young_name(len(K), lam))
            for p, y in zip(superpotential(shape), young_view(shape), strict=True):
                assert (y.family, y.index, y.divisor_k) == (p.family, p.index, p.divisor_k)
                for a, b in ((p.numerator, y.numerator), (p.denominator, y.denominator)):
                    assert (a.table, b.table, b.terms) == (ptab, ytab, a.terms), (shape, p)


def test_superpotential_is_built_per_call():
    # no memo hands two callers the same polynomials: clearing one call's
    # numerator leaves the next call's intact
    shape = FlagShape(4, (2,))
    first = superpotential(shape)
    want = str(first[0].numerator)
    first[0].numerator.terms.clear()
    assert str(first[0].numerator) == "0" != want
    assert str(superpotential(shape)[0].numerator) == want


def test_young_view_equals_index_view():
    # young_view re-indexes every Plucker term through lambda(J); the oracle
    # rebuilds the middle terms from the appendix's L-operator sums
    middle = 0
    for n in range(2, 8):
        for shape in all_shapes(n):
            got, want = young_view(shape), young_view_L(shape)
            assert ([(t.family, t.index, t.divisor_k) for t in got]
                    == [(t.family, t.index, t.divisor_k) for t in want]), shape
            for a, b in zip(got, want):
                assert (a.numerator, a.denominator) == (b.numerator, b.denominator), (shape, a)
            middle += sum(t.family == "u-mid" for t in want)
    assert middle == 102


def test_young_view_appendix_example():
    shape = FlagShape(7, (2, 4))
    tk = {t.divisor_k: t for t in young_view(shape)}
    assert str(tk[7].numerator) == "q2*p(2)(4,3)"
    assert str(tk[7].denominator) == "p(2)(5,5)"
    assert str(tk[8].numerator) == "q4*p(4)(3,3,2)"
    assert str(tk[8].denominator) == "p(4)(3,3,3,3)"
    assert str(tk[1].numerator) == "p(2)(5,1)"
    assert str(tk[1].denominator) == "p(2)(5)"


def test_render_smoke():
    shape = FlagShape(4, (1, 2))
    t = _terms_by_k(shape)[5]
    latex = term_to_latex(t)
    assert "\\frac" in latex and "q_{2}" in latex and "p_{14}" in latex
    j = term_to_json(t)
    assert j["divisor_k"] == 5 and j["family"] == "quantum"


def test_near_pole_raised():
    # on 1;2, F = 1/z + q z: the u-step term has N = 1 and D = z, a pole
    # when |z| < POLE_GUARD * 2, whatever the entry point
    shape = FlagShape(2, (1,))
    fm = f_minus_chart(shape)
    assert POLE_GUARD == 1e-10
    for d in (1e-15, 1e-10):
        zvec = np.array([d], dtype=complex)
        with pytest.raises(NearPole, match=rf"^denominator {d:.3e} at the u-step term \(1,\) "
                                           r"in value$"):
            f_minus_eval(z_from_vector(shape, zvec), [1.0], shape)
        for method in ("value", "gradient", "hessian"):
            with pytest.raises(NearPole, match=rf"^denominator {d:.3e} at the u-step term "
                                               rf"\(1,\) in {method}$"):
                getattr(fm, method)(zvec, [1.0])
    # ten times further from the pole every entry point evaluates
    zvec = np.array([1e-9], dtype=complex)
    assert f_minus_eval(z_from_vector(shape, zvec), [1.0], shape) == fm.value(zvec, [1.0])
    assert abs(fm.value(zvec, [1.0]) - 1e9) < 1e-6
    assert np.isfinite(fm.gradient(zvec, [1.0])).all()
    assert np.isfinite(fm.hessian(zvec, [1.0])).all()
    # every entry point names the term and the size of its denominator; at
    # z = 1 on Gr(2,4) the second term's denominator -z2*z3 + z1*z4 vanishes
    fm = f_minus_chart(FlagShape(4, (2,)))
    for method in ("value", "gradient", "hessian"):
        with pytest.raises(NearPole, match=rf"^denominator 0\.000e\+00 at the u-step term "
                                           rf"\(1,\) in {method}$"):
            getattr(fm, method)(np.ones(4, dtype=complex), [1.0])


@pytest.mark.parametrize("shape", SHAPES_UP_TO_6 + [
    pytest.param(FlagShape.from_string(s), marks=pytest.mark.slow) for s in ("2,4;7", "1,3,5;7")
], ids=FlagShape.to_string)
def test_generated_evaluator_bit_identical_to_lambdas(shape):
    # the straight-line evaluator keeps the lambda route's arithmetic: the same
    # products in the same order, the same numpy divisions
    fm = f_minus_chart(shape)
    ref = LambdaChart(shape)
    q = [0.9 + 0.13j * j for j in range(1, shape.r + 1)]
    rng = random.Random(5)
    for _ in range(5):
        zv = random_z_vector(shape, rng)
        assert np.array_equal(fm.value(zv, q), ref.value(zv, q))
        assert np.array_equal(fm.gradient(zv, q), ref.gradient(zv, q))
        assert np.array_equal(fm.hessian(zv, q), ref.hessian(zv, q))
        assert np.array_equal(np.array(fm.term_values(zv)), np.array(ref.term_values(zv)))


@pytest.mark.parametrize("sstr, units", [("2;4", (3,)), ("1,2,3;4", (3, 4, 5))])
def test_unit_denominators_emit_no_pole_check_or_division(sstr, units):
    # dividing by D = 1 is exact, and its pole check could only fire for
    # |N| >= 1/POLE_GUARD - 1, which is not a pole: neither is emitted
    fm = f_minus_chart(FlagShape.from_string(sstr))
    assert [k for k, (_, _, D) in enumerate(fm.terms) if D == 1] == list(units)
    src, _ = _evaluator_source(fm.terms, fm.shape.dim)
    assert re.findall(r"\bdef\s+(\w+)", src) == ["_eval"]
    for k in units:
        assert not re.search(rf"\b[dij]{k}\b", src)


def test_poly_source_matches_numpy_scalar_arithmetic():
    # no N or D up to n = 6 has a square, so the expression generator is
    # checked here on polynomials with squares and non-unit, negative
    # coefficients
    shape = FlagShape(4, (2,))
    rng = random.Random(2)
    coeffs = set()
    for _ in range(100):
        p = MPoly(chart_table(shape), {tuple(rng.randint(0, 3) for _ in range(4)):
                                       rng.randint(-5, 5) for _ in range(6)})
        coeffs.update(p.terms.values())
        zv = random_z_vector(shape, rng)
        got = eval(_poly_src(p) or "0.0", {}, {f"z{i}": v for i, v in enumerate(zv.tolist())})
        assert np.array_equal(got, as_pyfunc(p)(zv))
    assert coeffs == set(range(-5, 6)) - {0}


def test_chart_debug_line(caplog):
    shape = FlagShape(4, (2,))
    f_minus_chart.cache_clear()
    with caplog.at_level(logging.DEBUG, logger="flagmirror"):
        f_minus_chart(shape)
        f_minus_chart(shape)
    lines = [r.getMessage() for r in caplog.records if r.name == "flagmirror"]
    # one line per compile; the counts are those of the four terms of Gr(2,4)
    assert len(lines) == 1
    assert re.fullmatch(r"chart 2;4: dim 4, 4 terms, emitted 9 of 16 gradient and 14 of 40 "
                        r"Hessian term entries, \d+ lines, \d+ bytes, generated \d+\.\d{3}s, "
                        r"compiled \d+\.\d{3}s", lines[0])
