import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flagmirror.combinat import FlagShape, Permutation, all_shapes
from flagmirror.errors import BadSubsetSize, NearPole, PivotFailure
from flagmirror.exactalg import MPoly, minor
from flagmirror.mirror import (
    _symbolic_minors,
    divisor_equations,
    f_minus_chart,
    f_minus_eval,
    f_minus_eval_uv,
    f_minus_grad,
    index_term_to_young,
    pluecker,
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
    # Laplace consistency with the generic minor routine
    got = pluecker(z, [0, 2, 4, 6], shape)
    assert abs(got - minor(z, range(4), [0, 2, 4, 6])) < 1e-12


def test_symbolic_z_and_chart():
    for n in range(2, 7):
        for shape in all_shapes(n):
            chart = zchart(shape)
            assert chart.dim == shape.dim
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


def test_symbolic_minors_match_bareiss():
    for n in range(2, 6):
        for shape in all_shapes(n):
            zsym = symbolic_z(shape)
            for K, poly in _symbolic_minors(shape).items():
                assert poly == minor(zsym, range(len(K)), K)


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
        assert np.allclose(word_matrix(w0.reduced_word(), n), w0_matrix(n))
        # a second reduced word via the reversed descent scan
        word = w0.reduced_word()
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
            word_matrix(prod.reduced_word(), n), wPw0_matrix(shape))


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
            g = f_minus_grad(z, q, shape)
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


def test_young_view_equals_index_view():
    for n in range(2, 7):
        for shape in all_shapes(n):
            yv = {t.divisor_k: t for t in young_view(shape)}
            for t in superpotential(shape):
                mapped = index_term_to_young(t, shape)
                assert yv[t.divisor_k].numerator == mapped.numerator
                assert yv[t.divisor_k].denominator == mapped.denominator


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
    shape = FlagShape(2, (1,))
    z = z_from_vector(shape, [1e-15])
    with pytest.raises(NearPole):
        f_minus_eval(z, [1.0], shape)
