import itertools
import logging
import random
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from tests_support import (
    MonkColumnOperators,
    _elementary,
    monk_apply,
    monk_column,
    omega_involution,
    schubert_poly,
    sorted_perms,
    straighten,
)

from flagmirror import schubring, verify
from flagmirror.combinat import Permutation
from flagmirror.errors import NotInGroup, SizeCap, TransitionFailure
from flagmirror.exactalg import MPoly, VarTable, det
from flagmirror.schubring import (
    MonkOperators,
    QHClass,
    apply_polynomial,
    class_product,
    monk_operators,
    normal_form,
    product_vec,
    q_table,
    quantum_E,
    quantum_H,
    quantum_schubert,
    signed_sum,
    transition_product,
    vec_to_class,
    xq_table,
)
from flagmirror.verify import det_formula_class, key_identity_sweep


def P(s):
    return Permutation.from_string(s)


def x(n, i):
    return MPoly.var(xq_table(n), f"x{i}")


def q(n, i):
    return MPoly.var(xq_table(n), f"q{i}")


def one_class(w, n):
    return QHClass(("complete", n), {w: MPoly.const(q_table(n), 1)})


def test_quantum_E_examples():
    n = 4
    assert quantum_E(0, 3, n) == MPoly.const(xq_table(n), 1)
    assert quantum_E(-1, 3, n).is_zero() and quantum_E(4, 3, n).is_zero()
    assert quantum_E(2, 2, n) == x(n, 1) * x(n, 2) + q(n, 1)


def _E_via_det(i, k, n):
    # coefficient of t^i in det(1 + t G_k), with an auxiliary weight-0 variable
    base = xq_table(n)
    spec = list(zip(base.names, base.weights)) + [("t", 0)]
    tab = VarTable.make(spec)
    lift = {}
    for idx in range(base.size):
        lift[idx] = (idx, 1)

    def var(name):
        return MPoly.var(tab, name)

    t = var("t")
    M = [[MPoly.zero(tab) for _ in range(k)] for _ in range(k)]
    for a in range(k):
        M[a][a] = 1 + t * var(f"x{a + 1}")
        if a + 1 < k:
            M[a][a + 1] = t * var(f"q{a + 1}")
            M[a + 1][a] = -t * MPoly.const(tab, 1)
    full = det(M)
    tidx = tab.index("t")
    out = {}
    for e, c in full.terms.items():
        if e[tidx] == i:
            out[e[:tidx]] = c
    return MPoly(base, out)


def test_quantum_E_recurrence_vs_determinant():
    n = 6
    for k in range(1, n + 1):
        for i in range(0, k + 1):
            assert quantum_E(i, k, n) == _E_via_det(i, k, n)


def test_quantum_E_classical_limit():
    n = 5
    for k in range(1, n + 1):
        for i in range(0, k + 1):
            E = quantum_E(i, k, n)
            at_q0 = MPoly(E.table, {e: c for e, c in E.terms.items() if not any(e[n:])})
            assert at_q0 == _elementary(i, k, n)


def test_quantum_H_examples():
    n = 4
    assert quantum_H(0, 2, n) == MPoly.const(xq_table(n), 1)
    assert quantum_H(1, 3, n) == quantum_E(1, 3, n)
    H22 = quantum_H(2, 2, n)
    at_q0 = MPoly(H22.table, {e: c for e, c in H22.terms.items() if not any(e[n:])})
    want = x(n, 1) ** 2 + x(n, 1) * x(n, 2) + x(n, 2) ** 2
    assert at_q0 == want


def test_quantum_H_in_ideal_when_large():
    # H_{i}^{k} lies in the quantum ideal when i > n - k
    n = 4
    assert normal_form(quantum_H(3, 2, n), n).is_zero()
    assert normal_form(quantum_H(2, 3, n), n).is_zero()


def test_schubert_polys_s3():
    n = 3
    assert schubert_poly(P("123"), n) == MPoly.const(xq_table(n), 1)
    assert schubert_poly(P("213"), n) == x(n, 1)
    assert schubert_poly(P("132"), n) == x(n, 1) + x(n, 2)
    assert schubert_poly(P("231"), n) == x(n, 1) * x(n, 2)
    assert schubert_poly(P("312"), n) == x(n, 1) ** 2
    assert schubert_poly(P("321"), n) == x(n, 1) ** 2 * x(n, 2)


def test_quantum_schubert_examples():
    assert quantum_schubert(P("123"), 3) == MPoly.const(xq_table(3), 1)
    for n in (3, 4):
        for k in range(1, n):
            w = Permutation.identity(n).times_s(k)
            assert quantum_schubert(w, n) == quantum_E(1, k, n)
    n = 3
    assert quantum_schubert(P("321"), n) == quantum_E(1, 1, n) * quantum_E(2, 2, n)
    n = 4
    assert quantum_schubert(P("1423"), n) == (quantum_E(1, 2, n) * quantum_E(1, 3, n)
                                              - quantum_E(2, 3, n))


def _check_quantum_schubert(w, n):
    """The three properties that fix S^q_w, since the standard monomials
    (x_k exponent at most n - k) are a Z[q]-basis of QH*(Fl_n): it is
    standard, its q = 0 part is S_w, and its class is sigma_w."""
    got = quantum_schubert(w, n)
    assert all(e[k] <= n - 1 - k for e in got.terms for k in range(n)), w
    classical = {e: c for e, c in got.terms.items() if not any(e[n:])}
    assert classical == schubert_poly(w, n).terms, w
    assert normal_form(got, n) == one_class(w, n), w


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_quantum_schubert_characterized(n):
    for w in sorted_perms(n):
        _check_quantum_schubert(w, n)


@pytest.mark.slow
def test_quantum_schubert_characterized_s6():
    for w in sorted_perms(6):
        _check_quantum_schubert(w, 6)


@pytest.mark.slow
def test_quantum_schubert_characterized_s8_word():
    rng = random.Random(8)
    w = Permutation(tuple(rng.sample(range(8), 8)))
    while w.length != 12:
        w = Permutation(tuple(rng.sample(range(8), 8)))
    _check_quantum_schubert(w, 8)


def test_monk_examples_small():
    assert class_product(P("21"), P("12"), 2) == one_class(P("21"), 2)
    got = class_product(P("21"), P("21"), 2)
    assert got == QHClass(("complete", 2), {P("12"): MPoly.var(q_table(2), "q1")})
    s1 = P("213")
    got = class_product(s1, s1, 3)
    want = one_class(P("312"), 3) + QHClass(
        ("complete", 3), {P("123"): MPoly.var(q_table(3), "q1")})
    assert got == want


def test_monk_operators_commute():
    # the Monk-rule columns of the oracle
    for n in range(2, 5):
        words = list(itertools.permutations(range(n)))
        cols = [[monk_apply(k, {(w, 0): 1}) for w in words]
                for k in range(1, n)]
        for a in range(1, n):
            for b in range(a + 1, n):
                ab = [monk_apply(b, cols[a - 1][ci]) for ci in range(len(words))]
                ba = [monk_apply(a, cols[b - 1][ci]) for ci in range(len(words))]
                assert ab == ba


def test_x_operators_commute():
    # X_a X_b = X_b X_a on the signed entries, every word of S_n, n <= 4
    for n in range(2, 5):
        ops = monk_operators(n)
        for w in itertools.permutations(range(n)):
            images = [ops.apply_x(i, {(w, 0): 1}) for i in range(1, n + 1)]
            for a in range(1, n + 1):
                for b in range(a + 1, n + 1):
                    assert ops.apply_x(b, images[a - 1]) == ops.apply_x(a, images[b - 1])


def test_sizecap():
    with pytest.raises(SizeCap):
        monk_operators(9)
    with pytest.raises(SizeCap):
        normal_form(MPoly.const(xq_table(9), 1), 9)
    with pytest.raises(SizeCap):
        straighten(MPoly.const(xq_table(6), 1), 6)


def test_operator_vs_oracle_all_pairs_s3():
    perms = sorted_perms(3)
    for u in perms:
        for v in perms:
            lhs = class_product(u, v, 3)
            rhs = straighten(quantum_schubert(u, 3) * quantum_schubert(v, 3), 3)
            assert lhs == rhs


def test_product_commutative_associative_s4():
    rng = random.Random(0)
    perms = sorted_perms(4)
    for _ in range(8):
        u, v, w = (rng.choice(perms) for _ in range(3))
        assert class_product(u, v, 4) == class_product(v, u, 4)
        # associativity via the straightening of triple products
        uv_w = straighten(
            quantum_schubert(u, 4) * quantum_schubert(v, 4) * quantum_schubert(w, 4), 4)
        lhs = None
        for t, c in class_product(u, v, 4).terms.items():
            part = class_product(t, w, 4)
            scaled = QHClass(part.ring, {s: cc * c for s, cc in part.terms.items()})
            lhs = scaled if lhs is None else lhs + scaled
        assert lhs == uv_w


def test_grading_random_pairs():
    rng = random.Random(1)
    perms = sorted_perms(4)
    for _ in range(20):
        u, v = rng.choice(perms), rng.choice(perms)
        out = class_product(u, v, 4)
        for w, c in out.terms.items():
            for b in c.terms:
                assert u.length + v.length == w.length + 2 * sum(b)


def test_key_identity_instance_n7():
    a = class_product(P("1526347"), P("2314567"), 7)
    b = class_product(P("2516347"), P("1324567"), 7)
    c = class_product(P("3516247"), P("1234567"), 7)
    assert (a - b + c).is_zero()


def test_omega_involution():
    n = 3
    assert omega_involution(x(n, 1), n) == -x(n, 3)
    p = x(n, 1) ** 2 * q(n, 2) + x(n, 2)
    assert omega_involution(omega_involution(p, n), n) == p


def _E_monomial(imono, n):
    out = MPoly.const(xq_table(n), 1)
    for k, ik in enumerate(imono, start=1):
        if ik:
            out = out * quantum_E(ik, k, n)
    return out


def _H_monomial(imono, n):
    out = MPoly.const(xq_table(n), 1)
    for k, ik in enumerate(imono, start=1):
        if ik:
            out = out * quantum_H(ik, k, n)
    return out


@pytest.mark.parametrize("n", [2, 3, 4])
def test_omega_E_to_H_mod_ideal(n):
    for imono in itertools.product(*(range(k + 1) for k in range(1, n))):
        lhs = straighten(omega_involution(_E_monomial(imono, n), n), n)
        rhs = straighten(_H_monomial(tuple(reversed(imono)), n), n)
        assert lhs == rhs


@pytest.mark.parametrize("n", [2, 3, 4])
def test_omega_preserves_ideal(n):
    for i in range(1, n + 1):
        assert straighten(omega_involution(quantum_E(i, n, n), n), n).is_zero()


def test_normal_form_examples():
    n = 3
    assert normal_form(quantum_E(1, n, n), n).is_zero()
    got = normal_form(x(2, 1) * x(2, 1), 2)
    assert got == QHClass(("complete", 2), {P("12"): MPoly.var(q_table(2), "q1")})


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_x_n_is_minus_m_n_minus_1(n):
    # M_n = 0, so X_n = -M_{n-1}; E_1^n = x_1 + ... + x_n lies in the ideal
    ops = monk_operators(n)
    for ol in itertools.permutations(range(n)):
        minus = {key: -c for key, c in monk_apply(n - 1, {(ol, 0): 1}).items()}
        assert ops.apply_x(n, {(ol, 0): 1}) == minus
    assert normal_form(quantum_E(1, n, n), n).is_zero()


def _straighten_cases():
    """(label, n, polynomial): all S_3 and S_4 Schubert products, the
    omega-transformed E-monomials and their H-monomials for n <= 4, every
    quantum_H for n <= 5, and seeded random polynomials with q terms."""
    for n in (3, 4):
        for u in sorted_perms(n):
            for v in sorted_perms(n):
                yield f"S{u}*S{v}", n, quantum_schubert(u, n) * quantum_schubert(v, n)
    for n in (2, 3, 4):
        for imono in itertools.product(*(range(k + 1) for k in range(1, n))):
            yield f"omega E{imono}", n, omega_involution(_E_monomial(imono, n), n)
            yield f"H{imono[::-1]}", n, _H_monomial(imono[::-1], n)
    for n in range(2, 6):
        for k in range(1, n + 1):
            for l in range(0, n - k + 2):
                yield f"H_{l}^{k}", n, quantum_H(l, k, n)
    rng = random.Random(11)
    for n in (3, 4, 5):
        tab = xq_table(n)
        for i in range(40):
            p = MPoly.zero(tab)
            for _ in range(rng.randint(1, 4)):
                xexp = [0] * n
                for _ in range(rng.randint(0, 4)):
                    xexp[rng.randrange(n)] += 1
                qexp = [rng.randint(0, 1) for _ in range(n - 1)]
                p = p + MPoly.monomial(tab, tuple(xexp + qexp), rng.choice([-3, -2, -1, 1, 2, 3]))
            yield f"random n={n} #{i}", n, p


def test_normal_form_matches_straighten(monkeypatch):
    cases = list(_straighten_cases())
    assert len(cases) == 612 + 2 * 32 + 48 + 120
    for label, n, p in cases:
        assert normal_form(p, n) == straighten(p, n), label
    # the determinants of the 321-avoiding formula at n = 5, as its
    # polynomial statement det_formula_class builds them
    seen = []

    def record(p, n):
        seen.append(p)
        return normal_form(p, n)

    monkeypatch.setattr(verify, "normal_form", record)
    for w in sorted_perms(5):
        if w.is_321_avoiding:
            det_formula_class(w, 5)
    assert len(seen) == 42
    for p in seen:
        assert normal_form(p, 5) == straighten(p, 5)


def _monk_reference(ol):
    """Monk's rule by lengths at sigma_w, w with one-line word ol: for
    a < k <= b, M_k sigma_w gains sigma_{w t_ab} when l(w t_ab) = l(w) + 1,
    and q_a..q_{b-1} sigma_{w t_ab} when l(w t_ab) = l(w) + 1 - 2(b - a).
    Returns the entry lists of M_1..M_{n-1}."""
    w = Permutation(ol)
    n = w.n
    columns = [[] for _ in range(n - 1)]
    for a in range(n - 1):
        for b in range(a + 1, n):
            u = w.times_transposition(a, b)
            if u.length == w.length + 1:
                qexp = (0,) * (n - 1)
            elif u.length == w.length + 1 - 2 * (b - a):
                qexp = tuple(int(a <= i < b) for i in range(n - 1))
            else:
                continue
            for k in range(a, b):
                columns[k].append((u.oneline, qexp))
    return columns


def _x_reference(columns, i):
    """X_i = M_i - M_{i-1} (M_0 = M_n = 0) from the columns of
    _monk_reference, as {image word: (coefficient, q-exponent)}."""
    out = {}
    for sign, k in ((1, i), (-1, i - 1)):
        for row, qexp in columns[k - 1] if 1 <= k <= len(columns) else ():
            c = out.pop(row, (0, qexp))[0] + sign
            if c:
                out[row] = (c, qexp)
    return out


def _check_x_entries(ops, ol):
    """The signed X_i entries of ol against M_i - M_{i-1} of the reference,
    for i = 1..n, memoised per (word, i)."""
    n = len(ol)
    columns = _monk_reference(ol)
    for i in range(1, n + 1):
        entry = ops.x_entry(ol, i)
        got = {row: (sgn, tuple(qexp.to_bytes(n - 1, "little"))) for sgn, row, qexp in entry}
        assert len(got) == len(entry)
        assert got == _x_reference(columns, i), (ol, i)
        assert ops.x_entry(ol, i) is entry


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_build_monk_matches_monk_rule_reference(n):
    # the oracle's column scan and the signed X_i entries against Monk's rule
    # by lengths, on every word
    ops = MonkOperators(n)
    for ol in itertools.permutations(range(n)):
        assert monk_column(ol) == _monk_reference(ol)
        _check_x_entries(ops, ol)


@pytest.mark.parametrize("n", [7, 8])
def test_monk_columns_match_reference_random_words(n):
    # 200 seeded words each
    rng = random.Random(n)
    ops = MonkOperators(n)
    for _ in range(200):
        ol = tuple(rng.sample(range(n), n))
        assert monk_column(ol) == _monk_reference(ol)
        _check_x_entries(ops, ol)


def test_class_product_matches_monk_column_route_s4():
    # the same transitions run on the oracle's X_i = M_i - M_{i-1}
    oracle = MonkColumnOperators(4)
    perms = sorted_perms(4)
    for u in perms:
        for v in perms:
            want = vec_to_class(transition_product(oracle, u.oneline, {(v.oneline, 0): 1}), 4)
            assert class_product(u, v, 4) == want


@pytest.mark.parametrize("n, pairs", [(7, 6), (8, 3)])
def test_product_vec_matches_monk_column_route_packed(n, pairs):
    # seeded pairs against the oracle's X_i = M_i - M_{i-1}, which packs its
    # own q-exponents, as exact dict equality; some product carries a q_k
    # squared or higher, so one byte holds more than a single 1
    rng = random.Random(400 + n)
    oracle = MonkColumnOperators(n)
    top = 0
    for _ in range(pairs):
        u, v = (tuple(rng.sample(range(n), n)) for _ in range(2))
        vec = product_vec((u, v), n)
        assert vec == transition_product(oracle, u, {(v, 0): 1}), (u, v)
        top = max([top] + [max(b.to_bytes(n - 1, "little")) for _, b in vec])
    assert top >= 2


def test_packed_exponent_at_n2():
    # one q and one byte: sigma_{s_1}^2 = q_1 (its class is checked in
    # test_monk_examples_small)
    assert product_vec(((1, 0), (1, 0)), 2) == {((0, 1), 1): 1}
    s1 = P("21")
    # x_1^511 = q_1^255 sigma_{s_1} fills the byte; one degree more is refused
    x1 = MPoly.var(xq_table(2), "x1")
    assert normal_form(x1 ** 511, 2) == QHClass(("complete", 2),
                                                {s1: MPoly.var(q_table(2), "q1") ** 255})
    with pytest.raises(SizeCap, match="above 511"):
        normal_form(x1 ** 512, 2)


def test_transition_product_memo():
    # a product gives the same class with the transitions memoised and with
    # every memo of the operators cleared
    n = 6
    rng = random.Random(6)
    ops = MonkOperators(n)
    for _ in range(20):
        u, v = (tuple(rng.sample(range(n), n)) for _ in range(2))
        cold = transition_product(ops, u, {(v, 0): 1})
        transitions = dict(ops.transitions)
        assert transition_product(ops, u, {(v, 0): 1}) == cold
        assert ops.transitions == transitions  # the warm product built none
        for memo in (ops.transitions, ops.x_entries, ops.lengths):
            memo.clear()
        assert transition_product(ops, u, {(v, 0): 1}) == cold
        assert vec_to_class(cold, n) == class_product(Permutation(u), Permutation(v), n)


def test_transition_product_of_w0_on_the_identity_s8():
    # sigma_{w0} * sigma_id reaches every class the transitions of w0 reach,
    # the deepest recursion at n = 8, under the default recursion limit
    n = 8
    w0 = tuple(reversed(range(n)))
    ops = MonkOperators(n)
    assert transition_product(ops, w0, {(tuple(range(n)), 0): 1}) == {(w0, 0): 1}
    # each class reached is applied once, after one apply_x for its transition
    assert ops.x_calls == 2 * len(ops.transitions)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.permutations(range(5)), st.permutations(range(5)), st.permutations(range(5)))
def test_class_product_commutative_associative_s5(u, v, w):
    u, v, w = (Permutation(tuple(p)) for p in (u, v, w))
    assert class_product(u, v, 5) == class_product(v, u, 5)
    # (u v) w and u (v w), each expanded through class_product alone
    lhs = rhs = QHClass(("complete", 5), {})
    for t, c in class_product(u, v, 5).terms.items():
        lhs = lhs + QHClass(lhs.ring, {s: cc * c for s, cc in class_product(t, w, 5).terms.items()})
    for t, c in class_product(v, w, 5).terms.items():
        rhs = rhs + QHClass(rhs.ring, {s: cc * c for s, cc in class_product(u, t, 5).terms.items()})
    assert lhs == rhs


@settings(max_examples=10, deadline=None, derandomize=True)
@given(st.permutations(range(5)), st.permutations(range(5)))
def test_operator_vs_oracle_random_pairs_s5(u, v):
    u, v = Permutation(tuple(u)), Permutation(tuple(v))
    # the oracle's cost grows steeply with l(u) + l(v): about a minute at 16
    assume(u.length + v.length <= 12)
    assert class_product(u, v, 5) == straighten(
        quantum_schubert(u, 5) * quantum_schubert(v, 5), 5)


def test_monk_operators_touch_no_disk(tmp_path, monkeypatch):
    monkeypatch.setenv("FLAGMIRROR_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("HOME", str(tmp_path))
    monk_operators.cache_clear()
    class_product.cache_clear()
    product_vec.cache_clear()
    u, v = P("214365"), P("351624")
    assert class_product(u, v, 6) == class_product(v, u, 6)
    assert monk_operators(6).x_entries  # the product built its entries in memory
    assert list(tmp_path.iterdir()) == []


def test_debug_log_lines(caplog):
    monk_operators.cache_clear()
    product_vec.cache_clear()
    quantum_schubert.cache_clear()
    with caplog.at_level(logging.DEBUG, logger="flagmirror"):
        key_identity_sweep(5)
        # the products run through the Monk operators alone: no quantum
        # Schubert polynomial
        assert quantum_schubert.cache_info().currsize == 0
        quantum_schubert(P("1423"), 4)
    lines = [r.getMessage() for r in caplog.records if r.name == "flagmirror"]
    # one line per n of the sweep: n = 4 expands only the identity, n = 5
    # four words through three transitions
    monk = [line for line in lines if line.startswith("monk")]
    assert len(monk) == 2
    assert re.fullmatch(r"monk n=4: 0 X entries of 0 words, 0 terms, 0 transitions, "
                        r"0 apply_x calls, 0\.000s", monk[0])
    assert re.fullmatch(r"monk n=5: 9 X entries of 4 words, 17 terms, 3 transitions, "
                        r"9 apply_x calls, \d+\.\d{3}s", monk[1])
    # one line per n before it: the instances, the products they ask for,
    # those product_vec formed by a transition (none at n = 4, whose
    # products are times the identity), its memo hits and the entries the
    # memo holds
    sweep = [line for line in lines if line.startswith("keyidentity")]
    assert sweep == ["keyidentity n=4: 1 instances, 2 products asked, 0 formed, 0 reused, 2 held",
                     "keyidentity n=5: 6 instances, 12 products asked, 3 formed, 5 reused, "
                     "11 held"]
    assert lines.index(sweep[1]) == lines.index(monk[1]) - 1
    # one line per computed polynomial: S^q_{1423} = E_1^2 E_1^3 - E_2^3 =
    # x1^2 + x1x2 + x2^2 - q1 - q2, two standard monomials and five terms
    qs = [line for line in lines if line.startswith("qschubert")]
    assert len(qs) == 1
    assert re.fullmatch(r"qschubert n=4 w=1423: 2 standard monomials, 5 terms, \d+\.\d{3}s",
                        qs[0])


def _polynomial_route(u, v, n):
    """sigma_u * sigma_v by evaluating u's quantum Schubert polynomial in the
    operators X_i on sigma_v (the route the quantum transition replaced)."""
    vec = {(v.oneline, 0): 1}
    return vec_to_class(apply_polynomial(monk_operators(n), quantum_schubert(u, n), vec), n)


def test_transition_product_matches_polynomial_route():
    perms = sorted_perms(4)
    for u in perms:
        for v in perms:
            assert class_product(u, v, 4) == _polynomial_route(u, v, 4)
    # the polynomial route's cost grows steeply with l(u): cap it at n = 7
    for n, pairs, max_len in ((5, 40, 10), (6, 15, 15), (7, 4, 9)):
        rng = random.Random(100 + n)
        done = 0
        while done < pairs:
            u, v = (Permutation(tuple(rng.sample(range(n), n))) for _ in range(2))
            if u.length > max_len:
                continue
            done += 1
            assert class_product(u, v, n) == _polynomial_route(u, v, n), (u, v)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_transition_rest_lies_below(n):
    # r the last descent of u, s the last position after r with u(s) < u(r):
    # X_r sigma_{u t_rs} is sigma_u plus classes shorter than u, or of the same
    # length and lexicographically greater
    ops = monk_operators(n)
    for u in sorted_perms(n)[1:]:
        ol = u.oneline
        r = max(i for i in range(n - 1) if ol[i] > ol[i + 1])
        s = max(j for j in range(r + 1, n) if ol[j] < ol[r])
        v = u.times_transposition(r, s)
        assert v.length == u.length - 1
        image = ops.apply_x(r + 1, {(v.oneline, 0): 1})
        assert image.pop((ol, 0)) == 1
        for w in (Permutation(word) for word, _ in image):
            assert w.length < u.length or (w.length == u.length and w.oneline > ol)
        assert ops.transition(ol) == (r + 1, v.oneline, image)


def test_transition_rejects_a_missing_unit_term(monkeypatch):
    ops = MonkOperators(3)
    real = MonkOperators.apply_x
    monkeypatch.setattr(MonkOperators, "apply_x",
                        lambda self, i, vec: {key: c for key, c in real(self, i, vec).items()
                                              if key[0] != (2, 1, 0)})
    with pytest.raises(TransitionFailure, match="not a unit term"):
        ops.transition((2, 1, 0))
    # a q-term at u beside the unit term is not below u
    monkeypatch.setattr(MonkOperators, "apply_x",
                        lambda self, i, vec: {**real(self, i, vec), ((2, 1, 0), 1): 1})
    with pytest.raises(TransitionFailure, match=r"holds sigma_\(2, 1, 0\), not below"):
        ops.transition((2, 1, 0))


def test_signed_sum_matches_class_arithmetic():
    n = 4
    a = product_vec((P("2143").oneline, P("1342").oneline), n)
    b = product_vec((P("3142").oneline, P("2314").oneline), n)
    a_cls, b_cls = vec_to_class(a, n), vec_to_class(b, n)
    frozen = repr((a, b))
    assert vec_to_class(signed_sum([(2, a), (-1, b), (1, b)]), n) == a_cls.scaled(2)
    assert vec_to_class(signed_sum([(3, a), (-1, b)]), n) == a_cls.scaled(3) - b_cls
    assert signed_sum([(1, a), (-1, a)]) == {}
    assert signed_sum([]) == {}
    # the memoised products it summed are left as they were
    assert repr((a, b)) == frozen


def test_product_vec_matches_class_product():
    for n, pairs in ((4, 30), (6, 20), (7, 5)):
        rng = random.Random(200 + n)
        for _ in range(pairs):
            u, v = (Permutation(tuple(rng.sample(range(n), n))) for _ in range(2))
            vec = product_vec((u.oneline, v.oneline), n)
            assert vec_to_class(vec, n) == class_product(u, v, n)
            assert product_vec((u.oneline, v.oneline), n) is vec  # memoised
            assert vec_to_class(product_vec((v.oneline, u.oneline), n), n) == class_product(u, v, n)
    with pytest.raises(NotInGroup):
        product_vec(((1, 0, 2), (0, 1)), 3)


def test_product_vec_of_three_words_matches_class_product_twice():
    # sigma_u sigma_v sigma_w against (sigma_u * sigma_v) * sigma_w expanded
    # through class_product alone; identity words drop out and the order of
    # the words does not matter
    for n, triples in ((5, 20), (6, 10)):
        rng = random.Random(300 + n)
        ident = tuple(range(n))
        for _ in range(triples):
            u, v, w = (Permutation(tuple(rng.sample(range(n), n))) for _ in range(3))
            want = QHClass(("complete", n), {})
            for t, c in class_product(u, v, n).terms.items():
                want = want + QHClass(want.ring, {s: cc * c for s, cc in
                                                  class_product(t, w, n).terms.items()})
            words = (u.oneline, v.oneline, w.oneline)
            assert vec_to_class(product_vec(words, n), n) == want, (u, v, w)
            assert vec_to_class(product_vec((w.oneline, ident, u.oneline, v.oneline), n),
                                n) == want
    assert product_vec((), 4) == product_vec(((0, 1, 2, 3),), 4) == {((0, 1, 2, 3), 0): 1}


def _bump_least_key(out):
    """Raise the packed q-exponent of the least key of out by one, q_1 up."""
    word, b = min(out)
    out[word, b + 1] = out.pop((word, b))


def test_product_vec_grading_check_trips_on_a_corrupted_product(monkeypatch):
    # an extra sigma_id term has degree 0, not l(u) + l(v); a q_1 added to a
    # term raises its degree by 2
    n = 4
    u, v = (1, 0, 2, 3), (0, 2, 1, 3)
    real = schubring.transition_product

    def extra_term(out):
        out[tuple(range(n)), 0] = 1

    for corrupt, message in ((extra_term, "grading violated at sigma_1234 "),
                             (_bump_least_key, r"grading violated at sigma_2314 "
                                               r"q\^\(1, 0, 0\) in 2134\*1324$")):
        def corrupted(ops, ol, vec):
            out = dict(real(ops, ol, vec))
            corrupt(out)
            return out

        monkeypatch.setattr(schubring, "transition_product", corrupted)
        product_vec.cache_clear()
        try:
            with pytest.raises(AssertionError, match=message):
                product_vec((u, v), n)
        finally:
            product_vec.cache_clear()


def test_product_vec_grading_check_trips_on_a_corrupted_three_word_product(monkeypatch):
    # the product of the two longer words is sound; the last transition,
    # which applies the shortest word, adds a term of the wrong degree, or
    # raises a term's q-exponent by q_1
    n = 5
    words = ((0, 2, 1, 3, 4), (2, 0, 1, 4, 3), (1, 0, 4, 3, 2))
    real = schubring.transition_product

    def extra_term(out):
        out[(1, 0, 2, 3, 4), 0] = 1

    for corrupt, message in ((extra_term, r"grading violated at sigma_21345 "
                                          r"q\^\(0, 0, 0, 0\) in 13245\*31254\*21543$"),
                             (_bump_least_key, r"grading violated at sigma_12345 "
                                               r"q\^\(2, 1, 1, 1\) in 13245\*31254\*21543$")):
        def corrupted(ops, ol, vec):
            out = dict(real(ops, ol, vec))
            if ol == words[0]:
                corrupt(out)
            return out

        monkeypatch.setattr(schubring, "transition_product", corrupted)
        product_vec.cache_clear()
        try:
            with pytest.raises(AssertionError, match=message):
                product_vec(words, n)
            # the sound sub-product was formed and memoised before the check
            # tripped
            assert product_vec.cache_info().currsize == 1
        finally:
            product_vec.cache_clear()
