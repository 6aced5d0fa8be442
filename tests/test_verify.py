import itertools
import json
import logging
import re

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment  # the reference for _min_cost_assignment
from tests_support import sorted_perms

from flagmirror import verify
from flagmirror.cli import main
from flagmirror.combinat import (FlagShape, Permutation, build_xi_and_wJ,
                                 grassmannian_word)
from flagmirror.crit import toeplitz_scaling
from flagmirror.errors import (FormulaViolation, IdentityViolation, InvalidRange, PivotFailure,
                               SizeCap)
from flagmirror.exactalg import MPoly, lu_unipotent
from flagmirror.mirror import random_z_vector, w0_matrix, z_from_vector
from flagmirror.schubring import (QHClass, class_product, normal_form, product_vec, q_table,
                                  quantum_H, vec_to_class, xq_table)
from flagmirror.verify import (
    ACCEPTANCE_SHAPES,
    G_1,
    _min_cost_assignment,
    check_det_formula,
    check_equivalence_route,
    check_key_identity,
    check_mirror_spectrum,
    check_tau_symmetry,
    det_formula_class,
    det_formula_vec,
    key_identity_instances,
    key_identity_sweep,
    quantum_H_word,
    tau,
)


def P(s):
    return Permutation.from_string(s)


def test_key_identity_fl247_instance():
    rep = check_key_identity(FlagShape(7, (2, 4)), 1, 4)
    assert rep.ok and rep.terms == 3


def test_key_identity_rejects_indices_out_of_range():
    # j = r + 1 reaches past the last step; every bad (j, i) is an InvalidRange
    shape = FlagShape(7, (2, 4))
    for j, i in ((3, 4), (2, 4), (0, 4), (1, 3), (1, 5)):
        with pytest.raises(InvalidRange):
            check_key_identity(shape, j, i)


def test_key_identity_sweep_n5():
    reports = key_identity_sweep(5)
    assert reports and all(r.ok for r in reports)


def test_key_identity_sweep_checks_n_before_any_identity(monkeypatch):
    def no_check(*args):
        raise AssertionError("checked an identity")

    monkeypatch.setattr(verify, "check_key_identity", no_check)
    for n in (9, 12):
        with pytest.raises(SizeCap, match=f"2 <= n <= 8, got {n}"):
            key_identity_sweep(n)
    assert key_identity_sweep(2) == []


def test_key_identity_instances_enumeration():
    inst = key_identity_instances(6)
    assert (FlagShape(7, (2, 4)), 1, 4) not in inst
    assert (FlagShape(4, (1, 3)), 1, 2) in inst
    # cases with n_j + n_{j+1} > n are part of the sweep
    assert any(s.nj(j) + s.nj(j + 1) > s.n for s, j, i in inst)


def test_321_avoiding_counts_are_catalan():
    # brute-force count (the basis for the det-formula sweep sizes)
    catalan = {1: 1, 2: 2, 3: 5, 4: 14, 5: 42}
    for n, want in catalan.items():
        got = sum(1 for ol in itertools.permutations(range(n))
                  if Permutation(ol).is_321_avoiding)
        assert got == want


def test_det_formula_small_n():
    for n in (2, 3, 4):
        rep = check_det_formula(n)
        assert rep.ok
        assert rep.checked == {2: 2, 3: 5, 4: 14}[n]


def test_det_formula_n7():
    # 429 permutations, 855 cycle products formed: about 0.3 s
    rep = check_det_formula(7)
    assert rep.ok and rep.checked == 429


@pytest.mark.slow
def test_det_formula_n8():
    # 1430 permutations: about 3-4 s
    rep = check_det_formula(8)
    assert rep.ok and rep.checked == 1430


def test_quantum_H_is_the_class_of_a_cycle_word():
    # H_l^k = sigma of the cycle (1, ..., k-1, k+l, k, ..., k+l-1, k+l+1, ..., n)
    # modulo the quantum ideal, 0 for l < 0 and k + l - 1 = n
    raised = 0
    for n in range(2, 8):
        one = MPoly.const(q_table(n), 1)
        for k in range(1, n + 1):
            for l in range(-2, n - k + 3):
                if l > 0 and k + l - 1 > n:
                    for fn in (quantum_H_word, quantum_H):
                        with pytest.raises(ValueError, match=f"H_{l}\\^{k} needs"):
                            fn(l, k, n)
                    raised += 1
                    continue
                word = quantum_H_word(l, k, n)
                if l < 0 or k + l - 1 == n:
                    assert word is None
                want = QHClass(("complete", n), {} if word is None else {Permutation(word): one})
                assert normal_form(quantum_H(l, k, n), n) == want, (l, k, n)
    assert raised == sum(range(2, 8))  # l = n - k + 2 for each k
    # 1-based (1, 4, 2, 3, 5) is H_2^2 in S_5
    assert quantum_H_word(2, 2, 5) == (0, 3, 1, 2, 4)


def test_operator_route_matches_det_formula_class():
    # the Leibniz expansion over cycle words against the MPoly determinant
    # through normal_form, on every 321-avoiding w with n <= 6
    for n in range(2, 7):
        count = 0
        for w in sorted_perms(n):
            if w.is_321_avoiding:
                assert vec_to_class(det_formula_vec(w, n), n) == det_formula_class(w, n), w
                count += 1
        assert count == {2: 2, 3: 5, 4: 14, 5: 42, 6: 132}[n]


def test_det_formula_checks_n_before_listing_permutations(monkeypatch):
    def no_listing(ol):
        raise AssertionError(f"listed the permutations of S_{len(ol)}")

    monkeypatch.setattr(verify, "avoids_321", no_listing)
    for n in (1, 9, 10):
        with pytest.raises(SizeCap, match=f"2 <= n <= 8, got {n}"):
            check_det_formula(n)


def test_det_formula_debug_lines(caplog):
    product_vec.cache_clear()  # the counts are those of a fresh memo
    with caplog.at_level(logging.DEBUG, logger="flagmirror"):
        check_det_formula(4)
    lines = [r.getMessage() for r in caplog.records if r.name == "flagmirror"]
    assert len(lines) == 2
    # the memo holds the 8 products formed and the lookups that formed none,
    # the basis vector of each permutation among them
    assert re.fullmatch(r"detformula n=4: 14 permutations, 8 cycle products formed, 10 reused, "
                        r"31 held, \d+\.\d{3}s", lines[0])
    assert re.fullmatch(r"monk n=4: \d+ X entries of \d+ words, \d+ terms, \d+ transitions, "
                        r"\d+ apply_x calls, \d+\.\d{3}s", lines[1])


def test_det_formula_hand_case_132():
    n = 3
    got = det_formula_class(P("132"), n)
    want = QHClass(("complete", n), {P("132"): MPoly.const(q_table(n), 1)})
    assert got == want
    # and the 1x1 determinant in play is H_1(X_2) = x1 + x2
    h = quantum_H(1, 2, n)
    x1 = MPoly.var(xq_table(n), "x1")
    x2 = MPoly.var(xq_table(n), "x2")
    assert h == x1 + x2


def test_det_formula_identity_case():
    n = 4
    got = det_formula_class(Permutation.identity(n), n)
    want = QHClass(("complete", n), {Permutation.identity(n): MPoly.const(q_table(n), 1)})
    assert got == want


def test_tau_symmetry_shapes():
    for s in ("1,2;4", "2,4;7"):
        rep = check_tau_symmetry(FlagShape.from_string(s), samples=20, seed=2)
        assert rep.ok is True and rep.G_checked == 20
    rep = check_tau_symmetry(FlagShape(7, (2, 4)), samples=10, seed=0)
    assert rep.complementary_steps == (3, 5)


def test_tau_symmetry_without_a_G_check_is_not_ok(monkeypatch):
    def no_lu(z):
        raise PivotFailure("leading principal minor 1 vanishes")

    monkeypatch.setattr(verify, "lu_unipotent", no_lu)
    rep = check_tau_symmetry(FlagShape.from_string("1,2;4"), samples=5, seed=2)
    assert rep.G_checked == 0 and rep.max_G_residual == 0.0
    assert rep.max_involution_residual < 1e-9  # the other checks still ran
    assert not rep.ok


def test_tau_involution_props():
    rng = np.random.default_rng(0)
    for _ in range(5):
        g = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)) + 3 * np.eye(5)
        assert np.abs(tau(tau(g)) - g).max() < 1e-10
        u = np.eye(5) + np.triu(rng.normal(size=(5, 5)), 1)
        tu = tau(u)
        assert np.abs(np.tril(tu, -1)).max() < 1e-12
        for i in range(1, 5):
            assert abs(tu[5 - i - 1, 5 - i] - u[i - 1, i]) < 1e-12


def test_G_coset_independence():
    # right multiplication by lower-triangular matrices leaves G invariant
    rng = np.random.default_rng(3)
    shape = FlagShape(5, (2, 4))
    import random as pyrandom
    z = z_from_vector(shape, random_z_vector(shape, pyrandom.Random(5), 0.5, 1.5))
    L, _ = lu_unipotent(z)
    g = np.diag(toeplitz_scaling(shape, [1.2, 0.9])) @ np.asarray(L) @ w0_matrix(5)
    for m in shape.steps:
        base = G_1(g, m)
        for _ in range(5):
            b = np.tril(rng.normal(size=(5, 5))) + 2 * np.eye(5)
            assert abs(G_1(g @ b, m) - base) < 1e-9 * (1 + abs(base))


def test_mirror_spectrum_small():
    rep = check_mirror_spectrum(FlagShape(3, (1, 2)), [1.0, 1.0])
    assert rep.passed and len(rep.critical_values) == 6
    rep = check_mirror_spectrum(FlagShape(4, (2,)), [1.0])
    assert rep.passed and len(rep.critical_values) == 6
    js = rep.to_json()
    assert js["passed"] and len(js["eigenvalues"]) == 6
    assert type(rep.passed) is bool and json.loads(json.dumps({"passed": rep.passed}))
    assert js["elapsed"] == rep.elapsed > 0


def _assignment_inputs():
    """Square cost matrices, n = 1..30, of three kinds: uniform reals, small
    integers (many ties), and distances between clustered complex spectra
    with repeated values."""
    rng = np.random.default_rng(20261018)
    for n in range(1, 31):
        yield rng.random((n, n))
        yield rng.integers(0, 4, (n, n)).astype(float)
        centers = rng.normal(size=n // 3 + 1) + 1j * rng.normal(size=n // 3 + 1)
        a = rng.choice(centers, n)
        b = rng.choice(centers, n) + 1e-9 * rng.normal(size=n) * (rng.random(n) < 0.5)
        yield np.abs(a[:, None] - b[None, :])


def test_min_cost_assignment_matches_scipy():
    for cost in _assignment_inputs():
        n = len(cost)
        rows, cols = _min_cost_assignment(cost)
        assert sorted(rows) == sorted(cols) == list(range(n))
        ref_rows, ref_cols = linear_sum_assignment(cost)
        got, want = cost[rows, cols].sum(), cost[ref_rows, ref_cols].sum()
        # the two sums may add equal optima in another order
        assert abs(got - want) <= n * np.finfo(float).eps * want
    # a non-finite entry is refused rather than searched forever
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            _min_cost_assignment(np.array([[0.0, bad], [1.0, 2.0]]))


@pytest.mark.parametrize("sstr", ACCEPTANCE_SHAPES)
def test_mirror_spectrum_max_distance_matches_scipy_route(sstr):
    shape = FlagShape.from_string(sstr)
    rep = check_mirror_spectrum(shape, [1.0] * shape.r)
    cost = np.abs(np.array(rep.critical_values)[:, None] - rep.eigenvalues[None, :])
    rows, cols = linear_sum_assignment(cost)
    assert rep.passed and rep.max_distance == float(cost[rows, cols].max())


def test_verify_mirror_count_mismatch(monkeypatch, capsys):
    real = verify.find_critical_points
    monkeypatch.setattr(verify, "find_critical_points", lambda *a: real(*a)[1:])
    argv = ["verify-mirror", "--shape", "1,2;3", "--q", "1,1"]
    assert main(argv) == 1
    assert capsys.readouterr().out.startswith(
        "FAIL shape 1,2;3: count mismatch: 5 critical values vs 6 eigenvalues (")
    assert main(argv + ["--format", "json"]) == 1

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    data = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert not data["passed"] and data["max_distance"] is None


def test_mirror_spectrum_degenerate_fiber():
    # the all-ones fiber of (1,3;4) carries one triple critical point; the
    # value multiset still matches the twelve eigenvalues
    rep = check_mirror_spectrum(FlagShape(4, (1, 3)), [1.0, 1.0])
    assert rep.passed
    assert len(rep.points) == 10
    assert sorted(p.multiplicity for p in rep.points) == [1] * 9 + [3]


def test_equivalence_route():
    rep = check_equivalence_route(FlagShape(4, (1, 3)), [1.0, 1.0])
    assert rep.ok and rep.max_residual < 1e-7
    rep = check_equivalence_route(FlagShape(5, (2, 4)), [1.1, 0.9])
    assert rep.ok
    assert type(rep.ok) is bool and json.loads(json.dumps({"ok": rep.ok}))


def test_v_entry_formula_at_generic_points():
    # v_{n_j, n_j+1} = -(t_{n_j+1}/t_{n_j}) G_1^{n_j}(b_- w0) at any chart point
    import random as pyrandom
    from flagmirror.mirror import uv_from_z

    rng = pyrandom.Random(9)
    shape = FlagShape(5, (1, 3))
    q = [1.2 + 0.1j, 0.8]
    t = toeplitz_scaling(shape, q)
    for _ in range(10):
        z = z_from_vector(shape, random_z_vector(shape, rng, 0.5, 1.5))
        _, v = uv_from_z(z, shape)
        L, _ = lu_unipotent(z)
        g = np.diag(t) @ np.asarray(L) @ w0_matrix(5)
        for j in (1, 2):
            nj = shape.nj(j)
            want = -(t[nj] / t[nj - 1]) * G_1(g, nj)
            assert abs(v[nj - 1, nj] - want) < 1e-9 * (1 + abs(want))


def _fault_in_first_product(monkeypatch):
    """Double the first class product that verify computes; the memoised
    product in schubring is left untouched.  Returns the list of factor
    words that verify asks for."""
    calls = []

    def faulty(words, n):
        calls.append(words)
        out = product_vec(words, n)
        if len(calls) > 1:
            return out
        return {key: 2 * c for key, c in out.items()}

    monkeypatch.setattr(verify, "product_vec", faulty)
    return calls


def _fault_in_det_formula(monkeypatch):
    real = verify.det_formula_vec

    def doubled(w, n):
        return {key: 2 * c for key, c in real(w, n).items()}

    monkeypatch.setattr(verify, "det_formula_vec", doubled)


def test_strict_flags_raise(monkeypatch):
    shape = FlagShape(7, (2, 4))
    _fault_in_first_product(monkeypatch)
    with pytest.raises(IdentityViolation):
        check_key_identity(shape, 1, 4, strict=True)
    calls = _fault_in_first_product(monkeypatch)
    rep = check_key_identity(shape, 1, 4, strict=False)
    assert not rep.ok and rep.residual is not None
    # the residue is exactly the extra copy of the first signed term
    J0, wJ = next((J0, wJ) for J0, wJ in build_xi_and_wJ(shape, 1, 4).items()
                  if wJ is not None)
    njd = shape.nj(1) + 4 - (shape.n - shape.nj(2))
    G = grassmannian_word(set(range(njd)) - set(J0), shape.n)
    assert calls[0] == (wJ, G)
    want = class_product(Permutation(wJ), Permutation(G), shape.n).scaled((-1) ** sum(v + 1 for v in J0))
    assert rep.residual.ring == want.ring and rep.residual.terms == want.terms

    _fault_in_det_formula(monkeypatch)
    with pytest.raises(FormulaViolation):
        check_det_formula(3, strict=True)
    rep = check_det_formula(3, strict=False)
    assert not rep.ok and rep.checked == 5
    assert [str(w) for w in rep.failures] == ["123", "132", "213", "231", "312"]


def test_cli_fail_exit(monkeypatch, capsys):
    _fault_in_first_product(monkeypatch)
    assert main(["verify-identity", "--shape", "2,4;7", "--j", "1", "--i", "4"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("FAIL shape") and "residual:" in out
    _fault_in_det_formula(monkeypatch)
    assert main(["verify-detformula", "--n", "3"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("FAIL determinantal formula n=3") and out.count("failed:") == 5