import logging
import random
import warnings
from functools import lru_cache

import numpy as np
import pytest

from flagmirror import crit
from flagmirror.combinat import FlagShape, Permutation, all_shapes, min_rep_of
from flagmirror.crit import (
    CritConfig,
    CritPoint,
    _Search,
    _toeplitz_system,
    crit_report,
    find_critical_points,
    toeplitz_residual,
    toeplitz_scaling,
)
from flagmirror.exactalg import lu_unipotent
from flagmirror.mirror import chart_vector, f_minus_chart, random_z_vector, z_from_vector
from flagmirror.qhpartial import partial_ring
from flagmirror.verify import ACCEPTANCE_SHAPES, _min_cost_assignment
from tests_support import chart_point_from_toeplitz, toeplitz_residual_loop


def _multistart_points(shape, q, seed, starts=None):
    """The random Toeplitz multistart alone (the fill-in step), certified."""
    search = _Search(shape, [complex(v) for v in q], seed)
    search.multistart(starts if starts is not None else 100 * shape.basis_size)
    return search.certify()


def _values(points):
    out = []
    for p in points:
        out.extend([p.value] * p.multiplicity)
    return sorted(out, key=lambda z: (round(z.real, 7), round(z.imag, 7)))


def test_p1_example():
    shape = FlagShape(2, (1,))
    pts = find_critical_points(shape, [1.0], CritConfig(seed=1))
    assert len(pts) == 2
    assert np.allclose(sorted(p.value.real for p in pts), [-2, 2], atol=1e-10)
    assert all(abs(p.value.imag) < 1e-10 for p in pts)
    # one-variable chart: 1/x + q x has critical points x = +-1 at q = 1
    for p in pts:
        assert abs(abs(p.z[0]) - 1) < 1e-10
    # the scaled lower factors are exactly Toeplitz 2x2
    for p in pts:
        assert p.toeplitz_residual < 1e-10


def test_gr24_values():
    shape = FlagShape(4, (2,))
    pts = find_critical_points(shape, [1.0], CritConfig(seed=1))
    assert len(pts) == 6
    s = 4 * np.sqrt(2)
    want = sorted([-s, 0, 0, s, -1j * s, 1j * s], key=lambda z: (np.real(z), np.imag(z)))
    got = _values(pts)
    assert np.allclose(got, want, atol=1e-8)


def test_fl124_headline_numbers():
    shape = FlagShape(4, (1, 2))
    pts = find_critical_points(shape, [1.0, 1.0], CritConfig(seed=0))
    assert len(pts) == 12
    assert all(p.multiplicity == 1 for p in pts)
    assert sum(1 for p in pts if abs(p.value + 3) < 1e-8) == 1


# regression data: the twelve critical values of the (1,2;4) fiber at
# q = (1,1), recorded from the first computation (only -3 is quoted
# elsewhere; the rest are artifact regression values, not external truth)
FL124_VALUES = [
    -6.040050250938085 - 4.442645264544364j,
    -6.040050250938084 + 4.442645264544365j,
    -3.0901699437494745 + 0j,
    -3.0 + 0j,
    -1.0509459062519693 + 0j,
    1.525472953125985 - 5.734048428436299j,
    1.5254729531259847 + 5.734048428436299j,
    1.942304635361055 - 0.986485481428555j,
    1.9423046353610545 + 0.9864854814285551j,
    2.097745615577031 - 3.4561597831158095j,
    2.097745615577031 + 3.4561597831158095j,
    8.090169943749475 + 0j,
]


def test_fl124_regression_values():
    shape = FlagShape(4, (1, 2))
    pts = find_critical_points(shape, [1.0, 1.0], CritConfig(seed=0))
    got = _values(pts)
    want = sorted(FL124_VALUES, key=lambda z: (round(z.real, 7), round(z.imag, 7)))
    assert np.allclose(got, want, atol=1e-7)


def test_determinism():
    shape = FlagShape(3, (1,))
    cfg = CritConfig(seed=123)
    a = find_critical_points(shape, [1.0], cfg)
    b = find_critical_points(shape, [1.0], cfg)
    assert [(p.value, tuple(p.z)) for p in a] == [(p.value, tuple(p.z)) for p in b]


def test_seed_and_starts_invariance():
    shape = FlagShape(4, (2,))
    a = _values(_multistart_points(shape, [1.0], seed=1))
    b = _values(_multistart_points(shape, [1.0], seed=77, starts=1200))
    c = _values(find_critical_points(shape, [1.0], CritConfig(seed=77, starts=1200)))
    assert len(a) == 6
    assert np.allclose(a, b, atol=1e-7)
    assert np.allclose(a, c, atol=1e-7)


def test_fd_gradient_reverification():
    shape = FlagShape(4, (1, 2))
    cfg = CritConfig(seed=0)
    pts = find_critical_points(shape, [1.0, 1.0], cfg)
    fm = f_minus_chart(shape)
    h = 1e-7
    for p in pts[:4]:
        g = np.zeros(shape.dim, dtype=complex)
        for a in range(shape.dim):
            zp, zm = np.array(p.z), np.array(p.z)
            zp[a] += h
            zm[a] -= h
            g[a] = (fm.value(zp, [1, 1]) - fm.value(zm, [1, 1])) / (2 * h)
        # central differences lose ~half the digits; stay well below 10x a
        # realistic finite-difference floor rather than 10x newton_tol
        assert np.linalg.norm(g) < 1e-6


def test_toeplitz_scaling():
    shape = FlagShape(7, (2, 4))
    t = toeplitz_scaling(shape, [2.0, 3.0])
    assert np.allclose(t, [6, 6, 3, 3, 1, 1, 1])
    assert t[-1] == 1
    for j in (1, 2):
        nj = shape.nj(j)
        assert abs(t[nj - 1] / t[nj] - (2.0 if j == 1 else 3.0)) < 1e-14


def test_toeplitz_residual_noncritical():
    # random chart points are far from Toeplitz form (sanity, loose bound)
    import random
    shape = FlagShape(4, (1, 2))
    rng = random.Random(1)
    vals = []
    for _ in range(10):
        z = random_z_vector(shape, rng, 0.5, 1.5)
        p = CritPoint(z=z, value=0j, gradient_norm=1.0)
        vals.append(toeplitz_residual(p, shape, [1.0, 1.0]))
    assert np.median(vals) > 1e-3


def test_count_warning_and_validation():
    shape = FlagShape(2, (1,))
    with pytest.raises(ValueError):
        find_critical_points(shape, [0.0], CritConfig())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        find_critical_points(shape, [1.0], CritConfig(seed=0, starts=5))
        assert any("below 10x" in str(w.message) for w in caught)


def test_report_schema():
    rep = crit_report(FlagShape(2, (1,)), [1.0], CritConfig(seed=2))
    assert rep["count"] == 2 and rep["expected_dim"] == 2
    assert rep["total_multiplicity"] == 2
    assert all(set(p) == {"z", "value", "gradient_norm", "toeplitz_residual",
                          "multiplicity"} for p in rep["points"])
    search = rep["search"]
    assert set(search) == {
        "characters", "clusters", "roots_tried", "character_rejected_stratum",
        "character_rejected_gradient", "fill_in_starts", "toeplitz_converged",
        "toeplitz_distinct", "eliminated", "rejected_stratum", "rejected_gradient",
        "polishes_failed", "points", "search_s", "polish_s", "merge_s", "degree_s",
        "residual_s"}
    assert search["characters"] == 2 and search["roots_tried"] == 4
    assert search["fill_in_starts"] == 0 and search["points"] == 2


def test_chart_vector_roundtrip():
    shape = FlagShape(4, (1, 2))
    import random
    vec = random_z_vector(shape, random.Random(0))
    z = z_from_vector(shape, vec)
    assert np.allclose(chart_vector(shape, z), vec)


# m, the number of Toeplitz diagonals forced to zero, per acceptance shape
ELIMINATED = {"1;2": 0, "1;3": 1, "2;4": 1, "1,2;3": 0, "1,2;4": 1,
              "1,3;4": 0, "2;5": 2, "1,2,3;4": 0}


def _fd_jacobian(F, y, h=1e-7):
    J = np.empty((len(y), len(y)), dtype=complex)
    for a in range(len(y)):
        e = np.zeros(len(y), dtype=complex)
        e[a] = h
        J[:, a] = (F(y + e) - F(y - e)) / (2 * h)
    return J


@pytest.mark.parametrize("sstr", list(ELIMINATED))
def test_reduced_toeplitz_system_is_well_posed(sstr):
    # a generic fiber (q = 1 is degenerate for 1,3;4): every accepted point's
    # Toeplitz diagonals solve the reduced system at a reduced, isolated root
    shape = FlagShape.from_string(sstr)
    q = [1.0 + 0.2j * (-1) ** j + 0.05 * j for j in range(shape.r)]
    F, m = _toeplitz_system(shape, q)
    assert m == ELIMINATED[sstr]
    pts = find_critical_points(shape, q, CritConfig(seed=0))
    assert sum(p.multiplicity for p in pts) == shape.basis_size
    for p in pts:
        L, _ = lu_unipotent(z_from_vector(shape, p.z))
        x = (np.diag(toeplitz_scaling(shape, q)) @ np.asarray(L, dtype=complex))[:, 0]
        assert np.all(np.abs(x[shape.n - m:]) < 1e-12)
        y = x[:shape.n - m]
        assert np.linalg.norm(F(y)) < 1e-10
        sv = np.linalg.svd(_fd_jacobian(F, y), compute_uv=False)
        assert sv[-1] > 1e-6 * sv[0]


def test_early_stop_waits_for_expected_count_fl4():
    # the multistart used to stop after 258 starts with 23 of the 24 points
    shape = FlagShape.from_string("1,2,3;4")
    assert len(_multistart_points(shape, [1.0, 1.0, 1.0], seed=132976331)) == 24
    assert len(find_critical_points(shape, [1.0, 1.0, 1.0],
                                    CritConfig(seed=132976331))) == 24


def test_gr25_complete_for_every_seed():
    shape = FlagShape.from_string("2;5")
    for seed in range(10):
        assert len(_multistart_points(shape, [1.0], seed)) == 10, seed
        assert len(find_critical_points(shape, [1.0], CritConfig(seed=seed))) == 10, seed


def test_debug_log_line(caplog):
    f_minus_chart.cache_clear()
    with caplog.at_level(logging.DEBUG, logger="flagmirror"):
        find_critical_points(FlagShape(4, (2,)), [1.0], CritConfig(seed=1))
    lines = [r.getMessage() for r in caplog.records if r.name == "flagmirror"]
    # the chart evaluator logs its compile, then the search its counts
    assert len(lines) == 2
    assert lines[0].startswith("chart 2;4:")
    assert lines[1].startswith("crit 2;4:")
    for part in ("starts", "Toeplitz converged", "distinct (m=1)", "stratum",
                 "gradient", "polishes failed", "6 points", "search", "polish",
                 "merge", "degree", "residual",
                 "6 characters", "clusters of dim > 1", "24 roots tried",
                 "fill-in: 0 starts"):
        assert part in lines[1]


# -- the character route against the multistart -------------------------------------


def _fibers(sstr):
    """q = 1 and two fibers drawn as the benchmark's desk workload draws them."""
    r = FlagShape.from_string(sstr).r
    rng = random.Random(sum(map(ord, sstr)))
    return [[1.0] * r] + [
        [1.0 + 0.29 * rng.random() ** 0.5 * np.exp(2j * np.pi * rng.random())
         for _ in range(r)] for _ in range(2)]


@lru_cache(maxsize=None)
def _multistart_reference(sstr):
    shape = FlagShape.from_string(sstr)
    return [(q, _multistart_points(shape, q, seed=0)) for q in _fibers(sstr)]


def _same_multiset(a, b, tol=1e-7):
    """Critical values within tol, paired one to one with equal multiplicities."""
    if len(a) != len(b):
        return False
    cost = np.array([[abs(p.value - r.value) + (p.multiplicity != r.multiplicity)
                      for r in b] for p in a])
    rows, cols = _min_cost_assignment(cost)
    return bool(cost[rows, cols].max() < tol)


@pytest.mark.parametrize("sstr", ACCEPTANCE_SHAPES)
def test_character_route_matches_multistart(sstr):
    shape = FlagShape.from_string(sstr)
    for q, reference in _multistart_reference(sstr):
        assert sum(p.multiplicity for p in reference) == shape.basis_size
        points = find_critical_points(shape, q, CritConfig(seed=0))
        assert _same_multiset(points, reference), q


def _character_misfit(shape, q, x):
    """Relative misfit of x_d / x_0^d = (-1)^d prod_j q_{n_j}^(-min(n_j, d))
    chi(sigma_{w_d}), 1 <= d <= n_r, for the best-fitting character chi:
    inside each eigenvalue cluster of a random divisor combination, the
    least-squares fit of its left eigenvectors to chi(1) = 1 and the values
    read off x."""
    n, ring = shape.n, partial_ring(shape)
    rows, want = [ring.index(Permutation.identity(n))], [1.0]
    for d in range(1, shape.steps[-1] + 1):
        word = Permutation(tuple(range(n - d, n)) + tuple(range(1, n - d)) + (0,))
        rows.append(ring.index(min_rep_of(word, shape)))
        factor = (-1) ** d * np.prod([complex(q[j - 1]) ** -min(shape.nj(j), d)
                                      for j in range(1, shape.r + 1)])
        want.append(x[d] / x[0] ** d / factor)
    want = np.array(want)
    rng = random.Random(5)
    M = sum(complex(rng.gauss(0, 1), rng.gauss(0, 1)) * ring.chevalley_matrix(j, q)
            for j in range(1, shape.r + 1))
    lam, V = np.linalg.eig(M.T)
    best = np.inf
    for i in range(len(lam)):
        B = V[rows][:, np.abs(lam - lam[i]) < 1e-4 * (1 + np.abs(lam).max())]
        a = np.linalg.lstsq(B, want, rcond=None)[0]
        best = min(best, np.linalg.norm(B @ a - want) / np.linalg.norm(want))
    return best


@pytest.mark.parametrize("sstr", ACCEPTANCE_SHAPES)
def test_closed_formula_at_multistart_points(sstr):
    shape = FlagShape.from_string(sstr)
    for q, reference in _multistart_reference(sstr):
        for p in reference:
            L, _ = lu_unipotent(z_from_vector(shape, p.z))
            x = (np.diag(toeplitz_scaling(shape, q)) @ np.asarray(L, dtype=complex))[:, 0]
            assert np.all(np.abs(x[shape.steps[-1] + 1:]) < 1e-12)
            assert _character_misfit(shape, q, x) < 1e-9, (q, p.value)


@pytest.mark.parametrize("sstr", [s for s in ACCEPTANCE_SHAPES if "," in s])
def test_combination_seed_independence(sstr, monkeypatch):
    shape = FlagShape.from_string(sstr)
    for q in _fibers(sstr):
        reference = find_critical_points(shape, q, CritConfig(seed=0))
        for seed in range(10):
            monkeypatch.setattr(crit, "CHARACTER_SEED", seed)
            points, stats = crit._search(shape, q, CritConfig(seed=0))
            assert stats["fill_in_starts"] == 0, (q, seed)
            assert _same_multiset(points, reference), (q, seed)


def test_fill_in_completes_colliding_characters_gr26():
    # on Gr(2,6) at q = 1 one divisor does not separate the characters: they
    # give 12 of the 15 points and the multistart finds the other three
    shape = FlagShape.from_string("2;6")
    points, stats = crit._search(shape, [1.0], CritConfig(seed=0))
    assert len(points) == 15 and sum(p.multiplicity for p in points) == 15
    assert stats["clusters"] >= 1 and stats["fill_in_starts"] > 0


def test_fill_in_reuses_local_degrees_and_multistart_stream(monkeypatch):
    # the fill-in's second certify must not measure a degenerate point's local
    # degree again, and the multistart after it draws a fresh seeded stream
    measured = []
    local_degree = crit._local_degree
    monkeypatch.setattr(crit, "_local_degree",
                        lambda *a: measured.append(a[1]) or local_degree(*a))
    shape = FlagShape.from_string("1,3;4")
    search = _Search(shape, [1.0, 1.0], seed=3)
    search.characters()
    first = search.certify()
    assert [p.multiplicity for p in first if p.multiplicity > 1] == [3]
    assert len(measured) == 1
    assert search.rng.getstate() == random.Random(3).getstate()
    search.multistart(60)
    second = search.certify()
    assert len(measured) == 1
    assert _values(second) == _values(first)


# -- the batched lift and residuals against the per-candidate routes ------------


def _check_lift_batch(shape):
    # every character candidate, at q = 1 and at a generic fiber: the same
    # keep/reject decision and the same chart vector, bit for bit
    for q in ([1.0 + 0j] * shape.r, [0.9 + 0.13j * j for j in range(1, shape.r + 1)]):
        chars, _ = crit._characters(shape, q)
        X = crit._character_diagonals(shape, q, chars)
        ok, vecs = crit._lift_batch(shape, X, q)
        want = [chart_point_from_toeplitz(shape, x, q) for x in X]
        assert ok.tolist() == [w is not None for w in want]
        kept = [w for w in want if w is not None]
        assert len(vecs) == len(kept)
        assert all(np.array_equal(v, w) for v, w in zip(vecs, kept))


@pytest.mark.parametrize("shape", [s for n in range(2, 6) for s in all_shapes(n)],
                         ids=FlagShape.to_string)
def test_lift_batch_matches_per_candidate_lift(shape):
    _check_lift_batch(shape)


@pytest.mark.slow
@pytest.mark.parametrize("shape", all_shapes(6) + [FlagShape.from_string("2,4;7")],
                         ids=FlagShape.to_string)
def test_lift_batch_matches_per_candidate_lift_n6(shape):
    _check_lift_batch(shape)


def test_lift_batch_one_row_and_empty():
    # the multistart lifts one row at a time through the same function
    shape, q = FlagShape.from_string("2;4"), [0.9 + 0.13j]
    X = crit._character_diagonals(shape, q, crit._characters(shape, q)[0])
    ok, vecs = crit._lift_batch(shape, X, q)
    assert ok.sum() == 12 and len(ok) == 24
    kept = iter(vecs)
    for x, keep in zip(X, ok):
        one_ok, one = crit._lift_batch(shape, x[None], q)
        assert one_ok.tolist() == [keep] and len(one) == keep
        assert not keep or np.array_equal(one[0], next(kept))
    ok, vecs = crit._lift_batch(shape, X[:0], q)
    assert ok.shape == (0,) and vecs.shape == (0, shape.dim)


def test_batched_residuals_match_per_point_loop():
    rng = random.Random(4)
    for sstr in ACCEPTANCE_SHAPES:
        shape = FlagShape.from_string(sstr)
        q = [0.9 + 0.13j * j for j in range(1, shape.r + 1)]
        vecs = [p.z for p in find_critical_points(shape, q, CritConfig(seed=0))]
        vecs += [random_z_vector(shape, rng) for _ in range(5)]
        # z_11 = 0: the first leading principal minor vanishes
        vecs.append(np.concatenate([[0j], random_z_vector(shape, rng)[1:]]))
        got = crit._toeplitz_residuals(shape, np.array(vecs), q)
        want = np.array([toeplitz_residual_loop(shape, v, q) for v in vecs])
        assert np.isinf(got[-1]) and np.isinf(want[-1])
        assert np.all(np.isfinite(got[:-1])) and np.all(np.isfinite(want[:-1]))
        assert np.abs(got[:-1] - want[:-1]).max() <= 1e-13
        one = [toeplitz_residual(CritPoint(z=v, value=0j, gradient_norm=0.0), shape, q)
               for v in vecs]
        assert np.array_equal(one, got)
