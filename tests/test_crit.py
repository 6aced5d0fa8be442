import logging
import random
import re
import warnings
from functools import lru_cache

import numpy as np
import pytest

from flagmirror import crit, qhpartial
from flagmirror.combinat import FlagShape, Permutation, all_shapes, min_rep_of
from flagmirror.crit import (
    CritPoint,
    _newton_polish,
    _norm,
    _Search,
    _toeplitz_system,
    crit_report,
    find_critical_points,
    toeplitz_residual,
    toeplitz_scaling,
)
from flagmirror.exactalg import lu_unipotent
from flagmirror.mirror import chart_vector, f_minus_chart, random_z_vector, z_from_vector
from flagmirror.errors import ConvergenceFailure
from flagmirror.qhpartial import c1_spectrum, fiber_spectrum, partial_ring
from flagmirror.verify import ACCEPTANCE_SHAPES, _min_cost_assignment, check_mirror_spectrum
from tests_support import chart_point_from_toeplitz, multistart_points, toeplitz_residual_loop


def _values(points):
    out = []
    for p in points:
        out.extend([p.value] * p.multiplicity)
    return sorted(out, key=lambda z: (round(z.real, 7), round(z.imag, 7)))


def test_p1_example():
    shape = FlagShape(2, (1,))
    pts = find_critical_points(shape, [1.0])
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
    pts = find_critical_points(shape, [1.0])
    assert len(pts) == 6
    s = 4 * np.sqrt(2)
    want = sorted([-s, 0, 0, s, -1j * s, 1j * s], key=lambda z: (np.real(z), np.imag(z)))
    got = _values(pts)
    assert np.allclose(got, want, atol=1e-8)


def test_fl124_headline_numbers():
    shape = FlagShape(4, (1, 2))
    pts = find_critical_points(shape, [1.0, 1.0])
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
    pts = find_critical_points(shape, [1.0, 1.0])
    got = _values(pts)
    want = sorted(FL124_VALUES, key=lambda z: (round(z.real, 7), round(z.imag, 7)))
    assert np.allclose(got, want, atol=1e-7)


def test_determinism():
    shape = FlagShape(3, (1,))
    a = find_critical_points(shape, [1.0])
    b = find_critical_points(shape, [1.0])
    assert [(p.value, tuple(p.z)) for p in a] == [(p.value, tuple(p.z)) for p in b]


def test_seed_and_starts_invariance():
    shape = FlagShape(4, (2,))
    a = _values(multistart_points(shape, [1.0], seed=1))
    b = _values(multistart_points(shape, [1.0], seed=77, starts=1200))
    c = _values(find_critical_points(shape, [1.0]))
    assert len(a) == 6
    assert np.allclose(a, b, atol=1e-7)
    assert np.allclose(a, c, atol=1e-7)


def test_fd_gradient_reverification():
    shape = FlagShape(4, (1, 2))
    pts = find_critical_points(shape, [1.0, 1.0])
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


def test_norm_is_numpys_to_the_bit():
    rng = np.random.default_rng(3)
    for k in range(2000):
        m = int(rng.integers(1, 12))
        v = rng.standard_normal(m) * 10.0 ** rng.integers(-8, 8, m)
        if k % 2:
            v = v + 1j * rng.standard_normal(m) * 10.0 ** rng.integers(-8, 8, m)
        assert _norm(v) == float(np.linalg.norm(v))


def test_polish_from_the_screen_gradient():
    # the lifts keep the gradient their screen computed; polishing with it
    # gives the same point as recomputing it
    shape = FlagShape(4, (1, 2))
    search = _Search(shape, [1.0 + 0j, 1.0 + 0j])
    search.characters()
    assert search.lifts
    for vec, g in search.lifts:
        with_g = _newton_polish(search.fm, vec, search.q, g)
        again = _newton_polish(search.fm, vec, search.q)
        assert np.array_equal(search.fm.gradient(vec, search.q), g)
        assert (with_g is None) == (again is None)
        if with_g is not None:
            assert np.array_equal(with_g[0], again[0]) and with_g[1] == again[1]


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


def test_count_warning_and_validation(monkeypatch):
    shape = FlagShape(2, (1,))
    with pytest.raises(ValueError):
        find_critical_points(shape, [0.0])
    # without the cluster step Gr(2,6) at q = 1 comes out 3 points short
    monkeypatch.setattr(_Search, "solve_clusters", lambda self: None)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert len(find_critical_points(FlagShape.from_string("2;6"), [1.0])) == 12
    assert [str(w.message) for w in caught] == [
        "found total multiplicity 12 for 2;6, expected 15"]


def test_report_schema():
    rep = crit_report(FlagShape(2, (1,)), [1.0])
    assert rep["count"] == 2 and rep["expected_dim"] == 2
    assert rep["total_multiplicity"] == 2
    assert all(set(p) == {"z", "value", "gradient_norm", "toeplitz_residual",
                          "multiplicity"} for p in rep["points"])
    search = rep["search"]
    assert set(search) == {
        "characters", "clusters", "roots_tried", "character_rejected_stratum",
        "character_rejected_gradient", "clusters_solved", "clusters_unsolved",
        "cluster_dims", "cluster_roots_found", "cluster_roots_kept",
        "cluster_rejected_stratum", "cluster_rejected_gradient", "eliminated",
        "polishes_failed", "points", "degenerate", "groups", "nearby_points",
        "nearby_clusters_solved", "strays", "groups_unattracted", "search_s", "polish_s",
        "merge_s", "degree_s", "residual_s"}
    assert search["characters"] == 2 and search["roots_tried"] == 4
    assert search["points"] == 2
    # the characters suffice: the cluster step never runs
    assert search["clusters_solved"] == search["cluster_roots_found"] == 0
    assert search["cluster_dims"] == []
    # no degenerate point: the nearby fiber is never searched
    assert search["degenerate"] == search["groups"] == search["nearby_points"] == 0


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
    pts = find_critical_points(shape, q)
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
    assert len(multistart_points(shape, [1.0, 1.0, 1.0], seed=132976331)) == 24
    assert len(find_critical_points(shape, [1.0, 1.0, 1.0])) == 24


def test_gr25_complete_for_every_seed():
    # the search takes no seed; the seeds drive the test-side multistart
    shape = FlagShape.from_string("2;5")
    assert len(find_critical_points(shape, [1.0])) == 10
    for seed in range(3):
        assert len(multistart_points(shape, [1.0], seed)) == 10, seed


def _debug_stats(line):
    """The key=value pairs after the shape on a crit DEBUG line."""
    return dict(pair.split("=") for pair in line.split(": ", 1)[1].split())


def test_debug_log_line(caplog):
    f_minus_chart.cache_clear()
    qhpartial._fiber_spectrum.cache_clear()
    with caplog.at_level(logging.DEBUG, logger="flagmirror"):
        find_critical_points(FlagShape(4, (2,)), [1.0])
    lines = [r.getMessage() for r in caplog.records if r.name == "flagmirror"]
    # the chart evaluator logs its compile, the eigensolve its size, seconds
    # and trace check, then the search its counts
    assert len(lines) == 3
    assert lines[0].startswith("chart 2;4:")
    got = re.fullmatch(r"spectrum 2;4: N=6, \d+\.\d{3}s, c1 trace gap (\S+), bound (\S+)", lines[1])
    # the bound is 1e-8 (1 + sum |lambda|) for the spectrum 4 sqrt(2) i^k, 0, 0
    assert got and float(got[1]) <= float(got[2]) == pytest.approx(2.4e-7)
    assert lines[2].startswith("crit 2;4: ")
    stats = _debug_stats(lines[2])
    # the line carries exactly the counts of the report, in its order
    assert list(stats) == list(crit_report(FlagShape(4, (2,)), [1.0])["search"])
    assert {k: stats[k] for k in ("characters", "clusters", "roots_tried", "eliminated",
                                  "points", "degenerate", "groups", "nearby_points",
                                  "nearby_clusters_solved", "groups_unattracted",
                                  "clusters_solved", "cluster_dims")} == {
        "characters": "6", "clusters": "1", "roots_tried": "24", "eliminated": "1",
        "points": "6", "degenerate": "0", "groups": "0", "nearby_points": "0",
        "nearby_clusters_solved": "0", "groups_unattracted": "0",
        "clusters_solved": "0", "cluster_dims": "[]"}
    assert all(float(stats[k]) >= 0 for k in stats if k.endswith("_s"))
    # a degenerate fiber reports its multiplicity stage; the nearby-fiber
    # search logs no line of its own
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="flagmirror"):
        find_critical_points(FlagShape.from_string("1,3;4"), [1.0, 1.0])
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("crit")]
    assert len(lines) == 1
    stats = _debug_stats(lines[0])
    assert {k: stats[k] for k in ("points", "degenerate", "groups", "nearby_points",
                                  "nearby_clusters_solved", "groups_unattracted")} == {
        "points": "10", "degenerate": "1", "groups": "1", "nearby_points": "12",
        "nearby_clusters_solved": "0", "groups_unattracted": "0"}
    # a cluster fiber lists the dimension p of each cluster family
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="flagmirror"):
        find_critical_points(FlagShape.from_string("3;6"), [1.0])
    stats = _debug_stats(caplog.records[-1].getMessage())
    assert stats["clusters"] == stats["clusters_solved"] == "7"
    assert stats["cluster_dims"] == "[1,1,1,1,1,1,1]" and stats["points"] == "20"


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
    return [(q, multistart_points(shape, q, seed=0)) for q in _fibers(sstr)]


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
        points = find_critical_points(shape, q)
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


@pytest.fixture
def fresh_spectrum():
    """An empty ``fiber_spectrum`` memo before the test and after it, so that
    no patched eigensolve or seed outlives the test."""
    qhpartial._fiber_spectrum.cache_clear()
    yield qhpartial._fiber_spectrum
    qhpartial._fiber_spectrum.cache_clear()


def _spectrum_distance(a, b):
    """The largest distance of the min-sum pairing of two spectra."""
    cost = np.abs(np.asarray(a)[:, None] - np.asarray(b)[None, :])
    rows, cols = _min_cost_assignment(cost)
    return float(cost[rows, cols].max())


@pytest.mark.parametrize("sstr", [s for s in ACCEPTANCE_SHAPES if "," in s])
def test_combination_seed_independence(sstr, monkeypatch, fresh_spectrum):
    shape = FlagShape.from_string(sstr)
    for q in _fibers(sstr):
        reference = find_critical_points(shape, q)
        c1 = c1_spectrum(shape, q)
        for seed in range(10):
            monkeypatch.setattr(qhpartial, "CHARACTER_SEED", seed)
            fresh_spectrum.cache_clear()
            points, stats = crit._search(shape, q)
            assert stats["cluster_dims"] == [], (q, seed)
            assert _same_multiset(points, reference), (q, seed)
            # c_1's values are Rayleigh quotients of the combination's
            # eigenvectors, so they must not depend on its weights either
            got = c1_spectrum(shape, q)
            assert _spectrum_distance(got, c1) <= 1e-12 * (1 + np.abs(c1).max()), (q, seed)


def test_mirror_check_solves_each_fiber_once(monkeypatch, fresh_spectrum):
    # one N x N eig per fiber: c1_spectrum solves, find_critical_points reads
    # the memo; a degenerate fiber (1,3;4 at q = 1) solves its nearby fiber too
    calls = []
    for name in ("eig", "eigvals"):
        def counted(a, _name=name, _fn=getattr(np.linalg, name)):
            calls.append((_name, np.shape(a)))
            return _fn(a)
        monkeypatch.setattr(np.linalg, name, counted)
    for sstr, solves in (("2;4", 1), ("1,3;4", 2)):
        shape = FlagShape.from_string(sstr)
        N = shape.basis_size
        calls.clear()
        assert check_mirror_spectrum(shape, [1.0] * shape.r).passed
        assert [c for c in calls if c[1] == (N, N)] == [("eig", (N, N))] * solves, sstr
    # a desk sweep: every check hits the memo once, and only 1,3;4 at q = 1
    # solves a nearby fiber
    fresh_spectrum.cache_clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for sstr in ("1;2", "1;3", "2;4", "1,2;3", "1,2;4", "1,3;4", "1,2,3;4"):
            for q in _fibers(sstr):
                assert check_mirror_spectrum(FlagShape.from_string(sstr), q).passed
    info = fresh_spectrum.cache_info()
    assert (info.hits, info.misses) == (21, 22)


def test_eigensolve_failure_is_a_convergence_failure(monkeypatch, fresh_spectrum):
    def eig(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eig", eig)
    shape = FlagShape.from_string("1,2;4")
    for call in (c1_spectrum, find_critical_points):
        with pytest.raises(ConvergenceFailure, match="did not converge"):
            call(shape, [1.0, 1.0])


def test_fill_in_completes_colliding_characters_gr26():
    # on Gr(2,6) at q = 1 one divisor does not separate the characters: they
    # give 12 of the 15 points, and the cluster step finds the other three on
    # the cluster's one-parameter family of characters
    shape = FlagShape.from_string("2;6")
    points, stats = crit._search(shape, [1.0])
    assert len(points) == 15 and sum(p.multiplicity for p in points) == 15
    assert stats["clusters"] == stats["clusters_solved"] == 1
    assert stats["cluster_dims"] == [1] and stats["cluster_roots_kept"] > 0


def test_cluster_step_reuses_nearby_search(monkeypatch):
    # the cluster step's second certify must not search the nearby fiber again
    fibers = []
    run = _Search.run
    monkeypatch.setattr(_Search, "run", lambda self: fibers.append(self.q) or run(self))
    shape = FlagShape.from_string("1,3;4")
    search = _Search(shape, [1.0, 1.0])
    search.characters()
    first = search.certify()
    assert [p.multiplicity for p in first if p.multiplicity > 1] == [3]
    assert len(fibers) == 1 and fibers[0] != search.q
    search.solve_clusters()
    second = search.certify()
    assert len(fibers) == 1
    assert [p.multiplicity for p in second] == [p.multiplicity for p in first]
    assert np.allclose(_values(second), _values(first), atol=1e-12)


def test_strays_recover_a_degenerate_point_no_lift_reached():
    # drop every polished sample of the triple point of 1,3;4 at q = 1 (what
    # stalled polishes do to one of the two sextuple points of 1,2,4,5;6 at
    # q = 1 with one BLAS thread): the nearby fiber's points that no
    # polished point attracts are lifted and polished, and bring it back
    shape = FlagShape.from_string("1,3;4")
    search = _Search(shape, [1.0 + 0j, 1.0 + 0j])
    search.characters()
    triple = next(p.z for p in search.certify() if p.multiplicity == 3)
    far = [np.linalg.norm(z - triple) > 0.25 * (1 + np.linalg.norm(triple))
           for _, z, _ in search.found]
    search.found = [f for f, keep in zip(search.found, far) if keep]
    search.lifts, search.polished = [], 0
    assert sum(p.multiplicity for p in search.certify()) == 9
    search.strays()
    assert search.stats["strays"] == 3
    points = search.certify()
    assert [p.multiplicity for p in points if p.multiplicity > 1] == [3]
    assert sum(p.multiplicity for p in points) == shape.basis_size


# the shapes with n <= 6 whose characters collide inside one cluster
CLUSTER_SHAPES = ["2;6", "3;6", "4;6", "2,4;6"]


@pytest.mark.parametrize("sstr", CLUSTER_SHAPES)
def test_cluster_shapes_complete_on_both_fibers(sstr):
    # the cluster step completes each fiber, and a repeated search gives the
    # same points
    shape = FlagShape.from_string(sstr)
    for q in ([1.0] * shape.r, [0.9 + 0.13j * j for j in range(1, shape.r + 1)]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a count mismatch fails
            points, stats = crit._search(shape, q)
            again, _ = crit._search(shape, q)
        assert sum(p.multiplicity for p in points) == shape.basis_size, q
        assert stats["clusters_solved"] >= 1 and stats["clusters_unsolved"] == 0, q
        assert stats["strays"] == 0, q
        assert [(p.value, tuple(p.z)) for p in points] == \
            [(p.value, tuple(p.z)) for p in again], q


@pytest.mark.slow
def test_cluster_shape_n7_passes_mirror_check():
    # 3,4;7 at q = 1: a degenerate fiber with one cluster of dimension p = 1
    shape = FlagShape.from_string("3,4;7")
    rep = check_mirror_spectrum(shape, [1.0, 1.0])
    assert rep.passed
    assert sum(p.multiplicity for p in rep.points) == shape.basis_size


# the degenerate fibers at q = 1 and the multiplicities > 1 of their points
DEGENERATE = {"1,3;4": [3], "1,2;5": [2], "2,3;5": [3], "3,4;5": [2]}


@pytest.mark.parametrize("sstr", list(DEGENERATE))
def test_degenerate_multiplicities_do_not_depend_on_seed(sstr):
    # the search takes no seed; test_determinism covers repeated searches
    shape = FlagShape.from_string(sstr)
    points, stats = crit._search(shape, [1.0] * shape.r)
    assert [p.multiplicity for p in points if p.multiplicity > 1] == DEGENERATE[sstr]
    assert sum(p.multiplicity for p in points) == shape.basis_size
    assert stats["groups"] == len(DEGENERATE[sstr]) and stats["groups_unattracted"] == 0
    assert stats["nearby_points"] == shape.basis_size


@pytest.mark.slow
@pytest.mark.parametrize("sstr", ["1,2,3;6", "3,4,5;6"])
def test_degenerate_multiplicities_n6(sstr):
    shape = FlagShape.from_string(sstr)
    points = find_critical_points(shape, [1.0] * shape.r)
    assert [p.multiplicity for p in points if p.multiplicity > 1] == [2, 2]
    assert sum(p.multiplicity for p in points) == shape.basis_size


@pytest.mark.slow
@pytest.mark.parametrize("sstr", ["1,5;6", "1,2,4,5;6"])
def test_degenerate_clouds_pass_mirror_check(sstr):
    # each cloud of Hessian-degenerate samples is one point whose multiplicity
    # is the eigenvalue's: 5 for the value 0 of 1,5;6, 6 twice for 1,2,4,5;6
    shape = FlagShape.from_string(sstr)
    rep = check_mirror_spectrum(shape, [1.0] * shape.r)
    assert rep.passed
    assert sum(p.multiplicity for p in rep.points) == shape.basis_size


# -- the batched lift and residuals against the per-candidate routes ------------


def _check_lift_batch(shape, fibers=None):
    # every character candidate, by default at q = 1 and at a generic fiber:
    # the same keep/reject decision and the same chart vector, bit for bit
    for q in fibers or ([1.0 + 0j] * shape.r, [0.9 + 0.13j * j for j in range(1, shape.r + 1)]):
        chars = crit._characters(shape, q)[0]
        X = crit._character_diagonals(shape, q, chars[:, crit._diagonal_classes(shape)])
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


def test_singular_lift_is_rejected_as_stratum():
    # at this fiber near q = 1 some character candidates factor with an
    # upper-triangular U that is singular in floating point; U is not
    # unipotent, so they are off the stratum, not an error
    shape = FlagShape.from_string("1,5;6")
    q = [1 + 1e-6 * (0.9 + 0.13j * j) for j in (1, 2)]
    _check_lift_batch(shape, [q])
    points, stats = crit._search(shape, q)
    assert stats["character_rejected_stratum"] > 0
    assert sum(p.multiplicity for p in points) == shape.basis_size


def test_memoised_crit_arrays_are_read_only():
    # every caller shares one array per key, so a write would reach them all
    for arr in (crit._diagonal_classes(FlagShape.from_string("2;4")),
                crit._entry_diagonals(4), crit._lift_frame(FlagShape.from_string("2;4"))[0],
                *fiber_spectrum(FlagShape.from_string("2;4"), [1.0])):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1


def test_lift_batch_one_row_and_empty():
    # the test-side multistart lifts one row at a time through the same function
    shape, q = FlagShape.from_string("2;4"), [0.9 + 0.13j]
    chars = crit._characters(shape, q)[0]
    X = crit._character_diagonals(shape, q, chars[:, crit._diagonal_classes(shape)])
    ok, vecs = crit._lift_batch(shape, X, q)
    assert ok.sum() == 8 and len(ok) == 24
    kept = iter(vecs)
    for x, keep in zip(X, ok):
        one_ok, one = crit._lift_batch(shape, x[None], q)
        assert one_ok.tolist() == [keep] and len(one) == keep
        assert not keep or np.array_equal(one[0], next(kept))
    ok, vecs = crit._lift_batch(shape, X[:0], q)
    assert ok.shape == (0,) and vecs.shape == (0, shape.dim)


@pytest.mark.parametrize("shape", [s for n in range(2, 6) for s in all_shapes(n)],
                         ids=FlagShape.to_string)
def test_lift_keeps_one_root_per_character(shape):
    # x_0 is fixed only up to an n-th root of unity; the roots of other fibers
    # factor with a U that is not unipotent, so the stratum test drops them and
    # the gradient screen rejects nothing
    for q in ([1.0] * shape.r, [0.9 + 0.13j * j for j in range(1, shape.r + 1)]):
        st = crit_report(shape, q)["search"]
        assert st["character_rejected_gradient"] == 0
        if st["clusters"] == 0:
            assert st["roots_tried"] - st["character_rejected_stratum"] == st["characters"]


def test_nearby_fiber_lifts_are_bounded():
    # the nearby fiber of 1,5;6 at q = 1: the wrong roots used to lift to
    # |vec| > 1e3, where the gradient screen, scaled by |vec|, let them through
    # to polishes that failed
    shape = FlagShape.from_string("1,5;6")
    near = _Search(shape, [1 + 1e-4 * (0.9 + 0.13j * j) for j in (1, 2)], measure=False)
    near.run()
    assert near.stats["polishes_failed"] == 0
    assert max(_norm(vec) for vec, _ in near.lifts) <= 1e3


def test_batched_residuals_match_per_point_loop():
    rng = random.Random(4)
    for sstr in ACCEPTANCE_SHAPES:
        shape = FlagShape.from_string(sstr)
        q = [0.9 + 0.13j * j for j in range(1, shape.r + 1)]
        vecs = [p.z for p in find_critical_points(shape, q)]
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


def _merge_loop(found, dim):
    """``crit._merge`` as a sort with tuple keys and one norm per point: the
    reference it is checked against."""
    found = sorted(found, key=lambda t: (t[0].real, t[0].imag,
                                         tuple((v.real, v.imag) for v in t[1])))
    Z = np.reshape([z for _, z, _ in found], (-1, dim))
    radius = crit.DEDUPE_RADIUS * (1 + np.linalg.norm(Z, axis=1))
    keep = []
    for i, z in enumerate(Z):
        if not np.any(np.linalg.norm(Z[keep] - z, axis=1) <= radius[keep]):
            keep.append(i)
    return [found[i] for i in keep], Z[keep]


@pytest.mark.parametrize("seed", range(12))
def test_merge_matches_per_point_loop(seed):
    # clustered clouds: samples at 0.1 to 10 times the merge radius around a
    # few centres, exact duplicates, values shared by different z (so the z
    # keys decide the order), rounded coordinates that tie, and -0.0 beside 0.0
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 13))
    found = []
    for _ in range(int(rng.integers(1, 8))):
        centre = np.round(rng.normal(size=dim) + 1j * rng.normal(size=dim), 1) * 10.0 ** rng.integers(-1, 3)
        value = complex(np.round(rng.normal(), 1), 0.0 if rng.random() < 0.5 else -0.0)
        for _ in range(int(rng.integers(1, 9))):
            scale = crit.DEDUPE_RADIUS * (1 + np.linalg.norm(centre)) * 10 ** rng.uniform(-1, 1)
            z = centre + scale * (rng.normal(size=dim) + 1j * rng.normal(size=dim)) / np.sqrt(2 * dim)
            if rng.random() < 0.3:
                z[0] = centre[0]  # ties on the first coordinate's key
            found.append((value if rng.random() < 0.5 else value + 1e-15, z, 0.0))
            if rng.random() < 0.3:
                found.append((value, z.copy(), 0.0))
    rng.shuffle(found)
    got, want = crit._merge(found, dim), _merge_loop(found, dim)
    assert len(got[0]) == len(want[0]) and all(a is b for a, b in zip(got[0], want[0]))
    assert got[1].shape == want[1].shape and np.array_equal(got[1], want[1])
    assert 0 < len(got[0]) < len(found)
    empty = crit._merge([], dim)
    assert empty[0] == [] and empty[1].shape == (0, dim)


def test_merge_radius_is_the_kept_points():
    # 0 is kept first; the second point lies outside 0's radius 1e-6 but
    # inside its own, so it is kept too
    a, b = (0j, np.zeros(1, dtype=complex), 0.0), (1j, np.full(1, 1.0000005e-6 + 0j), 0.0)
    for found in ([a, b], [b, a]):
        assert crit._merge(found, 1)[0] == [a, b] == _merge_loop(found, 1)[0]


@pytest.mark.parametrize("sstr, q", [("1,2,3;4", [0.01] * 3), ("1,2;3", [1e-4] * 2)])
def test_degeneracy_test_is_scale_free_at_small_q(sstr, q):
    # at small q the Hessians are small; a floor of 1 on the largest singular
    # value made the test absolute and grouped simple points into one
    # multiple point (20 degenerate points in 11 groups on 1,2,3;4)
    shape = FlagShape.from_string(sstr)
    rep = check_mirror_spectrum(shape, q)
    assert rep.passed, rep.max_distance
    assert all(p.multiplicity == 1 for p in rep.points)
    assert len(rep.points) == shape.basis_size
