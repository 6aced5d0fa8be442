import logging
import warnings

import numpy as np
import pytest

from flagmirror.combinat import FlagShape
from flagmirror.crit import (
    CritConfig,
    CritPoint,
    _toeplitz_system,
    crit_report,
    find_critical_points,
    toeplitz_residual,
    toeplitz_scaling,
)
from flagmirror.exactalg import lu_unipotent
from flagmirror.mirror import chart_vector, f_minus_chart, random_z_vector, z_from_vector


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
    a = _values(find_critical_points(shape, [1.0], CritConfig(seed=1)))
    b = _values(find_critical_points(shape, [1.0],
                                     CritConfig(seed=77, starts=1200)))
    assert np.allclose(a, b, atol=1e-7)


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
    # the search used to stop after 258 starts with 23 of the 24 points
    pts = find_critical_points(FlagShape.from_string("1,2,3;4"), [1.0, 1.0, 1.0],
                               CritConfig(seed=132976331))
    assert len(pts) == 24


def test_gr25_complete_for_every_seed():
    shape = FlagShape.from_string("2;5")
    for seed in range(10):
        pts = find_critical_points(shape, [1.0], CritConfig(seed=seed))
        assert len(pts) == 10, seed


def test_debug_log_line(caplog):
    with caplog.at_level(logging.DEBUG, logger="flagmirror"):
        find_critical_points(FlagShape(4, (2,)), [1.0], CritConfig(seed=1))
    lines = [r.getMessage() for r in caplog.records if r.name == "flagmirror"]
    assert len(lines) == 1
    assert lines[0].startswith("crit 2;4:")
    for part in ("starts", "Toeplitz converged", "distinct (m=1)", "stratum",
                 "gradient", "polishes failed", "6 points", "search", "polish"):
        assert part in lines[0]
