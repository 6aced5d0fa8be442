"""Multistart damped-Newton search for the fiberwise critical points of the
superpotential at fixed quantum parameters, with deterministic deduplication
and the Toeplitz criterion residual for each accepted point."""

from __future__ import annotations

import logging
import random
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .combinat import FlagShape
from .errors import NearPole, PivotFailure
from .exactalg import complex_to_json, lu_unipotent
from .mirror import chart_vector, f_minus_chart, wPw0_matrix, z_from_vector

log = logging.getLogger("flagmirror")

__all__ = [
    "CritConfig",
    "CritPoint",
    "find_critical_points",
    "toeplitz_scaling",
    "toeplitz_residual",
    "crit_report",
]


NEWTON_MAX_ITER = 100
NEWTON_TOL = 1e-12
DEDUPE_RADIUS = 1e-6
POLE_GUARD = 1e-10
START_BOX = (0.2, 2.0)


@dataclass(frozen=True)
class CritConfig:
    """Budget and seed of the multistart Newton solver.

    ``starts=None`` means 100x the expected number of critical points
    (the Schubert-basis size); budgets below 10x trigger a warning.  The
    multistart stops early once at least the expected number of valid chart
    lifts is known and ``max(200, 3 * expected)`` starts in a row have added
    none.

    The tolerances are fixed module constants: at most ``NEWTON_MAX_ITER =
    100`` damped Newton steps per polish down to ``|grad F| < NEWTON_TOL =
    1e-12``, polished points within ``DEDUPE_RADIUS = 1e-6`` (relative) are
    merged, denominators below ``POLE_GUARD = 1e-10`` (relative) count as
    poles, and start moduli are uniform in ``START_BOX = (0.2, 2.0)``.
    """

    starts: int | None = None
    seed: int = 0


@dataclass
class CritPoint:
    z: np.ndarray
    value: complex
    gradient_norm: float
    toeplitz_residual: float = field(default=float("nan"))
    multiplicity: int = 1

    def to_json(self):
        return {
            "z": [complex_to_json(v) for v in self.z],
            "value": complex_to_json(self.value),
            "gradient_norm": self.gradient_norm,
            "toeplitz_residual": self.toeplitz_residual,
            "multiplicity": self.multiplicity,
        }


def _newton_polish(fm, z0, q, shift=None, tol=NEWTON_TOL):
    """Damped Newton on the exact symbolic gradient (halving on residual
    increase), used to polish candidate points in chart coordinates.  With a
    ``shift`` vector it solves grad F = shift instead (local degree counts)."""
    z = np.array(z0, dtype=complex)

    def resid(zz):
        g = fm.gradient(zz, q, POLE_GUARD)
        return g - shift if shift is not None else g

    try:
        g = resid(z)
    except NearPole:
        return None
    gn = float(np.linalg.norm(g))
    for _ in range(NEWTON_MAX_ITER):
        if gn < tol:
            return z
        try:
            H = fm.hessian(z, q, POLE_GUARD)
            step = np.linalg.solve(H, -g)
        except (NearPole, np.linalg.LinAlgError):
            return None
        t = 1.0
        for _ in range(20):
            znew = z + t * step
            try:
                gnew = resid(znew)
            except NearPole:
                t *= 0.5
                continue
            gn_new = float(np.linalg.norm(gnew))
            if gn_new < gn:
                z, g, gn = znew, gnew, gn_new
                break
            t *= 0.5
        else:
            return None
    return z if gn < tol else None


def _toeplitz_from_diagonals(x) -> np.ndarray:
    n = len(x)
    T = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(i + 1):
            T[i, j] = x[i - j]
    return T


def _corner_minor(M: np.ndarray, k: int) -> complex:
    n = M.shape[0]
    return complex(np.linalg.det(M[n - k:, :k])) if k else 1.0 + 0j


def _toeplitz_system(shape: FlagShape, q):
    """The critical-point equations in Toeplitz coordinates, reduced.

    A critical point of the q-fiber corresponds to a lower-triangular Toeplitz
    matrix T in the Bruhat cell of w_P w_0; membership and the fiber condition
    pin the bottom-left corner minors of T: they vanish except at the step
    complements, where they equal the matching products of the q-scaling.

    A leading run of m zero targets forces the last m diagonals to vanish:
    with the trailing diagonals zero, the k x k corner minor is x[n-k]^k, a
    non-reduced equation on which Newton stalls.  Those diagonals are set to
    zero and their equations dropped, so the returned F maps the first n - m
    diagonals to n - m residuals.  Returns (F, m).
    """
    n = shape.n
    W = wPw0_matrix(shape)
    t = toeplitz_scaling(shape, q)
    steps = set(shape.steps)
    targets = []
    for k in range(1, n):
        nj = n - k
        if nj in steps:
            eps = _corner_minor(W, k)
            targets.append(eps * complex(np.prod(t[nj:])))
        else:
            targets.append(0.0 + 0j)
    det_target = complex(np.prod(t))
    m = n - 1 - shape.steps[-1]  # targets[0..m-1] are zero

    def F(y):
        T = _toeplitz_from_diagonals(np.concatenate([y, np.zeros(m, dtype=complex)]))
        out = np.empty(n - m, dtype=complex)
        for idx in range(m, n - 1):
            out[idx - m] = _corner_minor(T, idx + 1) - targets[idx]
        out[n - m - 1] = y[0] ** n - det_target
        return out

    return F, m


def _solve_toeplitz_system(F, x0, maxiter: int = 200, tol: float = 1e-13,
                           xmax: float = 1e4, h: float = 1e-7):
    """Backtracking Newton with finite-difference Jacobian on the polynomial
    corner-minor system; escapes beyond xmax are abandoned."""
    x = np.array(x0, dtype=complex)
    n = len(x)
    for _ in range(maxiter):
        if np.abs(x).max() > xmax:
            return None
        f = F(x)
        fn = float(np.linalg.norm(f))
        if fn < tol:
            return x
        J = np.empty((n, n), dtype=complex)
        for a in range(n):
            e = np.zeros(n, dtype=complex)
            e[a] = h
            J[:, a] = (F(x + e) - F(x - e)) / (2 * h)
        try:
            step = np.linalg.solve(J, -f)
        except np.linalg.LinAlgError:
            return None
        t = 1.0
        for _ in range(30):
            xn = x + t * step
            if float(np.linalg.norm(F(xn))) < fn or t < 1e-8:
                break
            t *= 0.5
        x = xn
    return None


def _chart_point_from_toeplitz(shape: FlagShape, T: np.ndarray, q,
                               tol: float = 1e-5):
    """Invert the Toeplitz correspondence: factor t^{-1} T = V W U with V, U
    upper-triangular around the representative W of w_P^{-1} w_0, and read the
    chart coordinates off z = (t^{-1} T) U^{-1}.  Returns None when T sits in
    a smaller stratum (vanishing pivot or broken chart pattern)."""
    n = shape.n
    W = wPw0_matrix(shape)
    b = np.diag(1.0 / toeplitz_scaling(shape, q)) @ T
    pivot_col = {i: int(np.argmax(np.abs(W[i]) > 0.5)) for i in range(n)}
    pivot_row = {c: i for i, c in pivot_col.items()}
    A = b.astype(complex).copy()
    for c in range(n):
        ic = pivot_row[c]
        piv = A[ic, c]
        if abs(piv) < 1e-10:
            return None
        for i in range(ic):
            if pivot_col[i] > c:
                A[i, :] -= (A[i, c] / piv) * A[ic, :]
    U = np.linalg.inv(W) @ A
    scale = max(1.0, float(np.abs(U).max()))
    if float(np.abs(np.tril(U, -1)).max()) > tol * scale:
        return None
    z = b @ np.linalg.inv(U)
    vec = chart_vector(shape, z)
    rebuilt = z_from_vector(shape, vec)
    if float(np.abs(rebuilt - z).max()) > tol * max(1.0, float(np.abs(z).max())):
        return None
    return vec


def find_critical_points(shape: FlagShape, q, cfg: CritConfig | None = None) -> list[CritPoint]:
    """Deduplicated converged critical points, sorted by critical value.

    Multistart Newton runs on the Toeplitz-coordinate critical-point system
    (random seeds); every new solution is mapped back to the chart, and the
    lifts where the exact symbolic gradient is not already small (solutions
    belonging to other q-fibers or smaller strata) are dropped.  The rest are
    polished by damped Newton on that gradient.  For generic q the final
    count equals the Schubert-basis size; a mismatch is reported as a
    warning, not an error.
    """
    cfg = cfg or CritConfig()
    fm = f_minus_chart(shape)
    expected = shape.basis_size
    starts = cfg.starts if cfg.starts is not None else 100 * expected
    if starts < 10 * expected:
        warnings.warn(f"starts={starts} is below 10x the expected count {expected}",
                      stacklevel=2)
    rng = random.Random(cfg.seed)
    lo, hi = START_BOX
    q = [complex(v) for v in q]
    if any(v == 0 for v in q):
        raise ValueError("all quantum parameters must be nonzero")

    system, m = _toeplitz_system(shape, q)
    n = shape.n
    t0 = time.perf_counter()
    tsols: list[np.ndarray] = []
    lifts: list[np.ndarray] = []
    runs = converged = rejected_stratum = rejected_gradient = 0
    idle, idle_cap = 0, max(200, 3 * expected)
    for _ in range(starts):
        if idle >= idle_cap and len(lifts) >= expected:
            break  # deterministic early stop: no new valid lift for a while
        runs += 1
        # draw all n diagonals, so that the random stream does not depend on m
        x0 = [(lo + (hi - lo) * rng.random())
              * np.exp(2j * np.pi * rng.random()) for _ in range(n)]
        y = _solve_toeplitz_system(system, x0[:n - m])
        idle += 1
        if y is None:
            continue
        converged += 1
        if any(np.linalg.norm(y - s) <= 1e-8 * (1 + np.linalg.norm(s)) for s in tsols):
            continue
        tsols.append(y)
        x = np.concatenate([y, np.zeros(m, dtype=complex)])
        vec = _chart_point_from_toeplitz(shape, _toeplitz_from_diagonals(x), q)
        if vec is None:
            rejected_stratum += 1
            continue
        # a Toeplitz solution of another q-fiber or stratum lifts to a point
        # where the gradient is of order one; polishing it only fails slowly
        try:
            gn = float(np.linalg.norm(fm.gradient(vec, q, POLE_GUARD)))
        except NearPole:
            gn = float("inf")
        if gn > 1e-6 * (1 + float(np.linalg.norm(vec))):
            rejected_gradient += 1
            continue
        lifts.append(vec)
        idle = 0
    t1 = time.perf_counter()

    found = []
    for vec in lifts:
        z = _newton_polish(fm, vec, q)
        if z is None:
            continue
        if any(abs(d) < POLE_GUARD * (1 + abs(v)) for v, d in fm.term_values(z)):
            continue
        gn = float(np.linalg.norm(fm.gradient(z, q, POLE_GUARD)))
        if gn >= NEWTON_TOL:
            continue
        val = fm.value(z, q, POLE_GUARD)
        found.append((val, z, gn))
    t2 = time.perf_counter()

    # deterministic merge order, then greedy clustering in chart coordinates
    found.sort(key=lambda t: (t[0].real, t[0].imag,
                              tuple((v.real, v.imag) for v in t[1])))
    reps: list[tuple] = []
    for val, z, gn in found:
        dup = False
        for _, zr, _ in reps:
            if np.linalg.norm(np.asarray(z) - np.asarray(zr)) <= \
                    DEDUPE_RADIUS * (1 + np.linalg.norm(zr)):
                dup = True
                break
        if not dup:
            reps.append((val, z, gn))

    # a Hessian-degenerate (multiple) critical point shows up as a cloud of
    # near-converged artifacts wider than the dedupe radius; merge those and
    # measure the local multiplicity by counting roots of grad F = eps*v
    def is_degenerate(z):
        sv = np.linalg.svd(fm.hessian(z, q, POLE_GUARD), compute_uv=False)
        return sv[-1] < 1e-6 * max(1.0, sv[0])

    merged: list[list] = []
    flags: list[bool] = []
    for val, z, gn in reps:
        deg = is_degenerate(z)
        placed = False
        if deg:
            for grp, gflag in zip(merged, flags):
                if gflag and np.linalg.norm(z - grp[0][1]) <= \
                        1e-4 * (1 + np.linalg.norm(grp[0][1])):
                    grp.append((val, z, gn))
                    placed = True
                    break
        if not placed:
            merged.append([(val, z, gn)])
            flags.append(deg)

    points: list[CritPoint] = []
    for grp, deg in zip(merged, flags):
        val, z, gn = grp[0]
        if len(grp) > 1:
            center = np.mean([g[1] for g in grp], axis=0)
            zz = _newton_polish(fm, center, q)
            if zz is not None:
                z = zz
                gn = float(np.linalg.norm(fm.gradient(z, q, POLE_GUARD)))
                val = fm.value(z, q, POLE_GUARD)
        mult = _local_degree(fm, z, q, rng) if deg else 1
        points.append(CritPoint(z=np.asarray(z), value=complex(val),
                                gradient_norm=gn, multiplicity=mult))

    for p in points:
        try:
            p.toeplitz_residual = toeplitz_residual(p, shape, q)
        except PivotFailure:
            p.toeplitz_residual = float("inf")
    points.sort(key=lambda p: (p.value.real, p.value.imag))
    log.debug(
        "crit %s: %d starts, %d Toeplitz converged, %d distinct (m=%d); "
        "lifts rejected: %d stratum, %d gradient; %d polishes failed; "
        "%d points; search %.3fs, polish %.3fs",
        shape.to_string(), runs, converged, len(tsols), m, rejected_stratum,
        rejected_gradient, len(lifts) - len(found), len(points), t1 - t0, t2 - t1)
    total = sum(p.multiplicity for p in points)
    if total != expected:
        warnings.warn(
            f"found total multiplicity {total} for {shape}, expected {expected}",
            stacklevel=2)
    return points


def _local_degree(fm, zstar, q, rng) -> int:
    """Local multiplicity of a degenerate critical point: the number of
    solutions of grad F = eps*v near it, for a small generic shift eps*v."""
    dim = len(zstar)
    scale = 1 + float(np.linalg.norm(zstar))
    eps = 1e-5 * scale
    shift = eps * np.array([np.exp(2j * np.pi * rng.random()) for _ in range(dim)])
    shift /= max(1.0, np.linalg.norm(shift) / eps)
    ball = 0.25 * scale
    roots: list[np.ndarray] = []
    for _ in range(24 + 8 * dim):
        z0 = zstar + 0.05 * scale * np.array(
            [np.exp(2j * np.pi * rng.random()) * rng.random() for _ in range(dim)])
        z = _newton_polish(fm, z0, q, shift=shift, tol=1e-10)
        if z is None or np.linalg.norm(z - zstar) > ball:
            continue
        if all(np.linalg.norm(z - r) > 1e-6 * scale for r in roots):
            roots.append(z)
    return max(1, len(roots))


def toeplitz_scaling(shape: FlagShape, q) -> np.ndarray:
    """The block-constant diagonal with t_n = 1 and t_{n_j}/t_{n_j+1} = q_{n_j}."""
    n, r = shape.n, shape.r
    t = np.ones(n, dtype=complex)
    for j in range(r, 0, -1):
        blk = complex(1)
        for m in range(j, r + 1):
            blk *= complex(q[m - 1])
        for pos in range(shape.nj(j - 1), shape.nj(j)):
            t[pos] = blk
    return t


def toeplitz_residual(p: CritPoint, shape: FlagShape, q) -> float:
    """Deviation of t * (lower factor of z) from Toeplitz form.

    For each (lower) diagonal take the diameter of its entries, then the max
    over diagonals, normalized by the largest entry magnitude.
    """
    z = z_from_vector(shape, p.z)
    L, _ = lu_unipotent(z)
    T = np.diag(toeplitz_scaling(shape, q)) @ np.asarray(L)
    n = shape.n
    scale = float(np.abs(T).max()) or 1.0
    worst = 0.0
    for d in range(n):
        diag = [T[i + d, i] for i in range(n - d)]
        for a in range(len(diag)):
            for b in range(a + 1, len(diag)):
                worst = max(worst, abs(diag[a] - diag[b]))
    return worst / scale


def crit_report(shape: FlagShape, q, cfg: CritConfig | None = None) -> dict:
    points = find_critical_points(shape, q, cfg)
    return {
        "shape": shape.to_string(),
        "q": [complex_to_json(complex(v)) for v in q],
        "points": [p.to_json() for p in points],
        "count": len(points),
        "total_multiplicity": sum(p.multiplicity for p in points),
        "expected_dim": shape.basis_size,
    }
