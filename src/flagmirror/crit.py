"""The fiberwise critical points of the superpotential at fixed quantum
parameters: Toeplitz candidates read off the characters of quantum
cohomology (a random multistart Newton fills any gap), lifted to the chart and
polished by damped Newton, with deterministic deduplication and the Toeplitz
criterion residual for each accepted point."""

from __future__ import annotations

import logging
import random
import time
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .combinat import FlagShape, Permutation, min_rep_of
from .errors import NearPole
from .exactalg import complex_to_json
from .mirror import chart_vector, f_minus_chart, wPw0_matrix, z_from_vector
from .qhpartial import partial_ring

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
MERGE_RADIUS = 1e-4
POLE_GUARD = 1e-10
START_BOX = (0.2, 2.0)
# seed of the divisor combination whose eigenvectors are the characters (the
# points found do not depend on it); eigenvalues of that combination closer
# than CLUSTER_RADIUS (relative) are counted as one cluster
CHARACTER_SEED = 0
CLUSTER_RADIUS = 1e-4


@dataclass(frozen=True)
class CritConfig:
    """Budget and seed of the multistart fill-in and the local-degree shifts.

    The character route of ``find_critical_points`` takes neither; the
    random multistart on the Toeplitz system runs only when the characters
    leave the count short, and ``seed`` also draws the shifts that measure
    the local degree of a degenerate point.  ``starts=None`` means 100x the
    expected number of critical points (the Schubert-basis size); budgets
    below 10x trigger a warning.  The multistart stops early once at least
    the expected number of valid chart lifts is known and ``max(200, 3 *
    expected)`` starts in a row have added none.

    The tolerances are fixed module constants: at most ``NEWTON_MAX_ITER =
    100`` damped Newton steps per polish down to ``|grad F| < NEWTON_TOL =
    1e-12``, polished points within ``DEDUPE_RADIUS = 1e-6`` (relative) are
    merged, Hessian-degenerate ones within ``MERGE_RADIUS = 1e-4`` (relative)
    form one point, denominators below ``POLE_GUARD = 1e-10`` (relative) count
    as poles, and start moduli are uniform in ``START_BOX = (0.2, 2.0)``.
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


@lru_cache(maxsize=None)
def _entry_diagonals(n: int) -> np.ndarray:
    return np.subtract.outer(np.arange(n), np.arange(n))  # i - j at (i, j)


def _toeplitz_from_diagonals(x) -> np.ndarray:
    """The lower-triangular Toeplitz matrices with first columns the rows of
    x, shape (..., n, n)."""
    d = _entry_diagonals(np.shape(x)[-1])
    return np.where(d >= 0, np.asarray(x, dtype=complex)[..., d], 0)


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
    W = _lift_frame(shape)[0]
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


@lru_cache(maxsize=None)
def _lift_frame(shape: FlagShape):
    """Per-shape constants of the chart lift, read-only: the representative W
    of w_P^{-1} w_0, its inverse, the pivot row of W in each column c, and
    the rows above that pivot whose own pivots lie right of c."""
    W = wPw0_matrix(shape)
    W_inv = np.linalg.inv(W)
    W.flags.writeable = W_inv.flags.writeable = False
    pivot_col = [int(np.argmax(np.abs(W[i]) > 0.5)) for i in range(shape.n)]
    pivot_row = tuple(pivot_col.index(c) for c in range(shape.n))
    above = tuple(tuple(i for i in range(ic) if pivot_col[i] > c)
                  for c, ic in enumerate(pivot_row))
    return W, W_inv, pivot_row, above


def _lift_batch(shape: FlagShape, X: np.ndarray, q, tol: float = 1e-5):
    """Invert the Toeplitz correspondence for each row x of X, the diagonals
    of T: factor t^{-1} T = V W U with V, U upper-triangular around the
    representative W of w_P^{-1} w_0, and read the chart coordinates off
    z = (t^{-1} T) U^{-1}.  Returns the mask of the rows whose T lies in the
    chart's stratum (no vanishing pivot, U upper-triangular, z on the chart
    pattern) and the chart vectors of those rows."""
    _, W_inv, pivot_row, above = _lift_frame(shape)
    b = np.diag(1.0 / toeplitz_scaling(shape, q)) @ _toeplitz_from_diagonals(X)
    A = b.copy()
    ok = np.ones(len(X), dtype=bool)
    with np.errstate(all="ignore"):  # rows with a vanishing pivot are masked
        for c, ic in enumerate(pivot_row):
            piv = A[:, ic, c]
            ok &= ~(np.abs(piv) < 1e-10)
            for i in above[c]:
                A[:, i, :] -= (A[:, i, c] / piv)[:, None] * A[:, ic, :]
    U = W_inv @ A
    scale = np.maximum(1.0, np.abs(U).max(axis=(1, 2)))
    ok &= ~(np.abs(np.tril(U, -1)).max(axis=(1, 2)) > tol * scale)
    keep = np.flatnonzero(ok)
    z = b[keep] @ np.linalg.inv(U[keep])
    vecs = chart_vector(shape, z)
    off = np.abs(z_from_vector(shape, vecs) - z).max(axis=(1, 2)) > \
        tol * np.maximum(1.0, np.abs(z).max(axis=(1, 2)))
    ok[keep[off]] = False
    return ok, vecs[~off]


def _characters(shape: FlagShape, q):
    """Candidate characters of QH*_q, as rows, and the number of eigenvalue
    clusters of dimension > 1.

    The candidates are the left eigenvectors of one fixed random complex
    combination of the divisor matrices, scaled to 1 at the identity class.
    Inside a cluster an eigenvector may mix characters; its Toeplitz
    candidates then fail the lift or the gradient screen.
    """
    ring = partial_ring(shape)
    rng = random.Random(CHARACTER_SEED)
    M = sum(complex(rng.gauss(0, 1), rng.gauss(0, 1)) * ring.chevalley_matrix(j, q)
            for j in range(1, shape.r + 1))
    lam, V = np.linalg.eig(M.T)
    one = ring.index(Permutation.identity(shape.n))
    keep = np.abs(V[one]) > 1e-12 * np.abs(V).max(axis=0)
    close = np.abs(lam[:, None] - lam[None, :]) <= \
        CLUSTER_RADIUS * (1 + float(np.abs(lam).max()))
    clusters = {tuple(np.flatnonzero(row)) for row in close if row.sum() > 1}
    return (V[:, keep] / V[one, keep]).T, len(clusters)


@lru_cache(maxsize=None)
def _diagonal_classes(shape: FlagShape) -> np.ndarray:
    """Indices in ``partial_ring(shape)`` of the classes sigma_{w_d},
    1 <= d <= n_r, of the closed formula of ``find_critical_points``."""
    n, ring = shape.n, partial_ring(shape)
    return np.array([ring.index(min_rep_of(Permutation(  # 0-based word
        tuple(range(n - d, n)) + tuple(range(1, n - d)) + (0,)), shape))
        for d in range(1, shape.steps[-1] + 1)])


def _character_diagonals(shape: FlagShape, q, chars) -> np.ndarray:
    """The Toeplitz diagonals x_0..x_{n-1}, one row per character c and root
    x_0 of x_0^n = prod t (character-major), by the closed formula of
    ``find_critical_points``."""
    n, nr = shape.n, shape.steps[-1]
    coef = np.array([(-1) ** d * np.prod([q[j - 1] ** -min(shape.nj(j), d)
                                          for j in range(1, shape.r + 1)])
                     for d in range(1, nr + 1)], dtype=complex)
    det_target = complex(np.prod(toeplitz_scaling(shape, q)))
    roots = det_target ** (1 / n) * np.exp(2j * np.pi * np.arange(n) / n)
    X = np.zeros((len(chars), n, n), dtype=complex)
    X[:, :, 0] = roots
    X[:, :, 1:nr + 1] = (coef * chars[:, _diagonal_classes(shape)])[:, None, :] * \
        roots[:, None] ** np.arange(1, nr + 1)
    return X.reshape(-1, n)


class _Search:
    """One critical-point search on one fiber: the kept chart lifts of the
    Toeplitz solutions, their polished points, and the counts and stage
    seconds reported on the DEBUG line and under ``crit_report``'s
    ``"search"`` key.  The chart lift of all the character candidates is one
    ``_lift_batch``, the degeneracy test one stacked SVD and the residuals
    one batched LU."""

    def __init__(self, shape: FlagShape, q, seed: int):
        self.shape, self.q = shape, q
        self.fm = f_minus_chart(shape)
        # one stream for the multistart and one for the local-degree shifts, so
        # that the fill-in draws the same starts as a multistart run alone
        self.rng = random.Random(seed)
        self.degree_rng = random.Random(seed)
        self.degrees: list[tuple[np.ndarray, int]] = []  # (point, local degree)
        self.m = shape.n - 1 - shape.steps[-1]  # diagonals forced to zero
        self.tsols: list[np.ndarray] = []  # Toeplitz solutions of kept lifts and starts
        self.lifts: list[np.ndarray] = []
        self.found: list[tuple] = []  # (value, z, |grad F|) of the polished lifts
        self.polished = 0
        self.stats = {
            "characters": 0, "clusters": 0, "roots_tried": 0,
            "character_rejected_stratum": 0, "character_rejected_gradient": 0,
            "fill_in_starts": 0, "toeplitz_converged": 0, "toeplitz_distinct": 0,
            "eliminated": self.m, "rejected_stratum": 0, "rejected_gradient": 0,
            "polishes_failed": 0, "points": 0, "search_s": 0.0, "polish_s": 0.0,
            "merge_s": 0.0, "degree_s": 0.0, "residual_s": 0.0,
        }

    def _lift(self, X) -> list[str | None]:
        """Keep the chart lifts of the Toeplitz diagonals X (one row per
        candidate); return, per row, None or the screen that rejects it."""
        ok, vecs = _lift_batch(self.shape, X, self.q)
        reasons: list[str | None] = ["stratum"] * len(X)
        for i, vec in zip(np.flatnonzero(ok), vecs):
            # a Toeplitz solution of another q-fiber or stratum lifts to a point
            # where the gradient is of order one; polishing it only fails slowly
            try:
                gn = float(np.linalg.norm(self.fm.gradient(vec, self.q, POLE_GUARD)))
            except NearPole:
                gn = float("inf")
            if gn > 1e-6 * (1 + float(np.linalg.norm(vec))):
                reasons[i] = "gradient"
            else:
                reasons[i] = None
                self.lifts.append(vec)
        return reasons

    def characters(self) -> None:
        """Lift the Toeplitz candidates of every character and root."""
        t0 = time.perf_counter()
        chars, self.stats["clusters"] = _characters(self.shape, self.q)
        self.stats["characters"] = len(chars)
        X = _character_diagonals(self.shape, self.q, chars)
        self.stats["roots_tried"] += len(X)
        for x, reason in zip(X, self._lift(X)):
            if reason:
                self.stats[f"character_rejected_{reason}"] += 1
            else:
                self.tsols.append(x[:self.shape.n - self.m])
        self.stats["search_s"] += time.perf_counter() - t0

    def multistart(self, starts: int) -> None:
        """Random-start Newton on the reduced Toeplitz system, lifting each
        new solution; stops early once at least the expected number of lifts
        is kept and ``max(200, 3 * expected)`` starts in a row added none."""
        t0 = time.perf_counter()
        n, m, rng, stats = self.shape.n, self.m, self.rng, self.stats
        system, _ = _toeplitz_system(self.shape, self.q)
        expected = self.shape.basis_size
        lo, hi = START_BOX
        idle, idle_cap = 0, max(200, 3 * expected)
        for _ in range(starts):
            if idle >= idle_cap and len(self.lifts) >= expected:
                break  # deterministic early stop: no new valid lift for a while
            stats["fill_in_starts"] += 1
            # draw all n diagonals, so that the random stream does not depend on m
            x0 = [(lo + (hi - lo) * rng.random())
                  * np.exp(2j * np.pi * rng.random()) for _ in range(n)]
            y = _solve_toeplitz_system(system, x0[:n - m])
            idle += 1
            if y is None:
                continue
            stats["toeplitz_converged"] += 1
            if any(np.linalg.norm(y - s) <= 1e-8 * (1 + np.linalg.norm(s))
                   for s in self.tsols):
                continue
            stats["toeplitz_distinct"] += 1
            self.tsols.append(y)
            reason = self._lift(np.concatenate([y, np.zeros(m, dtype=complex)])[None])[0]
            if reason:
                stats[f"rejected_{reason}"] += 1
            else:
                idle = 0
        stats["search_s"] += time.perf_counter() - t0

    def _degree(self, z) -> int:
        """The local degree of the degenerate point z, measured once: a later
        certify reuses it for a merged centre within the merge radius."""
        for zc, mult in self.degrees:
            if np.linalg.norm(z - zc) <= MERGE_RADIUS * (1 + np.linalg.norm(zc)):
                return mult
        mult = _local_degree(self.fm, z, self.q, self.degree_rng)
        self.degrees.append((z, mult))
        return mult

    def certify(self) -> list[CritPoint]:
        """Polish the lifts not polished yet; dedupe all polished points,
        merge degenerate clouds and measure their local degree."""
        fm, q = self.fm, self.q
        t0 = time.perf_counter()
        for vec in self.lifts[self.polished:]:
            z = _newton_polish(fm, vec, q)
            if z is None:
                continue
            if any(abs(d) < POLE_GUARD * (1 + abs(v)) for v, d in fm.term_values(z)):
                continue
            gn = float(np.linalg.norm(fm.gradient(z, q, POLE_GUARD)))
            if gn >= NEWTON_TOL:
                continue
            val = fm.value(z, q, POLE_GUARD)
            self.found.append((val, z, gn))
        self.polished = len(self.lifts)
        self.stats["polishes_failed"] = len(self.lifts) - len(self.found)
        t1 = time.perf_counter()
        self.stats["polish_s"] += t1 - t0

        # deterministic merge order, then greedy clustering in chart coordinates
        found = sorted(self.found, key=lambda t: (t[0].real, t[0].imag,
                                                  tuple((v.real, v.imag) for v in t[1])))
        Z = np.reshape([z for _, z, _ in found], (-1, self.shape.dim))
        radius = DEDUPE_RADIUS * (1 + np.linalg.norm(Z, axis=1))
        keep: list[int] = []
        for i, z in enumerate(Z):
            if not np.any(np.linalg.norm(Z[keep] - z, axis=1) <= radius[keep]):
                keep.append(i)
        reps = [found[i] for i in keep]

        # a Hessian-degenerate (multiple) critical point shows up as a cloud of
        # near-converged artifacts wider than the dedupe radius; merge those and
        # measure the local multiplicity by counting roots of grad F = eps*v
        H = np.reshape([fm.hessian(z, q, POLE_GUARD) for _, z, _ in reps],
                       (-1, self.shape.dim, self.shape.dim))
        sv = np.linalg.svd(H, compute_uv=False)
        merged: list[list] = []
        flags: list[bool] = []
        for (val, z, gn), sing in zip(reps, sv):
            deg = bool(sing[-1] < 1e-6 * max(1.0, sing[0]))
            placed = False
            if deg:
                for grp, gflag in zip(merged, flags):
                    if gflag and np.linalg.norm(z - grp[0][1]) <= \
                            MERGE_RADIUS * (1 + np.linalg.norm(grp[0][1])):
                        grp.append((val, z, gn))
                        placed = True
                        break
            if not placed:
                merged.append([(val, z, gn)])
                flags.append(deg)

        centres = []
        for grp in merged:
            val, z, gn = grp[0]
            if len(grp) > 1:
                center = np.mean([g[1] for g in grp], axis=0)
                zz = _newton_polish(fm, center, q)
                if zz is not None:
                    z = zz
                    gn = float(np.linalg.norm(fm.gradient(z, q, POLE_GUARD)))
                    val = fm.value(z, q, POLE_GUARD)
            centres.append((val, z, gn))
        t2 = time.perf_counter()
        self.stats["merge_s"] += t2 - t1

        points = [CritPoint(z=np.asarray(z), value=complex(val), gradient_norm=gn,
                            multiplicity=self._degree(z) if deg else 1)
                  for (val, z, gn), deg in zip(centres, flags)]
        t3 = time.perf_counter()
        self.stats["degree_s"] += t3 - t2
        vecs = np.reshape([p.z for p in points], (-1, self.shape.dim))
        for p, res in zip(points, _toeplitz_residuals(self.shape, vecs, q)):
            p.toeplitz_residual = float(res)
        self.stats["residual_s"] += time.perf_counter() - t3
        points.sort(key=lambda p: (p.value.real, p.value.imag))
        self.stats["points"] = len(points)
        return points


def _search(shape: FlagShape, q, cfg: CritConfig | None):
    """The critical points of ``find_critical_points`` and the search counts."""
    cfg = cfg or CritConfig()
    expected = shape.basis_size
    starts = cfg.starts if cfg.starts is not None else 100 * expected
    if starts < 10 * expected:
        warnings.warn(f"starts={starts} is below 10x the expected count {expected}",
                      stacklevel=3)
    q = [complex(v) for v in q]
    if any(v == 0 for v in q):
        raise ValueError("all quantum parameters must be nonzero")

    search = _Search(shape, q, cfg.seed)
    search.characters()
    points = search.certify()
    if sum(p.multiplicity for p in points) < expected:
        search.multistart(starts)
        points = search.certify()
    st = search.stats
    log.debug(
        "crit %s: %d characters (%d clusters of dim > 1), %d roots tried, lifts "
        "rejected: %d stratum, %d gradient; fill-in: %d starts, %d Toeplitz "
        "converged, %d distinct (m=%d), lifts rejected: %d stratum, %d gradient; "
        "%d polishes failed; %d points; search %.3fs, polish %.3fs, merge %.3fs, "
        "degree %.3fs, residual %.3fs",
        shape.to_string(), st["characters"], st["clusters"], st["roots_tried"],
        st["character_rejected_stratum"], st["character_rejected_gradient"],
        st["fill_in_starts"], st["toeplitz_converged"], st["toeplitz_distinct"],
        st["eliminated"], st["rejected_stratum"], st["rejected_gradient"],
        st["polishes_failed"], st["points"], st["search_s"], st["polish_s"],
        st["merge_s"], st["degree_s"], st["residual_s"])
    total = sum(p.multiplicity for p in points)
    if total != expected:
        warnings.warn(
            f"found total multiplicity {total} for {shape}, expected {expected}",
            stacklevel=3)
    return points, st


def find_critical_points(shape: FlagShape, q, cfg: CritConfig | None = None) -> list[CritPoint]:
    """Deduplicated converged critical points, sorted by critical value.

    The Toeplitz candidates come from the characters of QH*_q first.  By
    Rietsch's Peterson-variety picture (Totally positive Toeplitz matrices and
    quantum cohomology of partial flag varieties, JAMS 16, 2003) every
    critical point has a Toeplitz matrix T whose scaled diagonals are
    Schubert-class values of one character chi:

        x_d / x_0^d = (-1)^d prod_j q_{n_j}^(-min(n_j, d)) chi(sigma_{w_d})

    for 1 <= d <= n_r, x_d = 0 beyond n_r, and x_0^n = prod t, where w_d is
    the minimal representative of (n-d+1, ..., n, 2, ..., n-d, 1) (1-based).
    This closed formula is empirical.  It was measured on every shape with
    n <= 5, at q = 1 and at q_j = 0.9 + 0.13 i j, where its candidates lift
    to all the critical points, and at the multistart's points of the
    acceptance shapes, where it holds to 1e-13 (tests/test_crit.py).

    The candidates are mapped back to the chart together, as one stacked
    numpy batch; lifts off the chart's stratum, and lifts where the exact
    symbolic gradient is not already small (other q-fibers, characters mixed
    inside an eigenvalue cluster), are dropped, and the rest are polished by
    damped Newton on that gradient, deduplicated, merged into degenerate
    points and given their local degree.  The characters only seed the
    points: each one is certified on F alone.

    When the total multiplicity falls short of the Schubert-basis size
    (characters that one divisor combination does not separate), the random
    multistart on the Toeplitz system runs with the kept lifts as its
    starting set, and the points are merged again.  For generic q the final
    count equals the Schubert-basis size; a mismatch is reported as a
    warning, not an error.
    """
    return _search(shape, q, cfg)[0]


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


def _toeplitz_residuals(shape: FlagShape, vecs: np.ndarray, q) -> np.ndarray:
    """``toeplitz_residual`` of each row of vecs (chart vectors), from one
    batched no-pivot elimination z = L U with U unipotent; inf where a
    leading principal minor of z vanishes (a pivot below 1e-12 of the largest
    entry, which is at least the 1 of the chart pattern)."""
    A = z_from_vector(shape, vecs)  # becomes L on and below the diagonal
    tiny, bad = 1e-12 * np.abs(A).max(axis=(1, 2)), np.zeros(len(A), dtype=bool)
    with np.errstate(all="ignore"):  # rows with a vanishing pivot give inf
        for j in range(shape.n):
            bad |= np.abs(A[:, j, j]) < tiny
            u = A[:, j, None, j + 1:] / A[:, j, j, None, None]  # row j of U
            A[:, j + 1:, j + 1:] -= A[:, j + 1:, j, None] * u
        T = toeplitz_scaling(shape, q)[:, None] * np.tril(A)
        worst = np.zeros(len(A))
        for d in range(shape.n):
            diag = np.diagonal(T, -d, axis1=1, axis2=2)
            worst = np.maximum(worst, np.abs(diag[:, :, None] - diag[:, None, :]).max(axis=(1, 2)))
        return np.where(bad, np.inf, worst / np.abs(T).max(axis=(1, 2)))


def toeplitz_residual(p: CritPoint, shape: FlagShape, q) -> float:
    """Deviation of t * (lower factor of z) from Toeplitz form.

    For each (lower) diagonal take the diameter of its entries, then the max
    over diagonals, normalized by the largest entry magnitude; inf when a
    leading principal minor of z vanishes.
    """
    return float(_toeplitz_residuals(shape, np.asarray(p.z)[None], q)[0])


def crit_report(shape: FlagShape, q, cfg: CritConfig | None = None) -> dict:
    points, stats = _search(shape, q, cfg)
    return {
        "shape": shape.to_string(),
        "q": [complex_to_json(complex(v)) for v in q],
        "points": [p.to_json() for p in points],
        "count": len(points),
        "total_multiplicity": sum(p.multiplicity for p in points),
        "expected_dim": shape.basis_size,
        "search": dict(stats),
    }
