"""The fiberwise critical points of the superpotential at fixed quantum
parameters: Toeplitz candidates read off the characters of quantum
cohomology (solved for on the family of each eigenvalue cluster), lifted to
the chart and polished by damped Newton, with deterministic deduplication,
the multiplicity of each degenerate point read off a nearby fiber, and the
Toeplitz criterion residual for each accepted point."""

from __future__ import annotations

import logging
import math
import random
import time
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .combinat import FlagShape, Permutation, min_rep_of
from .errors import NearPole
from .exactalg import complex_to_json, lu_unipotent
from .mirror import chart_vector, f_minus_chart, wPw0_matrix, z_from_vector
from .qhpartial import partial_ring, validate_q

log = logging.getLogger("flagmirror")

__all__ = [
    "CritConfig",
    "CritPoint",
    "find_critical_points",
    "toeplitz_scaling",
    "toeplitz_residual",
    "crit_report",
]


NEWTON_MAX_ITER = 100  # damped Newton steps per polish, down to |grad F| < NEWTON_TOL
NEWTON_TOL = 1e-12
DEDUPE_RADIUS = 1e-6  # polished points this close (relative) are merged
# a lift is off the stratum where U or z misses its pattern by more (relative
# to the largest entry; absolute for diag U = 1, which keeps one root x_0 per
# character: the roots of other fibers miss it by at least 0.2)
LIFT_TOL = 1e-5
# seed of the divisor combination whose eigenvectors are the characters (the
# points found do not depend on it); eigenvalues of that combination closer
# than CLUSTER_RADIUS (relative) are counted as one cluster
CHARACTER_SEED = 0
CLUSTER_RADIUS = 1e-4
# a cluster's family of characters has the dimension p of the singular values
# above CLUSTER_RANK_TOL (relative); its refined Toeplitz roots are kept when
# their scaled residual is below CLUSTER_ROOT_TOL
CLUSTER_RANK_TOL = 1e-8
CLUSTER_ROOT_TOL = 1e-6


@dataclass(frozen=True)
class CritConfig:
    """A no-op: the search is deterministic and takes its tolerances from the
    module constants.  It is kept, with the ignored ``cfg`` parameter of
    ``verify.check_mirror_spectrum``, because the benchmark worker passes
    ``CritConfig(seed=...)`` there; it goes once the benchmark stops passing
    it (ROADMAP item 2)."""

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


def _norm(v: np.ndarray) -> float:
    """np.linalg.norm of a 1-D array, by its formula without its dispatch."""
    return math.sqrt(v.real @ v.real + v.imag @ v.imag)


def _newton_polish(fm, z0, q, g=None):
    """Damped Newton on the exact symbolic gradient (halving on residual
    increase, or where the chart evaluator raises NearPole at a denominator
    within mirror.POLE_GUARD of a pole), used to polish candidate points in
    chart coordinates; g is grad F(z0) when the caller has it.  Returns z
    and the |grad F(z)| < NEWTON_TOL it stopped at, or None."""
    z = np.array(z0, dtype=complex)
    if g is None:
        try:
            g = fm.gradient(z, q)
        except NearPole:
            return None
    gn = _norm(g)
    for _ in range(NEWTON_MAX_ITER):
        if gn < NEWTON_TOL:
            return z, gn
        try:
            H = fm.hessian(z, q)
            step = np.linalg.solve(H, -g)
        except (NearPole, np.linalg.LinAlgError):
            return None
        t = 1.0
        for _ in range(20):
            znew = z + t * step
            try:
                gnew = fm.gradient(znew, q)
            except NearPole:
                t *= 0.5
                continue
            gn_new = _norm(gnew)
            if gn_new < gn:
                z, g, gn = znew, gnew, gn_new
                break
            t *= 0.5
        else:
            return None
    return (z, gn) if gn < NEWTON_TOL else None


@lru_cache(maxsize=None)
def _entry_diagonals(n: int) -> np.ndarray:
    d = np.subtract.outer(np.arange(n), np.arange(n))  # i - j at (i, j)
    d.flags.writeable = False  # shared by every caller
    return d


def _toeplitz_from_diagonals(x) -> np.ndarray:
    """The lower-triangular Toeplitz matrices with first columns the rows of
    x, shape (..., n, n)."""
    d = _entry_diagonals(np.shape(x)[-1])
    return np.where(d >= 0, np.asarray(x, dtype=complex)[..., d], 0)


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
    diagonals (the last axis of its argument) to n - m residuals.  Returns
    (F, m).
    """
    n = shape.n
    W = _lift_frame(shape)[0]
    t = toeplitz_scaling(shape, q)
    # the bottom-left k x k corner minors, k = 1..n-1
    targets = [complex(np.linalg.det(W[n - k:, :k])) * complex(np.prod(t[n - k:]))
               if n - k in shape.steps else 0j for k in range(1, n)]
    det_target = complex(np.prod(t))
    m = n - 1 - shape.steps[-1]  # targets[0..m-1] are zero

    def F(y):
        x = np.zeros(y.shape[:-1] + (n,), dtype=complex)
        x[..., :n - m] = y
        T, out = _toeplitz_from_diagonals(x), np.empty_like(x[..., m:])
        for k in range(m + 1, n):
            out[..., k - m - 1] = np.linalg.det(T[..., n - k:, :k]) - targets[k - 1]
        out[..., -1] = y[..., 0] ** n - det_target
        return out

    return F, m


def _gauss_newton(G, t):
    """Up to 8 Gauss-Newton steps on the overdetermined polynomial system
    G(t) = 0 (G maps the last axis), with a central-difference Jacobian of
    step 1e-7 and least-squares steps; returns the iterate of smallest |G|."""
    h = 1e-7
    eye = h * np.eye(len(t))
    for _ in range(8):
        tn = t + np.linalg.lstsq((G(t + eye) - G(t - eye)).T / (2 * h), -G(t), rcond=None)[0]
        if not _norm(G(tn)) < _norm(G(t)):
            break
        t = tn
    return t


def _denoised(c: np.ndarray) -> np.ndarray:
    """c with its entries at or below 1e-10 of the largest set to zero."""
    return np.where(np.abs(c) > 1e-10 * np.abs(c).max(), c, 0)


def _sylvester(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The Sylvester matrix of two polynomials (constant first)."""
    df, dg = len(f) - 1, len(g) - 1
    rows = [np.pad(f[::-1], (i, dg - 1 - i)) for i in range(dg)] + \
        [np.pad(g[::-1], (i, df - 1 - i)) for i in range(df)]
    return np.reshape(rows, (df + dg, df + dg))


def _family_roots(F, xa: np.ndarray, D: np.ndarray, n: int) -> np.ndarray:
    """Candidate roots t of F(xa + D t) = 0 for t in C^p, p = 1 or 2, as
    rows.  Each component of F has degree at most n - 1 in t, so an FFT of
    its values on n roots of unity per variable gives its coefficients.
    p = 1: the roots of the lowest-degree component that is not identically
    zero.  p = 2: the roots in t_1 of the Sylvester resultant in t_2 of the
    two lowest-degree components (sampled on a circle, again interpolated by
    FFT), each substituted back into one of them that depends on t_2."""
    p = D.shape[1]
    w = np.exp(2j * np.pi * np.arange(n) / n)
    grid = np.stack(np.meshgrid(*[w] * p, indexing="ij"), axis=-1)
    coef = _denoised(np.fft.fftn(F(xa + grid @ D.T), axes=tuple(range(p))) / n ** p)
    live = sorted((max(map(sum, np.argwhere(coef[..., k]))), k)
                  for k in range(coef.shape[-1]) if coef[..., k].any())
    if p == 1:
        return np.roots(coef[::-1, live[0][1]])[:, None] if live else np.zeros((0, 1))
    if len(live) < 2:
        return np.zeros((0, 2))
    (df, f), (dg, g) = live[:2]
    # each cut to its degree in t_2; the resultant has degree <= df dg in t_1
    f, g = (coef[:, :np.flatnonzero(coef[..., k].any(axis=0))[-1] + 1, k] for k in (f, g))
    if f.shape[1] == 1:
        f, g = g, f
    pows = np.exp(2j * np.pi * np.arange(df * dg + 1) / (df * dg + 1))[:, None] ** np.arange(n)
    res = [np.linalg.det(_sylvester(a, b)) for a, b in zip(pows @ f, pows @ g)]
    return np.array([(t1, t2) for t1 in np.roots(_denoised(np.fft.fft(res))[::-1])
                     for t2 in np.roots((t1 ** np.arange(n) @ f)[::-1])],
                    dtype=complex).reshape(-1, 2)


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


def _lift_batch(shape: FlagShape, X: np.ndarray, q):
    """Invert the Toeplitz correspondence for each row x of X, the diagonals
    of T: factor t^{-1} T = V W U with V, U upper-triangular around the
    representative W of w_P^{-1} w_0, and read the chart coordinates off
    z = (t^{-1} T) U^{-1}.  Returns the mask of the rows whose T lies in the
    chart's stratum (no vanishing pivot, U finite and unipotent
    upper-triangular, z on the chart pattern, each to LIFT_TOL) and the
    chart vectors of those rows.  Of the n roots x_0 of one character only
    the one on this fiber gives a unipotent U, so the others are dropped
    here, before any gradient is evaluated."""
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
    ok &= ~(np.abs(np.tril(U, -1)).max(axis=(1, 2)) > LIFT_TOL * scale) & \
        np.isfinite(U).all(axis=(1, 2)) & \
        (np.abs(np.diagonal(U, axis1=1, axis2=2) - 1).max(axis=1) <= LIFT_TOL)
    keep = np.flatnonzero(ok)
    z = b[keep] @ np.linalg.inv(U[keep])
    vecs = chart_vector(shape, z)
    off = np.abs(z_from_vector(shape, vecs) - z).max(axis=(1, 2)) > \
        LIFT_TOL * np.maximum(1.0, np.abs(z).max(axis=(1, 2)))
    ok[keep[off]] = False
    return ok, vecs[~off]


def _characters(shape: FlagShape, q):
    """Candidate characters of QH*_q, as rows, the left eigenvectors they
    come from, as columns, and the eigenvalue clusters of dimension > 1, as
    sorted tuples of column indices.

    The candidates are the left eigenvectors of one fixed random complex
    combination of the divisor matrices, scaled to 1 at the identity class.
    Inside a cluster an eigenvector may mix characters; its Toeplitz
    candidates then fail the lift or the gradient screen, and the cluster
    step of ``_Search`` solves for the cluster's characters instead.
    """
    ring = partial_ring(shape)
    rng = random.Random(CHARACTER_SEED)
    M = ring.divisor_combination(
        [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(shape.r)], q)
    lam, V = np.linalg.eig(M.T)
    one = ring.index(Permutation.identity(shape.n))
    keep = np.abs(V[one]) > 1e-12 * np.abs(V).max(axis=0)
    close = np.abs(lam[:, None] - lam[None, :]) <= \
        CLUSTER_RADIUS * (1 + float(np.abs(lam).max()))
    clusters = sorted({tuple(np.flatnonzero(row)) for row in close if row.sum() > 1})
    return (V[:, keep] / V[one, keep]).T, V, clusters


@lru_cache(maxsize=None)
def _diagonal_classes(shape: FlagShape) -> np.ndarray:
    """Indices in ``partial_ring(shape)`` of the classes sigma_{w_d},
    1 <= d <= n_r, of the closed formula of ``find_critical_points``,
    read-only."""
    n, ring = shape.n, partial_ring(shape)
    idx = np.array([ring.index(min_rep_of(Permutation(  # 0-based word
        tuple(range(n - d, n)) + tuple(range(1, n - d)) + (0,)), shape))
        for d in range(1, shape.steps[-1] + 1)])
    idx.flags.writeable = False
    return idx


def _character_diagonals(shape: FlagShape, q, values) -> np.ndarray:
    """The Toeplitz diagonals x_0..x_{n-1}, one row per row of values (a
    character's values on ``_diagonal_classes``) and root x_0 of x_0^n =
    prod t (row-major), by the closed formula of ``find_critical_points``."""
    n, nr = shape.n, shape.steps[-1]
    coef = np.array([(-1) ** d * np.prod([q[j - 1] ** -min(shape.nj(j), d)
                                          for j in range(1, shape.r + 1)])
                     for d in range(1, nr + 1)], dtype=complex)
    det_target = complex(np.prod(toeplitz_scaling(shape, q)))
    roots = det_target ** (1 / n) * np.exp(2j * np.pi * np.arange(n) / n)
    X = np.zeros((len(values), n, n), dtype=complex)
    X[:, :, 0] = roots
    X[:, :, 1:nr + 1] = (coef * values)[:, None, :] * roots[:, None] ** np.arange(1, nr + 1)
    return X.reshape(-1, n)


def _cluster_family(shape: FlagShape, V, cluster) -> tuple[np.ndarray, np.ndarray]:
    """The values on ``_diagonal_classes`` of the combinations chi of the
    cluster's eigenvectors with chi(sigma_id) = 1, as an affine family
    v_a + N t, t in C^p: returns v_a and N.  N has orthonormal columns, one
    per singular value of the family's linear part above CLUSTER_RANK_TOL
    times the norm of the cluster's eigenvectors on those rows."""
    rows = np.concatenate([[partial_ring(shape).index(Permutation.identity(shape.n))],
                           _diagonal_classes(shape)])
    B = V[rows][:, list(cluster)]
    b = B[0]
    a = b.conj() / np.vdot(b, b)  # the least-norm solution of b . a = 1
    kernel = np.linalg.svd(b[None])[2][1:].conj().T
    U, sv, _ = np.linalg.svd(B[1:] @ kernel)
    return B[1:] @ a, U[:, :int((sv > CLUSTER_RANK_TOL * np.linalg.norm(B, 2)).sum())]


class _Search:
    """One critical-point search on one fiber: the kept chart lifts of the
    Toeplitz candidates, their polished points, and the counts and stage
    seconds reported on the DEBUG line and under ``crit_report``'s
    ``"search"`` key.  The chart lift of all the character candidates is one
    ``_lift_batch``, the degeneracy test one stacked SVD and the residuals
    one batched LU.  A search with ``measure=False`` gives every point
    multiplicity 1."""

    def __init__(self, shape: FlagShape, q, measure: bool = True):
        self.shape, self.q, self.measure = shape, q, measure
        self.fm = f_minus_chart(shape)
        self.nearby: np.ndarray | None = None  # the nearby fiber's points, once searched
        self.eigvecs, self.clusters = None, []  # of ``_characters``
        self.lifts: list[tuple] = []  # (z, grad F(z) or None)
        self.found: list[tuple] = []  # (value, z, |grad F|) of the polished lifts
        self.polished = 0
        self.stats = {
            "characters": 0, "clusters": 0, "roots_tried": 0,
            "character_rejected_stratum": 0, "character_rejected_gradient": 0,
            "clusters_solved": 0, "clusters_unsolved": 0, "cluster_dims": [],
            "cluster_roots_found": 0, "cluster_roots_kept": 0,
            "cluster_rejected_stratum": 0, "cluster_rejected_gradient": 0,
            "eliminated": shape.n - 1 - shape.steps[-1], "polishes_failed": 0,
            "points": 0, "degenerate": 0, "groups": 0, "nearby_points": 0,
            "nearby_clusters_solved": 0, "strays": 0, "groups_unattracted": 0,
            "search_s": 0.0, "polish_s": 0.0, "merge_s": 0.0, "degree_s": 0.0, "residual_s": 0.0,
        }

    def _lift(self, X, stage: str) -> None:
        """Keep the chart lifts of the Toeplitz diagonals X (one row per
        candidate), counting the rejected ones per stage and screen."""
        ok, vecs = _lift_batch(self.shape, X, self.q)
        self.stats[f"{stage}_rejected_stratum"] += int(len(X) - ok.sum())
        for vec in vecs:
            # the stratum test already drops the roots x_0 of other fibers; an
            # eigenvector mixed inside a cluster can still lift to a point where
            # the gradient is of order one, and polishing it only fails slowly
            try:
                g = self.fm.gradient(vec, self.q)
            except NearPole:
                g = None
            if g is None or _norm(g) > 1e-6 * (1 + _norm(vec)):
                self.stats[f"{stage}_rejected_gradient"] += 1
            else:
                self.lifts.append((vec, g))

    def characters(self) -> None:
        """Lift the Toeplitz candidates of every character and root."""
        t0 = time.perf_counter()
        chars, self.eigvecs, self.clusters = _characters(self.shape, self.q)
        self.stats["characters"], self.stats["clusters"] = len(chars), len(self.clusters)
        X = _character_diagonals(self.shape, self.q, chars[:, _diagonal_classes(self.shape)])
        self.stats["roots_tried"] += len(X)
        self._lift(X, "character")
        self.stats["search_s"] += time.perf_counter() - t0

    def solve_clusters(self) -> None:
        """For each eigenvalue cluster whose family of characters has
        dimension p <= 2 (``_cluster_family``), and each root x_0, find the
        Toeplitz roots on the family's diagonals x_a + D t
        (``_family_roots``), refine them by Gauss-Newton on all components
        of the reduced system, and lift those of scaled residual |F| / (1 +
        |x|)^(n-1) below CLUSTER_ROOT_TOL.  A cluster with p > 2 is counted
        as unsolved."""
        t0 = time.perf_counter()
        shape, stats, n = self.shape, self.stats, self.shape.n
        F, m = _toeplitz_system(shape, self.q)  # m: diagonals forced to zero
        kept = []
        for cluster in self.clusters:
            va, N = _cluster_family(shape, self.eigvecs, cluster)
            p = N.shape[1]
            stats["cluster_dims"].append(p)
            stats["clusters_solved" if p <= 2 else "clusters_unsolved"] += 1
            if not 0 < p <= 2:
                continue
            X = _character_diagonals(shape, self.q, np.vstack([va, N.T]))[:, :n - m]
            X = X.reshape(p + 1, n, n - m)
            X[1:, :, 0] = 0  # x_0 is the root, not on the family
            for xa, D in zip(X[0], X[1:].transpose(1, 2, 0)):
                for t in _family_roots(F, xa, D, n):
                    stats["cluster_roots_found"] += 1
                    y = xa + _gauss_newton(lambda s: F(xa + s @ D.T), t) @ D.T
                    if _norm(F(y)) < CLUSTER_ROOT_TOL * (1 + _norm(y)) ** (n - 1):
                        kept.append(y)
        stats["cluster_roots_kept"] += len(kept)
        self._lift(np.pad(np.reshape(kept, (-1, n - m)), ((0, 0), (0, m))), "cluster")
        stats["search_s"] += time.perf_counter() - t0

    def certify(self) -> list[CritPoint]:
        """Polish the lifts not polished yet; dedupe all polished points and
        give each group of Hessian-degenerate ones its multiplicity."""
        fm, q = self.fm, self.q
        t0 = time.perf_counter()
        with np.errstate(all="ignore"):  # an overflowing step has |grad F| nan: no decrease
            for vec, g in self.lifts[self.polished:]:
                polished = _newton_polish(fm, vec, q, g)
                if polished is not None:
                    z, gn = polished
                    self.found.append((fm.value(z, q), z, gn))
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
        reps, Z = [found[i] for i in keep], Z[keep]
        deg = np.zeros(len(reps), dtype=bool)
        if self.measure:
            H = np.reshape([fm.hessian(z, q) for z in Z],
                           (-1, self.shape.dim, self.shape.dim))
            sv = np.linalg.svd(H, compute_uv=False)
            deg = sv[:, -1] < 1e-6 * np.maximum(1.0, sv[:, 0])
        t2 = time.perf_counter()
        self.stats["merge_s"] += t2 - t1

        mult = self._multiplicities(Z, deg) if deg.any() else np.ones(len(reps), dtype=int)
        points = [CritPoint(z=np.asarray(z), value=complex(val), gradient_norm=gn,
                            multiplicity=int(m))
                  for (val, z, gn), m in zip(reps, mult) if m]
        t3 = time.perf_counter()
        self.stats["degree_s"] += t3 - t2
        vecs = np.reshape([p.z for p in points], (-1, self.shape.dim))
        for p, res in zip(points, _toeplitz_residuals(self.shape, vecs, q)):
            p.toeplitz_residual = float(res)
        self.stats["residual_s"] += time.perf_counter() - t3
        points.sort(key=lambda p: (p.value.real, p.value.imag))
        self.stats["points"] = len(points)
        return points

    def _multiplicities(self, Z, deg) -> np.ndarray:
        """The multiplicity of each representative (rows of Z, in merge
        order) by the nearby-fiber rule of ``find_critical_points``: 1 where
        the Hessian is regular; for each group of degenerate ones, the
        group's count on its first and 0 on the rest."""
        groups: list[list[int]] = []
        for i in np.flatnonzero(deg):
            for g in groups:
                if _norm(Z[i] - Z[g[0]]) <= 0.25 * (1 + _norm(Z[g[0]])):
                    g.append(i)
                    break
            else:
                groups.append([i])
        counts = np.zeros(len(Z), dtype=int)
        for z in self._nearby():
            counts[np.argmin(np.linalg.norm(Z - z, axis=1))] += 1
        mult = np.ones(len(Z), dtype=int)
        for g in groups:
            mult[g] = 0
            mult[g[0]] = max(1, counts[g].sum())
        self.stats["degenerate"], self.stats["groups"] = int(deg.sum()), len(groups)
        self.stats["groups_unattracted"] = sum(not counts[g].any() for g in groups)
        return mult

    def _nearby(self) -> np.ndarray:
        """The chart coordinates of the critical points of the nearby fiber
        q'_j = q_j (1 + 1e-4 (0.9 + 0.13 i j)), by one search that gives no
        multiplicities, run once per search."""
        if self.nearby is None:
            q = [v * (1 + 1e-4 * (0.9 + 0.13j * j)) for j, v in enumerate(self.q, 1)]
            near = _Search(self.shape, q, measure=False)
            self.nearby = np.reshape([p.z for p in near.run()], (-1, self.shape.dim))
            self.stats["nearby_points"] = len(self.nearby)
            self.stats["nearby_clusters_solved"] = near.stats["clusters_solved"]
        return self.nearby

    def strays(self) -> None:
        """Lift the nearby fiber's points, if it was searched, that lie
        farther than 0.25 (1 + |z|) from every polished point: they split off
        a degenerate point of this fiber that no lift reached."""
        Z = np.reshape([z for _, z, _ in self.found], (-1, self.shape.dim))
        for z in self.nearby if self.nearby is not None else ():
            if not np.any(np.linalg.norm(Z - z, axis=1) <= 0.25 * (1 + _norm(z))):
                self.lifts.append((z, None))
                self.stats["strays"] += 1

    def run(self) -> list[CritPoint]:
        """The characters, then, while the total multiplicity falls short of
        the Schubert-basis size, the cluster step and the strays."""
        self.characters()
        points = self.certify()
        for step in (self.solve_clusters, self.strays):
            if sum(p.multiplicity for p in points) >= self.shape.basis_size:
                break
            step()
            points = self.certify()
        return points


def _search(shape: FlagShape, q):
    """The critical points of ``find_critical_points`` and the search
    counts."""
    search = _Search(shape, validate_q(shape, q))
    points = search.run()
    st = search.stats
    if log.isEnabledFor(logging.DEBUG):
        log.debug("crit %s: %s", shape.to_string(), " ".join(
            f"{k}={v:.3f}" if isinstance(v, float) else f"{k}={v}".replace(" ", "")
            for k, v in st.items()))
    total = sum(p.multiplicity for p in points)
    if total != shape.basis_size:
        warnings.warn(
            f"found total multiplicity {total} for {shape}, expected {shape.basis_size}",
            stacklevel=3)
    return points, st


def find_critical_points(shape: FlagShape, q) -> list[CritPoint]:
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
    to all the critical points, and at the points that an independent random
    multistart finds on the acceptance shapes, where it holds to 1e-13
    (tests/test_crit.py).

    The candidates are mapped back to the chart together, as one stacked
    numpy batch, by factoring t^{-1} T = V W U.  The formula fixes x_0 only
    up to an n-th root of unity; the stratum requires U unipotent, and of
    the n roots only the one on this fiber passes (the others, measured on
    every shape with n <= 6 and on 2,4;7, miss diag U = 1 by at least 0.2).
    Lifts off the stratum, and lifts where the exact symbolic gradient is
    not already small (characters mixed inside an eigenvalue cluster), are
    dropped, and the rest are polished by damped Newton on that gradient and
    deduplicated.  The characters only seed the points: each one is
    certified on F alone.

    A point whose Hessian is degenerate (smallest singular value below 1e-6
    of the largest) is a multiple root of grad F; Newton stops anywhere in a
    cloud of samples around it.  Its multiplicity is the number of simple
    critical points it splits into on the nearby fiber q'_j = q_j (1 + 1e-4
    (0.9 + 0.13 i j)), which one more search by the same route finds.  The
    degenerate points within 0.25 (1 + |z|) of each other form one group,
    reported once, at its first point in (value, z) order, with the number
    of q'-points whose nearest point of the q-fiber lies in the group (at
    least 1).  A fiber without a degenerate point never searches q'.

    When the total multiplicity falls short of the Schubert-basis size
    (characters that one divisor combination does not separate), the
    characters of each eigenvalue cluster are solved for on the cluster's
    affine family (``_Search.solve_clusters``), and the points are merged
    again.  For generic q the final count equals the Schubert-basis size; a
    mismatch is reported as a warning, not an error.
    """
    return _search(shape, q)[0]


def toeplitz_scaling(shape: FlagShape, q) -> np.ndarray:
    """The block-constant diagonal with t_n = 1 and t_{n_j}/t_{n_j+1} = q_{n_j}."""
    t = np.ones(shape.n, dtype=complex)
    for j in range(1, shape.r + 1):
        t[shape.nj(j - 1):shape.nj(j)] = math.prod(complex(v) for v in q[j - 1:shape.r])
    return t


def _toeplitz_residuals(shape: FlagShape, vecs: np.ndarray, q) -> np.ndarray:
    """``toeplitz_residual`` of each row of vecs (chart vectors), from one
    batched ``lu_unipotent`` of the chart matrices; inf where a leading
    principal minor of z vanishes (its factors are nan)."""
    L, _ = lu_unipotent(z_from_vector(shape, vecs))
    T = toeplitz_scaling(shape, q)[:, None] * L
    worst = np.zeros(len(L))
    for d in range(shape.n):
        diag = np.diagonal(T, -d, axis1=1, axis2=2)
        worst = np.maximum(worst, np.abs(diag[:, :, None] - diag[:, None, :]).max(axis=(1, 2)))
    return np.where(np.isnan(worst), np.inf, worst / np.abs(T).max(axis=(1, 2)))


def toeplitz_residual(p: CritPoint, shape: FlagShape, q) -> float:
    """Deviation of t * (lower factor of z) from Toeplitz form.

    For each (lower) diagonal take the diameter of its entries, then the max
    over diagonals, normalized by the largest entry magnitude; inf when a
    leading principal minor of z vanishes.
    """
    return float(_toeplitz_residuals(shape, np.asarray(p.z)[None], q)[0])


def crit_report(shape: FlagShape, q) -> dict:
    points, stats = _search(shape, q)
    return {
        "shape": shape.to_string(),
        "q": [complex_to_json(complex(v)) for v in q],
        "points": [p.to_json() for p in points],
        "count": len(points),
        "total_multiplicity": sum(p.multiplicity for p in points),
        "expected_dim": shape.basis_size,
        "search": dict(stats),
    }
