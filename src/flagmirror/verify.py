"""End-to-end verifications: the alternating quantum Schubert identity, the
321-avoiding determinantal formula, the involution symmetry of the mirror
domain, and the spectrum-versus-critical-values comparison."""

from __future__ import annotations

import itertools
import logging
import math
import random
import time
from dataclasses import dataclass, field

import numpy as np

from .combinat import (
    FlagShape,
    Permutation,
    all_shapes,
    avoids_321,
    build_xi_and_wJ,
    grassmannian_word,
    skew_shape_321,
)
from .crit import CritConfig, CritPoint, find_critical_points, toeplitz_scaling
from .errors import FormulaViolation, IdentityViolation, PivotFailure
from .exactalg import MPoly, complex_to_json, det, lu_unipotent
from .mirror import random_z_vector, uv_from_z, w0_matrix, z_from_vector
from .qhpartial import c1_spectrum, trace_gap
from . import schubring
from .schubring import (QHClass, monk_operators, normal_form, product_vec, quantum_H,
                        signed_sum, vec_to_class, xq_table)

__all__ = [
    "ACCEPTANCE_SHAPES",
    "G_1",
    "tau",
    "KeyIdentityReport",
    "check_key_identity",
    "key_identity_instances",
    "key_identity_sweep",
    "DetFormulaReport",
    "check_det_formula",
    "MirrorSpectrumReport",
    "check_mirror_spectrum",
    "TauSymmetryReport",
    "check_tau_symmetry",
    "EquivalenceReport",
    "check_equivalence_route",
]

log = logging.getLogger("flagmirror")

# the benchmark's tracer (perfbench/spans.py) wraps this name; the checks
# here call product_vec
class_product = schubring.class_product

# the desk-scale shapes of the mirror acceptance check; `report-all --quick`
# runs the first four
ACCEPTANCE_SHAPES = ("1;2", "1;3", "2;4", "1,2;3", "1,2;4", "1,3;4", "2;5", "1,2,3;4")


# -- rational functions on the flag variety side ---------------------------------


def G_1(g, m: int):
    """The function G_1^m, a minor quotient on B_- cosets: both minors take
    the last n-m columns, the numerator rows {m} u [m+2, n] and the
    denominator rows [m+1, n] (1-based)."""
    g = np.asarray(g, dtype=complex)
    cols = range(m, g.shape[0])
    rows = [m - 1, *range(m + 1, g.shape[0])]
    num, den = (complex(np.linalg.det(g[np.ix_(r, cols)])) for r in (rows, cols))
    return num / den


def tau(g) -> np.ndarray:
    """The involution g -> w0 (g^{-1})^T w0^{-1}."""
    g = np.asarray(g, dtype=complex)
    W = w0_matrix(g.shape[0])
    return W @ np.linalg.inv(g).T @ np.linalg.inv(W)


# -- quantum Schubert identity -----------------------------------------------------


@dataclass
class KeyIdentityReport:
    shape: FlagShape
    j: int
    i: int
    ok: bool
    terms: int
    residual: QHClass | None = None
    elapsed: float = 0.0


def check_key_identity(shape: FlagShape, j: int, i: int,
                       strict: bool = True) -> KeyIdentityReport:
    """Verify sum_J (-1)^{|J|} sigma_{w_J} sigma_{[1, n_j+d] \\ J} = 0 in the
    complete-flag ring, exactly.  All classes are indexed by minimal coset
    representatives and carry no quantum parameters, so the vanishing descends
    to the partial-flag ring.  The signed products (product_vec) are summed
    in one operator vector by signed_sum; a QHClass is built only for a
    nonzero residue."""
    t0 = time.perf_counter()
    n = shape.n
    table = build_xi_and_wJ(shape, j, i)  # checks j and i, so nj(j + 1) is in range
    njd = shape.nj(j) + i - (n - shape.nj(j + 1))
    pairs = []
    for J0, wJ in table.items():
        if wJ is None:
            continue
        sgn = (-1) ** sum(v + 1 for v in J0)
        G = grassmannian_word(set(range(njd)) - set(J0), n)
        pairs.append((sgn, product_vec((wJ, G), n)))
    terms = len(pairs)
    residue = signed_sum(pairs)
    ok = not residue
    residual = None if ok else vec_to_class(residue, n)
    report = KeyIdentityReport(shape, j, i, ok, terms, residual, time.perf_counter() - t0)
    if strict and not ok:
        raise IdentityViolation(f"nonzero residue for {shape}, j={j}, i={i}: {residual}")
    return report


def key_identity_instances(max_n: int):
    """All legal (shape, j, i) with n <= max_n."""
    out = []
    for n in range(3, max_n + 1):
        for shape in all_shapes(n):
            for j in range(1, shape.r):
                for i in range(n - shape.nj(j + 1) + 1, n - shape.nj(j)):
                    out.append((shape, j, i))
    return out


def _log_monk(n: int) -> None:
    """DEBUG line: the (word, i) entries of the operators X_i on S_n built so
    far and their terms, the memoised transitions, the apply_x calls made and
    the seconds spent building entries."""
    ops = monk_operators(n)
    built = [e for row in ops.x_entries.values() for e in row if e is not None]
    log.debug("monk n=%d: %d X entries of %d words, %d terms, %d transitions, "
              "%d apply_x calls, %.3fs", n, len(built), len(ops.x_entries),
              sum(map(len, built)), len(ops.transitions), ops.x_calls, ops.build_s)


def key_identity_sweep(max_n: int, strict: bool = True):
    """Check every key identity with n <= max_n; log per n the instances,
    the products they asked for, those formed by a transition, the
    product_vec memo hits and the entries the memo holds, then the Monk line
    of S_n.  Raises SizeCap for max_n above the cap before it checks any
    identity."""
    if max_n >= 3:
        monk_operators(max_n)  # checks max_n; builds nothing
    reports = []
    for n, instances in itertools.groupby(key_identity_instances(max_n), lambda t: t[0].n):
        ops = monk_operators(n)
        formed, hits = ops.products, schubring.product_vec.cache_info().hits
        batch = [check_key_identity(shape, j, i, strict) for shape, j, i in instances]
        memo = schubring.product_vec.cache_info()
        log.debug("keyidentity n=%d: %d instances, %d products asked, %d formed, %d reused, "
                  "%d held", n, len(batch), sum(rep.terms for rep in batch),
                  ops.products - formed, memo.hits - hits, memo.currsize)
        _log_monk(n)
        reports += batch
    return reports


# -- determinantal formula -----------------------------------------------------------


@dataclass
class DetFormulaReport:
    n: int
    checked: int
    ok: bool
    failures: list = field(default_factory=list)
    elapsed: float = 0.0


def det_formula_class(w: Permutation, n: int) -> QHClass:
    """normal_form of det(H_{lambda_i - mu_j - i + j}(X_{phi_i})): the
    formula's literal statement in Z[q][x], the oracle of det_formula_vec."""
    sk = skew_shape_321(w)
    k = len(sk.flag)
    tab = xq_table(n)
    if k == 0:
        return normal_form(MPoly.const(tab, 1), n)
    rows = []
    for a in range(1, k + 1):
        row = []
        for b in range(1, k + 1):
            l = sk.outer[a - 1] - sk.inner[b - 1] - a + b
            row.append(quantum_H(l, sk.flag[a - 1], n))
        rows.append(row)
    return normal_form(det(rows), n)


def quantum_H_word(l: int, k: int, n: int) -> tuple[int, ...] | None:
    """The 0-based one-line word of the Schubert class that H_l^k equals in
    QH*(Fl_n): the cycle (1, ..., k-1, k+l, k, ..., k+l-1, k+l+1, ..., n) in
    1-based notation, the identity at l = 0 (Fomin, Gelfand and Postnikov,
    JAMS 10, 1997).  None where H_l^k is 0: l < 0, or k + l - 1 = n.  Raises
    ValueError for k + l - 1 > n, as quantum_H does."""
    if l < 0:
        return None
    if l == 0:
        return tuple(range(n))
    if k + l - 1 > n:
        raise ValueError(f"H_{l}^{k} needs k+l-1 <= n = {n}")
    if k + l - 1 == n:
        return None
    return (*range(k - 1), k + l - 1, *range(k - 1, k + l - 1), *range(k + l, n))


def det_formula_vec(w: Permutation, n: int) -> dict[tuple, int]:
    """det(H_{lambda_a - mu_b - a + b}^{phi_a}) of the 321-avoiding w as an
    operator vector: the Leibniz expansion over the nonzero entries, each
    entry the class of its quantum_H_word, each term a product_vec."""
    sk = skew_shape_321(w)
    k = len(sk.flag)
    entries = [[quantum_H_word(sk.outer[a] - sk.inner[b] - a + b, sk.flag[a], n)
                for b in range(k)] for a in range(k)]
    pairs = []

    def expand(a: int, used: tuple, sign: int, words: tuple) -> None:
        if a == k:
            pairs.append((sign, product_vec(words, n)))
            return
        for b, word in enumerate(entries[a]):
            if word is None or b in used:
                continue
            # the columns already used to the right of b are the new inversions
            flip = sum(c > b for c in used) % 2
            expand(a + 1, used + (b,), -sign if flip else sign, words + (word,))

    expand(0, (), 1, ())
    return signed_sum(pairs)


def check_det_formula(n: int, strict: bool = True) -> DetFormulaReport:
    """For every 321-avoiding w in S_n the determinantal class equals sigma_w,
    checked in the Monk operators by det_formula_vec.  Logs the permutations
    checked, the cycle products formed, the product_vec memo hits, the
    entries the memo holds and the seconds at DEBUG, then the Monk line of
    S_n.  Raises SizeCap outside 2 <= n <= 8 before it lists any
    permutation."""
    ops = monk_operators(n)  # checks n; builds nothing
    t0 = time.perf_counter()
    formed, hits = ops.products, schubring.product_vec.cache_info().hits
    words = [ol for ol in itertools.permutations(range(n)) if avoids_321(ol)]
    failures = [w for w in map(Permutation, words)
                if det_formula_vec(w, n) != product_vec((w.oneline,), n)]
    failures.sort(key=lambda w: (w.length, w.oneline))
    ok = not failures
    elapsed = time.perf_counter() - t0
    memo = schubring.product_vec.cache_info()
    log.debug("detformula n=%d: %d permutations, %d cycle products formed, %d reused, "
              "%d held, %.3fs", n, len(words), ops.products - formed, memo.hits - hits,
              memo.currsize, elapsed)
    _log_monk(n)
    if strict and not ok:
        raise FormulaViolation(f"determinantal formula failed for {failures}")
    return DetFormulaReport(n, len(words), ok, failures, elapsed)


# -- mirror spectrum check -------------------------------------------------------------


@dataclass
class MirrorSpectrumReport:
    shape: FlagShape
    q: list
    passed: bool
    eigenvalues: np.ndarray
    critical_values: list  # with multiplicity
    max_distance: float
    tolerance: float
    points: list[CritPoint]
    elapsed: float = 0.0

    def to_json(self):
        gap, bound = trace_gap(self.eigenvalues)
        return {
            "shape": self.shape.to_string(),
            "q": [complex_to_json(complex(v)) for v in self.q],
            "passed": self.passed,
            "eigenvalues": [complex_to_json(v) for v in
                            sorted(self.eigenvalues, key=lambda z: (z.real, z.imag))],
            "critical_values": [complex_to_json(complex(v)) for v in
                                sorted(self.critical_values, key=lambda z: (z.real, z.imag))],
            # null, not the non-standard Infinity, when the counts differ
            "max_distance": self.max_distance if math.isfinite(self.max_distance) else None,
            "tolerance": self.tolerance,
            # the eigensolve's own check: |sum of the c_1 values - tr c_1|
            "trace_gap": gap,
            "trace_bound": bound,
            "points": [p.to_json() for p in self.points],
            "elapsed": self.elapsed,
        }


def _min_cost_assignment(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of a permutation of the square real matrix `cost`
    whose entries have the least sum: shortest augmenting paths with row and
    column potentials (Kuhn-Munkres in the Jonker-Volgenant form), the path
    search vectorised over columns."""
    if not np.isfinite(cost).all():  # the path search would not end
        raise ValueError("cost matrix has a non-finite entry")
    n = cost.shape[0]
    # feasible start: v = column minima, u = 0, and each row that is some
    # column's minimum matched there; reduced costs stay >= 0 throughout
    u, v = np.zeros(n), cost.min(axis=0)
    row_of, col_of = np.full(n, -1), np.full(n, -1)
    rows, cols = np.unique(cost.argmin(axis=0), return_index=True)
    row_of[cols], col_of[rows] = rows, cols
    for i in np.flatnonzero(col_of < 0):
        dist = np.full(n, np.inf)  # shortest path length from row i into each column
        prev = np.zeros(n, dtype=int)  # the row before each column on that path
        done = np.zeros(n, dtype=bool)
        row, reach = i, 0.0
        while True:
            reduced = reach + cost[row] - u[row] - v
            better = ~done & (reduced < dist)
            dist[better], prev[better] = reduced[better], row
            j = int(np.argmin(np.where(done, np.inf, dist)))
            reach, done[j] = dist[j], True
            if row_of[j] < 0:
                break
            row = row_of[j]
        inner = done.copy()
        inner[j] = False
        u[i] += reach
        u[row_of[inner]] += reach - dist[inner]
        v[done] -= reach - dist[done]
        while True:  # flip the path from column j back to row i
            row = prev[j]
            row_of[j], col_of[row], j = row, j, col_of[row]
            if row == i:
                break
    return np.arange(n), col_of


def check_mirror_spectrum(shape: FlagShape, q, cfg: CritConfig | None = None) -> MirrorSpectrumReport:
    """Match the c_1 eigenvalue multiset against the critical values of the
    superpotential (with local multiplicity) by a min-sum assignment: the
    pairing whose distances have the least sum.  `max_distance` is the
    largest distance of a pair within it, and the check passes when that is
    below the tolerance; it is inf when the two counts differ.  ``cfg`` is
    ignored (see ``CritConfig``)."""
    t0 = time.perf_counter()
    eig = c1_spectrum(shape, q)
    points = find_critical_points(shape, q)
    values = []
    for p in points:
        values.extend([p.value] * p.multiplicity)
    scale = 1.0 + max([np.abs(eig).max()] + [abs(v) for v in values] or [0.0])
    tol = 1e-6 * scale
    if len(values) == len(eig):
        cost = np.abs(np.array(values)[:, None] - eig[None, :])
        rr, cc = _min_cost_assignment(cost)
        maxd = float(cost[rr, cc].max())
        passed = bool(maxd < tol)
    else:
        maxd = float("inf")
        passed = False
    return MirrorSpectrumReport(shape, list(q), passed, eig, values,
                                maxd, tol, points, time.perf_counter() - t0)


# -- involution symmetry -----------------------------------------------------------------


@dataclass
class TauSymmetryReport:
    shape: FlagShape
    complementary_steps: tuple
    samples: int
    max_involution_residual: float
    max_unipotent_residual: float
    max_superdiagonal_residual: float
    max_G_residual: float
    G_checked: int  # samples whose chart point has an LU, so G_1 was compared

    @property
    def ok(self) -> bool:
        return bool(self.max_involution_residual < 1e-9
                    and self.max_unipotent_residual < 1e-9
                    and self.max_superdiagonal_residual < 1e-9
                    and self.max_G_residual < 1e-9
                    and self.G_checked > 0)


def check_tau_symmetry(shape: FlagShape, samples: int = 50, seed: int = 0) -> TauSymmetryReport:
    """Numeric checks of the involution tau(g) = w0 (g^{-1})^T w0^{-1}:
    it is an involution, preserves the upper unipotent group, reflects
    superdiagonal entries, and exchanges G_1^m with G_1^{n-m}.  A sample
    whose chart point has no LU skips the G_1 check; with none checked the
    report is not ok."""
    n = shape.n
    rng = random.Random(seed)
    comp = tuple(sorted(n - s for s in shape.steps))
    r_inv = r_uni = r_sd = r_G = 0.0
    G_checked = 0

    def rmat(scale=1.0):
        return np.array([[complex(rng.gauss(0, scale), rng.gauss(0, scale))
                          for _ in range(n)] for _ in range(n)])

    for _ in range(samples):
        g = rmat() + 2 * np.eye(n)
        r_inv = max(r_inv, float(np.abs(tau(tau(g)) - g).max()))
        u = np.eye(n) + np.triu(rmat(), 1)
        tu = tau(u)
        r_uni = max(r_uni, float(np.abs(np.tril(tu, -1)).max()),
                    float(np.abs(np.diag(tu) - 1).max()))
        for i in range(1, n):
            r_sd = max(r_sd, abs(tu[n - i - 1, n - i] - u[i - 1, i]))

        zvec = random_z_vector(shape, rng, 0.5, 1.5)
        z = z_from_vector(shape, zvec)
        try:
            L, _ = lu_unipotent(z)
        except PivotFailure:
            continue
        q = [complex(0.7 + 0.6 * rng.random(), 0.4 * (rng.random() - 0.5))
             for _ in range(shape.r)]
        bminus = np.diag(toeplitz_scaling(shape, q)) @ L
        g1 = bminus @ w0_matrix(n)
        g2 = tau(bminus) @ w0_matrix(n)
        # G_1^m is regular on the cell only at the steps m in I^P; tau takes
        # the P-side to the complementary shape, where n-m is again a step
        for m in shape.steps:
            a = G_1(g1, m)
            b = G_1(g2, n - m)
            r_G = max(r_G, abs(a - b) / (1 + abs(a)))
        G_checked += 1
    return TauSymmetryReport(shape, comp, samples, r_inv, r_uni, r_sd, r_G, G_checked)


# -- critical-point equivalence route -----------------------------------------------------


@dataclass
class EquivalenceReport:
    shape: FlagShape
    q: list
    points: int
    max_residual: float
    ok: bool


def check_equivalence_route(shape: FlagShape, q) -> EquivalenceReport:
    """At every critical point, check the superdiagonal identities that tie
    the factorization entries to the rational functions G_1^m:
    u_{i,i+1} equals -G_1^{n_j} at i = n - n_j, equals the constant value for
    i < n - n_r, and equals -(G_1^{n_j} + G_1^{n_{j+1}}) in between; the
    v-entries satisfy v = -(t_{n_j+1}/t_{n_j}) G_1^{n_j} at every chart point.
    The route is ok when every relative residual is below 1e-7."""
    n, r = shape.n, shape.r
    points = find_critical_points(shape, q)
    t = toeplitz_scaling(shape, q)
    worst = 0.0
    for p in points:
        z = z_from_vector(shape, p.z)
        u, v = uv_from_z(z, shape)
        L, _ = lu_unipotent(z)
        bminus = np.diag(t) @ L
        g = bminus @ w0_matrix(n)
        gvals = {m: G_1(g, m) for m in shape.steps}
        for j in range(1, r + 1):
            nj = shape.nj(j)
            want = -(t[nj] / t[nj - 1]) * gvals[nj]
            worst = max(worst, abs(v[nj - 1, nj] - want) / (1 + abs(want)))
            i = n - nj
            want = -gvals[nj]
            worst = max(worst, abs(u[i - 1, i] - want) / (1 + abs(want)))
        for j in range(1, r):
            for i in range(n - shape.nj(j + 1) + 1, n - shape.nj(j)):
                want = -(gvals[shape.nj(j)] + gvals[shape.nj(j + 1)])
                worst = max(worst, abs(u[i - 1, i] - want) / (1 + abs(want)))
        base = u[n - shape.nj(r) - 1, n - shape.nj(r)]
        for i in range(1, n - shape.nj(r)):
            worst = max(worst, abs(u[i - 1, i] - base) / (1 + abs(base)))
    return EquivalenceReport(shape, list(q), len(points), worst, bool(worst < 1e-7))
