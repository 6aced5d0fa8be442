"""The Plucker-coordinate superpotential: chart matrices, Plucker coordinates,
the explicit term families, anticanonical divisor equations, the Young-diagram
rendering, and the LU/uv factorization route used as an evaluation oracle.

Index sets are 0-based in code; the 1-based quantities of the formulas appear
only in comments and in printed variable names like ``p_1467``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .combinat import FlagShape, Partition, partition_of_columns
from .errors import BadSubsetSize, NearPole
from .exactalg import MPoly, VarTable, lu_unipotent, minor

__all__ = [
    "ZChart",
    "zchart",
    "chart_table",
    "symbolic_z",
    "z_from_vector",
    "chart_vector",
    "random_z_vector",
    "wPw0_matrix",
    "w0_matrix",
    "pluecker_table",
    "pluecker_name",
    "pluecker",
    "SuperpotentialTerm",
    "superpotential",
    "divisor_equations",
    "uv_from_z",
    "f_minus_eval",
    "f_minus_eval_uv",
    "f_minus_grad",
    "FMinusChart",
    "f_minus_chart",
    "young_table",
    "young_view",
    "index_term_to_young",
    "term_to_latex",
    "term_to_json",
]


# -- chart ---------------------------------------------------------------------


@dataclass(frozen=True)
class ZChart:
    """Free coordinates of the unipotent-style chart: in block row j the
    anti-diagonal identity block (-1)^{n_{j-1}} I_{a_j} sits in columns
    n-n_j..n-n_{j-1}-1 and everything strictly to its left is free."""

    shape: FlagShape
    coords: tuple[tuple[int, int], ...]  # (row, col), 0-based, ordered

    @property
    def dim(self) -> int:
        return len(self.coords)


@lru_cache(maxsize=None)
def zchart(shape: FlagShape) -> ZChart:
    coords = []
    for row in range(shape.n):
        j = shape.block_of_position(row)
        for col in range(shape.n - shape.nj(j)):
            coords.append((row, col))
    chart = ZChart(shape, tuple(coords))
    assert chart.dim == shape.dim
    return chart


@lru_cache(maxsize=None)
def chart_table(shape: FlagShape) -> VarTable:
    coords = zchart(shape).coords
    return VarTable.make([(f"z{r + 1}_{c + 1}", "chart", 0) for (r, c) in coords])


@lru_cache(maxsize=None)
def _fixed_entries(shape: FlagShape) -> tuple[tuple[int, int, int], ...]:
    """(row, col, +-1) for the anti-diagonal identity blocks."""
    n = shape.n
    return tuple((shape.nj(j - 1) + t, n - shape.nj(j) + t,
                  -1 if shape.nj(j - 1) % 2 else 1)
                 for j in range(1, shape.r + 2) for t in range(shape.block_sizes[j - 1]))


@lru_cache(maxsize=None)
def symbolic_z(shape: FlagShape):
    """The chart matrix with MPoly entries over chart_table(shape)."""
    tab = chart_table(shape)
    n = shape.n
    M = [[MPoly.zero(tab) for _ in range(n)] for _ in range(n)]
    for idx, (r, c) in enumerate(zchart(shape).coords):
        e = [0] * tab.size
        e[idx] = 1
        M[r][c] = MPoly.monomial(tab, tuple(e))
    for r, c, sign in _fixed_entries(shape):
        M[r][c] = MPoly.const(tab, sign)
    return M


def _symbolic_minors(shape: FlagShape) -> dict[tuple[int, ...], MPoly]:
    """Every minor of the first k rows of symbolic_z on a column set K
    (0-based, sorted), for k up to the last step.  Laplace expansion along
    row k reuses the (k-1)-row minors, so no polynomial division occurs."""
    zsym = symbolic_z(shape)
    out = {(): MPoly.const(chart_table(shape), 1)}
    for k in range(1, shape.steps[-1] + 1):
        for K in itertools.combinations(range(shape.n), k):
            total = MPoly.zero(chart_table(shape))
            for t, c in enumerate(K):
                term = zsym[k - 1][c] * out[K[:t] + K[t + 1:]]
                total = total + term if (k - 1 + t) % 2 == 0 else total - term
            out[K] = total
    return out


def z_from_vector(shape: FlagShape, vec) -> np.ndarray:
    """Numeric chart matrix from the free-coordinate vector."""
    n = shape.n
    M = np.zeros((n, n), dtype=complex)
    for idx, (r, c) in enumerate(zchart(shape).coords):
        M[r, c] = vec[idx]
    for r, c, sign in _fixed_entries(shape):
        M[r, c] = sign
    return M


def chart_vector(shape: FlagShape, z) -> np.ndarray:
    """Free coordinates of a numeric chart matrix."""
    z = np.asarray(z, dtype=complex)
    return np.array([z[r, c] for (r, c) in zchart(shape).coords])


def random_z_vector(shape: FlagShape, rng, lo: float = 0.2, hi: float = 2.0) -> np.ndarray:
    """Free coordinates with modulus uniform in [lo, hi] and uniform phase."""
    dim = shape.dim
    mod = lo + (hi - lo) * np.array([rng.random() for _ in range(dim)])
    phase = 2 * np.pi * np.array([rng.random() for _ in range(dim)])
    return mod * np.exp(1j * phase)


def w0_matrix(n: int) -> np.ndarray:
    """antidiag(1, -1, ..., (-1)^{n-1})."""
    M = np.zeros((n, n))
    for i in range(n):
        M[i, n - 1 - i] = (-1) ** i
    return M


def wPw0_matrix(shape: FlagShape) -> np.ndarray:
    """The representative of w_P^{-1} w_0: anti-diagonal blocks
    I_{a_1}, (-1)^{n_1} I_{a_2}, ..., (-1)^{n_r} I_{a_{r+1}}."""
    n = shape.n
    M = np.zeros((n, n))
    for r, c, sign in _fixed_entries(shape):
        M[r, c] = sign
    return M


# -- Plucker coordinates --------------------------------------------------------


def pluecker_name(cols, n: int) -> str:
    vals = [c + 1 for c in sorted(cols)]
    body = "".join(map(str, vals)) if n <= 9 else ",".join(map(str, vals))
    return f"p_{body}"


@lru_cache(maxsize=None)
def pluecker_table(shape: FlagShape) -> VarTable:
    """Formal Plucker symbols p_K for every step size, plus the q symbols."""
    spec = [(f"q{shape.nj(j)}", "q", shape.qdegs[j - 1]) for j in range(1, shape.r + 1)]
    for k in shape.steps:
        for K in itertools.combinations(range(shape.n), k):
            spec.append((pluecker_name(K, shape.n), "chart", 0))
    return VarTable.make(spec)


def pluecker(z, cols, shape: FlagShape):
    """Minor of the first |cols| rows on the given 0-based column set."""
    cols = sorted(cols)
    if len(cols) not in shape.steps:
        raise BadSubsetSize(f"|K| = {len(cols)} is not a step of {shape}")
    return minor(z, range(len(cols)), cols)


def _pvar(shape: FlagShape, cols) -> MPoly:
    return MPoly.var(pluecker_table(shape), pluecker_name(cols, shape.n))


def _qvar(shape: FlagShape, j: int) -> MPoly:
    return MPoly.var(pluecker_table(shape), f"q{shape.nj(j)}")


# -- superpotential -------------------------------------------------------------


@dataclass(frozen=True)
class SuperpotentialTerm:
    """One summand of the superpotential, with its anticanonical divisor index."""

    family: str  # "u-left" | "u-mid" | "u-right" | "u-step" | "quantum"
    index: tuple
    numerator: MPoly
    denominator: MPoly
    divisor_k: int

    def normalized(self) -> "SuperpotentialTerm":
        _, lc = self.denominator.leading()
        if lc == 1:
            return self
        inv = 1 / lc
        return SuperpotentialTerm(self.family, self.index,
                                  self.numerator * inv, self.denominator * inv,
                                  self.divisor_k)


def _rng(a: int, b: int) -> set[int]:
    """The 1-based interval [a, b] as a 0-based set."""
    return set(range(a - 1, b))


def _mid_sums(shape: FlagShape, i: int, j: int):
    """Numerator and denominator of S_i^(j) as Plucker polynomials."""
    n = shape.n
    nj, nj1 = shape.nj(j), shape.nj(j + 1)
    m = i - nj
    ihat = n - nj1 + i - nj
    tail = _rng(ihat + 1, n)

    num = MPoly.zero(pluecker_table(shape))
    pool_num = sorted(_rng(1, min(i + 1, ihat)) - {i - 1})
    top_num = _rng(1, i - 1) | {i}
    for J in itertools.combinations(pool_num, m):
        sgn = -1 if (i + 1 - 1) in J else 1  # epsilon(J): -1 iff i+1 in J
        sgn *= (-1) ** sum(v + 1 for v in J)
        num = num + sgn * _pvar(shape, top_num - set(J)) * _pvar(shape, set(J) | tail)

    den = MPoly.zero(pluecker_table(shape))
    pool_den = sorted(_rng(1, min(i, ihat)))
    top_den = _rng(1, i)
    for J in itertools.combinations(pool_den, m):
        sgn = (-1) ** sum(v + 1 for v in J)
        den = den + sgn * _pvar(shape, top_den - set(J)) * _pvar(shape, set(J) | tail)
    return num, den


@lru_cache(maxsize=None)
def superpotential(shape: FlagShape) -> tuple[SuperpotentialTerm, ...]:
    """All n-1+r summands, canonically normalized, in divisor order.

    Families: u-terms left of the first step, the quadratic middle terms
    S_i^(j), u-terms right of the last step, the u-terms at the steps
    themselves, and one quantum term per step.
    """
    n, r = shape.n, shape.r
    n1, nr = shape.nj(1), shape.nj(r)
    terms: list[SuperpotentialTerm] = []

    for i in range(1, n1):
        num = _pvar(shape, _rng(1, i - 1) | {i} | _rng(n - n1 + i + 1, n))
        den = _pvar(shape, _rng(1, i) | _rng(n - n1 + i + 1, n))
        terms.append(SuperpotentialTerm("u-left", (i,), num, den, i))

    for j in range(1, r):
        for i in range(shape.nj(j) + 1, shape.nj(j + 1)):
            num, den = _mid_sums(shape, i, j)
            terms.append(SuperpotentialTerm("u-mid", (i, j), num, den, i))

    for i in range(nr + 1, n):
        num = _pvar(shape, _rng(i - nr + 1, i + 1) - {i - 1})
        den = _pvar(shape, _rng(i - nr + 1, i))
        terms.append(SuperpotentialTerm("u-right", (i,), num, den, i))

    for j in range(1, r + 1):
        nj = shape.nj(j)
        num = _pvar(shape, _rng(1, nj - 1) | {nj})
        den = _pvar(shape, _rng(1, nj))
        terms.append(SuperpotentialTerm("u-step", (j,), num, den, nj))

    for j in range(1, r + 1):
        nj = shape.nj(j)
        cols = ({n - shape.nj(j + 1)} | _rng(n - nj + 1, n)) - {n - shape.nj(j - 1) - 1}
        num = _qvar(shape, j) * _pvar(shape, cols)
        den = _pvar(shape, _rng(n - nj + 1, n))
        terms.append(SuperpotentialTerm("quantum", (j,), num, den, n - 1 + j))

    terms = [t.normalized() for t in terms]
    terms.sort(key=lambda t: t.divisor_k)
    return tuple(terms)


@lru_cache(maxsize=None)
def divisor_equations(shape: FlagShape) -> dict[int, MPoly]:
    """Defining Plucker polynomial of the divisor D_k for k in 1..n-1+r.

    The quantum-divisor case k in [n, n-1+r] uses the last n_{k-n+1} columns;
    the middle case is the quadratic sum shared with the S-term denominators.
    """
    n, r = shape.n, shape.r
    out: dict[int, MPoly] = {}
    for k in range(1, n):
        if k in shape.steps:
            poly = _pvar(shape, _rng(1, k))
        elif k < shape.nj(1):
            poly = _pvar(shape, _rng(1, k) | _rng(n - shape.nj(1) + k + 1, n))
        elif k > shape.nj(r):
            poly = _pvar(shape, _rng(k - shape.nj(r) + 1, k))
        else:
            j = next(jj for jj in range(1, r) if shape.nj(jj) < k < shape.nj(jj + 1))
            _, poly = _mid_sums(shape, k, j)
        out[k] = poly
    for k in range(n, n + r):
        nj = shape.nj(k - n + 1)
        out[k] = _pvar(shape, _rng(n - nj + 1, n))
    for k, poly in out.items():
        _, lc = poly.leading()
        if lc != 1:
            out[k] = poly * (1 / lc)
    return out


# -- uv factorization route ------------------------------------------------------


def uv_from_z(z, shape: FlagShape):
    """The unipotent factors (u, v) of a numeric chart matrix.

    u is the unipotent upper factor of z = b U (b lower-triangular), and
    v = wPw0 z^{-1}; v is unipotent upper-triangular with vanishing
    superdiagonal entries at the non-step positions.
    """
    z = np.asarray(z, dtype=complex)
    _, u = lu_unipotent(z)
    v = wPw0_matrix(shape) @ np.linalg.inv(z)
    n = shape.n
    scale = max(1.0, float(np.abs(v).max()))
    for i in range(n):
        if abs(v[i, i] - 1) > 1e-8 * scale:
            raise AssertionError("v is not unipotent; z is outside the chart form")
        for k in range(i):
            if abs(v[i, k]) > 1e-8 * scale:
                raise AssertionError("v is not upper-triangular")
    return u, v


def f_minus_eval_uv(z, q, shape: FlagShape) -> complex:
    """Superpotential via the factorization route:
    sum_j q_{n_j} v_{n_j, n_j+1} + sum_i u_{i, i+1}."""
    u, v = uv_from_z(z, shape)
    total = 0j
    for j in range(1, shape.r + 1):
        nj = shape.nj(j)
        total += complex(q[j - 1]) * v[nj - 1, nj]
    for i in range(1, shape.n):
        total += u[i - 1, i]
    return total


# -- compiled chart evaluator -----------------------------------------------------


def _columns_of_pname(name: str) -> list[int]:
    body = name[2:]
    return [int(c) - 1 for c in (body.split(",") if "," in body else body)]


class FMinusChart:
    """The superpotential as a rational function of the free chart coordinates,
    with exact symbolic partial derivatives compiled for fast numeric use."""

    def __init__(self, shape: FlagShape):
        self.shape = shape
        self.chart = zchart(shape)
        dim = self.chart.dim
        ptab = pluecker_table(shape)
        # chart-coordinate value of every Plucker symbol; q symbols stay 0
        minors = _symbolic_minors(shape)
        pvals = [0 if kind == "q" else minors[tuple(_columns_of_pname(name))]
                 for name, kind in zip(ptab.names, ptab.kinds)]
        self.terms = []
        for term in superpotential(shape):
            qj = term.index[0] if term.family == "quantum" else None
            num = term.numerator
            if qj is not None:
                # strip the q prefactor; it is re-applied numerically
                stripped = {}
                qidx = ptab.index(f"q{shape.nj(qj)}")
                for e, c in num.terms.items():
                    e2 = list(e)
                    assert e2[qidx] == 1
                    e2[qidx] = 0
                    stripped[tuple(e2)] = c
                num = MPoly(ptab, stripped)
            N = num.substitute(pvals)
            D = term.denominator.substitute(pvals)
            if not isinstance(N, MPoly):
                N = MPoly.const(chart_table(shape), N)
            self.terms.append({
                "qj": qj, "Nsym": N, "Dsym": D,
                "N": N.as_pyfunc(), "D": D.as_pyfunc(),
            })
        self._dim = dim
        self._have_derivs = False

    def _ensure_derivs(self):
        if self._have_derivs:
            return
        dim = self._dim
        for t in self.terms:
            N, D = t["Nsym"], t["Dsym"]
            grads_n = [N.derivative(a) for a in range(dim)]
            grads_d = [D.derivative(a) for a in range(dim)]
            t["Na"] = [g.as_pyfunc() for g in grads_n]
            t["Da"] = [g.as_pyfunc() for g in grads_d]
            t["Nab"] = [[grads_n[a].derivative(b).as_pyfunc() for b in range(a + 1)]
                        for a in range(dim)]
            t["Dab"] = [[grads_d[a].derivative(b).as_pyfunc() for b in range(a + 1)]
                        for a in range(dim)]
        self._have_derivs = True

    def _prefactors(self, q):
        pref = {None: 1.0 + 0j}
        for j in range(1, self.shape.r + 1):
            pref[j] = complex(q[j - 1])
        return pref

    def term_values(self, zvec):
        """(numerator, denominator) complex values per term, without q factors."""
        return [(t["N"](zvec), t["D"](zvec)) for t in self.terms]

    def value(self, zvec, q, pole_guard: float = 1e-12) -> complex:
        pref = self._prefactors(q)
        total = 0j
        for t in self.terms:
            nv, dv = t["N"](zvec), t["D"](zvec)
            if abs(dv) < pole_guard * (1.0 + abs(nv)):
                raise NearPole(f"denominator {abs(dv):.3e} at a {t['qj']}-term")
            total += pref[t["qj"]] * nv / dv
        return total

    def gradient(self, zvec, q, pole_guard: float = 1e-12) -> np.ndarray:
        self._ensure_derivs()
        pref = self._prefactors(q)
        dim = self.chart.dim
        g = np.zeros(dim, dtype=complex)
        for t in self.terms:
            nv, dv = t["N"](zvec), t["D"](zvec)
            if abs(dv) < pole_guard * (1.0 + abs(nv)):
                raise NearPole("denominator too small in gradient")
            c = pref[t["qj"]]
            inv2 = 1.0 / (dv * dv)
            for a in range(dim):
                g[a] += c * (t["Na"][a](zvec) * dv - nv * t["Da"][a](zvec)) * inv2
        return g

    def hessian(self, zvec, q, pole_guard: float = 1e-12) -> np.ndarray:
        self._ensure_derivs()
        pref = self._prefactors(q)
        dim = self.chart.dim
        H = np.zeros((dim, dim), dtype=complex)
        for t in self.terms:
            nv, dv = t["N"](zvec), t["D"](zvec)
            if abs(dv) < pole_guard * (1.0 + abs(nv)):
                raise NearPole("denominator too small in hessian")
            c = pref[t["qj"]]
            na = [t["Na"][a](zvec) for a in range(dim)]
            da = [t["Da"][a](zvec) for a in range(dim)]
            inv2 = 1.0 / (dv * dv)
            inv3 = inv2 / dv
            for a in range(dim):
                for b in range(a + 1):
                    nab = t["Nab"][a][b](zvec)
                    dab = t["Dab"][a][b](zvec)
                    val = (nab * dv + na[a] * da[b] - na[b] * da[a] - nv * dab) * inv2
                    val -= 2.0 * (na[a] * dv - nv * da[a]) * da[b] * inv3
                    H[a, b] += c * val
        # symmetry of mixed partials: d_b(T_a) computed above equals d_a(T_b)
        for a in range(dim):
            for b in range(a + 1, dim):
                H[a, b] = H[b, a]
        return H


@lru_cache(maxsize=None)
def f_minus_chart(shape: FlagShape) -> FMinusChart:
    return FMinusChart(shape)


def f_minus_eval(z, q, shape: FlagShape, pole_guard: float = 1e-12) -> complex:
    """Superpotential value via the Plucker-term route, evaluated by the
    compiled chart evaluator at the free coordinates of z."""
    return f_minus_chart(shape).value(chart_vector(shape, z), q, pole_guard)


def f_minus_grad(z, q, shape: FlagShape, pole_guard: float = 1e-12) -> np.ndarray:
    """Exact symbolic gradient over the free chart coordinates, numerically evaluated."""
    return f_minus_chart(shape).gradient(chart_vector(shape, z), q, pole_guard)


# -- Young diagram rendering -------------------------------------------------------


def young_name(k: int, parts) -> str:
    trimmed = list(parts)
    while trimmed and trimmed[-1] == 0:
        trimmed.pop()
    return f"p({k})(" + ",".join(map(str, trimmed)) + ")"


@lru_cache(maxsize=None)
def young_table(shape: FlagShape) -> VarTable:
    spec = [(f"q{shape.nj(j)}", "q", shape.qdegs[j - 1]) for j in range(1, shape.r + 1)]
    for k in shape.steps:
        for K in itertools.combinations(range(shape.n), k):
            lam = partition_of_columns(K, shape.n)
            spec.append((young_name(k, lam.parts), "chart", 0))
    return VarTable.make(spec)


def index_term_to_young(term: SuperpotentialTerm, shape: FlagShape) -> SuperpotentialTerm:
    """Re-index a Plucker-symbol term through the bijection J <-> lambda(J)."""
    ptab, ytab = pluecker_table(shape), young_table(shape)
    mapping = {}
    for idx, (name, kind) in enumerate(zip(ptab.names, ptab.kinds)):
        if kind == "q":
            mapping[idx] = (ytab.index(name), Fraction(1))
        else:
            digits = name[2:].split(",") if "," in name else list(name[2:])
            cols = [int(c) - 1 for c in digits]
            lam = partition_of_columns(cols, shape.n)
            mapping[idx] = (ytab.index(young_name(len(cols), lam.parts)), Fraction(1))
    num = term.numerator.map_vars(mapping, ytab)
    den = term.denominator.map_vars(mapping, ytab)
    return SuperpotentialTerm(term.family, term.index, num, den, term.divisor_k).normalized()


def _yvar(shape: FlagShape, k: int, parts) -> MPoly:
    return MPoly.var(young_table(shape), young_name(k, parts))


def _yvar_or_zero(shape: FlagShape, k: int, parts) -> MPoly:
    parts = list(parts)
    while parts and parts[-1] == 0:
        parts.pop()
    if len(parts) > k or (parts and parts[0] > shape.n - k):
        return MPoly.zero(young_table(shape))
    return _yvar(shape, k, parts)


def _partitions_in_box(rows: int, cols: int):
    """All partitions with at most `rows` parts, each at most `cols`."""
    def rec(remaining_rows, maxpart):
        if remaining_rows == 0:
            yield ()
            return
        for first in range(maxpart, -1, -1):
            for rest in rec(remaining_rows - 1, first):
                yield (first,) + rest
    yield from rec(rows, cols)


def _join_rect_above(shape: FlagShape, l: int, rect_rows: int, nu) -> MPoly:
    """p^{(l)} of the vertical join ((n-l)^{rect_rows}, nu), or zero if it is
    not a partition inside the l x (n-l) box."""
    n = shape.n
    nu = [p for p in nu if p > 0]
    if nu and nu[0] > n - l:
        return MPoly.zero(young_table(shape))
    if rect_rows + len(nu) > l:
        return MPoly.zero(young_table(shape))
    return _yvar_or_zero(shape, l, [n - l] * rect_rows + nu)


def _L_denominator(shape: FlagShape, j: int, m: int) -> MPoly:
    """L(p^(k)_{k x m rect} . p^(l)_{(l-m) x (n-l) rect})."""
    k, l = shape.nj(j), shape.nj(j + 1)
    out = MPoly.zero(young_table(shape))
    for mu in _partitions_in_box(k, m):
        sgn = (-1) ** (sum(mu) + k * m)
        tail = tuple(m - mu[k - 1 - t] for t in range(k))  # (m-mu_k, ..., m-mu_1)
        nu = Partition(tail).conjugate().parts
        joined = _join_rect_above(shape, l, l - m, list(nu))
        if joined.is_zero():
            continue
        out = out + sgn * _yvar_or_zero(shape, k, list(mu)) * joined
    return out


def _L_numerator(shape: FlagShape, j: int, m: int) -> MPoly:
    """L(p^(k)_{k x m rect plus box} . p^(l)_{(l-m) x (n-l) rect}):
    mu runs over partitions below (m+1, m^{k-1}) with mu_1 != m."""
    k, l = shape.nj(j), shape.nj(j + 1)
    out = MPoly.zero(young_table(shape))
    lamp = (m + 1,) + (m,) * (k - 1)
    for mu in _partitions_in_box(k, m + 1):
        if any(a > b for a, b in zip(mu, lamp)) or mu[0] == m:
            continue
        if mu[0] == m + 1:
            tail = tuple(m - mu[k - 1 - t] for t in range(k - 1)) + (0,)
            sgn = (-1) ** (sum(mu) + k * m + 1)  # extra box flips the sign
        else:
            tail = tuple(m - mu[k - 1 - t] for t in range(k)) + (1,)
            sgn = (-1) ** (sum(mu) + k * m)
        joined = _join_rect_above(shape, l, l - m, list(Partition(tail).conjugate().parts))
        if joined.is_zero():
            continue
        out = out + sgn * _yvar_or_zero(shape, k, list(mu)) * joined
    return out


@lru_cache(maxsize=None)
def young_view(shape: FlagShape) -> tuple[SuperpotentialTerm, ...]:
    """The superpotential over partition-indexed Plucker symbols: all plain
    term families re-indexed through lambda(J), the middle terms rebuilt from
    the L-operator sums."""
    out = []
    for term in superpotential(shape):
        if term.family != "u-mid":
            out.append(index_term_to_young(term, shape))
            continue
        i, j = term.index
        m = i - shape.nj(j)
        num = _L_numerator(shape, j, m)
        den = _L_denominator(shape, j, m)
        out.append(SuperpotentialTerm("u-mid", (i, j), num, den, term.divisor_k).normalized())
    return tuple(out)


# -- rendering --------------------------------------------------------------------


def _poly_latex(p: MPoly) -> str:
    bits = []
    for e in p.monomials():
        c = p.terms[e]
        factors = []
        for name, k in zip(p.table.names, e):
            if not k:
                continue
            if name.startswith("p_"):
                sym = f"p_{{{name[2:]}}}"
            elif name.startswith("q"):
                sym = f"q_{{{name[1:]}}}"
            else:
                sym = name
            factors.append(sym if k == 1 else f"{sym}^{{{k}}}")
        body = " ".join(factors) if factors else "1"
        if c == 1:
            bits.append(body)
        elif c == -1:
            bits.append(f"-{body}")
        else:
            bits.append(f"{c} {body}")
    return " + ".join(bits).replace("+ -", "- ")


def term_to_latex(term: SuperpotentialTerm) -> str:
    return f"\\frac{{{_poly_latex(term.numerator)}}}{{{_poly_latex(term.denominator)}}}"


def term_to_json(term: SuperpotentialTerm) -> dict:
    return {
        "family": term.family,
        "index": list(term.index),
        "numerator": term.numerator.to_json(),
        "denominator": term.denominator.to_json(),
        "divisor_k": term.divisor_k,
    }
