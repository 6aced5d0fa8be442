"""The Plucker-coordinate superpotential: chart matrices, Plucker coordinates,
the explicit term families, anticanonical divisor equations, the Young-diagram
rendering (the same terms re-indexed through J <-> lambda(J); the tests
rebuild its middle terms from the L-operator sums as an oracle), the compiled
chart evaluator of F_- with its gradient and Hessian (which raises NearPole
at a denominator within POLE_GUARD of a pole), and the LU/uv factorization
route used as an evaluation oracle.  Each term denominator and divisor
equation has leading coefficient +-1 and is made monic by multiplying by it,
so all of them stay over the integers.  `superpotential` builds fresh terms
per call.

The symbols are listed once, in one order: q_{n_j} for each step, then p_K
for each column set K of `pluecker_columns`.  `pluecker_table` and
`young_table` are that list under two naming rules, so a Young term is its
Plucker term's exponent dicts over the other table, and the evaluator reads
each symbol's chart value by position.  Text and LaTeX go through the one
printer, `MPoly.format`.

Index sets are 0-based in code; the 1-based quantities of the formulas appear
only in comments and in printed variable names like ``p_1467``.
"""

from __future__ import annotations

import itertools
import logging
import time
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .combinat import FlagShape, partition_of_columns
from .errors import BadSubsetSize, NearPole, OffChart
from .exactalg import MPoly, VarTable, leading_minors, lu_unipotent

log = logging.getLogger("flagmirror")

__all__ = [
    "zchart",
    "chart_table",
    "symbolic_z",
    "z_from_vector",
    "chart_vector",
    "random_z_vector",
    "wPw0_matrix",
    "w0_matrix",
    "pluecker_columns",
    "pluecker_table",
    "pluecker_name",
    "pluecker",
    "SuperpotentialTerm",
    "superpotential",
    "divisor_equations",
    "uv_from_z",
    "f_minus_eval",
    "f_minus_eval_uv",
    "FMinusChart",
    "f_minus_chart",
    "young_view",
    "index_term_to_young",
    "term_to_latex",
    "term_to_json",
]


# -- chart ---------------------------------------------------------------------


@lru_cache(maxsize=None)
def zchart(shape: FlagShape) -> tuple[tuple[int, int], ...]:
    """The (row, col) of the free coordinates of the unipotent-style chart,
    0-based and ordered: in block row j the anti-diagonal identity block
    (-1)^{n_{j-1}} I_{a_j} sits in columns n-n_j..n-n_{j-1}-1 and everything
    strictly to its left is free."""
    coords = tuple((row, col) for j in range(1, shape.r + 2)
                   for row in range(shape.nj(j - 1), shape.nj(j))
                   for col in range(shape.n - shape.nj(j)))
    assert len(coords) == shape.dim
    return coords


def chart_table(shape: FlagShape) -> VarTable:
    return VarTable.make([(f"z{r + 1}_{c + 1}", 0) for (r, c) in zchart(shape)])


@lru_cache(maxsize=None)
def _fixed_entries(shape: FlagShape) -> tuple[tuple[int, int, int], ...]:
    """(row, col, +-1) for the anti-diagonal identity blocks."""
    n = shape.n
    return tuple((shape.nj(j - 1) + t, n - shape.nj(j) + t,
                  -1 if shape.nj(j - 1) % 2 else 1)
                 for j in range(1, shape.r + 2) for t in range(shape.block_sizes[j - 1]))


def symbolic_z(shape: FlagShape):
    """The chart matrix with MPoly entries over chart_table(shape)."""
    tab = chart_table(shape)
    n = shape.n
    M = [[MPoly.zero(tab) for _ in range(n)] for _ in range(n)]
    for idx, (r, c) in enumerate(zchart(shape)):
        e = [0] * tab.size
        e[idx] = 1
        M[r][c] = MPoly.monomial(tab, tuple(e))
    for r, c, sign in _fixed_entries(shape):
        M[r][c] = MPoly.const(tab, sign)
    return M


def z_from_vector(shape: FlagShape, vec) -> np.ndarray:
    """Numeric chart matrix from the free-coordinate vector; a stack of
    vectors (..., dim) gives a stack of matrices."""
    vec = np.asarray(vec, dtype=complex)
    M = np.zeros(vec.shape[:-1] + (shape.n, shape.n), dtype=complex)
    M[(..., *zip(*zchart(shape)))] = vec
    for r, c, sign in _fixed_entries(shape):
        M[..., r, c] = sign
    return M


def chart_vector(shape: FlagShape, z) -> np.ndarray:
    """Free coordinates of a numeric chart matrix, or of a stack of them."""
    return np.asarray(z, dtype=complex)[(..., *zip(*zchart(shape)))]


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


def pluecker_columns(shape: FlagShape) -> tuple[tuple[int, ...], ...]:
    """The 0-based column set K of each Plucker symbol p_K in table order: for
    each step size k, the k-subsets of [0, n) in lexicographic order."""
    return tuple(K for k in shape.steps for K in itertools.combinations(range(shape.n), k))


def _symbol_table(shape: FlagShape, pname) -> VarTable:
    """The one ordered symbol list under a naming rule: q_{n_j}, of weight
    n_{j+1} - n_{j-1}, for each step n_j, then p_K, of weight 0, named
    pname(K) for each K of `pluecker_columns`."""
    return VarTable.make([(f"q{nj}", d) for nj, d in zip(shape.steps, shape.qdegs)]
                         + [(pname(K), 0) for K in pluecker_columns(shape)])


@lru_cache(maxsize=None)
def pluecker_table(shape: FlagShape) -> VarTable:
    """The symbol list with p_K named by its 1-based columns, as ``p_146``."""
    return _symbol_table(shape, lambda K: pluecker_name(K, shape.n))


def pluecker(z, cols, shape: FlagShape):
    """Minor of the first |cols| rows on the given 0-based column set; raises
    BadSubsetSize unless the columns are |cols| distinct indices in [0, n)
    and |cols| is a step."""
    cols = sorted(cols)
    if len(cols) not in shape.steps:
        raise BadSubsetSize(f"|K| = {len(cols)} is not a step of {shape}")
    if len(set(cols)) < len(cols) or cols[0] < 0 or cols[-1] >= shape.n:
        raise BadSubsetSize(f"K = {cols} is not a set of columns in [0, {shape.n})")
    rows = range(len(cols))
    return complex(np.linalg.det(np.asarray(z, dtype=complex)[np.ix_(rows, cols)]))


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

    def normalized(self, shape: FlagShape) -> "SuperpotentialTerm":
        """The term over a denominator of leading coefficient 1."""
        lc = _unit_leading(self.denominator, shape, self.divisor_k)
        if lc == 1:
            return self
        return SuperpotentialTerm(self.family, self.index,
                                  self.numerator * lc, self.denominator * lc,
                                  self.divisor_k)


def _unit_leading(poly: MPoly, shape: FlagShape, k: int) -> int:
    """The leading coefficient of poly, the equation of the divisor D_k of
    shape or a term's denominator on it.  It is a unit on every shape, so
    multiplying by it makes the polynomial monic over the integers."""
    _, lc = poly.leading()
    if lc not in (1, -1):
        raise AssertionError(f"leading coefficient {lc} at D_{k} of {shape} is not a unit")
    return lc


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


def superpotential(shape: FlagShape) -> tuple[SuperpotentialTerm, ...]:
    """All n-1+r summands, canonically normalized, in divisor order, built
    afresh per call, so a caller may change what it gets back.

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

    terms = [t.normalized(shape) for t in terms]
    terms.sort(key=lambda t: t.divisor_k)
    return tuple(terms)


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
    return {k: poly * _unit_leading(poly, shape, k) for k, poly in out.items()}


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
    if np.abs(np.tril(v) - np.eye(shape.n)).max() > 1e-8 * max(1.0, float(np.abs(v).max())):
        raise OffChart("v is not unipotent upper-triangular; z is outside the chart form")
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


POLE_GUARD = 1e-10  # |D| below this times 1 + |N| is a pole of the term N/D


class FMinusChart:
    """The superpotential as a rational function of the free chart coordinates,
    each term N/D expanded into exact chart polynomials, evaluated by one
    straight-line Python function per shape that is generated from them (see
    `_evaluator_source`) and compiled once.  Its ``order`` argument picks how
    far the one body runs: -1 the term values, 0 the value, 1 the gradient,
    2 the Hessian.  From the value on, a term whose denominator is within
    POLE_GUARD of a pole raises NearPole."""

    def __init__(self, shape: FlagShape):
        self.shape = shape
        t0 = time.perf_counter()
        # chart-coordinate value of every Plucker symbol, by position; q = 1
        # strips the q prefactor of the quantum numerators, which is
        # re-applied numerically
        minors = leading_minors(symbolic_z(shape), shape.steps[-1])
        pvals = [1] * shape.r + [minors[K] for K in pluecker_columns(shape)]
        self.terms = [(t, t.numerator.substitute(pvals), t.denominator.substitute(pvals))
                      for t in superpotential(shape)]
        src, self.emitted = _evaluator_source(self.terms, shape.dim)
        t1 = time.perf_counter()
        ns = {"_np": np, "_C": np.complex128, "_ONE": np.complex128(1.0), "NearPole": NearPole,
              "_ORDERS": ("value", "gradient", "hessian")}
        exec(compile(src, f"<F_- {shape}>", "exec"), ns)  # noqa: S102 - generated source
        self._eval = ns["_eval"]
        self.seconds = (t1 - t0, time.perf_counter() - t1)  # generated, compiled

    def term_values(self, zvec):
        """(numerator, denominator) complex values per term, without q factors."""
        return self._eval(zvec, None, -1)

    def value(self, zvec, q) -> complex:
        return self._eval(zvec, q, 0)

    def gradient(self, zvec, q) -> np.ndarray:
        return self._eval(zvec, q, 1)

    def hessian(self, zvec, q) -> np.ndarray:
        return self._eval(zvec, q, 2)


def _signed_sum(*parts) -> str:
    """The (sign, product) pairs with a nonempty product, summed from the left."""
    out = ""
    for sign, prod in parts:
        if prod:
            out = f"{out} {sign} {prod}" if out else prod if sign == "+" else f"-{prod}"
    return out


def _poly_src(p: MPoly) -> str:
    """p in the locals z0, z1, ...: its monomials in ``terms`` order summed
    from the left, each the coefficient times the variables from the left;
    unit coefficients and the signs change no bit."""
    parts = []
    for e, c in p.terms.items():
        mono = ["(" + "*".join([f"z{i}"] * k) + ")" if k > 1 else f"z{i}"
                for i, k in enumerate(e) if k]
        coef = [] if abs(c) == 1 and mono else [str(abs(c))]
        parts.append(("-" if c < 0 else "+", "*".join(coef + mono)))
    return _signed_sum(*parts)


def _evaluator_source(terms, dim: int) -> tuple[str, tuple[int, ...]]:
    """Source of ``_eval(zvec, q, order)`` for the (term, N, D) of one
    shape, then the gradient and Hessian term entries (emitted, in all), the
    lines and the bytes.  The one body evaluates each N and D once and returns
    the term values when ``order < 0``; then runs the pole checks, with
    POLE_GUARD emitted as a literal, and returns F at order 0; then each
    term's first partials, once, and the gradient at order 1; then the
    Hessian on each term's support.  Only products with an
    identically zero factor, the unit prefactor of non-quantum terms and,
    where D is the constant 1, the pole check and the divisions by D are left
    out, and both complex divisions per term go through numpy, so every
    result equals numpy-scalar arithmetic on the same polynomials by the same
    formulas."""
    cs = [f"c{t.index[0]}*" if t.family == "quantum" else "" for t, _, _ in terms]
    nd = [(_poly_src(N), _poly_src(D)) for _, N, D in terms]
    nas = [[N.derivative(a) for a in range(dim)] for _, N, _ in terms]
    das = [[D.derivative(a) for a in range(dim)] for _, _, D in terms]
    # factors by D, 1/D^2 of a term, empty where D = 1 (a product by 1 is exact)
    dk, ik = zip(*[("", "") if D == 1 else (f"*d{k}", f"*i{k}")
                   for k, (_, _, D) in enumerate(terms)])

    def local(name, p):
        """Emit name = p unless p is zero; the name, or "" for zero."""
        src = _poly_src(p)
        if src:
            lines.append(f"    {name} = {src}")
        return src and name

    lines = ["def _eval(zvec, q, order):",
             "    " + "".join(f"z{a}, " for a in range(dim)) + "= zvec.tolist()"]
    for k, (n, d) in enumerate(nd):
        lines.append(f"    n{k} = {n}")
        if dk[k]:
            lines.append(f"    d{k} = {d}")
    lines += ["    if order < 0:", "        return [" + ", ".join(
        f"(n{k}, {f'd{k}' if dk[k] else d})" for k, (_, d) in enumerate(nd)) + "]"]
    lines += [f"    c{t.index[0]} = complex(q[{t.index[0] - 1}])"
              for t, _, _ in terms if t.family == "quantum"]
    for k, (t, _, _) in enumerate(terms):
        if dk[k]:
            lines += [f"    if abs(d{k}) < {POLE_GUARD!r} * (1.0 + abs(n{k})):",
                      f"        raise NearPole(f'denominator {{abs(d{k}):.3e}} at the "
                      f"{t.family} term {t.index} in {{_ORDERS[order]}}')"]
    lines += ["    if order == 0:", "        return 0j + " + " + ".join(
        f"_C({c}n{k})" + (dk[k] and f" / d{k}") for k, c in enumerate(cs))]

    # each term's nonzero first partials: their names and N_a D - N D_a, "" for 0
    firsts, grad = [], [[] for _ in range(dim)]
    for k, c in enumerate(cs):
        if dk[k]:
            lines.append(f"    i{k} = complex(_ONE / (d{k} * d{k}))")
        na = [local(f"na{k}_{a}", p) for a, p in enumerate(nas[k])]
        da = [local(f"da{k}_{a}", p) for a, p in enumerate(das[k])]
        num = [_signed_sum(("+", x and f"{x}{dk[k]}"), ("-", y and f"n{k}*{y}"))
               for x, y in zip(na, da)]
        firsts.append((na, da, num))
        for a, x in enumerate(num):
            if x:
                grad[a].append(f"{c}({x}){ik[k]}")
    lines += ["    if order == 1:", "        return _np.array([" + ", ".join(
        " + ".join(g) or "0j" for g in grad) + "], complex)"]

    hess = {(a, b): [] for a in range(dim) for b in range(a + 1)}
    for k, (c, (na, da, num)) in enumerate(zip(cs, firsts)):
        if dk[k]:
            lines.append(f"    j{k} = complex(_ONE / (d{k} * d{k}) / d{k})")
        support = [a for a in range(dim) if num[a]]
        for i, a in enumerate(support):
            if any(da):
                lines.append(f"    s{k}_{a} = 2.0*({num[a]})")  # shared by the entries of row a
            for b in support[:i + 1]:
                nab = na[a] and local(f"nab{k}_{a}_{b}", nas[k][a].derivative(b))
                dab = da[a] and local(f"dab{k}_{a}_{b}", das[k][a].derivative(b))
                part = _signed_sum(("+", nab and f"{nab}{dk[k]}"),
                                   ("+", na[a] and da[b] and f"{na[a]}*{da[b]}"),
                                   ("-", na[b] and da[a] and f"{na[b]}*{da[a]}"),
                                   ("-", dab and f"n{k}*{dab}"))
                second = da[b] and f"s{k}_{a}*{da[b]}*j{k}"
                if part or second:
                    val = (f"({part}){ik[k]}" + (second and f" - {second}") if part
                           else f"-({second})")
                    hess[a, b].append(f"{c}({val})")
    lines += [f"    h{a}_{b} = " + " + ".join(parts) for (a, b), parts in hess.items() if parts]
    lines.append("    return _np.array([" + ", ".join(
        f"h{max(a, b)}_{min(a, b)}" if hess[max(a, b), min(a, b)] else "0j"
        for a in range(dim) for b in range(dim)) + f"], complex).reshape({dim}, {dim})")
    src, t = "\n".join(lines) + "\n", len(terms)
    return src, (sum(map(len, grad)), t * dim, sum(map(len, hess.values())), t * len(hess),
                 len(lines), len(src))


@lru_cache(maxsize=None)
def f_minus_chart(shape: FlagShape) -> FMinusChart:
    fm = FMinusChart(shape)
    log.debug("chart %s: dim %d, %d terms, emitted %d of %d gradient and %d of %d Hessian "
              "term entries, %d lines, %d bytes, generated %.3fs, compiled %.3fs",
              shape, shape.dim, len(fm.terms), *fm.emitted, *fm.seconds)
    return fm


def f_minus_eval(z, q, shape: FlagShape) -> complex:
    """Superpotential value via the Plucker-term route, evaluated by the
    compiled chart evaluator at the free coordinates of z."""
    return f_minus_chart(shape).value(chart_vector(shape, z), q)


# -- Young diagram rendering -------------------------------------------------------


def young_name(k: int, parts) -> str:
    return f"p({k})(" + ",".join(str(a) for a in parts if a) + ")"


@lru_cache(maxsize=None)
def young_table(shape: FlagShape) -> VarTable:
    """The symbol list with p_K named by |K| and lambda(K), as ``p(3)(3,2)``."""
    return _symbol_table(shape, lambda K: young_name(len(K), partition_of_columns(K)))


def index_term_to_young(term: SuperpotentialTerm, shape: FlagShape) -> SuperpotentialTerm:
    """Re-index a Plucker-symbol term through the bijection J <-> lambda(J).
    The Young table lists the same symbols in the same order with the same
    weights, so the exponent dicts carry over unchanged, and with them the
    monomial order and the leading coefficients."""
    ytab = young_table(shape)
    return replace(term, numerator=MPoly(ytab, term.numerator.terms),
                   denominator=MPoly(ytab, term.denominator.terms))


def young_view(shape: FlagShape) -> tuple[SuperpotentialTerm, ...]:
    """The superpotential over partition-indexed Plucker symbols: every term
    re-indexed through lambda(J)."""
    return tuple(index_term_to_young(t, shape) for t in superpotential(shape))


# -- rendering --------------------------------------------------------------------


def _latex_symbol(name: str) -> str:
    """p_146 as p_{146} and q4 as q_{4}; a Young symbol p(3)(3,2) as it is."""
    if name.startswith("p_"):
        return f"p_{{{name[2:]}}}"
    return f"q_{{{name[1:]}}}" if name.startswith("q") else name


def term_to_latex(term: SuperpotentialTerm) -> str:
    num, den = (p.format([_latex_symbol(v) for v in p.table.names], " ", "{}^{{{}}}")
                for p in (term.numerator, term.denominator))
    return f"\\frac{{{num}}}{{{den}}}"


def term_to_json(term: SuperpotentialTerm) -> dict:
    return {
        "family": term.family,
        "index": list(term.index),
        "numerator": term.numerator.to_json(),
        "denominator": term.denominator.to_json(),
        "divisor_k": term.divisor_k,
    }
