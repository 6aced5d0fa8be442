"""Exact sparse polynomial arithmetic and the dense linear algebra kernel.

Rationals are ``fractions.Fraction`` throughout the symbolic path; the numeric
path (eigenvalues, LU of complex matrices) uses complex double precision.
Minors of matrices with polynomial entries go through fraction-free Bareiss
elimination so no rational blowup occurs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from numbers import Number

import numpy as np

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    PivotFailure,
)

__all__ = [
    "VarTable",
    "MPoly",
    "minor",
    "det",
    "lu_unipotent",
    "eigenvalues",
]

Exp = tuple


@dataclass(frozen=True)
class VarTable:
    """Named indeterminates with kinds 'x' (weight 1), 'q' (even weight) or
    'chart' (weight 0).  The weights define the graded part of the monomial
    order used for canonical printing and for exact division."""

    names: tuple[str, ...]
    kinds: tuple[str, ...]
    weights: tuple[int, ...]

    def __post_init__(self):
        if not (len(self.names) == len(self.kinds) == len(self.weights)):
            raise ValueError("names/kinds/weights length mismatch")
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate variable names in {self.names}")
        for name, kind, wt in zip(self.names, self.kinds, self.weights):
            if kind == "x" and wt != 1:
                raise ValueError(f"x-variable {name} must have weight 1")
            if kind == "q" and wt < 0:
                # partial-flag q-degrees n_{j+1} - n_{j-1} can be odd
                raise ValueError(f"q-variable {name} must have weight >= 0")
            if kind == "chart" and wt != 0:
                raise ValueError(f"chart variable {name} must have weight 0")
            if kind not in ("x", "q", "chart"):
                raise ValueError(f"unknown kind {kind!r}")

    @property
    def size(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        return self.names.index(name)

    @classmethod
    def make(cls, spec: list[tuple[str, str, int]]) -> "VarTable":
        names, kinds, weights = zip(*spec) if spec else ((), (), ())
        return cls(tuple(names), tuple(kinds), tuple(weights))


def _aszero(table: VarTable) -> Exp:
    return (0,) * table.size


class MPoly:
    """Sparse multivariate polynomial with Fraction coefficients.

    Treated as immutable: no method mutates ``terms`` after construction.
    """

    __slots__ = ("table", "terms")

    def __init__(self, table: VarTable, terms: dict | None = None):
        self.table = table
        self.terms = {e: c for e, c in (terms or {}).items() if c != 0}

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, table: VarTable) -> "MPoly":
        return cls(table)

    @classmethod
    def const(cls, table: VarTable, c) -> "MPoly":
        c = Fraction(c)
        return cls(table, {_aszero(table): c} if c else {})

    @classmethod
    def var(cls, table: VarTable, name: str, power: int = 1) -> "MPoly":
        e = [0] * table.size
        e[table.index(name)] = power
        return cls(table, {tuple(e): Fraction(1)})

    @classmethod
    def monomial(cls, table: VarTable, exp: Exp, coeff=1) -> "MPoly":
        return cls(table, {tuple(exp): Fraction(coeff)})

    # -- basic structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def wdeg(self, exp: Exp) -> int:
        return sum(e * w for e, w in zip(exp, self.table.weights))

    def _order_key(self, exp: Exp):
        # graded lexicographic: weighted degree first, then lex on exponents
        return (self.wdeg(exp), exp)

    def monomials(self) -> list[Exp]:
        """Exponent vectors in canonical (descending) order."""
        return sorted(self.terms, key=self._order_key, reverse=True)

    def leading(self) -> tuple[Exp, Fraction]:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=self._order_key)
        return e, self.terms[e]

    def constant(self) -> Fraction:
        return self.terms.get(_aszero(self.table), Fraction(0))

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "MPoly"):
        if self.table != other.table:
            raise ValueError("mixed variable tables")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(self.table, other)
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return MPoly(self.table, out)

    __radd__ = __add__

    def __neg__(self):
        return MPoly(self.table, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(self.table, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return MPoly(self.table)
            return MPoly(self.table, {e: c * v for e, v in self.terms.items()})
        self._check(other)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return MPoly(self.table, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = MPoly.const(self.table, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(self.table, other)
        return isinstance(other, MPoly) and self.table == other.table and self.terms == other.terms

    def __hash__(self):
        return hash((self.table, frozenset(self.terms.items())))

    # -- calculus and substitution ------------------------------------------

    def derivative(self, idx: int) -> "MPoly":
        out: dict = {}
        for e, c in self.terms.items():
            k = e[idx]
            if k:
                e2 = e[:idx] + (k - 1,) + e[idx + 1:]
                s = out.get(e2, 0) + c * k
                if s:
                    out[e2] = s
                else:
                    out.pop(e2, None)
        return MPoly(self.table, out)

    def substitute(self, values):
        """Full substitution; values[i] may be numbers, Fractions or MPolys."""
        total = None
        for e, c in self.terms.items():
            term = None
            for i, k in enumerate(e):
                if k:
                    f = values[i] ** k
                    term = f if term is None else term * f
            term = c if term is None else term * c
            total = term if total is None else total + term
        return 0 if total is None else total

    def map_vars(self, target: dict[int, tuple[int, Fraction]], table: VarTable | None = None) -> "MPoly":
        """Rename variables: idx -> (new idx, scale); used for involutions."""
        table = table or self.table
        out: dict = {}
        for e, c in self.terms.items():
            e2 = [0] * table.size
            f = c
            for i, k in enumerate(e):
                if not k:
                    continue
                j, s = target.get(i, (i, Fraction(1)))
                e2[j] += k
                f *= s ** k
            key = tuple(e2)
            v = out.get(key, 0) + f
            if v:
                out[key] = v
            else:
                out.pop(key, None)
        return MPoly(table, out)

    def divexact(self, g: "MPoly") -> "MPoly":
        """Exact division; raises ValueError if g does not divide self."""
        self._check(g)
        if g.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        r = self
        out: dict = {}
        ge, gc = g.leading()
        while not r.is_zero():
            re, rc = r.leading()
            qe = tuple(a - b for a, b in zip(re, ge))
            if any(k < 0 for k in qe):
                raise ValueError("not divisible")
            qc = rc / gc
            out[qe] = out.get(qe, 0) + qc
            r = r - MPoly.monomial(self.table, qe, qc) * g
        return MPoly(self.table, out)

    # -- numeric compilation -------------------------------------------------

    def as_pyfunc(self):
        """Compile to a python function of one sequence argument (fast eval)."""
        if self.is_zero():
            return lambda z: 0.0
        parts = []
        for e, c in self.terms.items():
            factors = [repr(complex(c)) if c.denominator != 1 else repr(int(c))]
            for i, k in enumerate(e):
                if k == 1:
                    factors.append(f"z[{i}]")
                elif k:
                    factors.append(f"z[{i}]**{k}")
            parts.append("*".join(factors))
        return eval("lambda z: " + "+".join(parts))  # noqa: S307 - generated from exact data

    # -- printing ------------------------------------------------------------

    def monomial_string(self, exp: Exp) -> str:
        factors = []
        for name, k in zip(self.table.names, exp):
            if k == 1:
                factors.append(name)
            elif k:
                factors.append(f"{name}^{k}")
        return "*".join(factors) if factors else "1"

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        bits = []
        for e in self.monomials():
            c = self.terms[e]
            m = self.monomial_string(e)
            if m == "1":
                bits.append(str(c))
            elif c == 1:
                bits.append(m)
            elif c == -1:
                bits.append(f"-{m}")
            else:
                bits.append(f"{c}*{m}")
        out = " + ".join(bits)
        return out.replace("+ -", "- ")

    __repr__ = __str__

    def to_json(self) -> dict[str, str]:
        return {self.monomial_string(e): str(self.terms[e]) for e in self.monomials()}


def _as_rows(M):
    """Normalize matrix-ish input to a list of row lists."""
    return [list(r) for r in M]


def _is_exact(rows) -> bool:
    for r in rows:
        for v in r:
            if isinstance(v, MPoly):
                return True
            if isinstance(v, (complex, float, np.complexfloating, np.floating)):
                return False
    return True


def det(M):
    """Determinant: Bareiss for exact/polynomial entries, LAPACK for numeric."""
    rows = _as_rows(M)
    n = len(rows)
    if n == 0:
        return 1
    if any(len(r) != n for r in rows):
        raise DimensionMismatch("determinant of a non-square matrix")
    if _is_exact(rows):
        return _det_bareiss(rows)
    return complex(np.linalg.det(np.array(rows, dtype=complex)))


def _det_bareiss(rows):
    """Fraction-free Bareiss elimination over any integral domain whose
    elements support *, -, and exact division (MPoly.divexact or Fraction /)."""
    n = len(rows)
    table = next((v.table for r in rows for v in r if isinstance(v, MPoly)), None)
    if table is not None:
        rows = [[v if isinstance(v, MPoly) else MPoly.const(table, v) for v in r] for r in rows]
    a = [list(r) for r in rows]
    sign = 1

    def iszero(v):
        return v.is_zero() if isinstance(v, MPoly) else v == 0

    def dividex(u, v):
        if isinstance(u, MPoly):
            return u * (1 / v) if not isinstance(v, MPoly) else u.divexact(v)
        return u / v

    prev = 1
    for k in range(n - 1):
        if iszero(a[k][k]):
            for i in range(k + 1, n):
                if not iszero(a[i][k]):
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return a[k][k] * 0 if isinstance(a[k][k], MPoly) else 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[k][k] * a[i][j] - a[i][k] * a[k][j]
                a[i][j] = num if prev == 1 else dividex(num, prev)
            a[i][k] = 0
        prev = a[k][k]
    return a[n - 1][n - 1] if sign == 1 else -a[n - 1][n - 1]


def minor(M, rows, cols):
    """Determinant of the submatrix on the given 0-based row/column sets.

    Empty index sets give 1.  Raises DimensionMismatch when |rows| != |cols|.
    """
    rset, cset = sorted(rows), sorted(cols)
    if len(rset) != len(cset):
        raise DimensionMismatch(f"|rows|={len(rset)} != |cols|={len(cset)}")
    if not rset:
        return 1
    m = _as_rows(M)
    sub = [[m[i][j] for j in cset] for i in rset]
    return det(sub)


def lu_unipotent(A, tol: float = 1e-12):
    """Factor A = L U with L lower-triangular and U unipotent upper-triangular.

    Exact on Fraction matrices; on complex input a pivot with relative
    magnitude below ``tol`` raises PivotFailure (a leading principal minor of
    A vanishes there, since those minors are the products of L's diagonal).
    """
    rows = _as_rows(A)
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise DimensionMismatch("LU of a non-square matrix")
    exact = _is_exact(rows)
    zero = Fraction(0) if exact else 0j
    one = Fraction(1) if exact else 1.0 + 0j
    scale = 1 if exact else max(max(abs(complex(v)) for v in r) for r in rows) or 1.0
    L = [[zero] * n for _ in range(n)]
    U = [[one if i == j else zero for j in range(n)] for i in range(n)]
    for j in range(n):
        for i in range(j, n):
            L[i][j] = rows[i][j] - sum((L[i][k] * U[k][j] for k in range(j)), zero)
        piv = L[j][j]
        bad = piv == 0 if exact else abs(piv) < tol * scale
        if bad:
            raise PivotFailure(f"leading principal minor {j + 1} vanishes")
        for jj in range(j + 1, n):
            U[j][jj] = (rows[j][jj] - sum((L[j][k] * U[k][jj] for k in range(j)), zero)) / piv
    if exact:
        return L, U
    return np.array(L, dtype=complex), np.array(U, dtype=complex)


def eigenvalues(M) -> np.ndarray:
    """Eigenvalues with multiplicity of a square complex matrix.

    Delegates to LAPACK's nonsymmetric QR (numpy.linalg.eigvals); the trace
    consistency check guards against a silently bad result.
    """
    arr = np.array(M, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got {arr.shape}")
    try:
        vals = np.linalg.eigvals(arr)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from None
    tr = np.trace(arr)
    scale = 1.0 + float(np.sum(np.abs(vals)))
    if abs(vals.sum() - tr) > 1e-8 * scale:
        raise ConvergenceFailure("eigenvalue sum disagrees with trace")
    return vals


def complex_to_json(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def json_dumps(obj) -> str:
    """json.dumps with a default handler for Fractions and numpy scalars."""

    def default(v):
        if isinstance(v, Fraction):
            return str(v)
        if isinstance(v, (np.integer,)):
            return int(v)
        if isinstance(v, (np.floating,)):
            return float(v)
        if isinstance(v, (complex, np.complexfloating)):
            return complex_to_json(complex(v))
        if isinstance(v, Number):
            return float(v)
        raise TypeError(f"cannot serialize {type(v)}")

    return json.dumps(obj, indent=2, default=default)
