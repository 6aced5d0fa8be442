"""Exact sparse polynomial arithmetic and the dense linear algebra kernel.

Every polynomial the paper's checks build has integer coefficients, so an
`MPoly` coefficient is a Python ``int`` and nothing else: the symbolic path
has no float and no division.  `det` and `minor` are one division-free
Laplace expansion, `leading_minors`, for entries of any ring; the chart's
Plucker coordinates come from it too.  The numeric path (eigenvalues, and
the unipotent LU of one complex matrix or a stack of them) uses complex
double precision, and numeric callers take their determinants from LAPACK.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import add

import numpy as np

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    PivotFailure,
)

__all__ = [
    "VarTable",
    "MPoly",
    "leading_minors",
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
    order used for canonical printing and leading terms."""

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


def _not_int(c):
    raise TypeError(f"MPoly coefficient {c!r} is not an int")


class MPoly:
    """Sparse multivariate polynomial with int coefficients.

    Treated as immutable: no method mutates ``terms`` after construction.
    """

    __slots__ = ("table", "terms")

    def __init__(self, table: VarTable, terms: dict | None = None):
        self.table = table
        self.terms = {e: c if type(c) is int else _not_int(c)
                      for e, c in (terms or {}).items() if c}

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, table: VarTable) -> "MPoly":
        return cls(table)

    @classmethod
    def const(cls, table: VarTable, c) -> "MPoly":
        return cls(table, {_aszero(table): c})

    @classmethod
    def var(cls, table: VarTable, name: str, power: int = 1) -> "MPoly":
        e = [0] * table.size
        e[table.index(name)] = power
        return cls(table, {tuple(e): 1})

    @classmethod
    def monomial(cls, table: VarTable, exp: Exp, coeff=1) -> "MPoly":
        return cls(table, {tuple(exp): coeff})

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

    def leading(self) -> tuple[Exp, int]:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=self._order_key)
        return e, self.terms[e]

    def constant(self) -> int:
        return self.terms.get(_aszero(self.table), 0)

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "MPoly"):
        if self.table != other.table:
            raise ValueError("mixed variable tables")

    def __add__(self, other):
        if isinstance(other, int):
            other = MPoly.const(self.table, other)
        elif not isinstance(other, MPoly):
            return NotImplemented
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
        if isinstance(other, int):
            other = MPoly.const(self.table, other)
        elif not isinstance(other, MPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        if not isinstance(other, int):
            return NotImplemented
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return MPoly(self.table, {e: other * v for e, v in self.terms.items()})
        if not isinstance(other, MPoly):
            return NotImplemented
        self._check(other)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
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
        if isinstance(other, int):
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
        """Full substitution; values[i] may be numbers or MPolys."""
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

    def map_vars(self, target: dict[int, tuple[int, int]],
                 table: VarTable | None = None) -> "MPoly":
        """Rename variables: idx -> (new idx, scale); used for involutions."""
        table = table or self.table
        out: dict = {}
        for e, c in self.terms.items():
            e2 = [0] * table.size
            f = c
            for i, k in enumerate(e):
                if not k:
                    continue
                j, s = target.get(i, (i, 1))
                e2[j] += k
                f *= s ** k
            key = tuple(e2)
            v = out.get(key, 0) + f
            if v:
                out[key] = v
            else:
                out.pop(key, None)
        return MPoly(table, out)

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


def leading_minors(M, kmax: int) -> dict:
    """Every minor of the first k rows of M on each sorted 0-based column set
    K, for k <= kmax, keyed by K.  Laplace expansion along row k reuses the
    (k-1)-row minors, so no division occurs.  The empty minor and a vanishing
    one are the one and zero of the entries' ring: MPolys over the table of
    an MPoly entry if there is one, else the ints 1 and 0."""
    rows = _as_rows(M)
    table = next((v.table for r in rows for v in r if isinstance(v, MPoly)), None)
    one, zero = (1, 0) if table is None else (MPoly.const(table, 1), MPoly.zero(table))
    out = {(): one}
    for k in range(1, kmax + 1):
        row = rows[k - 1]
        for K in itertools.combinations(range(len(row)), k):
            total = zero
            for t, c in enumerate(K):
                if row[c] == zero:
                    continue
                term = row[c] * out[K[:t] + K[t + 1:]]
                total = total + term if (k - 1 + t) % 2 == 0 else total - term
            out[K] = total
    return out


def det(M):
    """Determinant: the full minor of `leading_minors`, for entries of any
    ring (ints, rationals, MPolys, complex numbers).  It forms the 2^n minors
    of the leading columns, which suits the ring's small matrices (n <= 8);
    numeric code calls LAPACK (np.linalg.det) itself."""
    rows = _as_rows(M)
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise DimensionMismatch("determinant of a non-square matrix")
    # expand along columns (det M = det M^T): the ring's matrices, those of
    # quantum_H and of the determinantal formula, vanish below a staircase,
    # so most minors of their first k columns vanish
    return leading_minors(list(zip(*rows)), n)[tuple(range(n))]


def minor(M, rows, cols):
    """Determinant of the submatrix on the given 0-based row/column sets.

    Empty index sets give 1.  Raises DimensionMismatch when |rows| != |cols|.
    """
    rset, cset = sorted(rows), sorted(cols)
    if len(rset) != len(cset):
        raise DimensionMismatch(f"|rows|={len(rset)} != |cols|={len(cset)}")
    m = _as_rows(M)
    return det([[m[i][j] for j in cset] for i in rset])


PIVOT_TOL = 1e-12  # an LU pivot below this times the largest entry vanishes


def lu_unipotent(A):
    """Factor A = L U with L lower-triangular and U unipotent upper-triangular,
    for one complex matrix or a stack of shape (..., n, n).

    Right-looking elimination without pivoting: divide row j by its pivot to
    get row j of U, then subtract the outer product from the trailing block.
    A pivot below PIVOT_TOL times the largest entry of its matrix means that a
    leading principal minor vanishes there (they are the products of L's
    diagonal): a single matrix raises PivotFailure, and in a stack that
    matrix's L and U are all nan.
    """
    A = np.array(A, dtype=complex)  # a copy; becomes L on and below the diagonal
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise DimensionMismatch(f"LU of an array of shape {A.shape}")
    n = A.shape[-1]
    U = np.empty_like(A)
    U[...] = np.eye(n)
    scale = np.abs(A).max(axis=(-2, -1))
    tiny = PIVOT_TOL * (scale + (scale == 0))  # a zero matrix fails too
    bad = np.zeros(A.shape[:-2], dtype=bool)
    with np.errstate(all="ignore"):  # after a vanishing pivot the factors are garbage
        for j in range(n):
            bad |= np.abs(A[..., j, j]) < tiny
            u = U[..., j, None, j + 1:] = A[..., j, None, j + 1:] / A[..., j, j, None, None]
            A[..., j + 1:, j + 1:] -= A[..., j + 1:, j, None] * u
    if A.ndim == 2 and bad:
        j = int(np.argmax(np.abs(np.diagonal(A)) < tiny))
        raise PivotFailure(f"leading principal minor {j + 1} vanishes")
    L = np.tril(A)
    L[bad] = U[bad] = np.nan
    return L, U


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
