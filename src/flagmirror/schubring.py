"""Quantum Schubert calculus in the complete-flag ring QH*(Fl_n).

Multiplication by the divisor classes is realized by sparse Monk operators on
the Schubert basis, keyed by one-line word; a word's Monk column is computed
on demand and kept in memory (no n!-sized build, no disk cache).  Products of
general classes expand the shorter factor by the quantum transition,
sigma_u = X_r sigma_{u t_rs} minus classes below u, in the commuting operators
X_i = M_i - M_{i-1}, so a product needs Monk columns only.  Quantum Schubert
polynomials come from the standard elementary-monomial expansion, a Z-basis,
computed by exact integer elimination and checked by multiplying back; they
serve the public API and normal_form, a linear-algebra-free straightening of
polynomials modulo the quantum ideal I_n^q kept as an independent small-n
oracle.
"""

from __future__ import annotations

import itertools
import logging
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import lcm

import numpy as np

from .combinat import FlagShape, Permutation
from .errors import (ExpansionFailure, NonIntegralCoefficient, NotInGroup, SizeCap,
                     TransitionFailure)
from .exactalg import MPoly, VarTable, det

__all__ = [
    "xq_table",
    "q_table",
    "quantum_E",
    "quantum_H",
    "schubert_poly",
    "divided_difference",
    "quantum_schubert",
    "elementary_expand",
    "MonkOperators",
    "monk_operators",
    "class_product",
    "omega_involution",
    "normal_form",
    "QHClass",
]

log = logging.getLogger("flagmirror")
_MAX_N = 8
_INT64_LIMIT = 2 ** 63


@lru_cache(maxsize=None)
def xq_table(n: int) -> VarTable:
    """x_1..x_n (weight 1) and q_1..q_{n-1} (weight 2)."""
    spec = [(f"x{i}", "x", 1) for i in range(1, n + 1)]
    spec += [(f"q{i}", "q", 2) for i in range(1, n)]
    return VarTable.make(spec)


@lru_cache(maxsize=None)
def q_table(n: int) -> VarTable:
    """q_1..q_{n-1} only; the coefficient ring of QH*(Fl_n)."""
    return VarTable.make([(f"q{i}", "q", 2) for i in range(1, n)])


def _x(n: int, i: int) -> MPoly:
    return MPoly.var(xq_table(n), f"x{i}")


def _q(n: int, i: int) -> MPoly:
    return MPoly.var(xq_table(n), f"q{i}")


@lru_cache(maxsize=None)
def quantum_E(i: int, k: int, n: int) -> MPoly:
    """Quantum elementary polynomial E_i^k in Z[q][x_1..x_n].

    Defined by det(1 + t G_k) = sum_i E_i^k t^i for the tridiagonal matrix G_k
    with diagonal x, superdiagonal q and subdiagonal -1; computed here via the
    recurrence E_i^k = E_i^{k-1} + x_k E_{i-1}^{k-1} + q_{k-1} E_{i-2}^{k-2}.
    """
    if k > n:
        raise ValueError(f"E_i^k needs k <= n, got k={k}, n={n}")
    tab = xq_table(n)
    if i == 0:
        return MPoly.const(tab, 1)
    if i < 0 or i > k:
        return MPoly.zero(tab)
    out = quantum_E(i, k - 1, n) + _x(n, k) * quantum_E(i - 1, k - 1, n)
    if k >= 2:
        out = out + _q(n, k - 1) * quantum_E(i - 2, k - 2, n)
    return out


@lru_cache(maxsize=None)
def quantum_H(l: int, k: int, n: int) -> MPoly:
    """Quantum complete homogeneous polynomial H_l^k: the l x l determinant
    with (i, j) entry E_{j-i+1}^{k+j-1}.  At q = 0 this is h_l(x_1..x_k)."""
    tab = xq_table(n)
    if l < 0:
        return MPoly.zero(tab)
    if l == 0:
        return MPoly.const(tab, 1)
    if k + l - 1 > n:
        raise ValueError(f"H_{l}^{k} needs k+l-1 <= n = {n}")
    rows = [[quantum_E(j - i + 1, k + j - 1, n) for j in range(1, l + 1)] for i in range(1, l + 1)]
    return det(rows)


def divided_difference(f: MPoly, i: int, n: int) -> MPoly:
    """Divided difference (f - s_i f) / (x_i - x_{i+1}) on xq_table(n)."""
    ia, ib = i - 1, i  # table positions of x_i, x_{i+1}
    out: dict = {}
    for e, c in f.terms.items():
        a, b = e[ia], e[ib]
        if a == b:
            continue
        lo, hi, sgn = (b, a, 1) if a > b else (a, b, -1)
        for t in range(lo, hi):
            e2 = list(e)
            e2[ia], e2[ib] = t, a + b - 1 - t
            key = tuple(e2)
            v = out.get(key, 0) + sgn * c
            if v:
                out[key] = v
            else:
                out.pop(key, None)
    return MPoly(f.table, out)


@lru_cache(maxsize=None)
def schubert_poly(w: Permutation, n: int) -> MPoly:
    """Classical Schubert polynomial, by divided differences from x^delta."""
    if w.n != n:
        raise NotInGroup(f"{w} is not in S_{n}")
    if w.length == n * (n - 1) // 2:
        e = [0] * xq_table(n).size
        for i in range(n - 1):
            e[i] = n - 1 - i
        return MPoly.monomial(xq_table(n), tuple(e))
    ol = w.oneline
    for i in range(n - 1):
        if ol[i] < ol[i + 1]:  # ascent: w s_i is longer
            return divided_difference(schubert_poly(w.times_s(i + 1), n), i + 1, n)
    raise AssertionError("unreachable")


def apply_dd_word(f: MPoly, word: tuple[int, ...], n: int) -> MPoly:
    """Compose divided differences along a reduced word (rightmost first)."""
    for i in reversed(word):
        if f.is_zero():
            break
        f = divided_difference(f, i, n)
    return f


# -- straightening of symmetric polynomials and Schubert decomposition -------


@lru_cache(maxsize=None)
def _elementary(i: int, k: int, n: int) -> MPoly:
    """Classical e_i(x_1..x_k) inside xq_table(n)."""
    tab = xq_table(n)
    if i == 0:
        return MPoly.const(tab, 1)
    if i < 0 or i > k:
        return MPoly.zero(tab)
    return _elementary(i, k - 1, n) + _x(n, k) * _elementary(i - 1, k - 1, n)


@lru_cache(maxsize=None)
def _sorted_perms(n: int) -> tuple[Permutation, ...]:
    perms = [Permutation(p) for p in itertools.permutations(range(n))]
    perms.sort(key=lambda w: (w.length, w.oneline))
    return tuple(perms)


def _x_degree(e, n: int) -> int:
    return sum(e[:n])


def schubert_symmetric_decompose(p: MPoly, n: int) -> dict[Permutation, MPoly]:
    """Write p = sum_v f_v * S_v with every f_v symmetric in the x variables.

    Works over Z[q]; divided differences act on the x part only, so
    f_v = dd_v(remainder) by downward induction on length.
    """
    rem = p
    out: dict[Permutation, MPoly] = {}
    maxlen = max((_x_degree(e, n) for e in rem.terms), default=-1)
    by_len: dict[int, list[Permutation]] = {}
    for w in _sorted_perms(n):
        by_len.setdefault(w.length, []).append(w)
    for level in range(min(maxlen, n * (n - 1) // 2), -1, -1):
        if rem.is_zero():
            break
        found = []
        for v in by_len[level]:
            fv = apply_dd_word(rem, v.reduced_word(), n)
            if not fv.is_zero():
                found.append((v, fv))
        for v, fv in found:
            out[v] = fv
            rem = rem - fv * schubert_poly(v, n)
    if not rem.is_zero():
        raise AssertionError("Schubert decomposition left a remainder")
    return out


def symmetric_to_e(f: MPoly, n: int) -> dict[tuple[int, ...], MPoly]:
    """Expand an x-symmetric f (coefficients may involve q) as a polynomial in
    e_1(x_1..x_n)..e_n(x_1..x_n); keys are e-exponent vectors, values live in
    the q-only part of xq_table(n)."""
    tab = xq_table(n)
    out: dict[tuple[int, ...], MPoly] = {}
    rem = f
    while not rem.is_zero():
        # lex-max x-monomial; x-symmetry forces weakly decreasing exponents
        e = max(rem.terms, key=lambda t: t[:n])
        lam = e[:n]
        if any(a < b for a, b in zip(lam, lam[1:])):
            raise AssertionError(f"not symmetric in x: monomial {e}")
        c = rem.terms[e]
        expo = tuple(lam[i] - (lam[i + 1] if i + 1 < n else 0) for i in range(n))
        qmono = MPoly.monomial(tab, (0,) * n + e[n:], c)
        prod = MPoly.const(tab, 1)
        for i, m in enumerate(expo, start=1):
            if m:
                prod = prod * _elementary(i, n, n) ** m
        rem = rem - qmono * prod
        out[expo] = out.get(expo, MPoly.zero(tab)) + qmono
    return {k: v for k, v in out.items() if not v.is_zero()}


# -- e-monomial expansion and quantization -----------------------------------


def _emono_terms(imono: tuple[int, ...], n: int) -> dict[tuple[int, ...], int]:
    """e_{i_1}(x_1) e_{i_2}(x_1, x_2) ... e_{i_{n-1}}(x_1..x_{n-1}) as integer
    terms {x-exponent: coefficient}."""
    terms = {(0,) * n: 1}
    for k, ik in enumerate(imono, start=1):
        if not ik:
            continue
        nxt: dict[tuple[int, ...], int] = {}
        for subset in itertools.combinations(range(k), ik):
            for e, c in terms.items():
                g = list(e)
                for j in subset:
                    g[j] += 1
                g = tuple(g)
                nxt[g] = nxt.get(g, 0) + c
        terms = nxt
    return terms


def _unimodular_inverse(mat: np.ndarray) -> np.ndarray:
    """Exact inverse of an integer matrix by Gauss-Jordan elimination on +-1
    pivots, checked by multiplying back; raises ExpansionFailure when a column
    has no unit pivot or the check fails."""
    size = len(mat)
    aug = np.concatenate([mat, np.eye(size, dtype=np.int64)], axis=1)
    free = np.ones(size, dtype=bool)
    pivot_row = np.empty(size, dtype=np.intp)
    for c in range(size):
        cand = np.flatnonzero(free & (np.abs(aug[:, c]) == 1))
        if not cand.size:
            raise ExpansionFailure(f"slice matrix column {c} has no unit pivot")
        p = cand[0]
        free[p] = False
        pivot_row[c] = p
        aug[p] *= aug[p, c]  # a +-1 pivot becomes 1
        factors = aug[:, c].copy()
        factors[p] = 0
        rows = np.flatnonzero(factors)
        aug[rows] -= factors[rows, None] * aug[p]
    inv = aug[pivot_row, size:]
    # a row sum of |mat| times max |inv| bounds every entry of mat @ inv, so
    # below 2^63 the check is exact in int64 even if elimination overflowed
    bound = int(np.abs(mat).sum(axis=1).max(initial=0)) * int(np.abs(inv).max(initial=0))
    if bound >= _INT64_LIMIT:
        raise ExpansionFailure("slice inverse too large for an exact int64 check")
    if not np.array_equal(mat @ inv, np.eye(size, dtype=np.int64)):
        raise ExpansionFailure("slice inverse failed the multiply-back check")
    return inv


@lru_cache(maxsize=None)
def _slice_expander(n: int, m: int):
    """Transition data between degree-m substaircase monomials (exponents
    a_k <= n-k) and standard elementary monomials e_{i_1..i_{n-1}}.

    Returns (subst, emonos, col, inv): mat[r, col[e]] is the coefficient of
    x^e in emonos[r], and inv is its exact inverse.  The standard elementary
    monomials are a Z-basis of the substaircase span (Fomin-Gelfand-Postnikov),
    so mat is unimodular; it is built in int64, inverted by integer elimination
    on unit pivots and checked by multiplying back.
    """
    t0 = time.perf_counter()
    subst = [e for e in itertools.product(*(range(n - k + 1) for k in range(1, n + 1)))
             if sum(e) == m]
    emonos = [i for i in itertools.product(*(range(k + 1) for k in range(1, n)))
              if sum(i) == m]
    assert len(subst) == len(emonos)
    col = {e: idx for idx, e in enumerate(subst)}
    mat = np.zeros((len(emonos), len(subst)), dtype=np.int64)
    for r, imono in enumerate(emonos):
        for e, c in _emono_terms(imono, n).items():
            mat[r, col[e]] = c
    inv = _unimodular_inverse(mat)
    log.debug("slice n=%d m=%d: %d x %d, %.3fs", n, m, len(subst), len(subst),
              time.perf_counter() - t0)
    return subst, emonos, col, inv


def elementary_expand(p: MPoly, n: int) -> dict[tuple[int, ...], Fraction]:
    """Expand a q-free polynomial in standard elementary monomials
    e_{i_1..i_{n-1}} with 0 <= i_k <= k; raises if p is outside their span."""
    out: dict[tuple[int, ...], Fraction] = {}
    by_deg: dict[int, dict] = {}
    for e, c in p.terms.items():
        if any(e[n:]):
            raise ValueError("elementary_expand expects a q-free polynomial")
        by_deg.setdefault(sum(e[:n]), {})[e[:n]] = c
    for m, terms in by_deg.items():
        subst, emonos, col, inv = _slice_expander(n, m)
        scale = lcm(*(c.denominator for c in terms.values()))
        vec = [0] * len(subst)
        for e, c in terms.items():
            if e not in col:
                raise ValueError(f"monomial {e} outside the substaircase span")
            vec[col[e]] = c.numerator * (scale // c.denominator)
        # p = sum_i c_i emono_i means vec = mat^T c, so c = inv^T vec; Python
        # integers take over where int64 could overflow
        exact = sum(map(abs, vec)) * int(np.abs(inv).max(initial=0)) < _INT64_LIMIT
        coeffs = inv.T @ np.array(vec, dtype=np.int64 if exact else object)
        for imono, c in zip(emonos, coeffs.tolist()):
            if c:
                out[imono] = Fraction(c, scale)
    return out


@lru_cache(maxsize=None)
def quantum_schubert(w: Permutation, n: int) -> MPoly:
    """Quantum Schubert polynomial: re-express the elementary-monomial
    expansion of the classical S_w with quantum elementary polynomials."""
    if w.n != n:
        raise NotInGroup(f"{w} is not in S_{n}")
    coeffs = elementary_expand(schubert_poly(w, n), n)
    tab = xq_table(n)
    out = MPoly.zero(tab)
    for imono, c in coeffs.items():
        if c.denominator != 1:
            raise NonIntegralCoefficient(f"e-expansion of {w}: {c}")
        prod = MPoly.const(tab, c)
        for k, ik in enumerate(imono, start=1):
            if ik:
                prod = prod * quantum_E(ik, k, n)
        out = out + prod
    return out


# -- Monk operators and products ----------------------------------------------


@dataclass
class MonkOperators:
    """Multiplication operators by the divisor classes sigma_{s_k} on the
    Schubert basis of QH*(Fl_n), on sparse vectors keyed by one-line word."""

    n: int
    # word -> [k-1] -> entries (one-line word of the image, q-exponent)
    columns: dict[tuple, list[list[tuple]]] = field(default_factory=dict, repr=False)
    # word of u -> (r, word of u t_rs, rest of X_r sigma_{u t_rs})
    transitions: dict[tuple, tuple] = field(default_factory=dict, repr=False)
    build_s: float = 0.0  # seconds spent computing columns
    x_calls: int = 0  # calls of apply_x

    def column(self, ol: tuple[int, ...]) -> list[list[tuple]]:
        """Monk's rule at sigma_w for the one-line word ol of w: M_k sends
        sigma_w to the sum over positions a < k <= b (1-based k) of
        sigma_{w t_ab} when l(w t_ab) = l(w) + 1 (no value between positions
        a and b lies between w(a) < w(b)), and of q_a..q_{b-1} sigma_{w t_ab}
        when l(w t_ab) = l(w) + 1 - 2(b - a) (every value between them lies
        between w(b) < w(a)).  Returns the entry lists of M_1..M_{n-1},
        computed on first use and memoised per word."""
        cols = self.columns.get(ol)
        if cols is not None:
            return cols
        t0 = time.perf_counter()
        n = self.n
        cols = [[] for _ in range(n - 1)]
        for a in range(n - 1):
            va = ol[a]
            hi = n   # least value above va between a and b
            lo = va  # least value between a and b; -1 once one exceeds va
            for b in range(a + 1, n):
                vb = ol[b]
                if vb > va:
                    lo = -1
                    if vb >= hi:
                        continue
                    hi = vb
                    qexp = (0,) * (n - 1)
                elif vb < lo:
                    lo = vb
                    qexp = tuple(int(a <= i < b) for i in range(n - 1))
                else:
                    continue
                swapped = list(ol)
                swapped[a], swapped[b] = vb, va
                entry = (tuple(swapped), qexp)
                for k in range(a, b):
                    cols[k].append(entry)
        self.columns[ol] = cols
        self.build_s += time.perf_counter() - t0
        return cols

    def apply(self, k: int, vec: dict[tuple, dict]) -> dict[tuple, dict]:
        """Apply M_k (k in 1..n-1) to a sparse vector of q-polynomials."""
        out: dict[tuple, dict] = {}
        for word, poly in vec.items():
            for row, qexp in self.column(word)[k - 1]:
                acc = out.setdefault(row, {})
                if any(qexp):
                    for b, c in poly.items():
                        key = tuple(x + y for x, y in zip(b, qexp))
                        v = acc.get(key, 0) + c
                        if v:
                            acc[key] = v
                        else:
                            del acc[key]
                else:
                    for b, c in poly.items():
                        v = acc.get(b, 0) + c
                        if v:
                            acc[b] = v
                        else:
                            del acc[b]
        return {r: p for r, p in out.items() if p}

    def apply_x(self, i: int, vec: dict[tuple, dict]) -> dict[tuple, dict]:
        """Apply X_i = M_i - M_{i-1} (M_0 = 0)."""
        self.x_calls += 1
        out = self.apply(i, vec) if i >= 1 else {}
        if i >= 2:
            sub = self.apply(i - 1, vec)
            for r, poly in sub.items():
                acc = out.setdefault(r, {})
                for b, c in poly.items():
                    v = acc.get(b, 0) - c
                    if v:
                        acc[b] = v
                    else:
                        del acc[b]
        return {r: p for r, p in out.items() if p}

    def transition(self, ol: tuple[int, ...]) -> tuple[int, tuple, dict[tuple, dict]]:
        """Quantum transition at sigma_u, u != id with one-line word ol.

        With r the last descent of u (1-based), s the last position after r
        with u(s) < u(r) and v = u t_rs, so l(v) = l(u) - 1, X_r sigma_v is
        sigma_u plus a rest R (Lascoux-Schuetzenberger; the quantum terms come
        from the quantum Monk rule).  Every class in R is shorter than u, or
        of the same length and lexicographically greater, so expanding
        sigma_u = X_r sigma_v - R recursively ends.  Returns (r, v, R),
        memoised per word; raises TransitionFailure if X_r sigma_v does not
        have that shape."""
        got = self.transitions.get(ol)
        if got is not None:
            return got
        n = self.n
        r = max(i for i in range(n - 1) if ol[i] > ol[i + 1])
        s = max(j for j in range(r + 1, n) if ol[j] < ol[r])
        v = list(ol)
        v[r], v[s] = ol[s], ol[r]
        v = tuple(v)
        rest = self.apply_x(r + 1, {v: {(0,) * (n - 1): 1}})
        if rest.pop(ol, None) != {(0,) * (n - 1): 1}:
            raise TransitionFailure(f"sigma_{ol} is not a unit term of X_{r + 1} sigma_{v}")
        lu = Permutation(ol).length
        for w in rest:
            lw = Permutation(w).length
            if not (lw < lu or (lw == lu and w > ol)):
                raise TransitionFailure(f"X_{r + 1} sigma_{v} holds sigma_{w}, not below "
                                        f"sigma_{ol}")
        self.transitions[ol] = got = (r + 1, v, rest)
        return got


def _length_jump(ol: tuple[int, ...], a: int, b: int) -> int:
    """l(w t_{ab}) - l(w) for 0-based positions a < b."""
    va, vb = ol[a], ol[b]
    lo, hi = (va, vb) if va < vb else (vb, va)
    between = sum(1 for c in range(a + 1, b) if lo < ol[c] < hi)
    return (1 + 2 * between) * (1 if va < vb else -1)


@lru_cache(maxsize=None)
def monk_operators(n: int) -> MonkOperators:
    """The Monk operators of QH*(Fl_n), 2 <= n <= 8, one object per process.
    Creating it computes nothing: columns are computed per one-line word on
    first use, so no n!-sized build runs, and nothing is read from or written
    to disk.  key_identity_sweep logs the columns built and the apply_x calls
    per n at DEBUG."""
    if not (2 <= n <= _MAX_N):
        raise SizeCap(f"monk operators support 2 <= n <= {_MAX_N}, got {n}")
    return MonkOperators(n)


@dataclass
class QHClass:
    """A vector over the Schubert basis with q-polynomial coefficients."""

    ring: tuple | FlagShape  # ("complete", n) or a FlagShape
    terms: dict[Permutation, MPoly]

    def __post_init__(self):
        self.terms = {w: c for w, c in self.terms.items() if not c.is_zero()}

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "QHClass") -> "QHClass":
        assert self.ring == other.ring
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, MPoly.zero(c.table)) + c
        return QHClass(self.ring, out)

    def __sub__(self, other: "QHClass") -> "QHClass":
        return self + other.scaled(-1)

    def scaled(self, c) -> "QHClass":
        return QHClass(self.ring, {w: p * c for w, p in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (isinstance(other, QHClass) and self.ring == other.ring
                and self.terms == other.terms)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        bits = []
        for w in sorted(self.terms, key=lambda w: (w.length, w.oneline)):
            c = self.terms[w]
            cs = str(c)
            cs = f"({cs})" if ("+" in cs or "-" in cs[1:]) else cs
            bits.append(f"{cs}*s[{w}]" if cs != "1" else f"s[{w}]")
        return " + ".join(bits)

    def to_json(self):
        return {str(w): c.to_json() for w, c in
                sorted(self.terms.items(), key=lambda t: (t[0].length, t[0].oneline))}


def _vec_to_class(vec: dict[tuple, dict], n: int) -> QHClass:
    qt = q_table(n)
    terms: dict[Permutation, MPoly] = {}
    for word, poly in vec.items():
        coeffs = {}
        for b, c in poly.items():
            c = Fraction(c)
            if c.denominator != 1:
                raise NonIntegralCoefficient(f"coefficient {c} at {Permutation(word)}")
            if c:
                coeffs[b] = c
        if coeffs:
            terms[Permutation(word)] = MPoly(qt, coeffs)
    return QHClass(("complete", n), terms)


def apply_polynomial(ops: MonkOperators, poly: MPoly, vec: dict[tuple, dict]) -> dict[tuple, dict]:
    """Evaluate an element of Z[q][x] in the operators X_i, applied to vec
    (the tests' reference for class_product)."""
    n = ops.n
    memo: dict[tuple, dict[tuple, dict]] = {(0,) * n: vec}

    def power_vec(xexp: tuple) -> dict[tuple, dict]:
        if xexp in memo:
            return memo[xexp]
        i = max(idx for idx, e in enumerate(xexp) if e)
        prev = power_vec(xexp[:i] + (xexp[i] - 1,) + xexp[i + 1:])
        out = ops.apply_x(i + 1, prev)
        memo[xexp] = out
        return out

    total: dict[tuple, dict] = {}
    for e, c in poly.terms.items():
        if c.denominator != 1:
            raise NonIntegralCoefficient(str(c))
        ci = int(c)
        xexp, qexp = e[:n], e[n:]
        part = power_vec(xexp)
        for r, p in part.items():
            acc = total.setdefault(r, {})
            for b, v in p.items():
                key = tuple(x + y for x, y in zip(b, qexp)) if any(qexp) else b
                s = acc.get(key, 0) + ci * v
                if s:
                    acc[key] = s
                else:
                    del acc[key]
    return {r: p for r, p in total.items() if p}


def _transition_product(ops: MonkOperators, ol: tuple[int, ...],
                        vec: dict[tuple, dict]) -> dict[tuple, dict]:
    """sigma_u applied to vec, u with one-line word ol, by the quantum
    transition: gather the classes the recursion reaches, then evaluate them
    shortest first and, within a length, lexicographically greatest first,
    so that every class a transition subtracts is ready before it is used."""
    steps: dict[tuple, tuple | None] = {}
    todo = [ol]
    while todo:
        w = todo.pop()
        if w in steps:
            continue
        if any(a > b for a, b in zip(w, w[1:])):
            steps[w] = step = ops.transition(w)
            todo.append(step[1])
            todo.extend(step[2])
        else:
            steps[w] = None  # the identity
    done: dict[tuple, dict[tuple, dict]] = {}
    for w in sorted(steps, key=lambda w: (Permutation(w).length, tuple(-a for a in w))):
        if steps[w] is None:
            done[w] = vec
            continue
        r, v, rest = steps[w]
        out = ops.apply_x(r, done[v])
        for w2, coef in rest.items():
            for row, poly in done[w2].items():
                acc = out.setdefault(row, {})
                for b2, c2 in coef.items():
                    for b, c in poly.items():
                        key = tuple(x + y for x, y in zip(b, b2))
                        val = acc.get(key, 0) - c2 * c
                        if val:
                            acc[key] = val
                        else:
                            del acc[key]
        done[w] = {row: p for row, p in out.items() if p}
    return done[ol]


@lru_cache(maxsize=512)
def class_product(u: Permutation, v: Permutation, n: int) -> QHClass:
    """Quantum product sigma_u * sigma_v in QH*(Fl_n).

    The shorter factor is expanded by the quantum transition
    (MonkOperators.transition), sigma_u = X_r sigma_{u t_rs} minus classes
    below u, applied to the other factor's basis vector; the product needs
    Monk columns only, no quantum Schubert polynomial.
    """
    if u.n != n or v.n != n:
        raise NotInGroup(f"{u}, {v} must lie in S_{n}")
    if u.length > v.length:
        u, v = v, u
    ops = monk_operators(n)
    out = _transition_product(ops, u.oneline, {v.oneline: {(0,) * (n - 1): 1}})
    result = _vec_to_class(out, n)
    lu, lv = u.length, v.length
    for w, c in result.terms.items():
        for b in c.terms:
            if lu + lv != w.length + 2 * sum(b):
                raise AssertionError(f"grading violated at sigma_{w} q^{b} in {u}*{v}")
    return result


def omega_involution(p: MPoly, n: int) -> MPoly:
    """The involution x_k -> -x_{n+1-k}, q_k -> q_{n-k}."""
    if p.table != xq_table(n):
        raise ValueError("expected a polynomial over xq_table(n)")
    target = {}
    for k in range(1, n + 1):
        target[k - 1] = (n - k, Fraction(-1))
    for k in range(1, n):
        target[n + k - 1] = (n + (n - k) - 1, Fraction(1))
    return p.map_vars(target)


def normal_form(p: MPoly, n: int) -> QHClass:
    """Image of p in Z[q,x]/I_n^q in the quantum Schubert basis (oracle path).

    Straightening is triangular in q-degree: classically decompose each
    lowest-q slice into Schubert polynomials plus multiples of the e_i^n,
    subtract the matching quantum Schubert polynomials and ideal generators,
    and repeat on the strictly-higher-q remainder.
    """
    if n > 5:
        raise SizeCap(f"normal_form oracle supports n <= 5, got {n}")
    tab = xq_table(n)
    if p.table != tab:
        raise ValueError("expected a polynomial over xq_table(n)")
    qt = q_table(n)
    acc: dict[Permutation, dict] = {}
    work = p
    steps = 0
    while not work.is_zero():
        steps += 1
        if steps > 10_000:
            raise AssertionError("normal_form failed to terminate")
        beta = min(sum(e[n:]) for e in work.terms)
        slice_terms = {e: c for e, c in work.terms.items() if sum(e[n:]) == beta}
        sl = MPoly(tab, slice_terms)
        subtract = MPoly.zero(tab)
        for v, fv in schubert_symmetric_decompose(sl, n).items():
            for expo, qcoef in symmetric_to_e(fv, n).items():
                if not any(expo):
                    # constant-in-x part: a Schubert coefficient
                    dst = acc.setdefault(v, {})
                    for e, c in qcoef.terms.items():
                        key = e[n:]
                        s = dst.get(key, 0) + c
                        if s:
                            dst[key] = s
                        else:
                            del dst[key]
                    subtract = subtract + qcoef * quantum_schubert(v, n)
                else:
                    i0 = next(i for i, m in enumerate(expo) if m)
                    rest = MPoly.const(tab, 1)
                    for i, m in enumerate(expo):
                        mm = m - 1 if i == i0 else m
                        if mm:
                            rest = rest * _elementary(i + 1, n, n) ** mm
                    subtract = subtract + (qcoef * schubert_poly(v, n) * rest
                                           * quantum_E(i0 + 1, n, n))
        work = work - subtract
    terms: dict[Permutation, MPoly] = {}
    for v, poly in acc.items():
        coeffs = {}
        for b, c in poly.items():
            c = Fraction(c)
            if c == 0:
                continue
            if c.denominator != 1:
                raise NonIntegralCoefficient(f"normal_form coefficient {c} at {v}")
            coeffs[b] = c
        if coeffs:
            terms[v] = MPoly(qt, coeffs)
    return QHClass(("complete", n), terms)
