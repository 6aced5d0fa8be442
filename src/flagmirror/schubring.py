"""Quantum Schubert calculus in the complete-flag ring QH*(Fl_n).

Multiplication by x_i is realized by the sparse operators X_i = M_i - M_{i-1}
on the Schubert basis, keyed by one-line word, with M_k multiplication by the
divisor class sigma_{s_k} (quantum Monk rule).  The pairs of positions a < b
that M_i and M_{i-1} share cancel, so X_i sigma_w is a signed sum over the
transpositions with a = i - 1 (sign +) and with b = i - 1 (sign -).  Those
entries are computed on first use and memoised per (word, i), in memory (no
n!-sized build, no disk cache).  A general class sigma_u acts on an operator
vector ({word: {q-exponent: int}}) by the quantum transition, sigma_u =
X_r sigma_{u t_rs} minus classes below u, along a plan memoised per u
(transition_product), so a product needs X_i entries only.  product_vec
memoises sigma_u * sigma_v as such a vector and signed_sum adds vectors, so
the identity checks build no QHClass unless a residue is nonzero.  The class
of a polynomial p modulo the quantum ideal I_n^q (normal_form) is p evaluated
in the X_i on sigma_id.  Quantum Schubert polynomials come from the standard
elementary-monomial expansion, a Z-basis, computed by exact integer
elimination and checked by multiplying back; they serve the public API.
"""

from __future__ import annotations

import itertools
import logging
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import add

import numpy as np

from .combinat import FlagShape, Permutation, word_length
from .errors import (ExpansionFailure, NonIntegralCoefficient, NotInGroup, SizeCap,
                     TransitionFailure)
from .exactalg import MPoly, VarTable, _quo, det

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
    "product_vec",
    "transition_product",
    "normal_form",
    "signed_sum",
    "sorted_perms",
    "vec_to_class",
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


@lru_cache(maxsize=None)
def sorted_perms(n: int) -> tuple[Permutation, ...]:
    perms = [Permutation(p) for p in itertools.permutations(range(n))]
    perms.sort(key=lambda w: (w.length, w.oneline))
    return tuple(perms)


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


def elementary_expand(p: MPoly, n: int) -> dict[tuple[int, ...], int | Fraction]:
    """Expand a q-free polynomial in standard elementary monomials
    e_{i_1..i_{n-1}} with 0 <= i_k <= k; raises if p is outside their span.
    A coefficient is an int when integral, else a Fraction."""
    out: dict[tuple[int, ...], int | Fraction] = {}
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
                out[imono] = _quo(c, scale)
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
        if type(c) is not int:
            raise NonIntegralCoefficient(f"e-expansion of {w}: {c}")
        prod = MPoly.const(tab, c)
        for k, ik in enumerate(imono, start=1):
            if ik:
                prod = prod * quantum_E(ik, k, n)
        out = out + prod
    return out


# -- Monk operators and products ----------------------------------------------


def _accumulate(acc: dict, poly: dict, c: int, qexp: tuple | None) -> None:
    """acc += c q^qexp poly on q-polynomials {q-exponent: int}, dropping the
    terms that cancel; qexp None stands for q^0."""
    for b, v in poly.items():
        key = tuple(map(add, b, qexp)) if qexp else b
        s = acc.get(key, 0) + c * v
        if s:
            acc[key] = s
        else:
            del acc[key]


@lru_cache(maxsize=None)
def _q_exponent(n: int, a: int, b: int) -> tuple[int, ...]:
    """The exponent of q_{a+1}..q_b, for 0-based positions a < b."""
    return tuple(int(a <= k < b) for k in range(n - 1))


@dataclass
class MonkOperators:
    """The operators X_i = M_i - M_{i-1} (M_0 = M_n = 0) on the Schubert
    basis of QH*(Fl_n), on sparse vectors keyed by one-line word, with M_k
    multiplication by sigma_{s_k}.  M_k sigma_w sums over the transpositions
    t_ab, a < k <= b (quantum Monk rule), so X_i sigma_w keeps those with
    a = i - 1, with sign +, and those with b = i - 1, with sign -.  The
    signed entries are memoised per (word, i); word lengths, transitions and
    product plans per word."""

    n: int
    # word -> [i-1] -> entries (sign, word of the image, q-exponent or None)
    x_entries: dict[tuple, list] = field(default_factory=dict, repr=False)
    # word of u -> (r, word of u t_rs, rest of X_r sigma_{u t_rs})
    transitions: dict[tuple, tuple] = field(default_factory=dict, repr=False)
    # word of u -> the steps that expand sigma_u, in evaluation order
    plans: dict[tuple, list] = field(default_factory=dict, repr=False)
    lengths: dict[tuple, int] = field(default_factory=dict, repr=False)
    build_s: float = 0.0  # seconds spent computing X entries
    x_calls: int = 0  # calls of apply_x

    def length(self, ol: tuple[int, ...]) -> int:
        """l(w) for the one-line word ol of w, memoised per word."""
        got = self.lengths.get(ol)
        if got is None:
            self.lengths[ol] = got = word_length(ol)
        return got

    def x_entry(self, ol: tuple[int, ...], i: int) -> list[tuple]:
        """The terms (sign, image word, q-exponent or None) of X_i sigma_w,
        w with one-line word ol.  The positions a < b give sigma_{w t_ab}
        when l(w t_ab) = l(w) + 1 (no value between positions a and b lies
        between w(a) < w(b)), and q_{a+1}..q_b sigma_{w t_ab} when
        l(w t_ab) = l(w) + 1 - 2(b - a) (every value between them lies
        between w(b) < w(a)).  Each side of position p = i - 1 is one scan;
        the side b = p is the side a = p with positions reversed and values
        complemented."""
        row = self.x_entries.get(ol)
        if row is None:
            self.x_entries[ol] = row = [None] * self.n
        got = row[i - 1]
        if got is not None:
            return got
        t0 = time.perf_counter()
        n, p = self.n, i - 1
        got = []
        for sign, others in ((1, range(p + 1, n)), (-1, range(p - 1, -1, -1))):
            vals = ol if sign > 0 else [n - 1 - v for v in ol]
            vp = lo = vals[p]  # lo: least value passed; -1 once one exceeds vp
            hi = n  # least value above vp passed
            for b in others:
                vb = vals[b]
                if vb > vp:
                    lo = -1
                    if vb >= hi:
                        continue
                    hi, qexp = vb, None
                elif vb < lo:
                    lo, qexp = vb, _q_exponent(n, min(p, b), max(p, b))
                else:
                    continue
                swapped = list(ol)
                swapped[p], swapped[b] = ol[b], ol[p]
                got.append((sign, tuple(swapped), qexp))
        row[p] = got
        self.build_s += time.perf_counter() - t0
        return got

    def apply_x(self, i: int, vec: dict[tuple, dict]) -> dict[tuple, dict]:
        """Apply X_i (i in 1..n) to a sparse vector of q-polynomials."""
        self.x_calls += 1
        out: dict[tuple, dict] = {}
        for word, poly in vec.items():
            for sgn, row, qexp in self.x_entry(word, i):
                _accumulate(out.setdefault(row, {}), poly, sgn, qexp)
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
        lu = self.length(ol)
        for w in rest:
            lw = self.length(w)
            if not (lw < lu or (lw == lu and w > ol)):
                raise TransitionFailure(f"X_{r + 1} sigma_{v} holds sigma_{w}, not below "
                                        f"sigma_{ol}")
        self.transitions[ol] = got = (r + 1, v, rest)
        return got

    def plan(self, ol: tuple[int, ...]) -> list[tuple]:
        """The classes the transition recursion of sigma_u reaches, u with
        one-line word ol, as (word, transition or None for the identity),
        shortest first and, within a length, lexicographically greatest
        first, so that every class a transition subtracts comes before its
        use.  Memoised per word."""
        got = self.plans.get(ol)
        if got is not None:
            return got
        steps: dict[tuple, tuple | None] = {}
        todo = [ol]
        while todo:
            w = todo.pop()
            if w in steps:
                continue
            if self.length(w):
                steps[w] = step = self.transition(w)
                todo.append(step[1])
                todo.extend(step[2])
            else:
                steps[w] = None
        order = sorted(steps, reverse=True)
        order.sort(key=self.length)  # stable: lexicographically greatest first per length
        self.plans[ol] = got = [(w, steps[w]) for w in order]
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
    Creating it computes nothing: X_i entries are computed per (one-line
    word, i) on first use, so no n!-sized build runs, and nothing is read
    from or written to disk.  key_identity_sweep logs the entries,
    transitions and plans built and the apply_x calls per n at DEBUG."""
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


def vec_to_class(vec: dict[tuple, dict], n: int) -> QHClass:
    """The class of an operator vector, whose coefficients are ints."""
    qt = q_table(n)
    return QHClass(("complete", n), {Permutation(word): MPoly(qt, poly)
                                     for word, poly in vec.items()})


def signed_sum(pairs) -> dict[tuple, dict]:
    """sum of c * vec over (c, vec) pairs, c an int and vec an operator
    vector, as one new operator vector without the terms that cancel; the
    inputs are left untouched."""
    acc: dict[tuple, dict] = {}
    for sgn, vec in pairs:
        for word, poly in vec.items():
            _accumulate(acc.setdefault(word, {}), poly, sgn, None)
    return {word: p for word, p in acc.items() if p}


def apply_polynomial(ops: MonkOperators, poly: MPoly, vec: dict[tuple, dict]) -> dict[tuple, dict]:
    """Evaluate an element of Z[q][x] in the operators X_i, applied to vec."""
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
        if type(c) is not int:  # a true fraction: MPoly keeps integral ones as int
            raise NonIntegralCoefficient(str(c))
        xexp, qexp = e[:n], e[n:]
        for r, p in power_vec(xexp).items():
            _accumulate(total.setdefault(r, {}), p, c, qexp if any(qexp) else None)
    return {r: p for r, p in total.items() if p}


def transition_product(ops: MonkOperators, ol: tuple[int, ...],
                        vec: dict[tuple, dict]) -> dict[tuple, dict]:
    """sigma_u applied to vec, u with one-line word ol, by the quantum
    transition along the plan of u (MonkOperators.plan)."""
    done: dict[tuple, dict[tuple, dict]] = {}
    for w, step in ops.plan(ol):
        if step is None:
            done[w] = vec
            continue
        r, v, rest = step
        out = ops.apply_x(r, done[v])
        for w2, coef in rest.items():
            for row, poly in done[w2].items():
                acc = out.setdefault(row, {})
                for b2, c2 in coef.items():
                    _accumulate(acc, poly, -c2, b2 if any(b2) else None)
        done[w] = {row: p for row, p in out.items() if p}
    return done[ol]


@lru_cache(maxsize=1024)
def product_vec(u_word: tuple[int, ...], v_word: tuple[int, ...], n: int) -> dict[tuple, dict]:
    """Quantum product sigma_u * sigma_v in QH*(Fl_n) as an operator vector,
    u and v given by one-line words; memoised, so callers must not mutate
    the result.

    The shorter factor is expanded by the quantum transition
    (MonkOperators.transition), sigma_u = X_r sigma_{u t_rs} minus classes
    below u, applied to the other factor's basis vector along the plan of u
    (MonkOperators.plan); the product needs X_i entries only, no quantum
    Schubert polynomial.  Every term is checked against the grading.
    """
    if len(u_word) != n or len(v_word) != n:
        raise NotInGroup(f"{u_word}, {v_word} must lie in S_{n}")
    ops = monk_operators(n)
    lu, lv = ops.length(u_word), ops.length(v_word)
    if lu > lv:
        u_word, v_word = v_word, u_word
    out = transition_product(ops, u_word, {v_word: {(0,) * (n - 1): 1}})
    for word, poly in out.items():
        lw = ops.length(word)
        for b in poly:
            if lu + lv != lw + 2 * sum(b):
                raise AssertionError(f"grading violated at sigma_{Permutation(word)} q^{b} "
                                     f"in {Permutation(u_word)}*{Permutation(v_word)}")
    return out


# product_vec memoises the product; this memo is kept for its cache_info,
# which the benchmark's tracer (perfbench/spans.py) reads
@lru_cache(maxsize=512)
def class_product(u: Permutation, v: Permutation, n: int) -> QHClass:
    """Quantum product sigma_u * sigma_v in QH*(Fl_n): the class of
    product_vec on the one-line words of u and v."""
    return vec_to_class(product_vec(u.oneline, v.oneline, n), n)


def normal_form(p: MPoly, n: int) -> QHClass:
    """Image of p in Z[q,x]/I_n^q = QH*(Fl_n) in the quantum Schubert basis,
    2 <= n <= 8: p evaluated in the operators X_i on sigma_id, since X_i acts
    on the Schubert basis as multiplication by x_i (Fomin-Gelfand-Postnikov).
    Raises SizeCap outside the operators' range."""
    if p.table != xq_table(n):
        raise ValueError("expected a polynomial over xq_table(n)")
    ops = monk_operators(n)
    return vec_to_class(apply_polynomial(ops, p, {tuple(range(n)): {(0,) * (n - 1): 1}}), n)
