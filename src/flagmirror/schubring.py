"""Quantum Schubert calculus in the complete-flag ring QH*(Fl_n).

Multiplication by x_i is realized by the sparse operators X_i = M_i - M_{i-1}
on the Schubert basis, keyed by one-line word, with M_k multiplication by the
divisor class sigma_{s_k} (quantum Monk rule).  The pairs of positions a < b
that M_i and M_{i-1} share cancel, so X_i sigma_w is a signed sum over the
transpositions with a = i - 1 (sign +) and with b = i - 1 (sign -).  Those
entries are computed on first use and memoised per (word, i), in memory (no
n!-sized build, no disk cache).  An operator vector is one flat dict
{(one-line word, q): int}, q the q-exponent packed 8 bits per q_k (q_1
lowest) into one int, far below 256 for n <= 8; vec_to_class unpacks it.  A
general class sigma_u acts on an operator vector by the quantum transition,
sigma_u = X_r sigma_{u t_rs} minus classes below u, recursing into the
classes it reaches (transition_product), so a product needs X_i entries
only.  product_vec memoises a product of any number of classes as such a
vector and signed_sum adds vectors, so the identity checks build no QHClass
unless a residue is nonzero.  The class of a polynomial p modulo the quantum
ideal I_n^q (normal_form) is p evaluated in the X_i on sigma_id.  Quantum
Schubert polynomials (public API) quantize the standard elementary-monomial
expansion of S_w, whose coefficients are y-divided differences of monomials
at y = 0 (one memoised integer recursion, sharing the monomial
divided-difference rule with schubert_poly).
"""

from __future__ import annotations

import itertools
import logging
import time
from dataclasses import dataclass, field
from functools import lru_cache

from .combinat import FlagShape, Permutation, word_length
from .errors import NotInGroup, SizeCap, TransitionFailure
from .exactalg import MPoly, VarTable, det

__all__ = [
    "xq_table",
    "q_table",
    "quantum_E",
    "quantum_H",
    "schubert_poly",
    "divided_difference",
    "quantum_schubert",
    "MonkOperators",
    "monk_operators",
    "class_product",
    "product_vec",
    "transition_product",
    "normal_form",
    "signed_sum",
    "vec_to_class",
    "QHClass",
]

log = logging.getLogger("flagmirror")
_MAX_N = 8


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


def _dd_terms(e: tuple[int, ...], p: int) -> list[tuple[int, tuple[int, ...]]]:
    """The terms (sign, exponent) of the divided difference
    (z^e - s z^e) / (z_a - z_b) of one monomial, where z_a and z_b sit at
    the 0-based positions p and p+1 and s swaps them."""
    a, b = e[p], e[p + 1]
    lo, hi, sgn = (b, a, 1) if a > b else (a, b, -1)
    return [(sgn, e[:p] + (t, a + b - 1 - t) + e[p + 2:]) for t in range(lo, hi)]


def divided_difference(f: MPoly, i: int, n: int) -> MPoly:
    """Divided difference (f - s_i f) / (x_i - x_{i+1}) on xq_table(n)."""
    out: dict = {}
    for e, c in f.terms.items():
        for sgn, key in _dd_terms(e, i - 1):
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


# -- quantum Schubert polynomials ---------------------------------------------


@lru_cache(maxsize=None)
def _kappa(v: tuple[int, ...], c: tuple[int, ...]) -> int:
    """[d^y_v y^c] at y = 0 for the one-line word v: with i the last descent
    of v, d_v = d_{v s_i} d_i, so the terms s y^c' of d_i y^c give
    sum s kappa(v s_i, c')."""
    i = next((p for p in range(len(v) - 2, -1, -1) if v[p] > v[p + 1]), None)
    if i is None:
        return int(not any(c))
    vs = v[:i] + (v[i + 1], v[i]) + v[i + 2:]
    return sum(s * _kappa(vs, c2) for s, c2 in _dd_terms(c, i))


@lru_cache(maxsize=None)
def quantum_schubert(w: Permutation, n: int) -> MPoly:
    """Quantum Schubert polynomial S^q_w: the standard elementary-monomial
    expansion of S_w with each e_i(x_1..x_k) replaced by E_i^k
    (Fomin-Gelfand-Postnikov, JAMS 10, 1997).  Expanding
    S_{w0}(x; y) = prod_{i+j<=n} (x_i - y_j) once in standard monomials and
    once by the Cauchy identity gives the coefficient of
    e_{i_1}^{(1)}...e_{i_{n-1}}^{(n-1)} in S_w as [d^y_{w w0} y^b]_{y=0},
    b_{n-k} = k - i_k (Kirillov-Maeno, Discrete Math. 217, 2000, for the
    quantum double form).  One DEBUG line per polynomial gives the standard
    monomials with a nonzero coefficient, its terms and its seconds."""
    if w.n != n:
        raise NotInGroup(f"{w} is not in S_{n}")
    t0 = time.perf_counter()
    v = w.oneline[::-1]  # w w0
    length = n * (n - 1) // 2 - w.length
    tab = xq_table(n)
    out = MPoly.zero(tab)
    monos = 0
    for b in itertools.product(*(range(n - j + 1) for j in range(1, n + 1))):
        if sum(b) != length:
            continue
        c = _kappa(v, b)
        if not c:
            continue
        monos += 1
        prod = MPoly.const(tab, c)
        for k in range(1, n):
            ik = k - b[n - k - 1]
            if ik:
                prod = prod * quantum_E(ik, k, n)
        out = out + prod
    log.debug("qschubert n=%d w=%s: %d standard monomials, %d terms, %.3fs", n, w, monos,
              len(out.terms), time.perf_counter() - t0)
    return out


# -- Monk operators and products ----------------------------------------------


def _q_exponent(a: int, b: int) -> int:
    """q_{a+1}..q_b, for 0-based positions a < b, as a packed q-exponent:
    8 bits per q_k, the exponent of q_{k+1} in bits 8k..8k+7."""
    return sum(1 << 8 * k for k in range(a, b))


@dataclass
class MonkOperators:
    """The operators X_i = M_i - M_{i-1} (M_0 = M_n = 0) on operator vectors
    over the Schubert basis of QH*(Fl_n), with M_k multiplication by
    sigma_{s_k}.  M_k sigma_w sums over the transpositions t_ab, a < k <= b
    (quantum Monk rule), so X_i sigma_w keeps those with a = i - 1, with
    sign +, and those with b = i - 1, with sign -.  Entries are memoised per
    (word, i), word lengths and transitions per word."""

    n: int
    # word -> [i-1] -> entries (sign, word of the image, packed q-exponent)
    x_entries: dict[tuple, list] = field(default_factory=dict, repr=False)
    # word of u -> (r, word of u t_rs, rest of X_r sigma_{u t_rs})
    transitions: dict[tuple, tuple] = field(default_factory=dict, repr=False)
    lengths: dict[tuple, int] = field(default_factory=dict, repr=False)
    build_s: float = 0.0  # seconds spent computing X entries
    x_calls: int = 0  # calls of apply_x
    products: int = 0  # products formed by product_vec

    def length(self, ol: tuple[int, ...]) -> int:
        """l(w) for the one-line word ol of w, memoised per word."""
        got = self.lengths.get(ol)
        if got is None:
            self.lengths[ol] = got = word_length(ol)
        return got

    def x_entry(self, ol: tuple[int, ...], i: int) -> list[tuple]:
        """The terms (sign, image word, packed q-exponent, 0 for no q) of
        X_i sigma_w, w with one-line word ol.  The positions a < b give
        sigma_{w t_ab} when l(w t_ab) = l(w) + 1 (no value between positions
        a and b lies between w(a) < w(b)), and q_{a+1}..q_b sigma_{w t_ab}
        when l(w t_ab) = l(w) + 1 - 2(b - a) (every value between them lies
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
                    hi, qexp = vb, 0
                elif vb < lo:
                    lo, qexp = vb, _q_exponent(min(p, b), max(p, b))
                else:
                    continue
                swapped = list(ol)
                swapped[p], swapped[b] = ol[b], ol[p]
                got.append((sign, tuple(swapped), qexp))
        row[p] = got
        self.build_s += time.perf_counter() - t0
        return got

    def apply_x(self, i: int, vec: dict[tuple, int]) -> dict[tuple, int]:
        """Apply X_i (i in 1..n) to an operator vector, dropping what cancels."""
        self.x_calls += 1
        out: dict[tuple, int] = {}
        for (word, b), c in vec.items():
            for sgn, row, qexp in self.x_entry(word, i):
                key = (row, b + qexp)
                out[key] = out.get(key, 0) + sgn * c
        return {key: c for key, c in out.items() if c}

    def transition(self, ol: tuple[int, ...]) -> tuple[int, tuple, dict[tuple, int]]:
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
        rest = self.apply_x(r + 1, {(v, 0): 1})
        if rest.pop((ol, 0), None) != 1:
            raise TransitionFailure(f"sigma_{ol} is not a unit term of X_{r + 1} sigma_{v}")
        lu = self.length(ol)
        for w, _ in rest:
            lw = self.length(w)
            if not (lw < lu or (lw == lu and w > ol)):
                raise TransitionFailure(f"X_{r + 1} sigma_{v} holds sigma_{w}, not below "
                                        f"sigma_{ol}")
        self.transitions[ol] = got = (r + 1, v, rest)
        return got


@lru_cache(maxsize=None)
def monk_operators(n: int) -> MonkOperators:
    """The Monk operators of QH*(Fl_n), 2 <= n <= 8, one object per process.
    Creating it computes nothing: X_i entries are computed per (one-line
    word, i) on first use, so no n!-sized build runs, and nothing is read
    from or written to disk.  key_identity_sweep logs the entries and
    transitions built and the apply_x calls per n at DEBUG."""
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


def vec_to_class(vec: dict[tuple, int], n: int) -> QHClass:
    """The class of an operator vector {(one-line word, packed q-exponent):
    int}, each exponent unpacked into a monomial in q_1..q_{n-1}."""
    polys: dict[tuple, dict] = {}
    for (word, b), c in vec.items():
        polys.setdefault(word, {})[tuple(b.to_bytes(n - 1, "little"))] = c
    qt = q_table(n)
    return QHClass(("complete", n), {Permutation(word): MPoly(qt, poly)
                                     for word, poly in polys.items()})


def signed_sum(pairs) -> dict[tuple, int]:
    """sum of c * vec over (c, vec) pairs, c an int and vec an operator
    vector, as one new operator vector without the terms that cancel; the
    inputs are left untouched."""
    acc: dict[tuple, int] = {}
    for sgn, vec in pairs:
        for key, c in vec.items():
            acc[key] = acc.get(key, 0) + sgn * c
    return {key: c for key, c in acc.items() if c}


def apply_polynomial(ops: MonkOperators, poly: MPoly, vec: dict[tuple, int]) -> dict[tuple, int]:
    """Evaluate an element of Z[q][x] in the operators X_i, applied to vec.
    A term x^a q^c reaches q-degree at most (|a| + 2|c|) / 2, so SizeCap is
    raised above weighted degree 511, where an exponent could pass 255."""
    n = ops.n
    memo: dict[tuple, dict[tuple, int]] = {(0,) * n: vec}

    def power_vec(xexp: tuple) -> dict[tuple, int]:
        if xexp in memo:
            return memo[xexp]
        i = max(idx for idx, e in enumerate(xexp) if e)
        prev = power_vec(xexp[:i] + (xexp[i] - 1,) + xexp[i + 1:])
        out = ops.apply_x(i + 1, prev)
        memo[xexp] = out
        return out

    total: dict[tuple, int] = {}
    for e, c in poly.terms.items():
        xexp, qexp = e[:n], e[n:]
        if sum(xexp) + 2 * sum(qexp) > 511:
            raise SizeCap(f"x^{xexp} q^{qexp} has weighted degree above 511")
        qe = int.from_bytes(bytes(qexp), "little")
        for (r, b), v in power_vec(xexp).items():
            key = (r, b + qe)
            total[key] = total.get(key, 0) + c * v
    return {key: c for key, c in total.items() if c}


def transition_product(ops: MonkOperators, ol: tuple[int, ...],
                       vec: dict[tuple, int]) -> dict[tuple, int]:
    """sigma_u applied to vec, u with one-line word ol, by the quantum
    transition sigma_u = X_r sigma_v - R (MonkOperators.transition),
    recursing into v and the classes of R down to the identity; each class
    reached is applied to vec once."""
    return _transition_apply(ops, ol, {tuple(range(ops.n)): vec})


def _transition_apply(ops: MonkOperators, w: tuple[int, ...],
                      done: dict[tuple, dict[tuple, int]]) -> dict[tuple, int]:
    """sigma_w applied to done[id], done memoising the classes applied so far
    (a closure calling itself would leave a reference cycle per call)."""
    got = done.get(w)
    if got is None:
        r, v, rest = ops.transition(w)
        out = ops.apply_x(r, _transition_apply(ops, v, done))
        for (w2, b2), c2 in rest.items():
            for (row, b), c in _transition_apply(ops, w2, done).items():
                key = (row, b + b2)
                out[key] = out.get(key, 0) - c2 * c
        done[w] = got = {key: c for key, c in out.items() if c}
    return got


@lru_cache(maxsize=16384)
def product_vec(words: tuple[tuple[int, ...], ...], n: int) -> dict[tuple, int]:
    """Quantum product sigma_{w_1} ... sigma_{w_m} in QH*(Fl_n) as an
    operator vector, the w_i given by one-line words; memoised (the 14,619
    products check_det_formula(8) looks up fit), so callers must not mutate it.
    Identity words drop out and the rest are looked up sorted by length,
    ties in the order given.  The shortest is applied by the quantum
    transition (transition_product) to the product of the rest, down to the
    basis vector of the longest.  Each product formed is checked against
    the grading (q-degree the digit sum of the packed exponent, so a carry
    trips it) and counted in MonkOperators.products."""
    if any(len(w) != n for w in words):
        raise NotInGroup(f"{words} must lie in S_{n}")
    ops = monk_operators(n)
    key = tuple(sorted(filter(ops.length, words), key=ops.length))
    if len(key) < 2:
        return {(key[0] if key else tuple(range(n)), 0): 1}
    if key != words:
        return product_vec(key, n)
    rest = product_vec(key[1:], n) if len(key) > 2 else {(key[1], 0): 1}
    out = transition_product(ops, key[0], rest)
    ops.products += 1
    degree = sum(map(ops.length, key))
    for word, b in out:
        digits = b.to_bytes(n - 1, "little")
        if degree != ops.length(word) + 2 * sum(digits):
            raise AssertionError(f"grading violated at sigma_{Permutation(word)} q^{tuple(digits)} "
                                 "in " + "*".join(str(Permutation(w)) for w in key))
    return out


# product_vec memoises the product; this memo is kept for its cache_info,
# which the benchmark's tracer (perfbench/spans.py) reads
@lru_cache(maxsize=512)
def class_product(u: Permutation, v: Permutation, n: int) -> QHClass:
    """Quantum product sigma_u * sigma_v in QH*(Fl_n): the class of
    product_vec on the one-line words of u and v."""
    return vec_to_class(product_vec((u.oneline, v.oneline), n), n)


def normal_form(p: MPoly, n: int) -> QHClass:
    """Image of p in Z[q,x]/I_n^q = QH*(Fl_n) in the quantum Schubert basis,
    2 <= n <= 8: p evaluated in the operators X_i on sigma_id, since X_i acts
    on the Schubert basis as multiplication by x_i (Fomin-Gelfand-Postnikov).
    Raises SizeCap outside the operators' range."""
    if p.table != xq_table(n):
        raise ValueError("expected a polynomial over xq_table(n)")
    ops = monk_operators(n)
    return vec_to_class(apply_polynomial(ops, p, {(tuple(range(n)), 0): 1}), n)
