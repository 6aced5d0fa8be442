"""Shared helpers for the test suite, among them the straightening oracle
that the Monk-operator route of `flagmirror.schubring` is checked against
(built on the classical Schubert polynomials by divided differences, which
also check the q = 0 part of `flagmirror.schubring.quantum_schubert`), the
Monk-rule columns M_k that its signed X_i entries are checked against,
the 1-based construction of the w_J that `flagmirror.combinat.build_xi_and_wJ`
is checked against, the per-pair quantum Chevalley rule that the tables of
`flagmirror.qhpartial.partial_ring` are checked against, the middle terms
by the L-operator sums that `flagmirror.mirror.young_view` is checked
against, the recursive first-row Laplace determinant that
`flagmirror.exactalg.det` and the chart minors are checked against, the
minor of a submatrix by `flagmirror.exactalg.det`, the
per-matrix Crout loop that the batched `flagmirror.exactalg.lu_unipotent` is
checked against, the lambda evaluator that the generated chart evaluator of
`flagmirror.mirror` is checked against, the per-candidate chart lift and
per-point Toeplitz residual that the batched ones of `flagmirror.crit` are
checked against, the random Toeplitz multistart that the character route
of `flagmirror.crit` is checked against, and the LAPACK eigenvalues that
the c_1 spectrum of `flagmirror.qhpartial.fiber_spectrum` is checked
against."""

import itertools
import random
from fractions import Fraction
from functools import lru_cache

import numpy as np

from flagmirror.combinat import Permutation, is_minimal_rep, min_rep_of
from flagmirror.crit import _lift_frame, _Search, _toeplitz_system, toeplitz_scaling
from flagmirror.errors import (
    ConvergenceFailure,
    DimensionMismatch,
    InvalidRange,
    NearPole,
    NotInGroup,
    NotMinimalRep,
    PivotFailure,
    SizeCap,
)
from flagmirror.exactalg import MPoly, det, leading_minors
from flagmirror.mirror import (
    POLE_GUARD,
    SuperpotentialTerm,
    _fixed_entries,
    index_term_to_young,
    pluecker_columns,
    pluecker_table,
    superpotential,
    symbolic_z,
    young_name,
    young_table,
    z_from_vector,
    zchart,
)
from flagmirror.qhpartial import _length_jump
from flagmirror.schubring import (
    MonkOperators,
    QHClass,
    _dd_terms,
    q_table,
    quantum_E,
    quantum_schubert,
    xq_table,
)


def laplace_det(rows):
    """Determinant by recursive expansion along the first row: n! products,
    no sharing of minors."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        sub = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * laplace_det(sub)
        total = total + term if j % 2 == 0 else total - term
    return total


def minor(M, rows, cols):
    """det of the submatrix of M on the given 0-based rows and columns, in
    the order given; 1 for empty sets, DimensionMismatch for sets of
    different sizes."""
    return det([[M[i][j] for j in cols] for i in rows])


def fraction_inverse(A):
    """Exact inverse of a rational matrix by Gauss-Jordan elimination."""
    n = len(A)
    M = [row[:] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(A)]
    for c in range(n):
        piv = next(r for r in range(c, n) if M[r][c] != 0)
        M[c], M[piv] = M[piv], M[c]
        pv = M[c][c]
        M[c] = [v / pv for v in M[c]]
        for r in range(n):
            if r != c and M[r][c] != 0:
                f = M[r][c]
                M[r] = [a - f * b for a, b in zip(M[r], M[c])]
    return [row[n:] for row in M]


# -- straightening of symmetric polynomials and Schubert decomposition -------


@lru_cache(maxsize=None)
def sorted_perms(n: int) -> tuple[Permutation, ...]:
    """Every permutation of S_n, by length and then one-line word."""
    perms = [Permutation(p) for p in itertools.permutations(range(n))]
    perms.sort(key=lambda w: (w.length, w.oneline))
    return tuple(perms)


def reduced_word(w: Permutation) -> tuple[int, ...]:
    """A reduced word (i_1, ..., i_m) of 1-based simple-reflection labels
    with w = s_{i_1} ... s_{i_m}."""
    v = list(w.oneline)
    word: list[int] = []
    # bubble: repeatedly remove the leftmost descent from the right end of the word
    changed = True
    while changed:
        changed = False
        for i in range(len(v) - 1):
            if v[i] > v[i + 1]:
                v[i], v[i + 1] = v[i + 1], v[i]
                word.append(i + 1)
                changed = True
                break
    word.reverse()
    return tuple(word)


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


def apply_dd_word(f: MPoly, word: tuple[int, ...], n: int) -> MPoly:
    """Compose divided differences along a reduced word (rightmost first)."""
    for i in reversed(word):
        if f.is_zero():
            break
        f = divided_difference(f, i, n)
    return f


@lru_cache(maxsize=None)
def _elementary(i: int, k: int, n: int) -> MPoly:
    """Classical e_i(x_1..x_k) inside xq_table(n)."""
    tab = xq_table(n)
    if i == 0:
        return MPoly.const(tab, 1)
    if i < 0 or i > k:
        return MPoly.zero(tab)
    return _elementary(i, k - 1, n) + MPoly.var(tab, f"x{k}") * _elementary(i - 1, k - 1, n)


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
    for w in sorted_perms(n):
        by_len.setdefault(w.length, []).append(w)
    for level in range(min(maxlen, n * (n - 1) // 2), -1, -1):
        if rem.is_zero():
            break
        found = []
        for v in by_len[level]:
            fv = apply_dd_word(rem, reduced_word(v), n)
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


def omega_involution(p: MPoly, n: int) -> MPoly:
    """The involution x_k -> -x_{n+1-k}, q_k -> q_{n-k}."""
    if p.table != xq_table(n):
        raise ValueError("expected a polynomial over xq_table(n)")
    target = {}
    for k in range(1, n + 1):
        target[k - 1] = (n - k, -1)
    for k in range(1, n):
        target[n + k - 1] = (n + (n - k) - 1, 1)
    return p.map_vars(target)


def straighten(p: MPoly, n: int) -> QHClass:
    """Image of p in Z[q,x]/I_n^q in the quantum Schubert basis, by
    straightening, independently of the Monk operators.

    Straightening is triangular in q-degree: classically decompose each
    lowest-q slice into Schubert polynomials plus multiples of the e_i^n,
    subtract the matching quantum Schubert polynomials and ideal generators,
    and repeat on the strictly-higher-q remainder.
    """
    if n > 5:
        raise SizeCap(f"straightening oracle supports n <= 5, got {n}")
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
            raise AssertionError("straighten failed to terminate")
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
    for v, coeffs in acc.items():
        if any(type(c) is not int for c in coeffs.values()):
            raise AssertionError(f"straighten coefficient not an int at {v}: {coeffs}")
        if coeffs:
            terms[v] = MPoly(qt, coeffs)
    return QHClass(("complete", n), terms)


# -- the Monk rule as columns M_1..M_{n-1} -----------------------------------


@lru_cache(maxsize=None)
def monk_column(ol: tuple[int, ...]) -> list[list[tuple]]:
    """Monk's rule at sigma_w for the one-line word ol of w: M_k sends
    sigma_w to the sum over positions a < k <= b (1-based k) of
    sigma_{w t_ab} when l(w t_ab) = l(w) + 1 (no value between positions
    a and b lies between w(a) < w(b)), and of q_a..q_{b-1} sigma_{w t_ab}
    when l(w t_ab) = l(w) + 1 - 2(b - a) (every value between them lies
    between w(b) < w(a)).  Returns the entry lists (one-line word of the
    image, q-exponent) of M_1..M_{n-1}."""
    n = len(ol)
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
    return cols


def monk_apply(k: int, vec: dict[tuple, int]) -> dict[tuple, int]:
    """Apply M_k (k in 1..n-1) to an operator vector {(word, packed
    q-exponent): int}, the exponent of q_{j+1} in byte j."""
    out: dict[tuple, int] = {}
    for (word, b), c in vec.items():
        for row, qexp in monk_column(word)[k - 1]:
            key = (row, b + int.from_bytes(bytes(qexp), "little"))
            v = out.get(key, 0) + c
            if v:
                out[key] = v
            else:
                del out[key]
    return out


class MonkColumnOperators(MonkOperators):
    """The Monk operators with X_i = M_i - M_{i-1} (M_0 = M_n = 0) formed
    as two column applies and a cancelling merge: the oracle route that the
    signed X_i entries of `MonkOperators` are checked against."""

    def apply_x(self, i, vec):
        self.x_calls += 1
        out = monk_apply(i, vec) if 1 <= i < self.n else {}
        if i >= 2:
            for key, c in monk_apply(i - 1, vec).items():
                v = out.get(key, 0) - c
                if v:
                    out[key] = v
                else:
                    del out[key]
        return out


# -- the w_J of the key identity, built on 1-based values ----------------------


def build_xi_and_wJ_reference(shape, j: int, i: int):
    """`build_xi_and_wJ` as the 1-based block lists of its defining formula,
    each w_J checked by `is_minimal_rep` and returned as its one-line word."""
    n, r = shape.n, shape.r
    if not (1 <= j <= r - 1):
        raise InvalidRange(f"need 1 <= j <= r-1 = {r - 1}, got j={j}")
    nj, nj1, nj2 = shape.nj(j), shape.nj(j + 1), shape.nj(j + 2)
    if not (n - nj1 < i < n - nj):
        raise InvalidRange(f"need {n - nj1} < i < {n - nj}, got i={i}")
    d = i - (n - nj1)
    out = {}
    top = min(i, nj + d)  # J subset of [i] avoiding [n_j+d+1, n]
    for J1 in itertools.combinations(range(1, top + 1), d):  # 1-based values
        xs = [x for x in range(1, i + 1) if x not in J1]
        if nj >= d:
            b1 = list(J1) + list(range(i + 1, i + nj - d + 1))
            b2 = [xs[0]] + list(range(i + nj - d + 1, n))
            b3 = xs[1:nj2 - nj1] + [n]
            b4 = xs[nj2 - nj1:]
        elif xs[0] < J1[nj]:
            b1 = list(J1[:nj])
            b2 = [xs[0]] + list(J1[nj:]) + list(range(i + 1, n))
            b3 = xs[1:nj2 - nj1] + [n]
            b4 = xs[nj2 - nj1:]
        else:
            out[tuple(v - 1 for v in J1)] = None
            continue
        w = Permutation(tuple(v - 1 for v in b1 + b2 + b3 + b4))
        if not is_minimal_rep(w, shape):
            raise NotMinimalRep(f"w_J = {w} escaped W^P for J={J1}")
        out[tuple(v - 1 for v in J1)] = w.oneline
    return out


# -- the quantum Chevalley rule, one transposition at a time -------------------


def chevalley_terms(w: Permutation, j: int, shape):
    """Yield (target permutation, q-exponent vector) of sigma_{s_{n_j}} *
    sigma_w: per transposition t_ab, 1-based a <= n_j < b, the classical term
    when l(w t_ab) = l(w) + 1 and w t_ab is a minimal representative, and the
    quantum term q^d(a,b) sigma_{min rep of w t_ab} when that representative
    has length l(w) + 1 - sum_m d_m (n_{m+1} - n_{m-1})."""
    n, r = shape.n, shape.r
    nj = shape.nj(j)
    ol = w.oneline
    qdegs = shape.qdegs
    for a in range(1, nj + 1):
        for b in range(nj + 1, n + 1):
            jump = _length_jump(ol, a - 1, b - 1)
            if jump == 1:
                wt = w.times_transposition(a - 1, b - 1)
                if is_minimal_rep(wt, shape):
                    yield wt, (0,) * r
            d = tuple(1 if a <= shape.nj(m) < b else 0 for m in range(1, r + 1))
            drop = sum(dm * qd for dm, qd in zip(d, qdegs))
            wmin = min_rep_of(w.times_transposition(a - 1, b - 1), shape)
            if wmin.length == w.length + 1 - drop:
                yield wmin, d


# -- the partition-indexed superpotential by the L-operator sums --------------


def _yvar(shape, k: int, parts) -> MPoly:
    return MPoly.var(young_table(shape), young_name(k, parts))


def _yvar_or_zero(shape, k: int, parts) -> MPoly:
    parts = list(parts)
    while parts and parts[-1] == 0:
        parts.pop()
    if len(parts) > k or (parts and parts[0] > shape.n - k):
        return MPoly.zero(young_table(shape))
    return _yvar(shape, k, parts)


def _conjugate(parts) -> tuple[int, ...]:
    """The conjugate partition, without trailing zeros."""
    return tuple(sum(1 for a in parts if a > m) for m in range(max(parts, default=0)))


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


def _join_rect_above(shape, l: int, rect_rows: int, nu) -> MPoly:
    """p^{(l)} of the vertical join ((n-l)^{rect_rows}, nu), or zero if it is
    not a partition inside the l x (n-l) box."""
    n = shape.n
    nu = [p for p in nu if p > 0]
    if nu and nu[0] > n - l:
        return MPoly.zero(young_table(shape))
    if rect_rows + len(nu) > l:
        return MPoly.zero(young_table(shape))
    return _yvar_or_zero(shape, l, [n - l] * rect_rows + nu)


def _L_denominator(shape, j: int, m: int) -> MPoly:
    """L(p^(k)_{k x m rect} . p^(l)_{(l-m) x (n-l) rect})."""
    k, l = shape.nj(j), shape.nj(j + 1)
    out = MPoly.zero(young_table(shape))
    for mu in _partitions_in_box(k, m):
        sgn = (-1) ** (sum(mu) + k * m)
        tail = tuple(m - mu[k - 1 - t] for t in range(k))  # (m-mu_k, ..., m-mu_1)
        joined = _join_rect_above(shape, l, l - m, list(_conjugate(tail)))
        if joined.is_zero():
            continue
        out = out + sgn * _yvar_or_zero(shape, k, list(mu)) * joined
    return out


def _L_numerator(shape, j: int, m: int) -> MPoly:
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
        joined = _join_rect_above(shape, l, l - m, list(_conjugate(tail)))
        if joined.is_zero():
            continue
        out = out + sgn * _yvar_or_zero(shape, k, list(mu)) * joined
    return out


def young_view_L(shape) -> tuple[SuperpotentialTerm, ...]:
    """The superpotential over partition-indexed Plucker symbols as the
    paper's appendix writes it: the plain term families re-indexed through
    lambda(J), the middle terms S_i^(j) rebuilt from the L-operator sums."""
    out = []
    for term in superpotential(shape):
        if term.family != "u-mid":
            out.append(index_term_to_young(term, shape))
            continue
        i, j = term.index
        m = i - shape.nj(j)
        num = _L_numerator(shape, j, m)
        den = _L_denominator(shape, j, m)
        out.append(SuperpotentialTerm("u-mid", (i, j), num, den, term.divisor_k).normalized(shape))
    return tuple(out)


# -- the superpotential chart as one lambda per polynomial -------------------


def as_pyfunc(p: MPoly):
    """Compile p to a python function of one sequence argument."""
    if p.is_zero():
        return lambda z: 0.0
    parts = []
    for e, c in p.terms.items():
        factors = [repr(c)]
        for i, k in enumerate(e):
            if k == 1:
                factors.append(f"z[{i}]")
            elif k:
                factors.append(f"z[{i}]**{k}")
        parts.append("*".join(factors))
    return eval("lambda z: " + "+".join(parts))  # noqa: S307 - generated from exact data


class LambdaChart:
    """The chart evaluator of F_- as one lambda per N, D and partial of every
    term, summed by Python loops over numpy scalars, with the q prefactor
    stripped from the exponents: the route that the generated evaluator of
    `FMinusChart` replaced, and must match bit for bit."""

    def __init__(self, shape):
        self.r, self.dim = shape.r, shape.dim
        ptab = pluecker_table(shape)
        minors = leading_minors(symbolic_z(shape), shape.steps[-1])
        pvals = [0] * shape.r + [minors[K] for K in pluecker_columns(shape)]
        self.terms = []
        for term in superpotential(shape):
            qj = term.index[0] if term.family == "quantum" else None
            num = term.numerator
            if qj is not None:
                qidx = qj - 1  # q_{n_j} is symbol j - 1 of the table
                stripped = {}
                for e, c in num.terms.items():
                    assert e[qidx] == 1
                    stripped[e[:qidx] + (0,) + e[qidx + 1:]] = c
                num = MPoly(ptab, stripped)
            N, D = num.substitute(pvals), term.denominator.substitute(pvals)
            grads_n = [N.derivative(a) for a in range(self.dim)]
            grads_d = [D.derivative(a) for a in range(self.dim)]
            self.terms.append({
                "qj": qj, "N": as_pyfunc(N), "D": as_pyfunc(D),
                "Na": [as_pyfunc(g) for g in grads_n],
                "Da": [as_pyfunc(g) for g in grads_d],
                "Nab": [[as_pyfunc(grads_n[a].derivative(b)) for b in range(a + 1)]
                        for a in range(self.dim)],
                "Dab": [[as_pyfunc(grads_d[a].derivative(b)) for b in range(a + 1)]
                        for a in range(self.dim)],
            })

    def _prefactors(self, q):
        pref = {None: 1.0 + 0j}
        for j in range(1, self.r + 1):
            pref[j] = complex(q[j - 1])
        return pref

    def _nd(self, t, zvec):
        nv, dv = t["N"](zvec), t["D"](zvec)
        if abs(dv) < POLE_GUARD * (1.0 + abs(nv)):
            raise NearPole(f"denominator {abs(dv):.3e}")
        return nv, dv

    def term_values(self, zvec):
        return [(t["N"](zvec), t["D"](zvec)) for t in self.terms]

    def value(self, zvec, q) -> complex:
        pref = self._prefactors(q)
        total = 0j
        for t in self.terms:
            nv, dv = self._nd(t, zvec)
            total += pref[t["qj"]] * nv / dv
        return total

    def gradient(self, zvec, q) -> np.ndarray:
        pref = self._prefactors(q)
        g = np.zeros(self.dim, dtype=complex)
        for t in self.terms:
            nv, dv = self._nd(t, zvec)
            c = pref[t["qj"]]
            inv2 = 1.0 / (dv * dv)
            for a in range(self.dim):
                g[a] += c * (t["Na"][a](zvec) * dv - nv * t["Da"][a](zvec)) * inv2
        return g

    def hessian(self, zvec, q) -> np.ndarray:
        pref = self._prefactors(q)
        dim = self.dim
        H = np.zeros((dim, dim), dtype=complex)
        for t in self.terms:
            nv, dv = self._nd(t, zvec)
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


# -- the Toeplitz lift and residual, one candidate at a time -----------------


def chart_point_from_toeplitz(shape, x, q, tol: float = 1e-5):
    """The chart lift of the Toeplitz matrix T with diagonals x, by the
    per-candidate route that `crit._lift_batch` replaced: factor
    t^{-1} T = V W U with V, U upper-triangular around the representative W
    of w_P^{-1} w_0, and read the chart coordinates off z = (t^{-1} T) U^{-1}.
    Returns None when T sits in a smaller stratum (vanishing pivot,
    non-finite U, U not unipotent to an absolute tol, or broken chart
    pattern)."""
    n = len(x)
    T = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(i + 1):
            T[i, j] = x[i - j]
    _, W_inv, pivot_row, above = _lift_frame(shape)
    b = np.diag(1.0 / toeplitz_scaling(shape, q)) @ T
    A = b.astype(complex).copy()
    for c, ic in enumerate(pivot_row):
        piv = A[ic, c]
        if abs(piv) < 1e-10:
            return None
        for i in above[c]:
            A[i, :] -= (A[i, c] / piv) * A[ic, :]
    U = W_inv @ A
    scale = max(1.0, float(np.abs(U).max()))
    if float(np.abs(np.tril(U, -1)).max()) > tol * scale:
        return None
    if float(np.abs(np.diag(U) - 1).max()) > tol:  # U not unipotent: a wrong root x_0
        return None
    if not np.isfinite(U).all():
        return None
    try:
        z = b @ np.linalg.inv(U)
    except np.linalg.LinAlgError:  # singular U
        return None
    coords = zchart(shape)
    vec = np.array([z[r, c] for r, c in coords])
    rebuilt = np.zeros((n, n), dtype=complex)
    for k, (r, c) in enumerate(coords):
        rebuilt[r, c] = vec[k]
    for r, c, sign in _fixed_entries(shape):
        rebuilt[r, c] = sign
    if float(np.abs(rebuilt - z).max()) > tol * max(1.0, float(np.abs(z).max())):
        return None
    return vec


def reference_lu(A):
    """A = L U with U unipotent upper-triangular, for one complex matrix,
    by the Crout loop: column j of L, then row j of U, each entry one inner
    product with the factors found so far.  Raises PivotFailure at a pivot
    below 1e-12 times the largest entry of A (1e-12 when A is zero)."""
    A = np.array(A, dtype=complex)
    n = len(A)
    scale = float(np.abs(A).max()) or 1.0
    L, U = np.zeros((n, n), dtype=complex), np.eye(n, dtype=complex)
    for j in range(n):
        for i in range(j, n):
            L[i, j] = A[i, j] - sum((L[i, k] * U[k, j] for k in range(j)), 0j)
        if abs(L[j, j]) < 1e-12 * scale:
            raise PivotFailure(f"leading principal minor {j + 1} vanishes")
        for jj in range(j + 1, n):
            U[j, jj] = (A[j, jj] - sum((L[j, k] * U[k, jj] for k in range(j)), 0j)) / L[j, j]
    return L, U


def eigenvalues(M) -> np.ndarray:
    """Eigenvalues with multiplicity of a square complex matrix, by LAPACK's
    nonsymmetric QR (numpy.linalg.eigvals); the trace consistency check
    guards against a silently bad result."""
    arr = np.array(M, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got {arr.shape}")
    try:
        vals = np.linalg.eigvals(arr)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from None
    if abs(vals.sum() - np.trace(arr)) > 1e-8 * (1.0 + float(np.sum(np.abs(vals)))):
        raise ConvergenceFailure("eigenvalue sum disagrees with trace")
    return vals


def toeplitz_residual_loop(shape, vec, q) -> float:
    """The Toeplitz residual of one chart vector by the per-point loop that
    `crit._toeplitz_residuals` replaced: `reference_lu`, then the diameter of
    every diagonal pair by pair; inf where a leading minor vanishes."""
    try:
        L, _ = reference_lu(z_from_vector(shape, vec))
    except PivotFailure:
        return float("inf")
    T = np.diag(toeplitz_scaling(shape, q)) @ np.asarray(L)
    n = shape.n
    scale = float(np.abs(T).max()) or 1.0
    worst = 0.0
    for d in range(n):
        diag = [T[i + d, i] for i in range(n - d)]
        for a in range(len(diag)):
            for b in range(a + 1, len(diag)):
                worst = max(worst, abs(diag[a] - diag[b]))
    return worst / scale


# -- the random Toeplitz multistart ------------------------------------------

START_BOX = (0.2, 2.0)  # start moduli are uniform in this box, arguments in [0, 2 pi)


def solve_toeplitz_system(F, x0, maxiter: int = 200, tol: float = 1e-13,
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


def multistart_points(shape, q, seed: int, starts=None):
    """The critical points of the q-fiber by random-start Newton on the
    reduced Toeplitz system alone, each new solution lifted and screened by
    a `crit._Search` and certified by its `certify`: the independent
    cross-check of the character route.  ``starts=None`` means 100x the
    Schubert-basis size; the starts stop early once at least that many lifts
    are kept and ``max(200, 3 * basis_size)`` starts in a row added none."""
    search = _Search(shape, [complex(v) for v in q])
    system, m = _toeplitz_system(shape, search.q)
    n, expected, rng = shape.n, shape.basis_size, random.Random(seed)
    lo, hi = START_BOX
    solutions: list = []
    idle, idle_cap = 0, max(200, 3 * expected)
    for _ in range(starts if starts is not None else 100 * expected):
        if idle >= idle_cap and len(search.lifts) >= expected:
            break
        # draw all n diagonals, so that the random stream does not depend on m
        x0 = [(lo + (hi - lo) * rng.random()) * np.exp(2j * np.pi * rng.random())
              for _ in range(n)]
        y = solve_toeplitz_system(system, x0[:n - m])
        idle += 1
        if y is None or any(np.linalg.norm(y - s) <= 1e-8 * (1 + np.linalg.norm(s))
                            for s in solutions):
            continue
        solutions.append(y)
        kept = len(search.lifts)
        search._lift(np.concatenate([y, np.zeros(m, dtype=complex)])[None], "cluster")
        if len(search.lifts) > kept:
            idle = 0
    return search.certify()
