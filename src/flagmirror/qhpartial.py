"""Quantum cohomology of partial flag varieties: Schubert basis over the
minimal coset representatives, quantum Chevalley multiplication by the
divisor classes, the first Chern class, and its operator spectrum at numeric
quantum parameters.

The general (non-Grassmannian) quantum Chevalley rule used here: for each
transposition t_{ab} with a <= n_j < b, the quantum part contributes
q^{d(a,b)} sigma_{w'} where d(a,b)_m = 1 iff a <= n_m < b and w' is the
minimal representative of w t_{ab} W_P, subject to
l(w') = l(w) + 1 - sum_m d_m (n_{m+1} - n_{m-1}).  The rule is stated once,
as the integer table ``PartialRing.chevalley_cols``, and every numeric
divisor operator is built from it by ``PartialRing.divisor_combination``.
The cross-checks run on that table: the Grassmannian quantum Pieri rule,
the classical limit, the complete-flag quantum Monk rule, the rule applied
one transposition at a time, and the mirror spectrum tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .combinat import FlagShape, Permutation, minimal_reps
from .errors import InvalidRange
from .exactalg import complex_to_json, eigenvalues

__all__ = [
    "PartialRing",
    "partial_ring",
    "c1_matrix",
    "c1_spectrum",
    "spectrum_report",
    "validate_q",
]


def _length_jump(ol: tuple[int, ...], a: int, b: int) -> int:
    """l(w t_{ab}) - l(w) for 0-based positions a < b."""
    va, vb = ol[a], ol[b]
    lo, hi = (va, vb) if va < vb else (vb, va)
    between = sum(1 for c in range(a + 1, b) if lo < ol[c] < hi)
    return (1 + 2 * between) * (1 if va < vb else -1)


def _chevalley_cols(shape: FlagShape, basis: tuple[Permutation, ...], j: int) -> dict:
    """Column -> ((row, q-exponent vector), ...) of sigma_{s_{n_j}} * sigma_w
    over the basis.  The q-degree d(a,b) and the length change 1 - drop of a
    quantum term depend on the transposition alone, so they are computed once
    per shape; a pair with l(w) + jump < l(w) + 1 - drop cannot give one,
    since l(min rep of w t_ab) <= l(w t_ab).  Only the blocks of a and b need
    sorting, and lengths are read off the basis."""
    n, r = shape.n, shape.r
    nj, qdegs = shape.nj(j), shape.qdegs
    blocks = [slice(shape.nj(m - 1), shape.nj(m)) for m in range(1, r + 2)]
    block_of = [next(blk for blk in blocks if blk.start <= p < blk.stop) for p in range(n)]
    pairs = []
    for a in range(nj):  # 0-based a < n_j <= b
        for b in range(nj, n):
            d = tuple(int(a < shape.nj(m) <= b) for m in range(1, r + 1))
            pairs.append((a, b, d, 1 - sum(dm * qd for dm, qd in zip(d, qdegs)),
                          (block_of[a], block_of[b])))
    index = {w.oneline: i for i, w in enumerate(basis)}
    lengths = [w.length for w in basis]
    zero = (0,) * r
    cols = {}
    for ci, w in enumerate(basis):
        ol = w.oneline
        entries = []
        for a, b, d, need, ab_blocks in pairs:
            jump = _length_jump(ol, a, b)
            if jump < need:  # no term at all: drop >= 2, so need < 1
                continue
            swapped = list(ol)
            swapped[a], swapped[b] = ol[b], ol[a]
            if jump == 1:
                row = index.get(tuple(swapped))  # None unless a minimal rep
                if row is not None:
                    entries.append((row, zero))
            for blk in ab_blocks:
                swapped[blk] = sorted(swapped[blk])
            row = index[tuple(swapped)]
            if lengths[row] == lengths[ci] + need:
                entries.append((row, d))
        cols[ci] = tuple(entries)
    return cols


@dataclass(frozen=True)
class PartialRing:
    """Schubert basis and divisor multiplication matrices for one shape."""

    shape: FlagShape
    basis: tuple[Permutation, ...]
    chevalley_cols: tuple  # per j: dict col -> ((row, qexp), ...)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def index(self, w: Permutation) -> int:
        return self.basis.index(w)

    def chevalley_matrix(self, j: int, q) -> np.ndarray:
        """Numeric matrix of multiplication by sigma_{s_{n_j}} at the given q,
        one value per step; q = 0 is allowed, the classical limit."""
        if not 1 <= j <= self.shape.r:
            raise InvalidRange(f"divisor index j={j} outside 1..{self.shape.r} "
                               f"for {self.shape.to_string()}")
        q = [complex(v) for v in q]
        _check_per_step(self.shape, q, "quantum parameter")
        dim = self.dim
        M = np.zeros((dim, dim), dtype=complex)
        for col, entries in self.chevalley_cols[j - 1].items():
            for row, d in entries:
                val = 1.0 + 0j
                for dm, qv in zip(d, q):
                    if dm:
                        val *= qv ** dm
                M[row, col] += val
        return M

    def divisor_combination(self, weights, q) -> np.ndarray:
        """Numeric matrix of sum_j weights[j-1] sigma_{s_{n_j}} * at q, summed
        from a zero matrix in j order."""
        _check_per_step(self.shape, weights, "weight")
        M = np.zeros((self.dim, self.dim), dtype=complex)
        for j, w in enumerate(weights, 1):
            M += w * self.chevalley_matrix(j, q)
        return M


@lru_cache(maxsize=None)
def partial_ring(shape: FlagShape) -> PartialRing:
    basis = minimal_reps(shape)
    cols = tuple(_chevalley_cols(shape, basis, j) for j in range(1, shape.r + 1))
    return PartialRing(shape=shape, basis=basis, chevalley_cols=cols)


def c1_matrix(shape: FlagShape, q) -> np.ndarray:
    """Matrix of quantum multiplication by c_1 = sum_j (n_{j+1} - n_{j-1})
    sigma_{s_{n_j}} at numeric q on the Schubert basis, the weights being the
    degrees ``shape.qdegs``."""
    return partial_ring(shape).divisor_combination(shape.qdegs, q)


def _check_per_step(shape: FlagShape, values, what: str) -> None:
    """Raise ValueError unless values has one finite number per step."""
    if len(values) != shape.r:
        raise ValueError(f"{shape.to_string()} takes one {what} per step "
                         f"({shape.r}), got {len(values)}")
    if not all(math.isfinite(v.real) and math.isfinite(v.imag) for v in map(complex, values)):
        raise ValueError(f"{what}s must be finite, got {list(values)}")


def validate_q(shape: FlagShape, q) -> list[complex]:
    """q as a list of complex numbers, one finite nonzero q_{n_j} per step
    n_j of shape; raises ValueError otherwise."""
    q = [complex(v) for v in q]
    _check_per_step(shape, q, "quantum parameter")
    if not all(q):
        raise ValueError("all quantum parameters must be nonzero")
    return q


def c1_spectrum(shape: FlagShape, q) -> np.ndarray:
    """Eigenvalues (with multiplicity) of quantum multiplication by c_1."""
    return eigenvalues(c1_matrix(shape, validate_q(shape, q)))


def spectrum_report(shape: FlagShape, q) -> dict:
    vals = sorted(c1_spectrum(shape, q), key=lambda z: (round(z.real, 9), round(z.imag, 9)))
    return {
        "shape": shape.to_string(),
        "q": [complex_to_json(v) for v in q],
        "eigenvalues": [complex_to_json(v) for v in vals],
        "dim": partial_ring(shape).dim,
    }
