"""Permutation, partition and coset combinatorics for flag shapes.

Conventions: permutation one-line words store the values ``0..n-1`` and all
in-memory index sets are 0-based.  Flag steps ``n_j``, block labels ``j`` and
the integers printed in serialized form are the 1-based quantities of the
underlying formulas; conversion happens only at parse/print time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import factorial

from .errors import InvalidRange, Not321Avoiding, NotInGroup, NotMinimalRep

__all__ = [
    "FlagShape",
    "Permutation",
    "word_length",
    "avoids_321",
    "Partition",
    "SkewShape",
    "code",
    "skew_shape_321",
    "minimal_reps",
    "is_minimal_rep",
    "min_rep_of",
    "build_xi_and_wJ",
    "all_shapes",
    "partition_of_columns",
    "columns_of_partition",
]


@dataclass(frozen=True)
class FlagShape:
    """The data (n; n_1 < ... < n_r) with derived block sizes.

    >>> s = FlagShape.from_string("2,4;7")
    >>> s.block_sizes, s.qdegs, s.dim, s.basis_size
    ((2, 2, 3), (4, 5), 16, 210)
    """

    n: int
    steps: tuple[int, ...]

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need n >= 2, got {self.n}")
        s = self.steps
        if not s or any(b >= c for b, c in zip(s, s[1:])):
            raise ValueError(f"steps must be nonempty strictly increasing, got {s}")
        if s[0] < 1 or s[-1] > self.n - 1:
            raise ValueError(f"steps must lie in [1, {self.n - 1}], got {s}")

    @property
    def r(self) -> int:
        return len(self.steps)

    @cached_property
    def _bounds(self) -> tuple[int, ...]:
        return (0, *self.steps, self.n)

    def nj(self, j: int) -> int:
        """n_j for j in 0..r+1, with n_0 = 0 and n_{r+1} = n."""
        return self._bounds[j]

    @cached_property
    def block_sizes(self) -> tuple[int, ...]:
        """a_j = n_j - n_{j-1} for j in 1..r+1."""
        return tuple(self.nj(j) - self.nj(j - 1) for j in range(1, self.r + 2))

    @cached_property
    def qdegs(self) -> tuple[int, ...]:
        """Degree of q_{n_j}: n_{j+1} - n_{j-1}, for j in 1..r."""
        return tuple(self.nj(j + 1) - self.nj(j - 1) for j in range(1, self.r + 1))

    @property
    def dim(self) -> int:
        """Dimension of the flag variety: number of free chart coordinates."""
        a = self.block_sizes
        return sum(a[i] * a[k] for i in range(len(a)) for k in range(i + 1, len(a)))

    @property
    def basis_size(self) -> int:
        """dim H^*: n! / prod a_j!."""
        out = factorial(self.n)
        for a in self.block_sizes:
            out //= factorial(a)
        return out

    @property
    def is_complete(self) -> bool:
        return self.steps == tuple(range(1, self.n))

    def block_of_position(self, pos: int) -> int:
        """1-based block label j such that n_{j-1} <= pos < n_j (pos 0-based)."""
        for j in range(1, self.r + 2):
            if pos < self.nj(j):
                return j
        raise IndexError(pos)

    @classmethod
    def from_string(cls, text: str) -> "FlagShape":
        head, _, tail = text.partition(";")
        if not tail:
            raise ValueError(f"expected 'n_1,...,n_r;n', got {text!r}")
        return cls(int(tail), tuple(int(t) for t in head.split(",")))

    def to_string(self) -> str:
        return ",".join(str(s) for s in self.steps) + f";{self.n}"

    def __str__(self) -> str:
        return self.to_string()


@dataclass(frozen=True)
class Permutation:
    """A permutation in one-line notation; values stored 0-based."""

    oneline: tuple[int, ...]

    def __post_init__(self):
        w = self.oneline
        if sorted(w) != list(range(len(w))):
            raise NotInGroup(f"not a permutation of 0..{len(w) - 1}: {w}")

    @property
    def n(self) -> int:
        return len(self.oneline)

    def __call__(self, pos: int) -> int:
        return self.oneline[pos]

    def __iter__(self):
        return iter(self.oneline)

    @cached_property
    def length(self) -> int:
        """Inversion count."""
        return word_length(self.oneline)

    @cached_property
    def inverse(self) -> "Permutation":
        w = self.oneline
        inv = [0] * len(w)
        for i, v in enumerate(w):
            inv[v] = i
        return Permutation(tuple(inv))

    @cached_property
    def is_321_avoiding(self) -> bool:
        return avoids_321(self.oneline)

    def times_transposition(self, a: int, b: int) -> "Permutation":
        """Right multiplication by t_{ab}: swap the entries in positions a, b (0-based)."""
        w = list(self.oneline)
        w[a], w[b] = w[b], w[a]
        return Permutation(tuple(w))

    def times_s(self, i: int) -> "Permutation":
        """Right multiplication by the simple reflection s_i (i 1-based)."""
        return self.times_transposition(i - 1, i)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(n)))

    @classmethod
    def longest(cls, n: int) -> "Permutation":
        return cls(tuple(reversed(range(n))))

    @classmethod
    def from_string(cls, text: str) -> "Permutation":
        text = text.strip()
        if "," in text:
            vals = [int(t) for t in text.split(",")]
        else:
            vals = [int(c) for c in text]
        return cls(tuple(v - 1 for v in vals))

    def to_string(self) -> str:
        vals = [v + 1 for v in self.oneline]
        if self.n <= 9:
            return "".join(str(v) for v in vals)
        return ",".join(str(v) for v in vals)

    def __str__(self) -> str:
        return self.to_string()


def word_length(ol: tuple[int, ...]) -> int:
    """Inversion count of a one-line word: the length of its permutation."""
    count = 0
    for i, a in enumerate(ol):
        for b in ol[i + 1:]:
            if a > b:
                count += 1
    return count


def avoids_321(ol: tuple[int, ...]) -> bool:
    """True iff the one-line word ol has no entries a > b > c in this order,
    that is iff its entries that are not left-to-right maxima increase."""
    top = low = -1
    for v in ol:
        if v > top:
            top = v
        elif v > low:
            low = v
        else:
            return False
    return True


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing nonnegative parts, optionally bounded in a k x (n-k) box."""

    parts: tuple[int, ...]
    rows: int | None = None
    cols: int | None = None

    def __post_init__(self):
        p = self.parts
        if any(a < b for a, b in zip(p, p[1:])) or (p and p[-1] < 0):
            raise ValueError(f"not weakly decreasing nonnegative: {p}")
        if self.rows is not None and len(self.trimmed()) > self.rows:
            raise ValueError(f"{p} has more than {self.rows} rows")
        if self.cols is not None and p and p[0] > self.cols:
            raise ValueError(f"{p} is wider than {self.cols}")

    def trimmed(self) -> tuple[int, ...]:
        p = self.parts
        while p and p[-1] == 0:
            p = p[:-1]
        return p

    @property
    def size(self) -> int:
        return sum(self.parts)

    def conjugate(self) -> "Partition":
        p = self.trimmed()
        if not p:
            return Partition(())
        return Partition(tuple(sum(1 for a in p if a > m) for m in range(p[0])))

    def __str__(self) -> str:
        return "(" + ",".join(str(a) for a in self.trimmed()) + ")"


@dataclass(frozen=True)
class SkewShape:
    """Skew shape lambda/mu with a strictly increasing row flag (1-based)."""

    outer: tuple[int, ...]
    inner: tuple[int, ...]
    flag: tuple[int, ...]

    def __post_init__(self):
        lam, mu, phi = self.outer, self.inner, self.flag
        if len(lam) != len(mu) or len(lam) != len(phi):
            raise ValueError("outer, inner and flag must have equal length")
        if any(m > l for l, m in zip(lam, mu)):
            raise ValueError(f"inner {mu} not contained in outer {lam}")
        if any(a >= b for a, b in zip(phi, phi[1:])):
            raise ValueError(f"flag not strictly increasing: {phi}")

    @property
    def row_lengths(self) -> tuple[int, ...]:
        return tuple(l - m for l, m in zip(self.outer, self.inner))


def code(w: Permutation) -> tuple[int, ...]:
    """Code of w: c_i = #{j > i : w(j) < w(i)}.  Sums to length(w)."""
    ol = w.oneline
    n = len(ol)
    return tuple(sum(1 for j in range(i + 1, n) if ol[j] < ol[i]) for i in range(n))


def skew_shape_321(w: Permutation) -> SkewShape:
    """Skew shape (lambda, mu, flag) attached to a 321-avoiding permutation.

    Rows are indexed by the positions with nonzero code entry; row k occupies
    the column window [k - j_k - c_{j_k} + 1, k - j_k] before right-alignment.
    Raises Not321Avoiding otherwise.
    """
    if not w.is_321_avoiding:
        raise Not321Avoiding(str(w))
    c = code(w)
    flag = tuple(i + 1 for i, ci in enumerate(c) if ci > 0)  # 1-based positions
    if not flag:
        return SkewShape((), (), ())
    lo = []
    hi = []
    for k, jk in enumerate(flag, start=1):
        cjk = c[jk - 1]
        hi.append(k - jk)
        lo.append(k - jk - cjk + 1)
    shift = 1 - min(lo)
    outer = tuple(h + shift for h in hi)
    inner = tuple(l + shift - 1 for l in lo)
    return SkewShape(outer, inner, flag)


def _ascends_in_blocks(ol: tuple[int, ...], bounds: tuple[int, ...]) -> bool:
    """True iff the word ol ascends between consecutive block bounds."""
    return all(ol[p] < ol[p + 1] for lo, hi in zip(bounds, bounds[1:]) for p in range(lo, hi - 1))


def is_minimal_rep(w: Permutation, shape: FlagShape) -> bool:
    """True iff w is increasing within every block of the shape."""
    return _ascends_in_blocks(w.oneline, shape._bounds)


def min_rep_of(w: Permutation, shape: FlagShape) -> Permutation:
    """Minimal-length representative of the coset w W_P: sort each block."""
    b = shape._bounds
    return Permutation(tuple(v for lo, hi in zip(b, b[1:]) for v in sorted(w.oneline[lo:hi])))


@lru_cache(maxsize=None)
def minimal_reps(shape: FlagShape) -> tuple[Permutation, ...]:
    """All minimal coset representatives, sorted by (length, one-line)."""
    blocks = shape.block_sizes
    reps: list[Permutation] = []

    def fill(remaining: frozenset[int], acc: tuple[int, ...], bi: int):
        if bi == len(blocks):
            reps.append(Permutation(acc))
            return
        for sub in itertools.combinations(sorted(remaining), blocks[bi]):
            fill(remaining - set(sub), acc + sub, bi + 1)

    fill(frozenset(range(shape.n)), (), 0)
    reps.sort(key=lambda p: (p.length, p.oneline))
    return tuple(reps)


def grassmannian_word(values: frozenset[int] | set[int], n: int) -> tuple[int, ...]:
    """One-line word with first |values| entries = sorted(values), rest ascending."""
    return (*sorted(values), *(v for v in range(n) if v not in values))


def build_xi_and_wJ(shape: FlagShape, j: int, i: int) -> dict[tuple[int, ...], tuple[int, ...] | None]:
    """The index set Xi and elements w_J for the middle range n-n_{j+1} < i < n-n_j.

    Keys are the subsets J (0-based value tuples) and values the one-line
    words of w_J; a value of None records the case in which w_J is undefined
    and its Schubert class contributes zero.
    """
    n, r, bounds = shape.n, shape.r, shape._bounds
    if not (1 <= j <= r - 1):
        raise InvalidRange(f"need 1 <= j <= r-1 = {r - 1}, got j={j}")
    nj, nj1, nj2 = bounds[j:j + 3]
    if not (n - nj1 < i < n - nj):
        raise InvalidRange(f"need {n - nj1} < i < {n - nj}, got i={i}")
    d = i - (n - nj1)
    a = nj2 - nj1

    # the words are built 0-based: J a subset of [0, i) avoiding [n_j + d, n)
    out: dict[tuple[int, ...], tuple[int, ...] | None] = {}
    for J in itertools.combinations(range(min(i, nj + d)), d):
        xs = tuple(x for x in range(i) if x not in J)
        if nj >= d:
            head = J + tuple(range(i, i + nj - d)) + (xs[0],) + tuple(range(i + nj - d, n - 1))
        elif xs[0] < J[nj]:
            head = J[:nj] + (xs[0],) + J[nj:] + tuple(range(i, n - 1))
        else:
            out[J] = None
            continue
        oneline = head + xs[1:a] + (n - 1,) + xs[a:]  # head: the first two blocks
        if not _ascends_in_blocks(oneline, bounds):
            raise NotMinimalRep(f"w_J = {Permutation(oneline)} escaped W^P "
                                f"for J={tuple(v + 1 for v in J)}")
        out[J] = oneline
    return out


def all_shapes(n: int) -> list[FlagShape]:
    """Every flag shape with the given n (all nonempty step subsets of [1, n-1])."""
    out = []
    for r in range(1, n):
        for steps in itertools.combinations(range(1, n), r):
            out.append(FlagShape(n, steps))
    return out


def partition_of_columns(cols, n: int) -> Partition:
    """Partition lambda(J) attached to a 0-based column subset of [0, n)."""
    ks = sorted(cols)
    m = len(ks)
    parts = tuple(ks[m - 1 - t] - (m - 1 - t) for t in range(m))
    return Partition(parts, rows=m, cols=n - m)


def columns_of_partition(p: Partition, k: int, n: int) -> frozenset[int]:
    """Inverse of partition_of_columns for partitions in the k x (n-k) box."""
    parts = list(p.parts) + [0] * (k - len(p.parts))
    if len(parts) != k:
        raise ValueError(f"partition {p} has more than {k} parts")
    return frozenset(parts[k - 1 - t] + t for t in range(k))
