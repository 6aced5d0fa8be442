import itertools
from math import comb, factorial

import pytest
from tests_support import build_xi_and_wJ_reference, reduced_word

from flagmirror.combinat import (
    FlagShape,
    Permutation,
    all_shapes,
    avoids_321,
    build_xi_and_wJ,
    code,
    columns_of_partition,
    is_minimal_rep,
    min_rep_of,
    minimal_reps,
    partition_of_columns,
    skew_shape_321,
)
from flagmirror.errors import InvalidRange, Not321Avoiding, NotInGroup


def P(s):
    return Permutation.from_string(s)


def test_code_examples():
    assert code(P("1526347")) == (0, 3, 0, 2, 0, 0, 0)
    assert code(P("2516347")) == (1, 3, 0, 2, 0, 0, 0)
    assert code(Permutation.identity(5)) == (0,) * 5


def test_code_sums_to_length_exhaustive():
    for n in range(1, 7):
        for ol in itertools.permutations(range(n)):
            w = Permutation(ol)
            assert sum(code(w)) == w.length


def test_skew_shape_examples():
    s = skew_shape_321(P("1526347"))
    assert (s.outer, s.inner, s.flag) == ((3, 2), (0, 0), (2, 4))
    s = skew_shape_321(P("2516347"))
    assert (s.outer, s.inner, s.flag) == ((3, 3, 2), (2, 0, 0), (1, 2, 4))
    s = skew_shape_321(P("3516247"))
    assert (s.outer, s.inner, s.flag) == ((3, 3, 2), (1, 0, 0), (1, 2, 4))


def test_avoids_321_matches_the_triples():
    # the scan against the definition: no positions i < j < k with
    # w(i) > w(j) > w(k)
    for n in range(1, 8):
        for ol in itertools.permutations(range(n)):
            want = not any(a > b > c for a, b, c in itertools.combinations(ol, 3))
            assert avoids_321(ol) == want == Permutation(ol).is_321_avoiding, ol


def test_skew_shape_rejects_non_avoiding():
    with pytest.raises(Not321Avoiding):
        skew_shape_321(P("321"))


def test_skew_row_lengths_match_code():
    for n in range(2, 7):
        for ol in itertools.permutations(range(n)):
            w = Permutation(ol)
            if not w.is_321_avoiding:
                continue
            s = skew_shape_321(w)
            nonzero = tuple(c for c in code(w) if c > 0)
            assert s.row_lengths == nonzero


def test_permutation_validation_and_serialization():
    with pytest.raises(NotInGroup):
        Permutation((0, 0, 2))
    w = P("1526347")
    assert w.to_string() == "1526347"
    big = Permutation(tuple(range(11))[::-1])
    assert Permutation.from_string(big.to_string()) == big
    assert "," in big.to_string()


def test_reduced_words():
    for n in range(2, 6):
        for ol in itertools.permutations(range(n)):
            w = Permutation(ol)
            word = reduced_word(w)
            assert len(word) == w.length
            acc = Permutation.identity(n)
            for i in word:
                acc = acc.times_s(i)
            assert acc == w


def test_minimal_reps_counts():
    assert len(minimal_reps(FlagShape(4, (1, 2)))) == 12
    assert len(minimal_reps(FlagShape(7, (2, 4)))) == 210
    for n in range(2, 7):
        for k in range(1, n):
            assert len(minimal_reps(FlagShape(n, (k,)))) == comb(n, k)


def test_minimal_reps_properties():
    for n in range(2, 7):
        for shape in all_shapes(n):
            reps = minimal_reps(shape)
            expected = factorial(n)
            for a in shape.block_sizes:
                expected //= factorial(a)
            assert len(reps) == expected
            assert all(is_minimal_rep(w, shape) for w in reps)
            lengths = [w.length for w in reps]
            assert lengths == sorted(lengths)


def test_min_rep_of():
    shape = FlagShape(4, (2,))
    assert min_rep_of(P("2143"), shape) == P("1234")
    assert min_rep_of(P("4231"), shape) == P("2413")


def test_build_xi_and_wJ_fl247():
    shape = FlagShape(7, (2, 4))
    table = build_xi_and_wJ(shape, 1, 4)
    by_J = {tuple(v + 1 for v in J): w for J, w in table.items()}
    assert by_J == {
        (1,): P("1526347").oneline,
        (2,): P("2516347").oneline,
        (3,): P("3516247").oneline,
    }


def test_build_xi_and_wJ_range_errors():
    shape = FlagShape(7, (2, 4))
    with pytest.raises(InvalidRange):
        build_xi_and_wJ(shape, 1, 5)  # i = n - n_1 is out of the open range
    with pytest.raises(InvalidRange):
        build_xi_and_wJ(shape, 2, 4)  # j must be at most r-1


def test_build_xi_and_wJ_matches_reference_n8():
    # every shape and legal (j, i) with n <= 8, keys, values and order
    count = 0
    for n in range(3, 9):
        for shape in all_shapes(n):
            for j in range(1, shape.r):
                for i in range(n - shape.nj(j + 1) + 1, n - shape.nj(j)):
                    got = build_xi_and_wJ(shape, j, i)
                    want = build_xi_and_wJ_reference(shape, j, i)
                    assert list(got.items()) == list(want.items()), (shape, j, i)
                    count += 1
    assert count == 303


def test_wJ_all_321_avoiding_and_minimal():
    for n in range(3, 7):
        for shape in all_shapes(n):
            for j in range(1, shape.r):
                for i in range(n - shape.nj(j + 1) + 1, n - shape.nj(j)):
                    for J, w in build_xi_and_wJ(shape, j, i).items():
                        if w is None:
                            continue
                        w = Permutation(w)
                        assert w.is_321_avoiding
                        assert is_minimal_rep(w, shape)


def test_wJ_brute_force_cross_check_135():
    # shape (1,3;5), j=1, i=3 (d=1): J avoids [n_j+d+1, n] = [3, 5], so
    # Xi = {{1}, {2}}; every defined w_J must be a 321-avoiding minimal rep
    shape = FlagShape(5, (1, 3))
    table = build_xi_and_wJ(shape, 1, 3)
    assert set(tuple(v + 1 for v in J) for J in table) == {(1,), (2,)}
    reps = set(minimal_reps(shape))
    for J, w in table.items():
        if w is not None:
            w = Permutation(w)
            assert w in reps and w.is_321_avoiding


def test_case1_with_J1_starts_at_one():
    # d = 1 and J = {1}: case (1) puts the value 1 in the first position
    shape = FlagShape(7, (2, 4))
    table = build_xi_and_wJ(shape, 1, 4)
    assert table[(0,)][0] == 0


def test_partition_bijection():
    p = partition_of_columns({0, 3, 5}, 7)
    assert p.trimmed() == (3, 2)
    assert columns_of_partition(p, 3, 7) == frozenset({0, 3, 5})
    for n in range(2, 8):
        for k in range(1, n):
            for K in itertools.combinations(range(n), k):
                lam = partition_of_columns(K, n)
                assert columns_of_partition(lam, k, n) == frozenset(K)


def test_flagshape_derived_data():
    s = FlagShape.from_string("2,4;7")
    assert s.block_sizes == (2, 2, 3)
    # the degrees n_{j+1} - n_{j-1} of the q_{n_j}, which are also the
    # weights of c_1 = sum_j qdegs[j-1] sigma_{s_{n_j}}
    assert s.qdegs == (4, 5)
    assert FlagShape.from_string("2;5").qdegs == (5,)
    assert FlagShape.from_string("1,2;3").qdegs == (2, 2)
    assert s.dim == 2 * 2 + 2 * 3 + 2 * 3
    assert s.basis_size == 210
    assert s.to_string() == "2,4;7"
    with pytest.raises(ValueError):
        FlagShape(4, (2, 2))
    with pytest.raises(ValueError):
        FlagShape(4, (0, 2))
    with pytest.raises(ValueError):
        FlagShape(4, (4,))
