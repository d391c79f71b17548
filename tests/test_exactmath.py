"""Exact integer matrix arithmetic: rank, adjugate, inversion, primitive
vectors."""

from fractions import Fraction
from itertools import permutations
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dantzigfig.exactmath import (
    SingularError,
    adjugate,
    invert,
    primitive,
    rank_of_rows,
)

F = Fraction


def _product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def test_invert_reference_matrix():
    m = [[2, -2, -2], [-2, 3, -2], [0, -1, 3]]
    expected = [
        [F(-7, 2), -4, -5],
        [-3, -3, -4],
        [-1, -1, -1],
    ]
    assert invert(m) == expected
    assert _product(invert(m), m) == _identity(3)


def test_invert_identity_and_diagonal():
    assert invert(_identity(4)) == _identity(4)
    assert invert([[2, 0], [0, 3]]) == [[F(1, 2), 0], [0, F(1, 3)]]


def test_invert_singular_raises():
    with pytest.raises(SingularError):
        invert([[1, 2], [2, 4]])
    with pytest.raises(SingularError):
        invert([[0, 0], [1, 1]])


def test_rank_examples():
    assert rank_of_rows([(1, 1, 1), (2, 2, 2), (0, 1, 0)]) == 2
    assert rank_of_rows([[1, 0], [0, 1]]) == 2
    assert rank_of_rows([(0, 0, 0)]) == 0
    assert rank_of_rows([]) == 0


def test_rank_equals_transpose_rank():
    m = [[1, 2, 3], [4, 5, 6], [7, 8, 9], [5, 7, 9]]
    assert rank_of_rows(m) == rank_of_rows(list(zip(*m))) == 2


def test_rank_memo_is_keyed_by_the_reduced_system_and_bounded():
    from dantzigfig import exactmath

    memo = exactmath._reduced_rank
    memo.cache_clear()
    # other unit rows, the same system (2, 4), (1, 2) once they are split off
    assert rank_of_rows([(1, 0, 0), (0, 2, 4), (0, 1, 2)]) == 2
    assert rank_of_rows([(0, 0, 5), (2, 4, 0), (1, 2, 0)]) == 2
    assert memo.cache_info()[:2] == (1, 1)  # hits, misses
    size = exactmath.RANK_MEMO_SIZE
    assert [rank_of_rows([(k, 1), (1, k)]) for k in range(size + 8)] == [2, 1] + [2] * (size + 6)
    assert memo.cache_info().currsize == size


def test_primitive():
    assert primitive([2, 4]) == (1, 2)
    assert primitive([-2, -4, 6]) == (-1, -2, 3)
    assert primitive([0, 5]) == (0, 1)
    assert primitive((3,)) == (1,) and primitive((-3,)) == (-1,)
    assert all(type(a) is int for a in primitive([6, 9]))
    with pytest.raises(ValueError, match="zero row"):
        primitive([0, 0])


entries = st.integers(min_value=-6, max_value=6)


@st.composite
def square_matrices(draw, max_n=4):
    n = draw(st.integers(min_value=1, max_value=max_n))
    return [[draw(entries) for _ in range(n)] for _ in range(n)]


@given(square_matrices())
@settings(max_examples=60, deadline=None)
def test_invert_round_trip(m):
    try:
        inv = invert(m)
    except SingularError:
        assert rank_of_rows(m) < len(m)
        return
    assert _product(inv, m) == _identity(len(m))
    assert _product(m, inv) == _identity(len(m))


def _leibniz(rows):
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * prod(rows[i][perm[i]] for i in range(n))
    return total


def _minor(rows, i, j):
    """rows without row i and column j"""
    return [
        [a for c, a in enumerate(row) if c != j]
        for r, row in enumerate(rows)
        if r != i
    ]


@given(square_matrices())
@settings(max_examples=60, deadline=None)
def test_adjugate_matches_cofactors(rows):
    # referee: Leibniz determinant and the cofactor adjugate
    n = len(rows)
    det = _leibniz(rows)
    cof = [
        [(-1) ** (i + j) * _leibniz(_minor(rows, j, i)) for j in range(n)]
        for i in range(n)
    ]
    if det == 0:
        with pytest.raises(SingularError):
            adjugate(rows)
        with pytest.raises(SingularError):
            invert(rows)
        return
    assert adjugate(rows) == (cof, det)
    assert invert(rows) == [[F(a, det) for a in row] for row in cof]


rationals = st.builds(F, st.integers(-6, 6), st.integers(1, 4))


@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n
        )
    )
)
@settings(max_examples=60, deadline=None)
def test_adjugate_is_det_times_inverse_on_rational_matrices(rows):
    # a rational matrix m scaled row by row to integers, D·m, has
    # m^-1 = (D·m)^-1·D and adj(D·m) = det(D·m)·(D·m)^-1
    scales = [prod(a.denominator for a in row) for row in rows]
    ints = [[int(a * s) for a in row] for row, s in zip(rows, scales)]
    det = _leibniz(ints)
    if det == 0:
        with pytest.raises(SingularError):
            invert(ints)
        return
    inv = invert(ints)
    inv_m = [[a * s for a, s in zip(row, scales)] for row in inv]
    assert _product(inv_m, rows) == _identity(len(rows))
    assert adjugate(ints) == ([[det * a for a in row] for row in inv], det)


def test_adjugate_shapes():
    assert adjugate([]) == ([], 1)
    assert adjugate([[5]]) == ([[1]], 5)
    assert adjugate([[0, 1], [1, 0]]) == ([[0, -1], [-1, 0]], -1)  # one swap
    with pytest.raises(SingularError):
        adjugate([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(SingularError):
        invert([[1, 2, 3], [4, 5, 6]])


@given(square_matrices(max_n=3))
@settings(max_examples=40, deadline=None)
def test_rank_transpose_invariant(m):
    assert rank_of_rows(m) == rank_of_rows(list(zip(*m)))
