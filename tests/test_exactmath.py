"""Exact matrix arithmetic: rank, inversion, primitive scaling."""

from fractions import Fraction
from itertools import permutations
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dantzigfig.exactmath import (
    Matrix,
    SingularError,
    adjugate,
    invert,
    primitive_row,
    rank,
    rank_of_rows,
)

F = Fraction


def test_invert_reference_matrix():
    m = Matrix([[2, -2, -2], [-2, 3, -2], [0, -1, 3]])
    expected = Matrix(
        [
            [F(-7, 2), -4, -5],
            [-3, -3, -4],
            [-1, -1, -1],
        ]
    )
    assert invert(m) == expected
    assert invert(m) * m == Matrix.identity(3)


def test_invert_identity_and_diagonal():
    assert invert(Matrix.identity(4)) == Matrix.identity(4)
    d = Matrix([[2, 0], [0, F(1, 3)]])
    assert invert(d) == Matrix([[F(1, 2), 0], [0, 3]])


def test_invert_singular_raises():
    with pytest.raises(SingularError):
        invert(Matrix([[1, 2], [2, 4]]))
    with pytest.raises(SingularError):
        invert(Matrix([[0, 0], [1, 1]]))


def test_rank_examples():
    assert rank_of_rows([(1, 1, 1), (2, 2, 2), (0, 1, 0)]) == 2
    assert rank(Matrix([[1, 0], [0, 1]])) == 2
    assert rank_of_rows([(0, 0, 0)]) == 0
    assert rank_of_rows([]) == 0


def test_rank_equals_transpose_rank():
    m = Matrix([[1, 2, 3], [4, 5, 6], [7, 8, 9], [5, 7, 9]])
    assert rank(m) == rank(m.transpose()) == 2


def test_primitive_row():
    assert primitive_row([F(2, 3), F(4, 3)]) == (1, 2)
    assert primitive_row([-2, -4, 6]) == (-1, -2, 3)
    assert primitive_row([F(0), F(5, 7)]) == (0, 1)
    with pytest.raises(ValueError):
        primitive_row([0, 0])


def test_matrix_multiply_and_vector():
    a = Matrix([[1, 2], [3, 4]])
    b = Matrix([[0, 1], [1, 0]])
    assert a * b == Matrix([[2, 1], [4, 3]])
    assert a.mulvec([1, 1]) == (3, 7)


entries = st.integers(min_value=-6, max_value=6)


@st.composite
def square_matrices(draw, max_n=4):
    n = draw(st.integers(min_value=1, max_value=max_n))
    rows = [[draw(entries) for _ in range(n)] for _ in range(n)]
    return Matrix(rows)


@given(square_matrices())
@settings(max_examples=60, deadline=None)
def test_invert_round_trip(m):
    try:
        inv = invert(m)
    except SingularError:
        assert rank(m) < m.rows
        return
    assert inv * m == Matrix.identity(m.rows)
    assert m * inv == Matrix.identity(m.rows)


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
def test_adjugate_matches_cofactors(m):
    # referee: Leibniz determinant and the cofactor adjugate, in Fractions
    rows = m.tolists()
    n = len(rows)
    det = _leibniz(rows)
    cof = [
        [(-1) ** (i + j) * _leibniz(_minor(rows, j, i)) for j in range(n)]
        for i in range(n)
    ]
    ints = [[int(a) for a in row] for row in rows]
    if det == 0:
        with pytest.raises(SingularError):
            adjugate(ints)
        with pytest.raises(SingularError):
            invert(m)
        return
    assert adjugate(ints) == (cof, det)
    assert invert(m) == Matrix([[F(a, det) for a in row] for row in cof])


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
    # a rational matrix scaled row by row to integers, m -> D·m, has
    # adj(D·m) = det(D·m)·(D·m)^-1 = det(D·m)·m^-1·D^-1
    m = Matrix(rows)
    scales = [prod(a.denominator for a in row) for row in rows]
    ints = [[int(a * s) for a in row] for row, s in zip(rows, scales)]
    det = _leibniz(ints)
    if det == 0:
        with pytest.raises(SingularError):
            invert(m)
        return
    inv = invert(m)
    n = len(rows)
    assert inv * m == Matrix.identity(n)
    expected = [[det * inv[i, j] / scales[j] for j in range(n)] for i in range(n)]
    assert adjugate(ints) == (expected, det)


def test_adjugate_shapes():
    assert adjugate([]) == ([], 1)
    assert adjugate([[5]]) == ([[1]], 5)
    assert adjugate([[0, 1], [1, 0]]) == ([[0, -1], [-1, 0]], -1)  # one swap
    with pytest.raises(SingularError):
        adjugate([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(SingularError):
        invert(Matrix([[1, 2, 3], [4, 5, 6]]))


@given(square_matrices(max_n=3))
@settings(max_examples=40, deadline=None)
def test_rank_transpose_invariant(m):
    assert rank(m) == rank(m.transpose())
