"""Exact matrix arithmetic: rank, inversion, primitive scaling."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dantzigfig.exactmath import (
    Matrix,
    SingularError,
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


@given(square_matrices(max_n=3))
@settings(max_examples=40, deadline=None)
def test_rank_transpose_invariant(m):
    assert rank(m) == rank(m.transpose())
