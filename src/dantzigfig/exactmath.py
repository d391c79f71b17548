"""Exact integer and rational matrices and fraction-free elimination.

Arithmetic is exact integer arithmetic, with `fractions.Fraction` only where
a value is not integral (the entries of a `Matrix` and of an inverse); there
is no floating point in this module. Elimination is Bareiss-style on integer
rows (a `Matrix` is scaled to integers first), so division is always exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

Rational = Fraction


class SingularError(ValueError):
    """Raised when a matrix expected to be invertible is rank-deficient."""


class Matrix:
    """Dense exact-rational matrix (immutable after construction)."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, entries: Iterable[Iterable]):
        data = [[Fraction(e) for e in row] for row in entries]
        if any(len(row) != len(data[0]) for row in data):
            raise ValueError("ragged rows")
        self._data = data
        self.rows = len(data)
        self.cols = len(data[0]) if data else 0

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __getitem__(self, rc: tuple[int, int]) -> Fraction:
        r, c = rc
        return self._data[r][c]

    def tolists(self) -> list[list[Fraction]]:
        return [list(r) for r in self._data]

    def transpose(self) -> "Matrix":
        return Matrix(zip(*self._data)) if self.rows else Matrix([])

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._data == other._data
        )

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        ot = list(zip(*other._data))
        return Matrix(
            [[sum(a * b for a, b in zip(row, col)) for col in ot] for row in self._data]
        )

    def mulvec(self, vec: Sequence) -> tuple[Fraction, ...]:
        v = [Fraction(x) for x in vec]
        if self.cols != len(v):
            raise ValueError("shape mismatch")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self._data)

    def __repr__(self):
        return f"Matrix({self.tolists()!r})"


def _integer_scaled(data: list[list[Fraction]]) -> tuple[list[list[int]], list[int]]:
    # Row scaling by the lcm of denominators preserves rank and the solution
    # set of each row's equation, and lets elimination run over plain ints.
    scales = [lcm(*(f.denominator for f in row)) for row in data]
    return [[int(f * s) for f in row] for row, s in zip(data, scales)], scales


def bareiss_echelon(mat: Sequence[Sequence[int]]) -> tuple[list, list[int], int]:
    """Fraction-free forward elimination: echelon rows, pivot columns, and
    the sign of the row permutation applied.

    Pivot choice is the first row with a nonzero entry in column order, so
    the pivot columns are the first independent columns, in order.
    """
    m = list(mat)
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    prev = sign = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            m[r], m[pivot_row] = m[pivot_row], m[r]
            sign = -sign
        row_r = m[r]
        pivot = row_r[c]
        for i in range(r + 1, nrows):
            head = m[i][c]
            # Bareiss update: exact integer division by the previous pivot
            # (columns before c are zero in rows r.. and stay zero)
            m[i] = [(pivot * a - head * b) // prev for a, b in zip(m[i], row_r)]
        prev = pivot
        pivots.append(c)
        r += 1
    return m, pivots, sign


def rank(m: Matrix) -> int:
    """Exact rank over the rationals."""
    return rank_of_rows(_integer_scaled(m.tolists())[0])


def rank_of_rows(rows: Sequence[Sequence[int]]) -> int:
    """Exact rank of a list of integer row vectors. The rows with a single
    nonzero entry (coordinate planes, say) add one per distinct column; that
    column is dropped from the other rows, and Bareiss elimination ranks them."""
    supports = [[c for c, a in enumerate(row) if a] for row in rows]
    units = {s[0] for s in supports if len(s) == 1}
    rest = [row for row, s in zip(rows, supports) if len(s) != 1]
    rest = [[a for c, a in enumerate(row) if c not in units] for row in rest]
    return len(units) + len(bareiss_echelon(rest)[1])


def adjugate(mat: Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
    """Adjugate and determinant of a square integer matrix: adj·m = det·I.

    Bareiss elimination on [m | I] leaves U·x = c with last pivot det; the
    back substitution y_i = (det·c_i - sum U_ij y_j) / U_ii divides exactly,
    as y = det·x is integral (Cramer's rule). Raises SingularError unless
    m is square of full rank.
    """
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise SingularError("matrix not square")
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(mat)]
    ech, pivots, sign = bareiss_echelon(aug)
    if pivots[:n] != list(range(n)):
        raise SingularError("rank deficient")
    det = ech[n - 1][n - 1] if n else 1
    cols = []
    for k in range(n):
        y = [0] * n
        for i, row in reversed(list(enumerate(ech))):
            done = sum(map(mul, row[i + 1 : n], y[i + 1 :]))
            y[i] = (det * row[n + k] - done) // row[i]
        cols.append(y)
    # y = det(P·m)·m^-1 for the row permutation P, and det(P·m) = sign·det(m)
    return [[sign * y for y in row] for row in zip(*cols)], sign * det


def invert(m: Matrix) -> Matrix:
    """Exact inverse adj(D·m)·D / det(D·m), where the diagonal D scales the
    rows of m to integers. Raises SingularError unless m is square of full
    rank."""
    ints, scales = _integer_scaled(m.tolists())
    adj, det = adjugate(ints)
    return Matrix([[Fraction(a * s, det) for a, s in zip(r, scales)] for r in adj])


def primitive_row(entries: Sequence[Fraction]) -> tuple[int, ...]:
    """Scale a rational row by a positive factor to primitive integer form."""
    fracs = [Fraction(e) for e in entries]
    if all(f == 0 for f in fracs):
        raise ValueError("zero row has no primitive form")
    mult = lcm(*(f.denominator for f in fracs))
    ints = [int(f * mult) for f in fracs]
    g = gcd(*ints)
    return tuple(v // g for v in ints)
