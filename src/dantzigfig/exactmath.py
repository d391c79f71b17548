"""Exact integer and rational matrices and fraction-free elimination.

Arithmetic is exact integer arithmetic, with `fractions.Fraction` only where
a value is not integral (the entries of a `Matrix` and of an inverse); there
is no floating point in this module. Elimination is Bareiss-style on integer
rows (a `Matrix` is scaled to integers first), so division is always exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
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

    def col(self, c: int) -> tuple[Fraction, ...]:
        return tuple(self._data[r][c] for r in range(self.rows))

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


def _integer_scaled(data: list[list[Fraction]]) -> list[list[int]]:
    # Row scaling by the lcm of denominators preserves rank and the solution
    # set of each row's equation, and lets elimination run over plain ints.
    out = []
    for row in data:
        mult = lcm(*(f.denominator for f in row)) if row else 1
        out.append([int(f * mult) for f in row])
    return out


def _bareiss_echelon(mat: Sequence[Sequence[int]]) -> tuple[list, list[int]]:
    """Fraction-free forward elimination; returns echelon rows and pivot cols.

    Pivot choice is the first row with a nonzero entry in column order, so
    intermediate states are deterministic.
    """
    m = list(mat)
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            m[r], m[pivot_row] = m[pivot_row], m[r]
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
    return m, pivots


def rank(m: Matrix) -> int:
    """Exact rank over the rationals."""
    return rank_of_rows(_integer_scaled(m.tolists()))


def rank_of_rows(rows: Sequence[Sequence[int]]) -> int:
    """Exact rank of a list of integer row vectors. The rows with a single
    nonzero entry (coordinate planes, say) add one per distinct column; that
    column is dropped from the other rows, and Bareiss elimination ranks them."""
    supports = [[c for c, a in enumerate(row) if a] for row in rows]
    units = {s[0] for s in supports if len(s) == 1}
    rest = [row for row, s in zip(rows, supports) if len(s) != 1]
    rest = [[a for c, a in enumerate(row) if c not in units] for row in rest]
    return len(units) + len(_bareiss_echelon(rest)[1])


def invert(m: Matrix) -> Matrix:
    """Exact inverse via fraction-free elimination on [m | I].

    Raises SingularError when ``m`` is not square of full rank.
    """
    if m.rows != m.cols:
        raise SingularError("matrix not square")
    n = m.rows
    if n == 0:
        return Matrix([])
    data = m.tolists()
    scaled = _integer_scaled(data)
    # Scaling row i by s_i means we invert D*A with D = diag(s); then
    # A^-1 = (D*A)^-1 * D, i.e. scale column j of the inverse by s_j.
    scales = [(lcm(*(f.denominator for f in row)) if row else 1) for row in data]
    aug = [srow + [1 if i == j else 0 for j in range(n)] for i, srow in enumerate(scaled)]
    ech, pivots = _bareiss_echelon(aug)
    if len(pivots) < n or pivots[:n] != list(range(n)):
        raise SingularError("rank deficient")
    # Back substitution over exact rationals on the echelon form.
    rows_f = [[Fraction(e) for e in row] for row in ech[:n]]
    inv_cols: list[list[Fraction]] = []
    for k in range(n):
        x: list[Fraction] = [Fraction(0)] * n
        for i in range(n - 1, -1, -1):
            acc = rows_f[i][n + k] - sum(rows_f[i][j] * x[j] for j in range(i + 1, n))
            x[i] = acc / rows_f[i][i]
        inv_cols.append(x)
    inv = Matrix(zip(*inv_cols))
    # Undo the row scaling of the input: (DA)^-1 D = A^-1.
    return Matrix([[inv[i, j] * scales[j] for j in range(n)] for i in range(n)])


def primitive_row(entries: Sequence[Fraction]) -> tuple[int, ...]:
    """Scale a rational row by a positive factor to primitive integer form."""
    fracs = [Fraction(e) for e in entries]
    if all(f == 0 for f in fracs):
        raise ValueError("zero row has no primitive form")
    mult = lcm(*(f.denominator for f in fracs))
    ints = [int(f * mult) for f in fracs]
    g = gcd(*ints)
    return tuple(v // g for v in ints)
