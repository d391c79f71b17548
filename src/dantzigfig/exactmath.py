"""Exact integer linear algebra by fraction-free elimination.

Matrices are lists of integer rows. One Bareiss elimination gives the rank,
the pivot columns and, by an integer back substitution, the adjugate and
determinant, so an inverse is kept as integer rows over one denominator
(adj·m = det·I) and division is always exact. `primitive` divides an
integer vector by its gcd. `fractions.Fraction` appears only in the entries
`invert` returns. There is no floating point in this module.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import mul
from typing import Sequence


class SingularError(ValueError):
    """Raised when a matrix expected to be invertible is rank-deficient."""


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


# Reduced systems whose rank the memo keeps. Adjacency takes no rank, so the
# memo serves the vertex certificates of `incidence` alone: the oracle's
# check (d) rereads them through HRep.tight_rank. In a verify call of the
# frontier suites at d = 40, theta = (3,3,3,2,...,2), the 821 grlex
# certificates reduce to 80 distinct systems, so this many keep all 741 hits
# of an unbounded memo; the 821 grevlex systems are all distinct, so no size
# gets a hit there, and an unbounded memo would keep them all: peak RSS
# 32.8 -> 35.5 MiB.
RANK_MEMO_SIZE = 256


def rank_of_rows(rows: Sequence[Sequence[int]]) -> int:
    """Exact rank of a list of integer row vectors. The rows with a single
    nonzero entry (coordinate planes, say) add one per distinct column; that
    column is dropped from the other rows, and Bareiss elimination ranks them.
    Many systems repeat once reduced, so each distinct reduced system is
    eliminated once while it stays in the memo (_reduced_rank)."""
    supports = [[c for c, a in enumerate(row) if a] for row in rows]
    units = {s[0] for s in supports if len(s) == 1}
    rest = tuple([
        tuple([a for c, a in enumerate(row) if c not in units])
        for row, s in zip(rows, supports)
        if len(s) != 1
    ])
    return len(units) + _reduced_rank(rest)


@lru_cache(maxsize=RANK_MEMO_SIZE)
def _reduced_rank(rows: tuple[tuple[int, ...], ...]) -> int:
    return len(bareiss_echelon(rows)[1])


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


def invert(mat: Sequence[Sequence[int]]) -> list[list[Fraction]]:
    """Exact inverse adj/det of a square integer matrix, as Fraction rows.
    Raises SingularError unless mat is square of full rank."""
    adj, det = adjugate(mat)
    return [[Fraction(a, det) for a in row] for row in adj]


def primitive(ints: Sequence[int]) -> tuple[int, ...]:
    """The integer vector divided by the gcd of its entries."""
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero row has no primitive form")
    return tuple(a // g for a in ints)
