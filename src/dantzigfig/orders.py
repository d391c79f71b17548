"""Term-order comparators on nonnegative integer vectors.

Three total orders are provided: plain lex, graded lex and graded reverse
lex. Coordinate comparison runs right to left (highest index first); the
graded orders compare total degree first and fall back to the lex verdict
(grlex) or its reverse (grevlex) on ties; a comparison of sort keys decides.
"""

from __future__ import annotations

from enum import Enum
from operator import neg
from typing import Sequence


class Ordering(Enum):
    LESS = -1
    EQUAL = 0
    GREATER = 1


class OrderKind(Enum):
    LEX = "lex"
    GRLEX = "grlex"
    GREVLEX = "grevlex"


class LengthMismatch(ValueError):
    """Vectors of different lengths are not comparable."""


_GRLEX, _GREVLEX = OrderKind.GRLEX, OrderKind.GREVLEX  # faster than class lookups


def _check_lengths(x: Sequence[int], y: Sequence[int]) -> None:
    if len(x) != len(y):
        raise LengthMismatch(f"lengths {len(x)} vs {len(y)}")


def graded_key(kind: OrderKind, x: Sequence[int]) -> tuple:
    """Sort key in a graded order: the degree, then the coordinates from the
    last one down, negated for GREVLEX (it reverses the lex tie-break)."""
    x = tuple(x)
    if kind is _GRLEX:
        return sum(x), x[::-1]
    if kind is _GREVLEX:
        return sum(x), tuple(map(neg, x[::-1]))
    raise ValueError(f"not a graded order: {kind}")


def compare_lex(x: Sequence[int], y: Sequence[int]) -> Ordering:
    """Lexicographic comparison scanning from the last coordinate down: the
    first differing coordinate (highest index) decides."""
    _check_lengths(x, y)
    kx, ky = tuple(x)[::-1], tuple(y)[::-1]
    return Ordering((kx > ky) - (kx < ky))


def compare_graded(kind: OrderKind, x: Sequence[int], y: Sequence[int]) -> Ordering:
    """Graded comparison: total degree first, then a lex tie-break. GRLEX
    keeps the lex verdict on degree ties; GREVLEX reverses it."""
    _check_lengths(x, y)
    kx, ky = graded_key(kind, x), graded_key(kind, y)
    return Ordering((kx > ky) - (kx < ky))


def is_initial_segment_member(
    kind: OrderKind, x: Sequence[int], theta: Sequence[int]
) -> bool:
    """True iff x lies in the initial segment {y >= 0 : y <= theta} of the order."""
    if x and min(x) < 0:
        raise ValueError("x must be nonnegative")
    _check_lengths(x, theta)
    dx, dt = sum(x), sum(theta)
    if dx != dt and (kind is _GRLEX or kind is _GREVLEX):
        return dx < dt  # only a degree tie needs the rest of the key
    return graded_key(kind, x) <= graded_key(kind, theta)
