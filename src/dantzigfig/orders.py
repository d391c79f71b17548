"""Initial-segment membership in a graded term order.

Two orders on nonnegative integer vectors: graded lex and graded reverse
lex. Both compare total degree first; on ties, coordinates compare right to
left (highest index first), with the lex verdict kept (grlex) or reversed
(grevlex). A comparison of sort keys decides.
"""

from __future__ import annotations

from enum import Enum
from operator import neg
from typing import Sequence


class OrderKind(Enum):
    GRLEX = "grlex"
    GREVLEX = "grevlex"


class LengthMismatch(ValueError):
    """Vectors of different lengths are not comparable."""


_GRLEX, _GREVLEX = OrderKind.GRLEX, OrderKind.GREVLEX  # faster than class lookups


def graded_key(kind: OrderKind, x: Sequence[int]) -> tuple:
    """Sort key in a graded order: the degree, then the coordinates from the
    last one down, negated for GREVLEX (it reverses the lex tie-break)."""
    x = tuple(x)
    if kind is _GRLEX:
        return sum(x), x[::-1]
    if kind is _GREVLEX:
        return sum(x), tuple(map(neg, x[::-1]))
    raise ValueError(f"not a graded order: {kind}")


def is_initial_segment_member(
    kind: OrderKind, x: Sequence[int], theta: Sequence[int]
) -> bool:
    """True iff x lies in the initial segment {y >= 0 : y <= theta} of the order."""
    if x and min(x) < 0:
        raise ValueError("x must be nonnegative")
    if len(x) != len(theta):
        raise LengthMismatch(f"lengths {len(x)} vs {len(theta)}")
    dx, dt = sum(x), sum(theta)
    if dx != dt and (kind is _GRLEX or kind is _GREVLEX):
        return dx < dt  # only a degree tie needs the rest of the key
    return graded_key(kind, x) <= graded_key(kind, theta)
