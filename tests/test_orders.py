"""Term orders: lex, graded lex, graded reverse lex, segment membership.

The comparators compare sort keys. The loop-based comparators they
replaced are kept below as referees and checked against them on every
verdict, both graded kinds, and each error (a length mismatch, a non-graded
kind, a negative coordinate), down to the empty vector.
"""

from functools import cmp_to_key
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dantzigfig.orders import (
    LengthMismatch,
    OrderKind,
    Ordering,
    compare_graded,
    compare_lex,
    graded_key,
    is_initial_segment_member,
)

L, E, G = Ordering.LESS, Ordering.EQUAL, Ordering.GREATER


def test_lex_reads_right_to_left():
    # the last coordinate is the most significant
    assert compare_lex((0, 0, 5), (2, 2, 2)) is G
    assert compare_lex((6, 0, 0), (2, 2, 2)) is L
    assert compare_lex((1, 0), (0, 1)) is L
    assert compare_lex((3, 7, 1), (3, 7, 1)) is E


def test_grlex_degree_dominates():
    assert compare_graded(OrderKind.GRLEX, (3, 0, 0), (1, 1, 0)) is G
    assert compare_graded(OrderKind.GRLEX, (0, 1, 0), (0, 0, 2)) is L
    # equal degree falls back to lex
    assert compare_graded(OrderKind.GRLEX, (2, 0, 0), (0, 2, 0)) is L
    assert compare_graded(OrderKind.GRLEX, (0, 2, 0), (2, 0, 0)) is G
    assert compare_graded(OrderKind.GRLEX, (1, 1, 0), (0, 0, 2)) is L


def test_grevlex_reverses_the_tiebreak():
    x, y = (2, 0, 0), (0, 2, 0)
    assert compare_graded(OrderKind.GRLEX, x, y) is L
    assert compare_graded(OrderKind.GREVLEX, x, y) is G
    # degree still dominates in both
    assert compare_graded(OrderKind.GREVLEX, (3, 0, 0), (1, 1, 0)) is G


def test_length_mismatch():
    with pytest.raises(LengthMismatch):
        compare_lex((1, 2), (1, 2, 3))
    with pytest.raises(LengthMismatch):
        compare_graded(OrderKind.GRLEX, (1,), (1, 1))


def test_grlex_membership_examples():
    theta = (2, 2, 2)
    assert is_initial_segment_member(OrderKind.GRLEX, (0, 6, 0), theta)
    assert is_initial_segment_member(OrderKind.GRLEX, (0, 5, 1), theta)
    # degree 6, last coordinate 1 < 2 decides: still below theta
    assert is_initial_segment_member(OrderKind.GRLEX, (5, 0, 1), theta)
    assert not is_initial_segment_member(OrderKind.GRLEX, (0, 0, 6), theta)
    assert not is_initial_segment_member(OrderKind.GRLEX, (0, 0, 7), theta)
    assert is_initial_segment_member(OrderKind.GRLEX, theta, theta)


def test_grevlex_membership_examples():
    theta = (2, 2, 2)
    assert is_initial_segment_member(OrderKind.GREVLEX, (0, 0, 6), theta)
    assert is_initial_segment_member(OrderKind.GREVLEX, (3, 0, 3), theta)
    assert not is_initial_segment_member(OrderKind.GREVLEX, (6, 0, 0), theta)
    assert not is_initial_segment_member(OrderKind.GREVLEX, (0, 5, 1), theta)
    assert is_initial_segment_member(OrderKind.GREVLEX, theta, theta)


def test_membership_rejects_negative():
    with pytest.raises(ValueError):
        is_initial_segment_member(OrderKind.GRLEX, (-1, 0, 0), (2, 2, 2))


def _all_tuples(d, cap):
    return list(product(range(cap + 1), repeat=d))


@pytest.mark.parametrize("kind", [OrderKind.LEX, OrderKind.GRLEX, OrderKind.GREVLEX])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_total_order_exhaustive(kind, d):
    """Inventory check on small grids: total, antisymmetric, transitive."""
    pts = _all_tuples(d, 2)
    cmp = (
        compare_lex
        if kind is OrderKind.LEX
        else lambda x, y: compare_graded(kind, x, y)
    )
    for x in pts:
        assert cmp(x, x) is E
    for x in pts:
        for y in pts:
            cxy, cyx = cmp(x, y), cmp(y, x)
            assert (cxy is E) == (x == y)
            if cxy is L:
                assert cyx is G
            if cxy is G:
                assert cyx is L
    ordered = sorted(pts, key=lambda x: _rank(cmp, pts, x))
    for i, x in enumerate(ordered):
        for y in ordered[i + 1 :]:
            assert cmp(x, y) is L


def _rank(cmp, pts, x):
    return sum(1 for y in pts if cmp(y, x) is L)


vectors = st.lists(st.integers(min_value=0, max_value=5), min_size=3, max_size=5)


@given(vectors, vectors, vectors)
@settings(max_examples=80, deadline=None)
def test_transitivity_sampled(a, b, c):
    n = min(len(a), len(b), len(c))
    a, b, c = tuple(a[:n]), tuple(b[:n]), tuple(c[:n])
    for kind in (OrderKind.GRLEX, OrderKind.GREVLEX):
        ab = compare_graded(kind, a, b)
        bc = compare_graded(kind, b, c)
        if ab is L and bc is L:
            assert compare_graded(kind, a, c) is L
        if ab is E and bc is E:
            assert compare_graded(kind, a, c) is E


@given(vectors)
@settings(max_examples=60, deadline=None)
def test_membership_consistent_with_comparator(x):
    theta = (2, 3, 2, 3, 2)[: len(x)]
    x = tuple(x)
    for kind in (OrderKind.GRLEX, OrderKind.GREVLEX):
        member = is_initial_segment_member(kind, x, theta)
        verdict = compare_graded(kind, x, theta)
        assert member == (verdict in (L, E))


# ------------------------------------------------ loop-based referees


def ref_compare_lex(x, y):
    if len(x) != len(y):
        raise LengthMismatch(f"lengths {len(x)} vs {len(y)}")
    for xi, yi in zip(reversed(x), reversed(y)):
        if xi != yi:
            return L if xi < yi else G
    return E


def ref_compare_graded(kind, x, y):
    if len(x) != len(y):
        raise LengthMismatch(f"lengths {len(x)} vs {len(y)}")
    if kind not in (OrderKind.GRLEX, OrderKind.GREVLEX):
        raise ValueError(f"not a graded order: {kind}")
    dx, dy = sum(x), sum(y)
    if dx != dy:
        return L if dx < dy else G
    tie = ref_compare_lex(x, y)
    if kind is OrderKind.GRLEX or tie is E:
        return tie
    return L if tie is G else G


def ref_is_member(kind, x, theta):
    if any(v < 0 for v in x):
        raise ValueError("x must be nonnegative")
    return ref_compare_graded(kind, x, theta) in (L, E)


def outcome(fn, *args):
    """The value of fn(*args), or the class of the exception it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc)


kinds = st.sampled_from(list(OrderKind))
short = st.lists(st.integers(0, 3), max_size=6).map(tuple)
signed = st.lists(st.integers(-2, 3), max_size=6).map(tuple)


def _same_length(entries):
    return st.integers(0, 6).flatmap(
        lambda d: st.tuples(st.tuples(*[entries] * d), st.tuples(*[entries] * d))
    )


# mostly equal lengths, some mismatched
pairs = st.one_of(_same_length(st.integers(0, 3)), st.tuples(short, short))


@given(kinds, pairs)
@settings(max_examples=400, deadline=None)
def test_comparators_match_loop_referee(kind, pair):
    x, y = pair
    assert outcome(compare_lex, x, y) == outcome(ref_compare_lex, x, y)
    assert outcome(compare_graded, kind, x, y) == outcome(
        ref_compare_graded, kind, x, y
    )


@given(kinds, short)
@settings(max_examples=200, deadline=None)
def test_comparators_match_loop_referee_on_ties(kind, x):
    # equal degree, permuted coordinates: the lex tie-break decides
    y = x[::-1]
    assert compare_lex(x, y) is ref_compare_lex(x, y)
    assert outcome(compare_graded, kind, x, y) == outcome(
        ref_compare_graded, kind, x, y
    )


@given(kinds, st.one_of(_same_length(st.integers(-1, 3)), st.tuples(signed, short)))
@settings(max_examples=400, deadline=None)
def test_membership_matches_loop_referee(kind, pair):
    x, theta = pair
    assert outcome(is_initial_segment_member, kind, x, theta) == outcome(
        ref_is_member, kind, x, theta
    )
    assert outcome(is_initial_segment_member, kind, list(x), list(theta)) == outcome(
        ref_is_member, kind, x, theta
    )


def test_referee_errors_and_empty_vector():
    # d = 0: no coordinate is negative, and () equals ()
    for kind in (OrderKind.GRLEX, OrderKind.GREVLEX):
        assert is_initial_segment_member(kind, (), ()) is True
        assert compare_graded(kind, (), ()) is E
    assert compare_lex((), ()) is E
    assert outcome(is_initial_segment_member, OrderKind.LEX, (1, 0), (0, 1)) is ValueError
    assert outcome(compare_graded, OrderKind.LEX, (), ()) is ValueError
    assert outcome(is_initial_segment_member, OrderKind.GRLEX, (0, -1), (1,)) is ValueError
    assert outcome(is_initial_segment_member, OrderKind.GRLEX, (0, 1), (1,)) is LengthMismatch
    assert outcome(compare_lex, (), (0,)) is LengthMismatch


@pytest.mark.parametrize("kind", [OrderKind.GRLEX, OrderKind.GREVLEX])
def test_graded_key_sorts_like_the_referee(kind):
    pts = _all_tuples(3, 3)
    by_key = sorted(pts, key=lambda x: graded_key(kind, x))
    by_ref = sorted(pts, key=cmp_to_key(lambda x, y: ref_compare_graded(kind, x, y).value))
    assert by_key == by_ref
