"""Canonical forms over Z/p^r: shape, span preservation, canonicity."""

import itertools
import random

import pytest
from conftest import brute_span, error_message
from hypothesis import given, settings
from hypothesis import strategies as st

from heckealg.modmat import _howell_rows, _leading, _span_contains_rows


def howell(p, r, rows):
    """Howell rows of arbitrary integer rows, reduced mod p^r first."""
    width = len(rows[0]) if rows else 0
    reduced = [tuple(x % p**r for x in row) for row in rows]
    return _howell_rows(reduced, p, r, width)


def test_known_form_over_z4():
    # <(2,1), (0,2)> over Z/4 has Howell basis ((2,1), (0,2))
    assert howell(2, 2, [(2, 1), (0, 2)]) == ((2, 1), (0, 2))


def test_shadow_row_is_materialized():
    # the single row (2,1) over Z/4 spans (0,2) = 2*(2,1) too
    h = howell(2, 2, [(2, 1)])
    assert h == ((2, 1), (0, 2))
    assert _span_contains_rows(h, (0, 2), 2, 2)


def test_zero_matrix_collapses():
    assert howell(2, 2, [(0, 0), (0, 0)]) == ()


def test_pivots_strictly_increase():
    h = howell(3, 2, [(3, 4, 1), (6, 1, 0), (0, 3, 3)])
    cols = [_leading(row) for row in h]
    assert cols == sorted(set(cols))


def test_idempotent():
    h = howell(2, 3, [(4, 6, 1), (2, 0, 4), (0, 0, 2)])
    assert howell(2, 3, h) == h


@pytest.mark.parametrize(
    "p,r,width", [(2, 1, 2), (2, 2, 2), (3, 1, 2), (2, 1, 3), (2, 3, 1)]
)
def test_span_membership_matches_brute_force(p, r, width):
    rng = random.Random(1000 * p + 10 * r + width)
    pr = p**r
    for _ in range(25):
        rows = [
            tuple(rng.randrange(pr) for _ in range(width))
            for _ in range(rng.randrange(1, 3))
        ]
        expected = brute_span(p, r, rows, width)
        h = howell(p, r, rows)
        assert brute_span(p, r, h, width) == expected
        for point in itertools.product(range(pr), repeat=width):
            assert _span_contains_rows(h, point, p, r) == (point in expected)


def _random_row_ops(rng, rows, p, r):
    """Apply invertible row operations; the span must not change."""
    pr = p**r
    rows = [list(row) for row in rows]
    units = [u for u in range(1, pr) if u % p != 0]
    for _ in range(6):
        op = rng.randrange(3)
        i = rng.randrange(len(rows))
        j = rng.randrange(len(rows))
        if op == 0 and i != j:
            rows[i], rows[j] = rows[j], rows[i]
        elif op == 1 and i != j:
            c = rng.randrange(pr)
            rows[i] = [(a + c * b) % pr for a, b in zip(rows[i], rows[j])]
        else:
            u = rng.choice(units)
            rows[i] = [(u * a) % pr for a in rows[i]]
    return [tuple(row) for row in rows]


def test_canonical_under_row_operations():
    rng = random.Random(7)
    for trial in range(200):
        p = rng.choice((2, 3))
        r = rng.randrange(1, 4)
        width = rng.randrange(1, 4)
        pr = p**r
        rows = [
            tuple(rng.randrange(pr) for _ in range(width))
            for _ in range(rng.randrange(1, 4))
        ]
        moved = _random_row_ops(rng, rows, p, r)
        assert howell(p, r, rows) == howell(p, r, moved), (trial, rows)


small_rows = st.integers(min_value=1, max_value=3).flatmap(
    lambda width: st.lists(
        st.tuples(*[st.integers(min_value=0, max_value=7)] * width),
        min_size=1,
        max_size=3,
    )
)


@settings(max_examples=60, deadline=None)
@given(rows=small_rows, p=st.sampled_from([2, 3]), r=st.integers(1, 3))
def test_howell_span_equals_input_span(rows, p, r):
    width = len(rows[0])
    reduced = [tuple(x % p**r for x in row) for row in rows]
    h = howell(p, r, rows)
    assert brute_span(p, r, reduced, width) == brute_span(p, r, h, width)


@settings(max_examples=60, deadline=None)
@given(rows=small_rows, p=st.sampled_from([2, 3]), r=st.integers(1, 3))
def test_above_pivot_entries_are_reduced(rows, p, r):
    h = howell(p, r, rows)
    for k, row in enumerate(h):
        col = _leading(row)
        pivot = row[col]
        for upper in h[:k]:
            assert upper[col] < pivot


def test_a_zero_row_has_no_leading_column():
    assert error_message(ValueError, _leading, (0, 0)) == "zero row has no leading column"
