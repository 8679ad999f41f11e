"""Partition arithmetic and the containment order."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckealg.errors import ParseError
from heckealg.partitions import (
    conjugate,
    embeds,
    format_partition,
    horizontal_strips,
    is_horizontal_strip,
    order_exponent,
    p_rank,
    parse_partition,
    partition_sort_key,
    partitions_between,
    partitions_of_exponent,
    partitions_up_to,
    strips_below,
    torsion_type,
    type_from_torsion_profile,
    validate_partition,
)

partitions = st.lists(st.integers(1, 5), max_size=4).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


def test_validate_rejects_bad_shapes():
    with pytest.raises(ValueError):
        validate_partition((1, 2))
    with pytest.raises(ValueError):
        validate_partition((2, 0))
    with pytest.raises(ValueError):
        validate_partition((-1,))
    assert validate_partition([3, 1, 1]) == (3, 1, 1)


def test_basic_stats():
    assert p_rank(()) == 0
    assert order_exponent(()) == 0
    assert p_rank((3, 1)) == 2
    assert order_exponent((3, 1)) == 4


def test_torsion_type():
    assert torsion_type((3, 2, 1), 1) == (1, 1, 1)
    assert torsion_type((3, 2, 1), 2) == (2, 2, 1)
    assert torsion_type((3, 2, 1), 5) == (3, 2, 1)
    assert torsion_type((2,), 0) == ()


def test_conjugate_examples():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate(()) == ()
    assert conjugate((2, 2)) == (2, 2)


@given(partitions)
def test_conjugate_is_an_involution(lam):
    assert conjugate(conjugate(lam)) == lam
    assert order_exponent(conjugate(lam)) == order_exponent(lam)


def test_embeds_examples():
    assert embeds((), (3, 1))
    assert embeds((2, 1), (3, 1))
    assert not embeds((2, 2), (3, 1))
    assert not embeds((1, 1, 1), (2, 2))


@given(partitions, partitions, partitions)
def test_embeds_is_a_partial_order(a, b, c):
    assert embeds(a, a)
    if embeds(a, b) and embeds(b, a):
        assert a == b
    if embeds(a, b) and embeds(b, c):
        assert embeds(a, c)


@given(partitions, partitions)
def test_embeds_respects_conjugation(a, b):
    # diagram containment is symmetric under transposing both diagrams
    assert embeds(a, b) == embeds(conjugate(a), conjugate(b))


def test_partitions_of_exponent():
    assert list(partitions_of_exponent(0, 2)) == [()]
    assert list(partitions_of_exponent(3, 2)) == [(3,), (2, 1)]
    assert list(partitions_of_exponent(3, 3)) == [(3,), (2, 1), (1, 1, 1)]
    assert list(partitions_of_exponent(4, 1)) == [(4,)]


def test_partitions_up_to_is_graded_and_complete():
    seen = list(partitions_up_to(4, 2))
    assert seen == sorted(seen, key=partition_sort_key)
    assert len(seen) == len(set(seen))
    for lam in seen:
        assert order_exponent(lam) <= 4 and p_rank(lam) <= 2


def test_horizontal_strips_match_the_filter():
    # the generator picks each lam_i between mu_i and mu_(i-1); the filter
    # keeps the partitions of |mu| + t that are capped strips over mu
    for n in range(1, 5):
        for mu in partitions_up_to(7, 4):
            for t in range(6):
                for cap in range(8):
                    want = [
                        lam
                        for lam in partitions_of_exponent(order_exponent(mu) + t, n)
                        if (not lam or lam[0] <= cap) and is_horizontal_strip(lam, mu)
                    ]
                    assert list(horizontal_strips(mu, t, n, cap)) == want, (n, mu, t, cap)


def test_strips_below_match_the_filter():
    # the generator picks each mu_i between lam_(i+1) and lam_i; the filter
    # keeps the partitions below lam that embed in it with lam/mu a strip
    for n in range(1, 5):
        for lam in partitions_up_to(8, n + 2):
            want = {
                mu
                for mu in partitions_up_to(order_exponent(lam), n)
                if embeds(mu, lam) and is_horizontal_strip(lam, mu)
            }
            got = list(strips_below(lam, n))
            assert len(got) == len(want) and set(got) == want, (n, lam)


def test_partitions_between_match_the_filter():
    # the filter keeps the classes between low and high in the order of
    # partitions_up_to; the generator builds them row by row instead
    parts = list(partitions_up_to(8, 3))
    for low in parts:
        for high in parts:
            want = [c for c in parts if embeds(low, c) and embeds(c, high)]
            assert list(partitions_between(low, high)) == want, (low, high)


def test_profile_round_trip():
    # d_k = oe(lam) - oe(lam scaled by p^k)
    lam = (3, 2, 2)
    profile = [
        order_exponent(lam) - sum(max(a - k, 0) for a in lam) for k in range(4)
    ]
    assert type_from_torsion_profile(profile) == lam


@given(partitions)
def test_profile_round_trip_random(lam):
    top = (lam[0] if lam else 0) + 1
    profile = [
        order_exponent(lam) - sum(max(a - k, 0) for a in lam) for k in range(top + 1)
    ]
    assert type_from_torsion_profile(profile) == lam


def test_profile_rejects_garbage():
    with pytest.raises(ValueError):
        type_from_torsion_profile([1, 0])
    with pytest.raises(ValueError):
        type_from_torsion_profile([0, 2, 1])
    with pytest.raises(ValueError):
        # increments must be weakly decreasing
        type_from_torsion_profile([0, 1, 3, 3])


@pytest.mark.parametrize(
    "text,expected",
    [("[]", ()), ("[2]", (2,)), ("[2,1]", (2, 1)), ("[ 3 , 1 , 1 ]", (3, 1, 1))],
)
def test_parse_accepts(text, expected):
    assert parse_partition(text) == expected


@pytest.mark.parametrize(
    "text", ["", "2,1", "[2,", "[1,2]", "[0]", "[2,,1]", "[a]", "[2 1]"]
)
def test_parse_rejects(text):
    with pytest.raises(ParseError):
        parse_partition(text)


@given(partitions)
def test_format_parse_round_trip(lam):
    assert parse_partition(format_partition(lam)) == lam
