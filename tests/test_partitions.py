"""Partition arithmetic and the containment order."""

import itertools

import pytest
from conftest import is_horizontal_strip
from hypothesis import given
from hypothesis import strategies as st

from heckealg.errors import ParseError
from heckealg.partitions import (
    conjugate,
    embeds,
    format_partition,
    order_exponent,
    p_rank,
    parse_partition,
    partition_sort_key,
    partitions_between,
    partitions_of_exponent,
    partitions_up_to,
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
    # bool is an int subclass, but no part of a partition
    for lam in [(2, True), (True,), (False,)]:
        with pytest.raises(ValueError, match="positive integers"):
            validate_partition(lam)
    assert validate_partition([3, 1, 1]) == (3, 1, 1)


def test_basic_stats():
    assert p_rank(()) == 0
    assert order_exponent(()) == 0
    assert p_rank((3, 1)) == 2
    assert order_exponent((3, 1)) == 4


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
    # the filter keeps the weakly decreasing rows of d boxes among all
    # k-tuples, zeros dropped, lexicographically decreasing
    for d in range(-1, 9):
        for k in range(6):
            want = sorted(
                (
                    tuple(a for a in c if a)
                    for c in itertools.product(range(d + 1), repeat=k)
                    if sum(c) == d and list(c) == sorted(c, reverse=True)
                ),
                reverse=True,
            )
            assert list(partitions_of_exponent(d, k)) == want, (d, k)


def test_partitions_between_walks_any_number_of_rows():
    # the walk keeps its own stack, so 2,000 rows reach no recursion limit
    low, high = (1,) * 1999, (1,) * 2000
    assert list(partitions_between(low, high)) == [low, high]
    assert list(partitions_between(low, high, 2000)) == [high]


def test_partitions_up_to_is_graded_and_complete():
    seen = list(partitions_up_to(4, 2))
    assert seen == sorted(seen, key=partition_sort_key)
    assert len(seen) == len(set(seen))
    for lam in seen:
        assert order_exponent(lam) <= 4 and p_rank(lam) <= 2


def test_horizontal_strip_reference():
    # the filter the strip walks below are checked against
    assert is_horizontal_strip((3, 1), (2,)) and is_horizontal_strip((2, 1), (2, 1))
    assert not is_horizontal_strip((1, 1), ()) and not is_horizontal_strip((2,), (1, 1))
    assert not is_horizontal_strip((3, 3), (2, 1))


def test_horizontal_strips_match_the_filter():
    # the walk picks each lam_i between mu_i and mu_(i-1); the filter
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
                    got = partitions_between(mu, ((cap,) + mu)[:n], order_exponent(mu) + t)
                    assert list(got) == want, (n, mu, t, cap)


def test_strips_below_match_the_filter():
    # the walk picks each mu_i between lam_(i+1) and lam_i; the filter
    # keeps the partitions below lam that embed in it with lam/mu a strip
    for n in range(1, 5):
        for lam in partitions_up_to(8, n + 2):
            want = {
                mu
                for mu in partitions_up_to(order_exponent(lam), n)
                if embeds(mu, lam) and is_horizontal_strip(lam, mu)
            }
            got = list(partitions_between(lam[1:], lam[:n]))
            assert len(got) == len(want) and set(got) == want, (n, lam)


def test_partitions_between_match_the_filter():
    # the filter keeps the classes between low and high in the order of
    # partitions_up_to; the walk builds them row by row instead.  A low
    # that high does not contain, or with more rows, leaves nothing between
    parts = list(partitions_up_to(8, 3))
    longer = [(1, 1, 1, 1), (2, 1, 1, 1), (2, 2, 2, 2)]
    for low in parts + longer:
        for high in parts:
            want = [c for c in parts if embeds(low, c) and embeds(c, high)]
            assert bool(want) == embeds(low, high), (low, high)
            assert list(partitions_between(low, high)) == want, (low, high)
            for size in range(sum(low) - 1, sum(high) + 2):
                got = list(partitions_between(low, high, size))
                assert got == [c for c in want if sum(c) == size], (low, high, size)


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
    [("[]", ()), ("[2]", (2,)), ("[2,1]", (2, 1)), ("[ 3 , 1 , 1 ]", (3, 1, 1)),
     ("[\u0663]", (3,))],  # an Arabic-Indic three, which int reads
)
def test_parse_accepts(text, expected):
    assert parse_partition(text) == expected


@pytest.mark.parametrize(
    "text", ["", "2,1", "[2,", "[1,2]", "[0]", "[2,,1]", "[a]", "[2 1]"]
)
def test_parse_rejects(text):
    with pytest.raises(ParseError):
        parse_partition(text)


@pytest.mark.parametrize("part", ["\u00b2", "\u2460"])
def test_parse_rejects_digits_int_cannot_read(part):
    # "²" and "①" are digits to str.isdigit but not decimals, and int rejects them
    with pytest.raises(ParseError, match="bad partition part"):
        parse_partition(f"[{part}]")


@given(partitions)
def test_format_parse_round_trip(lam):
    assert parse_partition(format_partition(lam)) == lam
