"""The subgroup enumeration engine and its derived counts."""

import itertools
import math
import time
import tracemalloc

import pytest

from heckealg.errors import BudgetExceededError
from heckealg.modmat import _howell_rows
from heckealg.partitions import order_exponent, partitions_of_exponent, partitions_up_to
from heckealg.subgroups import (
    _PSI_12,
    DEFAULT_BUDGET,
    Ambient,
    _diagonal_rows,
    _valuations,
    count_of_type_in_group,
    enumerate_subgroups,
    intersect,
    m_count,
    quotient_type,
    is_prime,
    standard_split,
    subgroup_from_rows,
    type_of,
)


def elements_of(rep):
    """All points of the subgroup, by closing its rows."""
    p, r, width = rep.ambient.p, rep.ambient.r, rep.ambient.n
    pr = p**r
    points = {(0,) * width}
    frontier = [(0,) * width]
    while frontier:
        base = frontier.pop()
        for row in rep.rows:
            nxt = tuple((a + b) % pr for a, b in zip(base, row))
            if nxt not in points:
                points.add(nxt)
                frontier.append(nxt)
    return frozenset(points)


def test_ambient_validation():
    with pytest.raises(ValueError):
        Ambient(4, 2, 1)
    with pytest.raises(ValueError):
        Ambient(2, 0, 1)
    with pytest.raises(ValueError):
        Ambient(2, 2, 0)


@pytest.mark.parametrize("p", [2, 3])
def test_total_counts_rank2_exponent1(p):
    assert sum(1 for _ in enumerate_subgroups(Ambient(p, 2, 1))) == p + 3


def test_total_counts_rank3_exponent1():
    assert sum(1 for _ in enumerate_subgroups(Ambient(2, 3, 1))) == 16


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_cyclic_chain(r):
    assert sum(1 for _ in enumerate_subgroups(Ambient(2, 1, r))) == r + 1


def test_z4_squared_census():
    reps = list(enumerate_subgroups(Ambient(2, 2, 2)))
    assert len(reps) == 15
    # canonical bases, no duplicates
    assert len({rep.rows for rep in reps}) == 15
    for rep in reps:
        assert _howell_rows(rep.rows, 2, 2, 2) == rep.rows
        assert all(len(row) == 2 and all(0 <= x < 4 for x in row) for row in rep.rows)
    histogram = {}
    for rep in reps:
        t = type_of(rep)
        histogram[t] = histogram.get(t, 0) + 1
    assert histogram == {
        (): 1,
        (1,): 3,
        (1, 1): 1,
        (2,): 6,
        (2, 1): 3,
        (2, 2): 1,
    }


def test_enumeration_is_deterministic():
    first = [rep.rows for rep in enumerate_subgroups(Ambient(2, 2, 2))]
    second = [rep.rows for rep in enumerate_subgroups(Ambient(2, 2, 2))]
    assert first == second


def test_order_filter_matches_full_sweep():
    amb = Ambient(3, 2, 2)
    by_order = {}
    for rep in enumerate_subgroups(amb):
        by_order.setdefault(rep.order_exp, set()).add(rep.rows)
    for d, expected in by_order.items():
        got = {rep.rows for rep in enumerate_subgroups(amb, order_exp=d)}
        assert got == expected


def test_types_and_orders_agree():
    for rep in enumerate_subgroups(Ambient(2, 2, 3)):
        t = type_of(rep)
        assert order_exponent(t) == rep.order_exp
        assert len(elements_of(rep)) == 2**rep.order_exp


@pytest.mark.parametrize(
    "m,n,p,expected",
    [
        ((1,), 2, 2, 3),
        ((2,), 2, 2, 6),
        ((1, 1), 3, 2, 7),
        ((2,), 1, 3, 1),
        ((1, 1, 1), 2, 2, 0),
        ((), 2, 2, 1),
    ],
)
def test_m_count_values(m, n, p, expected):
    assert m_count(m, n, p) == expected


@pytest.mark.parametrize(
    "lam,mu,p,expected",
    [
        ((2, 1), (1,), 2, 3),
        ((2, 1), (1, 1), 2, 1),
        ((1, 1), (2,), 2, 0),
        ((2, 2), (2, 1), 3, 4),
    ],
)
def test_count_of_type_in_group(lam, mu, p, expected):
    assert count_of_type_in_group(lam, mu, p) == expected


@pytest.mark.parametrize(
    "count,args",
    [
        (count_of_type_in_group, ((), (), 4)),
        (count_of_type_in_group, ((1,), (), 4)),
        (count_of_type_in_group, ((1,), (2,), 4)),
        (m_count, ((), 2, 4)),
        (m_count, ((1, 1, 1), 2, 4)),
    ],
)
def test_counts_refuse_a_composite_p_before_any_shortcut(count, args):
    with pytest.raises(ValueError, match="p must be prime, got 4"):
        count(*args)


def test_one_sweep_counts_every_type_of_one_order(sweeps):
    lam = (3, 2, 1)
    counts = {mu: count_of_type_in_group(lam, mu, 2) for mu in partitions_of_exponent(3, 3)}
    assert sweeps == [("_type_census", (2, 3, 3, 3, (0, 1, 2), DEFAULT_BUDGET))]
    assert counts[(1, 1, 1)] == 1  # the socle
    assert sum(counts.values()) == sum(
        1 for _ in enumerate_subgroups(Ambient(2, 3, 3), order_exp=3, col_val_min=(0, 1, 2))
    )


@pytest.mark.parametrize("p", [2, 3, 5])
def test_diagonal_rows_are_canonical(p):
    # the Hall table spans its fixed group by these rows with no Howell pass
    for lam in partitions_up_to(6, 6):
        if lam:
            rows = _diagonal_rows(lam, p)
            assert rows == subgroup_from_rows(Ambient(p, len(lam), lam[0]), rows).rows


def test_a_census_is_not_reused_at_a_smaller_budget(sweeps):
    assert count_of_type_in_group((2, 2), (1,), 2) == 3
    with pytest.raises(BudgetExceededError):
        count_of_type_in_group((2, 2), (1,), 2, budget=1)
    assert count_of_type_in_group((2, 2), (1,), 2, budget=DEFAULT_BUDGET) == 3
    assert len(sweeps) == 2  # the refused one; None and DEFAULT_BUDGET share a census


@pytest.mark.parametrize("p,n,r", [(2, 1, 2), (2, 2, 1), (2, 2, 2), (3, 2, 1)])
def test_m_counts_partition_the_census(p, n, r):
    total = sum(1 for _ in enumerate_subgroups(Ambient(p, n, r)))
    types = [
        lam for lam in partitions_up_to(n * r, n) if not lam or lam[0] <= r
    ]
    assert sum(m_count(lam, n, p) for lam in types) == total


def test_intersect_matches_element_sets():
    amb = Ambient(2, 2, 2)
    reps = list(enumerate_subgroups(amb))
    for a, b in itertools.product(reps, repeat=2):
        got = intersect(a, b)
        assert elements_of(got) == elements_of(a) & elements_of(b)


def test_subgroup_from_rows_rejects_a_short_row():
    with pytest.raises(ValueError):
        subgroup_from_rows(Ambient(2, 3, 2), [(1, 0, 0), (0, 1)])


def test_subgroup_from_rows_reduces_entries():
    amb = Ambient(3, 2, 2)
    residues = subgroup_from_rows(amb, [(1, 3), (0, 6)])
    assert subgroup_from_rows(amb, [(10, -6), (-9, 15)]) == residues
    assert subgroup_from_rows(amb, [(-8, 12), (9, -3)]) == residues


def test_quotient_type_examples():
    amb = Ambient(2, 2, 2)
    whole = subgroup_from_rows(amb, [(1, 0), (0, 1)])
    diag = subgroup_from_rows(amb, [(1, 1)])
    assert quotient_type(whole, diag) == (2,)
    assert quotient_type(whole, whole) == ()
    two_torsion = subgroup_from_rows(amb, [(2, 0), (0, 2)])
    assert quotient_type(whole, two_torsion) == (1, 1)


def _type_from_element_sets(big, small, p):
    """Type of big/small from |p^k (big/small)| = |p^k big + small| / |small|.

    The number of parts of size > k is log_p |p^k G| - log_p |p^(k+1) G|,
    which gives the conjugate partition part by part.
    """
    pr = p ** big.ambient.r
    points, sub = elements_of(big), elements_of(small)
    sizes = []
    k = 0
    while not sizes or sizes[-1] > 1:
        pk = p**k
        scaled = {tuple(pk * x % pr for x in v) for v in points}
        join = {tuple((a + b) % pr for a, b in zip(u, w)) for u in scaled for w in sub}
        sizes.append(len(join) // len(sub))
        k += 1
    exps = [round(math.log(size, p)) for size in sizes]
    conj = [a - b for a, b in zip(exps, exps[1:])]
    return tuple(sum(1 for c in conj if c >= i) for i in range(1, max(conj, default=0) + 1))


@pytest.mark.parametrize("p,r,pairs", [(2, 2, 69), (3, 2, 114), (2, 3, 286)])
def test_types_match_element_set_counts(p, r, pairs):
    reps = list(enumerate_subgroups(Ambient(p, 2, r)))
    zero = reps[0]
    assert zero.order_exp == 0
    seen = 0
    for big in reps:
        assert type_of(big) == _type_from_element_sets(big, zero, p)
        for small in reps:
            if big.contains(small):
                assert quotient_type(big, small) == _type_from_element_sets(big, small, p)
                seen += 1
    assert seen == pairs


def test_quotient_exponent_is_additive():
    amb = Ambient(2, 2, 2)
    reps = list(enumerate_subgroups(amb))
    for big in reps:
        for small in reps:
            if not big.contains(small):
                continue
            q = quotient_type(big, small)
            assert order_exponent(q) == big.order_exp - small.order_exp


@pytest.mark.parametrize(
    "p,n,r,floors,count",
    [
        (2, 2, 2, (0, 1), 8),
        (2, 2, 2, (1, 1), 5),
        (2, 2, 2, (2, 2), 1),
        (3, 2, 2, (1, 0), None),
        (2, 3, 2, (0, 1, 2), None),
        (2, 2, 3, (2, 0), None),
    ],
)
def test_col_val_min_sweeps_the_diagonal_subgroup(p, n, r, floors, count):
    # col_val_min=f lists the subgroups of the diagonal subgroup with
    # pivots p^f, in the order of the full sweep
    amb = Ambient(p, n, r)
    host = subgroup_from_rows(
        amb, [tuple(p**f if j == i else 0 for j in range(n)) for i, f in enumerate(floors)]
    )
    got = list(enumerate_subgroups(amb, col_val_min=floors))
    assert got == [rep for rep in enumerate_subgroups(amb) if host.contains(rep)]
    if count is not None:
        assert len(got) == count


def test_valuations_match_the_filtered_product():
    for n in range(4):
        for lows in itertools.product(range(4), repeat=n):
            for r in range(1, 4):
                product = list(itertools.product(*(range(low, r) for low in lows)))
                for need in [None] + list(range(-1, n * r + 2)):
                    want = [
                        es for es in product
                        if need is None or sum(r - e for e in es) == need
                    ]
                    assert list(_valuations(lows, r, need)) == want, (lows, r, need)


def test_an_order_filter_lists_only_structures_of_that_order():
    # the whole group is the one subgroup of order p^72 in (Z/2^12)^6; the
    # 13^6 pivot valuations of the full product are never walked
    t0 = time.process_time()
    got = list(enumerate_subgroups(Ambient(2, 6, 12), order_exp=72, budget=1))
    assert time.process_time() - t0 < 0.5
    assert [rep.rows for rep in got] == [
        tuple(tuple(int(i == j) for j in range(6)) for i in range(6))
    ]


def test_standard_split_shapes():
    amb = Ambient(2, 3, 2)
    first = standard_split(amb, "first")
    last = standard_split(amb, "last")
    assert type_of(first) == (2, 2)
    assert type_of(last) == (2, 2)
    assert first.rows == ((1, 0, 0), (0, 1, 0))
    assert last.rows == ((0, 1, 0), (0, 0, 1))
    with pytest.raises(ValueError):
        standard_split(amb, "middle")


def test_budget_is_checked_before_work():
    with pytest.raises(BudgetExceededError) as err:
        list(enumerate_subgroups(Ambient(2, 3, 3), budget=10))
    assert err.value.needed > 10
    assert err.value.budget == 10


def test_budget_is_checked_before_allocating_value_lists():
    # with p = 1009 an open entry ranges over up to p^2 values; the
    # candidate count must come from the range sizes, not from lists
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError):
            list(enumerate_subgroups(Ambient(1009, 2, 2), budget=1000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_budget_is_checked_while_listing_pivot_structures():
    # (Z/2^8)^5 has 9^5 pivot structures; none may be listed past the budget
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError):
            list(enumerate_subgroups(Ambient(2, 5, 8), budget=10))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "amb,kwargs,budget,needed",
    [
        (Ambient(2, 3, 3), {}, 1, 65),
        (Ambient(2, 3, 3), {}, 10, 65),
        (Ambient(2, 5, 8), {}, 10, 4294967297),
        (Ambient(3, 3, 3), {"order_exp": 4}, 10, 6561),
        (Ambient(2, 4, 4), {"col_val_min": (0, 1, 2, 3)}, 10, 65),
        (Ambient(2, 4, 4), {"col_val_min": (0, 1, 2, 3)}, 1000, 1182),
    ],
)
def test_budget_reports_the_running_total_that_passed_it(amb, kwargs, budget, needed):
    with pytest.raises(BudgetExceededError) as err:
        list(enumerate_subgroups(amb, budget=budget, **kwargs))
    assert (err.value.needed, err.value.budget) == (needed, budget)


def test_budget_message_names_both_numbers():
    try:
        list(enumerate_subgroups(Ambient(2, 3, 3), budget=10))
    except BudgetExceededError as err:
        assert "10" in str(err) and str(err.needed) in str(err)
    else:
        pytest.fail("expected the budget to trip")


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(-3, 10**5) if is_prime(n)] == [
        n for n in range(-3, 10**5) if _trial_division(n)
    ]


def test_is_prime_beyond_trial_division():
    assert not is_prime(561)  # a Carmichael number
    assert not is_prime(3215031751)  # strong pseudoprime to the bases 2, 3, 5, 7
    assert is_prime(10**18 + 3)
    assert is_prime(2**61 - 1)


def test_is_prime_refuses_the_first_pseudoprime_to_all_twelve_bases():
    # 318665857834031151167461 is composite and passes every base
    with pytest.raises(ValueError, match=str(_PSI_12)):
        is_prime(318665857834031151167461)
    with pytest.raises(ValueError):
        Ambient(_PSI_12 + 2, 1, 1)


def test_subgroups_of_two_ambients_do_not_meet():
    small, big = Ambient(2, 2, 1), Ambient(2, 2, 2)
    a = subgroup_from_rows(small, [(1, 0)])
    b = subgroup_from_rows(big, [(1, 0)])
    with pytest.raises(ValueError) as err:
        intersect(a, b)
    want = "ambient mismatch: Ambient(p=2, n=2, r=1) vs Ambient(p=2, n=2, r=2)"
    assert str(err.value) == want


def test_subgroups_hash_as_the_tuple_of_their_fields():
    reps = list(enumerate_subgroups(Ambient(2, 2, 2)))
    again = set(enumerate_subgroups(Ambient(2, 2, 2)))
    assert len(set(reps)) == len(reps) == 15 and again == set(reps)
    for rep in reps:
        assert rep == (rep.ambient, rep.rows) and hash(rep) == hash((rep.ambient, rep.rows))
        assert hash(rep.ambient) == hash((2, 2, 2))
