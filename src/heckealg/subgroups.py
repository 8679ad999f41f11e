"""Subgroup enumeration in truncated lattices (Z/p^r)^n.

Each subgroup of (Z/p^r)^n has exactly one basis in Howell canonical
form, so subgroups are enumerated by generating canonical bases directly.
Only the pivot structures (pivot columns and valuations) of the requested
order are generated.  Each row gets its whole-row choices: 0 left of the
pivot, the pivot, the reduced ranges after it.  A filling is kept only
when every row satisfies the Howell closure condition against the rows
below it.  No generate-and-deduplicate pass ever happens, and each
subgroup appears exactly once, in a deterministic order.

Budgets are enforced up front: the number of candidate fillings is the
product of the lengths of the choices.  It is summed while the pivot
structures are listed, and a BudgetExceededError names the bound as soon
as the running sum passes it, before any filling is tried.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, namedtuple
from collections.abc import Iterator, Sequence
from functools import lru_cache

from .errors import BudgetExceededError
from .modmat import _howell_rows, _span_contains_rows, _span_order_exp
from .partitions import (
    Partition,
    order_exponent,
    p_rank,
    type_from_torsion_profile,
    validate_partition,
)

__all__ = [
    "DEFAULT_BUDGET",
    "Ambient",
    "SubgroupRep",
    "subgroup_from_rows",
    "enumerate_subgroups",
    "type_of",
    "intersect",
    "quotient_type",
    "count_of_type_in_group",
    "m_count",
    "standard_split",
]

DEFAULT_BUDGET = 10**6

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# psi_12 (Sorenson and Webster, 2015): the least odd composite that passes
# the strong-probable-prime test to every base in _SMALL_PRIMES
_PSI_12 = 318665857834031151167461


def is_prime(p: int) -> bool:
    """Miller-Rabin to the bases _SMALL_PRIMES: exact below _PSI_12, else ValueError."""
    if p < 2:
        return False
    if p >= _PSI_12:
        raise ValueError(f"primality is decided only below {_PSI_12}, got {p}")
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2^s with d odd
    d = (p - 1) >> s
    for a in _SMALL_PRIMES:
        if p % a == 0:
            return p == a
        x = pow(a, d, p)
        if x != 1 and all(pow(x, 2**j, p) != p - 1 for j in range(s)):
            return False
    return True


class Ambient(namedtuple("Ambient", "p n r")):
    """The truncated lattice (Z/p^r)^n."""

    __slots__ = ()

    def __new__(cls, p: int, n: int, r: int):
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        if n < 1:
            raise ValueError(f"ambient rank must be at least 1, got {n}")
        if r < 1:
            raise ValueError(f"truncation exponent must be at least 1, got {r}")
        return super().__new__(cls, p, n, r)


class SubgroupRep(namedtuple("SubgroupRep", "ambient rows")):
    """A subgroup of an ambient, held as its canonical Howell rows.

    rows are tuples of length ambient.n with entries in [0, p^r), in the
    Howell form of :mod:`heckealg.modmat`.  Equal subgroups compare equal
    structurally because the rows are canonical; the constructor checks
    nothing, so build one from arbitrary generators with
    :func:`subgroup_from_rows`.
    """

    __slots__ = ()

    @property
    def order_exp(self) -> int:
        """d with |subgroup| = p^d."""
        return _span_order_exp(self.rows, self.ambient.p, self.ambient.r)

    def contains(self, other: "SubgroupRep") -> bool:
        _require_same_ambient(self, other)
        # the rows are already canonical, so membership needs no Howell pass
        p, r = self.ambient.p, self.ambient.r
        return all(_span_contains_rows(self.rows, row, p, r) for row in other.rows)


def subgroup_from_rows(
    ambient: Ambient, rows: Sequence[Sequence[int]]
) -> SubgroupRep:
    """Subgroup spanned by arbitrary generating rows of length ambient.n.

    Entries may be any integers; they are reduced mod p^r.
    """
    p, r, n = ambient.p, ambient.r, ambient.n
    pr = p**r
    reduced = []
    for row in rows:
        if len(row) != n:
            raise ValueError(f"row length {len(row)} does not match ambient rank {n}")
        reduced.append(tuple(x % pr for x in row))
    return SubgroupRep(ambient, _howell_rows(reduced, p, r, n))


def _require_same_ambient(a: SubgroupRep, b: SubgroupRep) -> None:
    if a.ambient != b.ambient:
        raise ValueError(f"ambient mismatch: {a.ambient} vs {b.ambient}")


# --- enumeration -----------------------------------------------------------


def _valuations(lows: tuple[int, ...], r: int, need: int | None) -> Iterator[tuple]:
    """Valuations e_i in [lows[i], r), lexicographically, with sum(r - e_i) == need.

    need None yields them all.  A prefix is cut once the remaining columns,
    each adding 1 to r - lows[i], cannot complete it.
    """
    if not lows:
        if not need:
            yield ()
        return
    rest = lows[1:]
    room = sum(r - low for low in rest)
    for e in range(lows[0], r):
        left = None if need is None else need - (r - e)
        if left is None or len(rest) <= left <= room:
            yield from ((e,) + tail for tail in _valuations(rest, r, left))


def enumerate_subgroups(
    ambient: Ambient,
    *,
    order_exp: int | None = None,
    col_val_min: Sequence[int] | None = None,
    budget: int | None = None,
) -> Iterator[SubgroupRep]:
    """Yield every subgroup of the ambient exactly once.

    Only the pivot structures of order p^order_exp are generated.  The
    whole-row choices of each are built once: they price it for the
    budget, and their product fills it.

    Args:
        ambient: the lattice (Z/p^r)^n.
        order_exp: if given, only subgroups of order p^order_exp.
        col_val_min: per-column minimum p-valuations; restricts the sweep
            to subgroups of the diagonal subgroup with entries at column j
            divisible by p^col_val_min[j].
        budget: candidate-filling cap (default DEFAULT_BUDGET).  The
            candidates of each pivot structure are counted as the
            structures are listed, and BudgetExceededError is raised as
            soon as the running total passes the cap, before any subgroup
            is yielded.  Its ``needed`` is then a lower bound.

    Yields:
        SubgroupRep values whose rows are already canonical.
    """
    p, n, r = ambient.p, ambient.n, ambient.r
    pr = p**r
    if budget is None:
        budget = DEFAULT_BUDGET
    floors = tuple(col_val_min) if col_val_min is not None else (0,) * n
    if len(floors) != n:
        raise ValueError(f"col_val_min needs {n} entries, got {len(floors)}")
    if any(f < 0 or f > r for f in floors):
        raise ValueError(f"column valuation floors must lie in [0, {r}]")

    # each structure has at least one candidate, so the list stays within the budget
    structures = []
    needed = 0
    for k in range(n + 1):
        for cols in itertools.combinations(range(n), k):
            for es in _valuations(tuple(floors[j] for j in cols), r, order_exp):
                top = dict(zip(cols, es))  # entries above a pivot p^e lie in [0, p^e)
                choices = [
                    ((0,),) * c
                    + ((p**e,),)
                    + tuple(
                        range(0, p ** top.get(j, r), p ** floors[j])
                        for j in range(c + 1, n)
                    )
                    for c, e in zip(cols, es)
                ]
                needed += math.prod(len(v) for row in choices for v in row)
                if needed > budget:
                    raise BudgetExceededError(needed, budget)
                structures.append((es, choices))

    def fill(es: tuple, choices: list, i: int, below: tuple) -> Iterator[tuple]:
        # rows are generated bottom-up so each closure check only
        # needs the (already canonical) rows below
        if i < 0:
            yield below
            return
        for row in itertools.product(*choices[i]):
            if es[i]:
                shadow = tuple(p ** (r - es[i]) * x % pr for x in row)
                if any(shadow) and not _span_contains_rows(below, shadow, p, r):
                    continue
            yield from fill(es, choices, i - 1, (row,) + below)

    for es, choices in structures:
        for rows in fill(es, choices, len(choices) - 1, ()):
            yield SubgroupRep(ambient, rows)


# --- isomorphism types -----------------------------------------------------


def _quotient_type_rows(
    rows: tuple[tuple[int, ...], ...],
    sub_rows: tuple[tuple[int, ...], ...],
    p: int,
    r: int,
    n: int,
) -> Partition:
    """Type of <rows>/<sub_rows> for canonical bases, the second span inside the first.

    Uses |(L/M)[p^k]| = |L| / |p^k L + M|.  p^k L is spanned by p^k
    times the rows of L, so each k needs one Howell form of those rows
    stacked with M's, nothing else.  For k = 0 the join is L itself.
    """
    pr = p**r
    oe_top = oe = _span_order_exp(rows, p, r)
    oe_sub = _span_order_exp(sub_rows, p, r)
    profile = [0]
    while oe != oe_sub:
        pk = p ** len(profile)
        join = [tuple(x * pk % pr for x in row) for row in rows] + list(sub_rows)
        oe = _span_order_exp(_howell_rows(join, p, r, n), p, r)
        profile.append(oe_top - oe)
    return type_from_torsion_profile(profile)


@lru_cache(maxsize=1 << 18)
def _type_of_rows(
    hrows: tuple[tuple[int, ...], ...], p: int, r: int, n: int
) -> Partition:
    """Type from a canonical basis: the type of S/0."""
    return _quotient_type_rows(hrows, (), p, r, n)


def type_of(s: SubgroupRep) -> Partition:
    """Isomorphism type of the subgroup, as a partition."""
    return _type_of_rows(s.rows, s.ambient.p, s.ambient.r, s.ambient.n)


def intersect(a: SubgroupRep, b: SubgroupRep) -> SubgroupRep:
    """Intersection, computed through the kernel of the stacked basis.

    A vector in both spans is x*A = y*B; the pairs (x, y) form the kernel
    of the stacked matrix [A; -B], which the Howell form of an augmented
    matrix exposes as the rows whose leading n columns vanish.
    """
    _require_same_ambient(a, b)
    amb = a.ambient
    p, r, n = amb.p, amb.r, amb.n
    pr = p**r
    arows = a.rows
    brows = b.rows
    if not arows or not brows:
        return SubgroupRep(amb, ())
    na, nb = len(arows), len(brows)
    width = n + na + nb
    aug = []
    for i, row in enumerate(arows):
        tail = [0] * (na + nb)
        tail[i] = 1
        aug.append(row + tuple(tail))
    for i, row in enumerate(brows):
        tail = [0] * (na + nb)
        tail[na + i] = 1
        aug.append(tuple((-x) % pr for x in row) + tuple(tail))
    hrows = _howell_rows(aug, p, r, width)
    gens = []
    for row in hrows:
        if any(row[:n]):
            continue
        x = row[n : n + na]
        w = [0] * n
        for coef, arow in zip(x, arows):
            if coef:
                for j in range(n):
                    w[j] = (w[j] + coef * arow[j]) % pr
        if any(w):
            gens.append(tuple(w))
    return SubgroupRep(amb, _howell_rows(gens, p, r, n))


def quotient_type(l: SubgroupRep, m: SubgroupRep) -> Partition:
    """Type of L/M for M a subgroup of L."""
    _require_same_ambient(l, m)
    if not l.contains(m):
        raise ValueError("quotient undefined: second argument is not a subgroup of the first")
    amb = l.ambient
    return _quotient_type_rows(l.rows, m.rows, amb.p, amb.r, amb.n)


# --- counting --------------------------------------------------------------


def _diagonal_rows(lam: Partition, p: int) -> tuple[tuple[int, ...], ...]:
    """Rows p^(r - lam_j) e_j of a fixed group of nonempty type lam, r = lam_1;
    already in Howell form."""
    return tuple(
        tuple(p ** (lam[0] - part) if i == j else 0 for i in range(len(lam)))
        for j, part in enumerate(lam)
    )


def _sweep(
    lam: Partition, order_exp: int | None, p: int, budget: int
) -> Iterator[SubgroupRep]:
    """Subgroups of order p^order_exp (None: every order) of the group that
    _diagonal_rows(lam, p) spans, the one caller of enumerate_subgroups.

    The column floors r - lam_j keep every subgroup inside that group.
    """
    floors = tuple(lam[0] - part for part in lam)
    amb = Ambient(p, len(lam), lam[0])
    return enumerate_subgroups(amb, order_exp=order_exp, col_val_min=floors, budget=budget)


# each table below is one _sweep, memoised and shared by every caller with
# its key, so a table is never changed


@lru_cache(maxsize=1 << 12)
def _type_census(lam: Partition, order_exp: int | None, p: int, budget: int) -> Counter:
    """Subgroups of order p^order_exp (None: every order) of a fixed group of
    nonempty type lam, counted by type."""
    return Counter(map(type_of, _sweep(lam, order_exp, p, budget)))


@lru_cache(maxsize=1 << 12)
def _hall_census(lam: Partition, p: int, budget: int) -> Counter:
    """Every subgroup S of a fixed group of nonempty type lam, counted by
    (type S, type lam/S): the Hall table of the c oracle."""
    rows = _diagonal_rows(lam, p)
    return Counter(
        (type_of(s), _quotient_type_rows(rows, s.rows, p, lam[0], len(lam)))
        for s in _sweep(lam, None, p, budget)
    )


@lru_cache(maxsize=1 << 12)
def _meet_census(
    r: int, rank: int, order_exp: int, p: int, split: str, budget: int
) -> Counter:
    """Subgroups S of order p^order_exp of (Z/p^r)^rank, counted by
    (type S, type S & V), V the standard_split kernel: the i_count table."""
    v = standard_split(Ambient(p, rank, r), split)
    subs = _sweep((r,) * rank, order_exp, p, budget)
    return Counter((type_of(s), type_of(intersect(s, v))) for s in subs)


def count_of_type_in_group(
    lam: Sequence[int], mu: Sequence[int], p: int, *, budget: int | None = None
) -> int:
    """Number of subgroups isomorphic to ``mu`` in a fixed group of type ``lam``.

    Pure brute force by design: this is the oracle other components are
    validated against, so it must stay free of embedding shortcuts.  It
    reads the type census of the order-p^|mu| subgroups of lam, one sweep
    shared by every mu of that order.
    """
    lam = validate_partition(lam)
    mu = validate_partition(mu)
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if not lam or order_exponent(mu) > order_exponent(lam):
        return 0 if mu else 1  # nothing but the trivial subgroup fits
    budget = DEFAULT_BUDGET if budget is None else budget
    return _type_census(lam, order_exponent(mu), p, budget)[mu]


def m_count(m: Sequence[int], n: int, p: int, *, budget: int | None = None) -> int:
    """Number of subgroups of (Q_p/Z_p)^n isomorphic to the type ``m``.

    Every copy lies inside the p^(m_1)-torsion, so the count happens in
    the finite group of type (m_1, ..., m_1) with n parts.  Zero when the
    p-rank exceeds n: the count then happens in the trivial group.
    """
    m = validate_partition(m)
    lam = m[:1] * n if p_rank(m) <= n else ()
    return count_of_type_in_group(lam, m, p, budget=budget)


def standard_split(ambient: Ambient, split: str = "first") -> SubgroupRep:
    """The coordinate kernel of the standard split surjection.

    For an ambient of rank n+1 this is the copy of (Z/p^r)^n spanned by
    the first n coordinate vectors ("first") or the last n ("last"); the
    surjection itself is projection onto the remaining coordinate.
    """
    if ambient.n < 2:
        raise ValueError("standard_split needs ambient rank at least 2")
    if split not in ("first", "last"):
        raise ValueError(f"split must be 'first' or 'last', got {split!r}")
    idx = range(ambient.n - 1) if split == "first" else range(1, ambient.n)
    rows = []
    for i in idx:
        row = [0] * ambient.n
        row[i] = 1
        rows.append(tuple(row))
    return SubgroupRep(ambient, tuple(rows))
