"""Partitions as isomorphism types of finite abelian p-groups.

A partition (a_1 >= a_2 >= ... >= a_k > 0) stands for the group
Z/p^a_1 + ... + Z/p^a_k; the empty partition is the trivial group.
Partitions are plain tuples of ints throughout, kept canonical (weakly
decreasing, all parts positive) at every public boundary.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from itertools import product

from .errors import ParseError

__all__ = [
    "validate_partition",
    "p_rank",
    "order_exponent",
    "torsion_type",
    "conjugate",
    "embeds",
    "is_horizontal_strip",
    "horizontal_strips",
    "strips_below",
    "partitions_between",
    "partitions_of_exponent",
    "partitions_up_to",
    "type_from_torsion_profile",
    "parse_partition",
    "format_partition",
    "partition_sort_key",
]

Partition = tuple[int, ...]


def validate_partition(lam: Sequence[int]) -> Partition:
    """Return ``lam`` as a canonical tuple, or raise ValueError."""
    t = tuple(lam)
    for i, part in enumerate(t):
        if not isinstance(part, int) or part <= 0:
            raise ValueError(f"partition parts must be positive integers, got {t}")
        if i and t[i - 1] < part:
            raise ValueError(f"partition parts must be weakly decreasing, got {t}")
    return t


def p_rank(lam: Partition) -> int:
    """Number of cyclic summands (minimal generator count)."""
    return len(lam)


def order_exponent(lam: Partition) -> int:
    """d with |group| = p^d."""
    return sum(lam)


def torsion_type(lam: Partition, k: int) -> Partition:
    """Type of the p^k-torsion subgroup: parts min(a_i, k), zeros dropped."""
    if k < 0:
        raise ValueError("torsion exponent must be nonnegative")
    return tuple(min(a, k) for a in lam if min(a, k) > 0)


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram."""
    if not lam:
        return ()
    return tuple(sum(1 for a in lam if a >= i) for i in range(1, lam[0] + 1))


def embeds(mu: Partition, lam: Partition) -> bool:
    """Does the group of type ``mu`` embed into the group of type ``lam``?

    Equivalent to containment of Young diagrams: mu_i <= lam_i for all i.
    Sufficiency is the summand-wise inclusion Z/p^mu_i <= Z/p^lam_i;
    necessity follows from p^(i-1)A being an elementwise subset of
    p^(i-1)B when A <= B, comparing p-ranks.
    """
    if len(mu) > len(lam):
        return False
    return all(m <= l for m, l in zip(mu, lam))


def is_horizontal_strip(lam: Partition, mu: Partition) -> bool:
    """Is lam/mu a horizontal strip, lam_1 >= mu_1 >= lam_2 >= mu_2 >= ... ?

    >>> is_horizontal_strip((3, 1), (2,)), is_horizontal_strip((1, 1), ())
    (True, False)
    """
    pairs = zip(lam, mu + (0,) * len(lam), lam[1:] + (0,))
    return len(mu) <= len(lam) and all(a >= b >= c for a, b, c in pairs)


def horizontal_strips(mu: Partition, t: int, max_parts: int, cap: int) -> Iterator[Partition]:
    """Each lam with lam/mu a horizontal t-strip, lam_1 <= cap and at most
    max_parts parts, lexicographically decreasing.

    lam_i runs over [mu_i, mu_(i-1)] with mu_0 = cap, so every candidate is
    a strip; those that place fewer than t boxes are dropped:

    >>> list(horizontal_strips((2,), 2, 2, 3))
    [(3, 1), (2, 2)]
    """
    rows = min(len(mu) + 1, max_parts)
    if len(mu) > rows:
        return
    grown = [((), t)]  # (first rows of lam, boxes still to place)
    for lo, hi in zip(mu + (0,) * (rows - len(mu)), (cap,) + mu):
        grown = [
            (lam + (part,), rest + lo - part)
            for lam, rest in grown
            for part in range(min(hi, lo + rest), lo - 1, -1)
        ]
    for lam, rest in grown:
        if not rest:
            yield lam[:-1] if lam and not lam[-1] else lam


def strips_below(lam: Partition, max_parts: int) -> Iterator[Partition]:
    """Each mu with lam/mu a horizontal strip and at most max_parts parts.

    mu_i runs over [lam_(i+1), lam_i], so no candidate fails:

    >>> list(strips_below((2, 1), 1))
    [(1,), (2,)]
    """
    if len(lam) <= max_parts + 1:
        bounds = zip(lam[1:] + (0,), lam[:max_parts])
        for mu in product(*(range(lo, hi + 1) for lo, hi in bounds)):
            yield tuple(part for part in mu if part)


def partitions_between(low: Partition, high: Partition) -> Iterator[Partition]:
    """Each c with embeds(low, c) and embeds(c, high), in the order of
    partitions_up_to.  c_i runs over [low_i, min(high_i, c_(i-1))], so no
    candidate fails:

    >>> list(partitions_between((1,), (2, 1)))
    [(1,), (2,), (1, 1), (2, 1)]
    """
    grown = [()] if len(low) <= len(high) else []
    for lo, hi in zip(low + (0,) * (len(high) - len(low)), high):
        grown = [
            c + (x,) for c in grown for x in range(min(hi, c[-1] if c else hi), lo - 1, -1)
        ]
    # lexicographically decreasing so far: a stable sort by size grades it
    for c in sorted(grown, key=sum):
        yield tuple(part for part in c if part)


def partitions_of_exponent(d: int, max_parts: int) -> Iterator[Partition]:
    """Partitions of d into at most max_parts parts, lexicographically decreasing."""

    def gen(rest: int, slots: int, cap: int) -> Iterator[Partition]:
        if rest == 0:
            yield ()
            return
        if slots == 0:
            return
        for first in range(min(rest, cap), 0, -1):
            for tail in gen(rest - first, slots - 1, first):
                yield (first,) + tail

    yield from gen(d, max_parts, d)


def partitions_up_to(max_order_exp: int, max_parts: int) -> Iterator[Partition]:
    """All partitions with sum <= max_order_exp and length <= max_parts.

    Graded by sum, then lexicographically decreasing, so the order is a
    linear extension of the embedding order:

    >>> list(partitions_up_to(2, 2))
    [(), (1,), (2,), (1, 1)]
    >>> list(partitions_up_to(3, 3))[-3:]
    [(3,), (2, 1), (1, 1, 1)]
    """
    for d in range(max_order_exp + 1):
        yield from partitions_of_exponent(d, max_parts)


def partition_sort_key(lam: Partition) -> tuple[int, tuple[int, ...]]:
    """Sort key matching the order produced by partitions_up_to."""
    return (sum(lam), tuple(-a for a in lam))


def type_from_torsion_profile(profile: Sequence[int]) -> Partition:
    """Recover a type from its torsion profile d_k = log_p |G[p^k]|.

    The profile must start at 0, be weakly increasing, and have weakly
    decreasing increments; the type is the conjugate of the increment
    sequence.  Trailing constant values (a stabilized profile) are fine.
    """
    if not profile or profile[0] != 0:
        raise ValueError(f"torsion profile must start at 0, got {list(profile)}")
    incs = []
    for k in range(1, len(profile)):
        inc = profile[k] - profile[k - 1]
        if inc < 0:
            raise ValueError(f"torsion profile must be weakly increasing: {list(profile)}")
        if incs and inc > incs[-1]:
            raise ValueError(
                f"torsion profile increments must be weakly decreasing: {list(profile)}"
            )
        incs.append(inc)
    return conjugate(tuple(a for a in incs if a))


def parse_partition(text: str) -> Partition:
    """Parse "[3,2,1]" or "[]"; rejects non-canonical input rather than sorting.

    >>> parse_partition("[2,1]")
    (2, 1)
    >>> parse_partition("[]")
    ()
    """
    s = text.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise ParseError(f"partition must be bracketed like [2,1] or [], got {text!r}")
    inner = s[1:-1].strip()
    if not inner:
        return ()
    parts = []
    for tok in inner.split(","):
        tok = tok.strip()
        if not tok.isdigit():
            raise ParseError(f"bad partition part {tok!r} in {text!r}")
        parts.append(int(tok))
    try:
        return validate_partition(parts)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def format_partition(lam: Partition) -> str:
    """Inverse of parse_partition: "[]" for the empty partition."""
    return "[" + ",".join(str(a) for a in lam) + "]"
