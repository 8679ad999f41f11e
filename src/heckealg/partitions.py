"""Partitions as isomorphism types of finite abelian p-groups.

A partition (a_1 >= a_2 >= ... >= a_k > 0) stands for the group
Z/p^a_1 + ... + Z/p^a_k; the empty partition is the trivial group.
Partitions are plain tuples of ints throughout, kept canonical (weakly
decreasing, all parts positive) at every public boundary.

One walk, partitions_between, enumerates them: depth first, largest row
first, from an explicit stack (no recursion), and sorted by size only
when no size is given; partitions_of_exponent is its sized case.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from .errors import ParseError

__all__ = [
    "validate_partition",
    "p_rank",
    "order_exponent",
    "conjugate",
    "embeds",
    "partitions_between",
    "partitions_of_exponent",
    "partitions_up_to",
    "embedded_pairs",
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
        if not isinstance(part, int) or part <= 0 or part is True:  # False fails part <= 0
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


def partitions_between(
    low: Partition, high: Partition, size: int | None = None
) -> Iterator[Partition]:
    """Each c with embeds(low, c) and embeds(c, high), walked depth first
    with no recursion: c_i runs down [low_i, min(high_i, c_(i-1))], largest
    row first, and a zero row ends c.  Without size, a stable sort by size
    gives the order of partitions_up_to; with it, only |c| = size is kept,
    lexicographically decreasing, and c_i stops where the boxes run out:

    >>> list(partitions_between((1,), (2, 1))), list(partitions_between((2,), (3, 2), 4))
    ([(1,), (2,), (1, 1), (2, 1)], [(3, 1), (2, 2)])
    """
    rows = len(high)
    low += (0,) * (rows - len(low))
    # the boxes c may add to low; with no size, more than high leaves room for
    spare = sum(high) if size is None else size - sum(low)
    found, stack = [], [((), spare)] if len(low) == rows else []  # (rows of c, boxes left)
    keep, push, pop = found.append, stack.append, stack.pop
    while stack:
        c, rest = pop()
        i = len(c)
        if i == rows or rest is None:  # rest None: c ended by a zero row
            if size is None or not rest:  # a class that places too few is dropped
                keep(c)
            continue
        lo, top = low[i], c[-1] if i and c[-1] < high[i] else high[i]
        if lo + rest < top:
            top = lo + rest
        if not lo and (size is None or not rest):
            push((c, None))  # popped after the longer classes above c
        for x in range(lo or 1, top + 1):
            push((c + (x,), rest + lo - x))
    yield from found if size is not None else sorted(found, key=sum)


def partitions_of_exponent(d: int, max_parts: int) -> Iterator[Partition]:
    """Partitions of d into at most max_parts parts, lexicographically
    decreasing: the sized walk of partitions_between below (d,) * max_parts."""
    return partitions_between((), (d,) * max_parts, d)


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


def embedded_pairs(max_order_exp: int, rank: int) -> Iterator[tuple[Partition, Partition]]:
    """(big, small) for each big of partitions_up_to(max_order_exp, rank)
    and each small inside it: the cells (B, A) of the transfer's inverse
    b(B, A).

    >>> list(embedded_pairs(2, 2))[-3:]
    [((1, 1), ()), ((1, 1), (1,)), ((1, 1), (1, 1))]
    """
    for big in partitions_up_to(max_order_exp, rank):
        for small in partitions_between((), big):
            yield big, small


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
        if not tok.isdecimal():  # isdigit also admits "²", which int rejects
            raise ParseError(f"bad partition part {tok!r} in {text!r}")
        parts.append(int(tok))
    try:
        return validate_partition(parts)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def format_partition(lam: Partition) -> str:
    """Inverse of parse_partition: "[]" for the empty partition."""
    return "[" + ",".join(str(a) for a in lam) + "]"
