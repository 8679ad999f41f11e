"""Gaussian binomials and subgroup counts: pure p-counts.

Delsarte's count of the subgroups of each type (Butler, *Subgroup Lattices
and Symmetric Functions*, 1994, 1.4), evaluated at a prime p in integer
arithmetic: its Gaussian binomials come from q-Pascal, so no count here
needs a division.  Nothing here enumerates subgroups.  is_prime, which
every context and ambient applies to p, lives here so that the closed
forms need no enumeration module for it.
"""

from __future__ import annotations

from math import prod

from .partitions import Partition, conjugate, partitions_between

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


def _gaussian_table(p: int, n: int) -> list[list[int]]:
    """Rows a = 0..n of the Gaussian binomials [a; b]_p, 0 <= b <= a, by q-Pascal:
    [a; b] = [a - 1; b - 1] + p^b [a - 1; b], sums of integers, so no division.

    >>> _gaussian_table(2, 3)
    [[1], [1, 1], [1, 3, 1], [1, 7, 7, 1]]
    """
    table = [[1]]
    for a in range(1, n + 1):
        up = table[-1]
        table.append([1] + [up[b - 1] + p**b * up[b] for b in range(1, a)] + [1])
    return table


def _delsarte_counts(lam: Partition, p: int) -> dict[Partition, int]:
    """mu -> the number of subgroups of type mu in a group of type lam, for each
    mu inside lam, in partitions_between's order (Delsarte 1948):
    prod_i p^(mu'_(i+1) (lam'_i - mu'_i)) [lam'_i - mu'_(i+1); mu'_i - mu'_(i+1)]_p.
    Every lam'_i is at most the rank of lam, so _gaussian_table's rows up to
    it, built once, hold each binomial.

    >>> _delsarte_counts((2, 2), 2)
    {(): 1, (1,): 3, (2,): 6, (1, 1): 1, (2, 1): 3, (2, 2): 1}
    """
    lc = conjugate(lam)
    gauss = _gaussian_table(p, len(lam))
    counts = {}
    for mu in partitions_between((), lam):
        mc = conjugate(mu)
        mc += (0,) * (len(lc) + 1 - len(mc))
        counts[mu] = prod(
            p ** (mc[i + 1] * (l - mc[i])) * gauss[l - mc[i + 1]][mc[i] - mc[i + 1]]
            for i, l in enumerate(lc)
        )
    return counts
