"""Hall polynomials, automorphism counts, Gaussian binomials and subgroup
counts: pure p-counts.

Closed forms of Macdonald, *Symmetric Functions and Hall Polynomials*
(2nd ed.), and Delsarte's count of the subgroups of each type (Butler,
*Subgroup Lattices and Symmetric Functions*, 1994, 1.4), evaluated at a
prime p in integer arithmetic: every division is checked exact, and the
Gaussian binomials, so the subgroup counts, need none.  Nothing here
enumerates subgroups.  is_prime, which every context and ambient applies
to p, lives here so that the closed forms need no enumeration module for it.
"""

from __future__ import annotations

from itertools import groupby
from math import prod

from .errors import exact_quotient
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


def _aut_order(lam: Partition, p: int) -> int:
    """|Aut| of the group of type lam, m_j its parts equal to j (Macdonald II (1.6)):
    p^(sum lam'_i^2 - sum_j m_j (m_j + 1) / 2) prod_j prod_(k <= m_j) (p^k - 1),

    with sum_i lam'_i^2 = sum_i (2i - 1) lam_i and the m_j the run lengths of lam.
    """
    exp = sum((2 * i + 1) * part for i, part in enumerate(lam))
    value = 1
    for _, run in groupby(lam):
        m = len(tuple(run))
        exp -= m * (m + 1) // 2
        value *= prod(p**k - 1 for k in range(1, m + 1))
    return p**exp * value


def _hall_cyclic(lam: Partition, mu: Partition, p: int) -> int:
    """G^lam_{mu,(t)}(p), lam/mu a horizontal t-strip (Macdonald III (3.2), (5.7')).

    p^(n(lam) - n(mu) + 1 - sum_I m_i) prod_I (p^(m_i) - 1) / (p - 1), with m_i the
    parts of lam equal to i and I the columns i where theta' = lam' - mu' has
    theta'_i = 1 and theta'_(i+1) = 0.
    """
    rows = list(zip(lam, mu + (0,)))
    theta = {i for a, b in rows for i in range(b + 1, a + 1)}  # the i with theta'_i = 1
    ends = [lam.count(i) for i in theta if i + 1 not in theta]
    exp = sum(i * (a - b) for i, (a, b) in enumerate(rows)) + 1 - sum(ends)
    num = prod(p**m - 1 for m in ends) * p ** max(exp, 0)
    return exact_quotient(num, (p - 1) * p ** max(-exp, 0), "a Hall polynomial")


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
