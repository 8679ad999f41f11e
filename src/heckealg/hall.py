"""Hall polynomials and automorphism counts: pure p-counts on partitions.

Closed forms of Macdonald, *Symmetric Functions and Hall Polynomials*
(2nd ed.), evaluated at a prime p in integer arithmetic with every
division checked exact.  Nothing here enumerates subgroups.
"""

from __future__ import annotations

from collections import Counter
from math import prod

from .errors import VerificationError, exact_quotient
from .partitions import Partition, conjugate, format_partition


def _aut_order(lam: Partition, p: int) -> int:
    """|Aut| of the group of type lam, m_j its parts equal to j (Macdonald II (1.6)):
    p^(sum lam'_i^2 - sum_j m_j (m_j + 1) / 2) prod_j prod_(k <= m_j) (p^k - 1).
    """
    exp = sum(c * c for c in conjugate(lam))
    value = 1
    for m in Counter(lam).values():
        exp -= m * (m + 1) // 2
        value *= prod(p**k - 1 for k in range(1, m + 1))
    return p**exp * value


def _n_weight(lam: Partition) -> int:
    return sum(i * part for i, part in enumerate(lam))  # n(lam) = sum (i - 1) lam_i


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


def _gaussian_binomial(a: int, b: int, p: int) -> int:
    """[a; b]_p = prod_(j < b) (p^(a - j) - 1) / (p^(j + 1) - 1)."""
    num = prod(p ** (a - j) - 1 for j in range(b))
    den = prod(p ** (j + 1) - 1 for j in range(b))
    return exact_quotient(num, den, f"the Gaussian binomial [{a}; {b}]_{p}")


def _hall_vertical(lam: Partition, mu: Partition, p: int) -> int:
    """G^lam_{mu,(1^k)}(p), lam/mu a vertical k-strip (Macdonald II (4.6)).

    With a_i = lam'_i - lam'_(i+1) and b_i = lam'_i - mu'_i, II (4.6) reads
    p^(n(lam) - n(mu) - n(1^k)) prod_i [a_i; b_i]_(1/p); since
    [a; b]_(1/p) = p^(-b(a - b)) [a; b]_p this is

        p^(n(lam) - n(mu) - k(k - 1)/2 - sum_i b_i (a_i - b_i)) prod_i [a_i; b_i]_p.

    >>> _hall_vertical((1, 1), (1,), 2), _hall_vertical((2, 2, 1), (2, 1), 3)
    (3, 12)
    """
    k = sum(lam) - sum(mu)
    cols = conjugate(lam) + (0,)
    inner = conjugate(mu) + (0,) * len(cols)
    exp = _n_weight(lam) - _n_weight(mu) - k * (k - 1) // 2
    value = 1
    for i in range(len(cols) - 1):
        a, b = cols[i] - cols[i + 1], cols[i] - inner[i]
        exp -= b * (a - b)
        value *= _gaussian_binomial(a, b, p)
    if exp < 0:
        raise VerificationError(
            f"G^{format_partition(lam)}_({format_partition(mu)}, 1^{k}) "
            f"has the negative p-exponent {exp}"
        )
    return p**exp * value
