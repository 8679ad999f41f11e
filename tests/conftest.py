"""Fixtures shared by the test modules."""

import sys
from collections import Counter
from functools import cache
from itertools import groupby
from math import prod

import pytest

from heckealg.errors import exact_quotient
from heckealg.modmat import _span_order_exp
from heckealg.omega import OmegaContext, a_coeff
from heckealg.partitions import conjugate, partitions_between
from heckealg.subgroups import (
    DEFAULT_BUDGET,
    Ambient,
    _hall_census,
    _meet_census,
    _type_census,
    enumerate_subgroups,
    intersect,
    standard_split,
)

# every sweep of the library enumerates the subgroups of a group of some type
# into one of these memoised tables, and they outlive the contexts that read them
TABLES = (_type_census, _hall_census, _meet_census)


@pytest.fixture
def cold_tables():
    """Forget every memoised sweep before and after the test, as a fresh process would."""
    for table in TABLES:
        table.cache_clear()
    yield
    for table in TABLES:
        table.cache_clear()


@pytest.fixture
def sweeps(monkeypatch, cold_tables):
    """Every subgroup sweep made during the test, from cold tables.

    Each entry is (table, (p, n, r, order_exp, floors, budget)), table the
    name of the table that enumerated the subgroups of a group of type lam,
    held in (Z/p^r)^n with r = lam_1 and n = len(lam), and floors the column
    valuations r - lam_j, so that two entries are equal exactly when they
    sweep the same subgroups.
    """
    subgroups = sys.modules["heckealg.subgroups"]
    real = subgroups.enumerate_subgroups
    made = []

    def sweep(lam, p, *, order_exp=None, budget=DEFAULT_BUDGET):
        table = sys._getframe(1).f_code.co_name
        assert table in {t.__name__ for t in TABLES}, f"{table} enumerated outside the tables"
        floors = tuple(lam[0] - part for part in lam)
        made.append((table, (p, len(lam), lam[0], order_exp, floors, budget)))
        return real(lam, p, order_exp=order_exp, budget=budget)

    monkeypatch.setattr(subgroups, "enumerate_subgroups", sweep)
    yield made


def error_message(kind, call, *args, **kwargs) -> str:
    """The message of the error of that kind which call(*args, **kwargs) raises."""
    with pytest.raises(kind) as info:
        call(*args, **kwargs)
    return str(info.value)


# --- the points of a span, found by closing its rows -----------------------


def brute_span(p, r, rows, width):
    """Every Z-combination of the rows mod p^r, as a frozen set of tuples:
    the points of the subgroup the rows span, by closing them under addition."""
    pr = p**r
    points = {tuple([0] * width)}
    frontier = [tuple([0] * width)]
    while frontier:
        base = frontier.pop()
        for row in rows:
            new = tuple((b + x) % pr for b, x in zip(base, row))
            if new not in points:
                points.add(new)
                frontier.append(new)
    return frozenset(points)


# --- the transfer's fibers, which no library route counts -------------------


def fibers(p: int, n: int, r: int):
    """(s, count) for every subgroup N of order p^s <= p^r inside V, the
    "first" kernel of (Z/p^max(r, 1))^(n+1): count is the number of
    order-p^r subgroups S with S & V = N, found by intersecting each S with
    V.  The transfer's fibers have p^((r - s) n) members."""
    amb = Ambient(p, n + 1, max(r, 1))
    v = standard_split(amb, "first")
    lam = (amb.r,) * amb.n
    meets = Counter(intersect(sub, v) for sub in enumerate_subgroups(lam, p, order_exp=r))
    for s in range(r + 1):
        for nrep in filter(v.contains, enumerate_subgroups(lam, p, order_exp=s)):
            yield s, meets[nrep]


# --- closed forms that the tests check the library against ------------------


def order_exp(rep) -> int:
    """d with |subgroup| = p^d, read off the subgroup's Howell rows."""
    return _span_order_exp(rep.rows, rep.ambient.p, rep.ambient.r)


def is_horizontal_strip(lam, mu) -> bool:
    """Is lam/mu a horizontal strip, lam_1 >= mu_1 >= lam_2 >= mu_2 >= ... ?"""
    pairs = zip(lam, mu + (0,) * len(lam), lam[1:] + (0,))
    return len(mu) <= len(lam) and all(a >= b >= c for a, b, c in pairs)


def gaussian_binomial(a: int, b: int, p: int) -> int:
    """[a; b]_p = prod_(j < b) (p^(a - j) - 1) / (p^(j + 1) - 1), 0 outside 0 <= b <= a."""
    if not 0 <= b <= a:
        return 0
    return exact_quotient(
        prod(p ** (a - j) - 1 for j in range(b)),
        prod(p ** (j + 1) - 1 for j in range(b)),
        f"the Gaussian binomial [{a}; {b}]_{p}",
    )


def delsarte(lam, mu, p: int) -> int:
    """alpha_lam(mu; p), the number of subgroups of type mu in a group of
    type lam (Delsarte 1948; Butler 1994, 1.4):
    prod_i p^(mu'_(i+1) (lam'_i - mu'_i)) [lam'_i - mu'_(i+1); mu'_i - mu'_(i+1)]_p,
    and 0 unless mu fits inside lam."""
    lc, mc = conjugate(lam), conjugate(mu)
    k = max(len(lc), len(mc))
    lc, mc = lc + (0,) * (k - len(lc)), mc + (0,) * (k + 1 - len(mc))
    if any(m > l for m, l in zip(mc, lc)):
        return 0
    return prod(
        p ** (mc[i + 1] * (lc[i] - mc[i]))
        * gaussian_binomial(lc[i] - mc[i + 1], mc[i] - mc[i + 1], p)
        for i in range(k)
    )


# --- a character of the algebra, read off the transfer ----------------------


def hall_littlewood_point(p: int, y):
    """lam -> u_lam(y_1, ..., y_n), n = len(y), for lam of length <= n: the
    integer Hall-Littlewood model, read off the transfer coefficients alone,

        u^(1)_lam = y_1^|lam|,
        u^(k)_lam = sum_(N inside lam[:k-1]) a_(k-1)(lam, N) y_k^(|lam| - |N|) u^(k-1)_N,

    a_(k-1) the transfer from rank k to rank k - 1.  With x_k = p^(k-1) y_k,
    u_lam(y) = p^(-n(lam)) P_lam(x; 1/p) (Macdonald III (3.4), (5.5')), so
    lam -> u_lam(y) is a character of the rank-n algebra at every integer
    point y."""
    transfers = {k: OmegaContext(p, k - 1) for k in range(2, len(y) + 1)}  # rank k to k - 1

    @cache
    def u(lam, k):
        if k == 1:
            return y[0] ** sum(lam)
        return sum(
            a_coeff(lam, n_, transfers[k]) * y[k - 1] ** (sum(lam) - sum(n_)) * u(n_, k - 1)
            for n_ in partitions_between((), lam[: k - 1])
        )

    return lambda lam: u(lam, len(y))


# --- Riedtmann's route to the transfer coefficients -------------------------


def aut_order(lam, p: int) -> int:
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


def hall_cyclic(lam, mu, p: int) -> int:
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


def riedtmann(m, n_, p: int, n: int) -> int:
    """a(M, N) at rank n for M/N a horizontal t-strip, by Riedtmann's formula:
    v -> p^t v maps the p^(tn) cosets that count a(M, N) onto Ext(Z/p^t, N)
    with fibers of p^(tn) / |N[p^t]|, so that

        a(M, N) = p^(tn) G^M_{N,(t)}(p) |Aut Z/p^t| |Aut N| / |Aut M|,

    G the Hall polynomial and |Aut| the automorphism count, with the
    division checked exact."""
    t = sum(m) - sum(n_)
    num = p ** (t * n) * hall_cyclic(m, n_, p) * aut_order((t,), p) * aut_order(n_, p)
    return exact_quotient(num, aut_order(m, p), "Riedtmann's formula")
