"""Row spans over Z/p^r in Howell canonical form, on plain row tuples.

Over the chain ring Z/p^r, row echelon form alone does not determine a
row span: the span of (2, 1) over Z/4 contains (0, 2), which no echelon
descendant of the single row exhibits.  The Howell form repairs this by
closing the row set under multiplication by powers of p, giving one row
per "leading column" of the span.  Canonical shape:

* zero rows are dropped;
* each row's leftmost nonzero entry (its pivot) is a power p^e with
  0 <= e < r, and pivot columns strictly increase down the rows;
* entries above a pivot p^e are reduced modulo p^e;
* for each row v with pivot p^e, the shadow p^(r-e) * v lies in the span
  of the rows below it (the Howell closure property).

Row tuples in, row tuples out: rows are tuples of residues in [0, p^r),
and the functions return Howell rows, a membership answer or an order
exponent.  Nothing here validates its input.  Two row sets span the same
submodule iff their Howell forms are equal tuples, and membership is a
single reduction pass.  All arithmetic is exact on Python ints.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Sequence


def _howell_rows(
    rows: Iterable[tuple[int, ...]], p: int, r: int, n_cols: int
) -> tuple[tuple[int, ...], ...]:
    """Howell form as raw row tuples; the hot path for the whole package."""
    pr = p**r
    work = [row for row in rows if any(row)]
    pivots: list[tuple[int, int, tuple[int, ...]]] = []  # (col, p^e, row)
    for j in range(n_cols):
        if not work:
            break
        cur: list[tuple[int, ...]] = []
        rest: list[tuple[int, ...]] = []
        for w in work:
            (cur if w[j] else rest).append(w)
        if not cur:
            work = rest
            continue
        # gcd(x, p^r) = p^(valuation of x): the pivot has the least valuation
        i0 = min(range(len(cur)), key=lambda i: gcd(cur[i][j], pr))
        piv = cur.pop(i0)
        pe = gcd(piv[j], pr)
        unit = piv[j] // pe
        if unit != 1:
            inv = pow(unit, -1, pr)
            piv = tuple(inv * x % pr for x in piv)
        for w in cur:
            q = w[j] // pe
            w2 = tuple((a - q * b) % pr for a, b in zip(w, piv))
            if any(w2):
                rest.append(w2)
        if pe != 1:
            # shadow row: keeps the span's deeper leading columns visible
            shadow = tuple(pr // pe * x % pr for x in piv)
            if any(shadow):
                rest.append(shadow)
        pivots.append((j, pe, piv))
        work = rest
    out = [piv for (_, _, piv) in pivots]
    for idx, (j, pe, _) in enumerate(pivots):
        base = out[idx]
        for i2 in range(idx):
            q = out[i2][j] // pe
            if q:
                out[i2] = tuple((a - q * b) % pr for a, b in zip(out[i2], base))
    return tuple(out)


def _leading(row: tuple[int, ...]) -> int:
    for j, x in enumerate(row):
        if x:
            return j
    raise ValueError("zero row has no leading column")


def _span_contains_rows(
    hrows: tuple[tuple[int, ...], ...], v: Sequence[int], p: int, r: int
) -> bool:
    """Membership of v in the span of Howell-form rows."""
    pr = p**r
    w = [x % pr for x in v]
    for row in hrows:
        j = _leading(row)
        if w[j]:
            q = w[j] // row[j]  # a Howell pivot is exactly p^e
            if q:
                w = [(a - q * b) % pr for a, b in zip(w, row)]
            if w[j]:
                return False
    return not any(w)


def _span_order_exp(hrows: Sequence[tuple[int, ...]], p: int, r: int) -> int:
    """d with |span| = p^d for Howell-form rows: a pivot p^e adds r - e."""
    d = r * len(hrows)
    for row in hrows:
        pivot = row[_leading(row)]
        while pivot > 1:
            pivot //= p
            d -= 1
    return d
