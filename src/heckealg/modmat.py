"""Row spans over Z/p^r in Howell canonical form.

Over the chain ring Z/p^r, row echelon form alone does not determine a
row span: the span of (2, 1) over Z/4 contains (0, 2), which no echelon
descendant of the single row exhibits.  The Howell form repairs this by
closing the row set under multiplication by powers of p, giving a matrix
with one row per "leading column" of the span.  Canonical shape:

* zero rows are dropped;
* each row's leftmost nonzero entry (its pivot) is a power p^e with
  0 <= e < r, and pivot columns strictly increase down the matrix;
* entries above a pivot p^e are reduced modulo p^e;
* for each row v with pivot p^e, the shadow p^(r-e) * v lies in the span
  of the rows below it (the Howell closure property).

Two matrices have the same row span iff they have the same Howell form,
so span equality is a tuple comparison and membership is a single
reduction pass.  All arithmetic is exact on Python ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Sequence

__all__ = ["ModMatrix", "howell_form", "span_contains", "span_equal"]


@dataclass(frozen=True)
class ModMatrix:
    """A matrix over Z/p^r, stored as a tuple of row tuples.

    Rows may be in any shape on construction; entries are validated to be
    reduced residues in [0, p^r).  Use :func:`howell_form` to canonicalize.
    """

    p: int
    r: int
    n_cols: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.p < 2:
            raise ValueError(f"p must be at least 2, got {self.p}")
        if self.r < 1:
            raise ValueError(f"r must be at least 1, got {self.r}")
        if self.n_cols < 0:
            raise ValueError("n_cols must be nonnegative")
        pr = self.p**self.r
        for row in self.rows:
            if len(row) != self.n_cols:
                raise ValueError(
                    f"row length {len(row)} does not match n_cols {self.n_cols}"
                )
            for x in row:
                if not (0 <= x < pr):
                    raise ValueError(f"entry {x} not a reduced residue mod {pr}")

    @classmethod
    def from_rows(
        cls, p: int, r: int, n_cols: int, rows: Iterable[Sequence[int]]
    ) -> "ModMatrix":
        """Build a matrix, reducing arbitrary integer entries mod p^r."""
        pr = p**r
        return cls(p, r, n_cols, tuple(tuple(x % pr for x in row) for row in rows))

    def same_shape(self, other: "ModMatrix") -> bool:
        return (
            self.p == other.p and self.r == other.r and self.n_cols == other.n_cols
        )


def _require_same_shape(a: ModMatrix, b: ModMatrix) -> None:
    if not a.same_shape(b):
        raise ValueError(
            f"parameter mismatch: (p={a.p}, r={a.r}, n_cols={a.n_cols}) vs "
            f"(p={b.p}, r={b.r}, n_cols={b.n_cols})"
        )


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


def howell_form(a: ModMatrix) -> ModMatrix:
    """Canonical Howell form of ``a``; equal spans give equal results."""
    return ModMatrix(a.p, a.r, a.n_cols, _howell_rows(a.rows, a.p, a.r, a.n_cols))


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


def span_contains(a: ModMatrix, v: Sequence[int]) -> bool:
    """Is the vector ``v`` in the row span of ``a``?

    Args:
        a: any matrix over Z/p^r (canonicalized internally).
        v: a vector of length ``a.n_cols``; entries reduced mod p^r.

    Returns:
        True iff v is a Z/p^r-linear combination of the rows of ``a``.
    """
    if len(v) != a.n_cols:
        raise ValueError(f"vector length {len(v)} does not match n_cols {a.n_cols}")
    hrows = _howell_rows(a.rows, a.p, a.r, a.n_cols)
    return _span_contains_rows(hrows, v, a.p, a.r)


def span_equal(a: ModMatrix, b: ModMatrix) -> bool:
    """Do two matrices span the same submodule of (Z/p^r)^n_cols?"""
    _require_same_shape(a, b)
    return _howell_rows(a.rows, a.p, a.r, a.n_cols) == _howell_rows(
        b.rows, b.p, b.r, b.n_cols
    )
