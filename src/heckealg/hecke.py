"""The Hecke algebra of finite abelian p-groups of bounded rank.

The rank-n algebra is the free Z-module on isomorphism classes of finite
abelian p-groups of p-rank at most n (partitions, here).  The product of
two classes counts configurations inside the colimit lattice
(Q_p/Z_p)^n:

    M * N = sum over L of c(M, N; L) L,

where c(M, N; L) is the number of subgroups of a fixed group of type L
that are isomorphic to M with quotient isomorphic to N.

The algebra is a polynomial ring over Z on the classes T_k of elementary
abelian groups (Z/p)^k for 1 <= k <= n, and multiplying by T_k is the
elementary Pieri rule for Hall polynomials (Macdonald, Symmetric
Functions and Hall Polynomials, II (4.6); see _pieri_row).  A Pieri row
is built block by block: of each block of equal rows of mu it grows the
top few, and reads the Gaussian binomials of II (4.6) from a table that
q-Pascal fills once per context with no division (hall._gaussian_table).
Products, generator decompositions and the structure constants take
that route and enumerate no subgroups: a decomposition peels off
leading terms (_peel, the one solver that also inverts the transfer in
omega), since the T-monomials are unitriangular against the classes, a
product applies the T-monomials of one factor to the other, and
c(M, N; L) is the coefficient of L in the product of M and N.

The one oracle for products and structure constants is the Hall table
of L, one sweep over the subgroups of a fixed group of type L that
counts them by type and quotient type; c_by_enumeration reads c off
it.  The table lives in subgroups, next to every other sweep, and is
shared by all contexts with the same p and budget.

>>> ctx = HeckeContext(p=2, n=2)
>>> print(multiply(basis_element((1,), ctx), basis_element((1,), ctx), ctx))
1*[2] + 3*[1,1]
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterator, Mapping, Sequence
from itertools import groupby

from .cache import coeff_key
from .errors import ParseError, VerificationError
from .hall import _gaussian_table
from .partitions import (
    Partition,
    conjugate,
    format_partition,
    order_exponent,
    p_rank,
    parse_partition,
    partition_sort_key,
    partitions_of_exponent,
    validate_partition,
)
from .subgroups import DEFAULT_BUDGET, _hall_census, is_prime

__all__ = [
    "HeckeContext",
    "HeckeElement",
    "GeneratorPoly",
    "basis_element",
    "identity",
    "t_aggregate",
    "c_coeff",
    "c_by_enumeration",
    "multiply",
    "decompose_in_generators",
    "eval_generator_poly",
    "parse_element",
]


class HeckeContext:
    """Shared state for one (p, n): memos, and the budget of the oracles."""

    def __init__(
        self, p: int, n: int, budget: int = DEFAULT_BUDGET, memo: dict[str, int] | None = None
    ):
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        if n < 1:
            raise ValueError(f"rank must be at least 1, got {n}")
        if budget < 1:
            raise ValueError("budget must be positive")
        self.p, self.n, self.budget = p, n, budget
        self.memo = {} if memo is None else memo
        self._pieri: dict[tuple[Partition, int], dict[Partition, int]] = {}
        self._monos: dict[tuple[int, ...], HeckeElement] = {}
        # products of basis classes for c_coeff, never written to a cache
        self._products: dict[tuple[Partition, Partition], HeckeElement] = {}
        # [a; b]_p for the Pieri rows, built on first use
        self._gauss: list[list[int]] = []


class HeckeElement:
    """A finite Z-linear combination of basis classes, tagged with (p, n).

    Addition and subtraction are context-free; multiplication needs a
    HeckeContext (see :func:`multiply`).  Zero terms are never stored.
    """

    __slots__ = ("p", "n", "terms")

    def __init__(self, p: int, n: int, terms: Mapping[Sequence[int], int]):
        self.p = p
        self.n = n
        clean: dict[Partition, int] = {}
        for lam, coeff in terms.items():
            lam = validate_partition(lam)
            if p_rank(lam) > n:
                raise ValueError(
                    f"class {format_partition(lam)} has p-rank over the algebra rank {n}"
                )
            if not isinstance(coeff, int):
                raise ValueError(f"coefficients must be integers, got {coeff!r}")
            if coeff:
                clean[lam] = coeff
        self.terms = clean

    @classmethod
    def _canonical(
        cls, p: int, n: int, terms: Mapping[Partition, int]
    ) -> "HeckeElement":
        """Trusted constructor: terms are keyed by canonical partitions of
        p-rank at most n, with integer values.  Zero terms are dropped;
        nothing else is checked."""
        self = cls.__new__(cls)
        self.p, self.n = p, n
        self.terms = {lam: c for lam, c in terms.items() if c}
        return self

    def _check_compatible(self, other: "HeckeElement") -> None:
        if self.p != other.p or self.n != other.n:
            raise ValueError(
                f"element context mismatch: (p={self.p}, n={self.n}) vs "
                f"(p={other.p}, n={other.n})"
            )

    def __add__(self, other: "HeckeElement") -> "HeckeElement":
        self._check_compatible(other)
        out = dict(self.terms)
        for lam, c in other.terms.items():
            out[lam] = out.get(lam, 0) + c
        return HeckeElement(self.p, self.n, out)

    def __sub__(self, other: "HeckeElement") -> "HeckeElement":
        self._check_compatible(other)
        out = dict(self.terms)
        for lam, c in other.terms.items():
            out[lam] = out.get(lam, 0) - c
        return HeckeElement(self.p, self.n, out)

    def scaled(self, c: int) -> "HeckeElement":
        return HeckeElement(self.p, self.n, {lam: c * v for lam, v in self.terms.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HeckeElement):
            return NotImplemented
        return (self.p, self.n, self.terms) == (other.p, other.n, other.terms)

    def __hash__(self) -> int:
        return hash((self.p, self.n, tuple(self.sorted_terms())))

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self) -> list[tuple[Partition, int]]:
        return sorted(self.terms.items(), key=lambda kv: partition_sort_key(kv[0]))

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for i, (lam, c) in enumerate(self.sorted_terms()):
            if i == 0:
                pieces.append(f"{c}*{format_partition(lam)}")
            else:
                sign = " + " if c >= 0 else " - "
                pieces.append(f"{sign}{abs(c)}*{format_partition(lam)}")
        return "".join(pieces)

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "n": self.n,
            "terms": [
                {"lambda": list(lam), "coeff": str(c)}
                for lam, c in self.sorted_terms()
            ],
        }

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"HeckeElement(p={self.p}, n={self.n}, {self.to_text()})"


def basis_element(lam: Sequence[int], ctx: HeckeContext) -> HeckeElement:
    return HeckeElement(ctx.p, ctx.n, {validate_partition(lam): 1})


def identity(ctx: HeckeContext) -> HeckeElement:
    """The class of the trivial group, the multiplicative unit."""
    return basis_element((), ctx)


def t_aggregate(r: int, ctx: HeckeContext) -> HeckeElement:
    """Sum of all basis classes of order p^r (the classical T(p^r))."""
    if r < 0:
        raise ValueError("order exponent must be nonnegative")
    return HeckeElement(
        ctx.p, ctx.n, {lam: 1 for lam in partitions_of_exponent(r, ctx.n)}
    )


_ELEMENT_TERM_RE = re.compile(r"\s*([+-])?\s*(\d+)\s*\*\s*(\[[^\]]*\])")


def parse_element(text: str, p: int, n: int) -> HeckeElement:
    """Parse the CLI element literal, e.g. "1*[2] + 3*[1,1]" or "0"."""
    s = text.strip()
    if not s:
        raise ParseError("empty element literal; the zero element is written 0")
    if s == "0":
        return HeckeElement(p, n, {})
    terms: dict[Partition, int] = {}
    pos = 0
    first = True
    while pos < len(s):
        m = _ELEMENT_TERM_RE.match(s, pos)
        if not m:
            raise ParseError(f"bad element literal near {s[pos:pos + 20]!r}")
        sign, coeff, part = m.groups()
        if sign is None and not first:
            raise ParseError(f"missing +/- between terms in {text!r}")
        lam = parse_partition(part)
        value = int(coeff) if sign != "-" else -int(coeff)
        terms[lam] = terms.get(lam, 0) + value
        pos = m.end()
        first = False
    try:
        return HeckeElement(p, n, terms)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


# --- structure constants ----------------------------------------------------


def _hall_table(
    lam: Partition, ctx: HeckeContext
) -> Mapping[tuple[Partition, Partition], int]:
    """All structure constants with target class lam, in one sweep.

    The oracle for c_coeff and multiply: subgroups._hall_census, which
    counts the subgroups of a fixed group of type lam by type and
    quotient type and shares no code with the Pieri rule.
    """
    return _hall_census(lam, ctx.p, ctx.budget) if lam else {((), ()): 1}


def _c_classes(
    m: Sequence[int], n_: Sequence[int], l: Sequence[int], ctx: HeckeContext
) -> tuple[Partition, Partition, Partition] | None:
    """(M, N, L) validated; None when a p-rank exceeds ctx.n or orders do not add up."""
    m, n_, l = validate_partition(m), validate_partition(n_), validate_partition(l)
    if max(p_rank(m), p_rank(n_), p_rank(l)) > ctx.n:
        return None
    if order_exponent(m) + order_exponent(n_) != order_exponent(l):
        return None
    return m, n_, l


def c_coeff(
    m: Sequence[int], n_: Sequence[int], l: Sequence[int], ctx: HeckeContext
) -> int:
    """Structure constant c(M, N; L) of the rank-ctx.n algebra.

    Zero unless all three classes have p-rank at most ctx.n and the order
    exponents add up.  Otherwise it is the coefficient of L in the
    product of M and N (see multiply), which enumerates nothing and is
    computed once per context for every L.
    """
    classes = _c_classes(m, n_, l, ctx)
    if classes is None:
        return 0
    m, n_, l = classes
    key = coeff_key("c", ctx.p, ctx.n, M=m, N=n_, L=l)
    hit = ctx.memo.get(key)
    if hit is not None:
        return hit
    product = ctx._products.get((m, n_))
    if product is None:
        product = multiply(basis_element(m, ctx), basis_element(n_, ctx), ctx)
        ctx._products[m, n_] = product
    value = product.terms.get(l, 0)
    ctx.memo[key] = value
    return value


def c_by_enumeration(
    m: Sequence[int], n_: Sequence[int], l: Sequence[int], ctx: HeckeContext
) -> int:
    """The oracle for c_coeff: c(M, N; L) read off the Hall table of L, not memoised.

    The table is one sweep over the subgroups of a fixed group of type L.
    """
    classes = _c_classes(m, n_, l, ctx)
    return 0 if classes is None else _hall_table(classes[2], ctx).get(classes[:2], 0)


# --- products ---------------------------------------------------------------


def _splits(k: int, sizes: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Each (b_1, ..., b_r) with 0 <= b_v <= sizes[v] and sum k,
    lexicographically decreasing."""
    if len(sizes) == 1:
        if k <= sizes[0]:
            yield (k,)
        return
    room = sum(sizes[1:])
    for b in range(min(k, sizes[0]), max(0, k - room) - 1, -1):
        for rest in _splits(k - b, sizes[1:]):
            yield (b, *rest)


def _pieri_row(mu: Partition, k: int, ctx: HeckeContext) -> dict[Partition, int]:
    """u_mu T_k = sum of G^lam_{mu,(1^k)}(p) u_lam, lam/mu a vertical k-strip.

    Each strip adds one box to k distinct rows of mu padded to n rows, so
    the lam with more than n parts are dropped.  That is exact: those
    classes span an ideal, since c(M, N; L) != 0 needs M and N to embed
    in L.  Of each block of s_v rows of mu equal to v the strip grows the
    top b_v, so lam' - mu' is b_v in column v + 1 and lam has
    a = b_v + s_(v+1) - b_(v+1) parts equal to v + 1.  II (4.6) then reads

        p^(n(lam) - n(mu) - k(k - 1)/2 - sum_v b_v (a - b_v)) prod_v [a; b_v]_p.
    """
    row = ctx._pieri.get((mu, k))
    if row is None:
        if not ctx._gauss:
            ctx._gauss = _gaussian_table(ctx.p, ctx.n)
        row, blocks, start = {}, [], 0  # blocks: (v, first row, s_v), top block first
        for v, run in groupby(mu + (0,) * (ctx.n - len(mu))):
            size = len(tuple(run))
            blocks.append((v, start, size))
            start += size
        for grow in _splits(k, [size for _, _, size in blocks]):
            exp, value, parts = -k * (k - 1) // 2, 1, []
            above, kept = None, 0  # value of the block above, and its rows that stay
            for (v, first, size), b in zip(blocks, grow):
                still = kept if above == v + 1 else 0  # a - b_v
                exp += b * first + b * (b - 1) // 2 - b * still
                value *= ctx._gauss[b + still][b]
                parts += [v + 1] * b + [v] * (size - b)
                above, kept = v, size - b
            lam = tuple(part for part in parts if part)
            if exp < 0:
                raise VerificationError(
                    f"G^{format_partition(lam)}_({format_partition(mu)}, 1^{k}) "
                    f"has the negative p-exponent {exp}"
                )
            row[lam] = ctx.p**exp * value
        ctx._pieri[mu, k] = row
    return row


def _times_monomial(
    x: HeckeElement,
    exps: tuple[int, ...],
    ctx: HeckeContext,
    memo: dict[tuple[int, ...], HeckeElement],
) -> HeckeElement:
    """x T_1^a_1 ... T_n^a_n by one Pieri step per factor.

    memo holds the products of this x with monomials, keyed by exponents,
    so monomials that share their lower factors share the steps.
    """
    hit = memo.get(exps)
    if hit is not None:
        return hit
    if not any(exps):
        value = x
    else:
        k = max(i for i, a in enumerate(exps) if a)
        prev = exps[:k] + (exps[k] - 1,) + exps[k + 1 :]
        out: dict[Partition, int] = {}
        for mu, c in _times_monomial(x, prev, ctx, memo).terms.items():
            for lam, g in _pieri_row(mu, k + 1, ctx).items():
                out[lam] = out.get(lam, 0) + c * g
        value = HeckeElement._canonical(ctx.p, ctx.n, out)
    memo[exps] = value
    return value


def _times_poly(
    x: HeckeElement,
    coeffs: Mapping[tuple[int, ...], int],
    ctx: HeckeContext,
    memo: dict[tuple[int, ...], HeckeElement],
) -> HeckeElement:
    out: dict[Partition, int] = {}
    for exps, c in coeffs.items():
        for lam, v in _times_monomial(x, exps, ctx, memo).terms.items():
            out[lam] = out.get(lam, 0) + c * v
    return HeckeElement._canonical(ctx.p, ctx.n, out)


def multiply(x: HeckeElement, y: HeckeElement, ctx: HeckeContext) -> HeckeElement:
    """Bilinear product; the zero element is absorbing as usual.

    y is written in the generators (decompose_in_generators), and each of
    its T-monomials is applied to x by repeated elementary Pieri steps, so
    no subgroup is enumerated.  The Hall tables, which c_by_enumeration
    reads, are the independent oracle for the result.
    """
    x._check_compatible(y)
    if x.p != ctx.p or x.n != ctx.n:
        raise ValueError(
            f"element (p={x.p}, n={x.n}) does not match context "
            f"(p={ctx.p}, n={ctx.n})"
        )
    return _times_poly(x, decompose_in_generators(y, ctx).coeffs, ctx, {})


# --- generator decomposition -------------------------------------------------


class GeneratorPoly:
    """Integer polynomial in the generators T_1..T_n.

    coeffs maps exponent vectors (a_1, ..., a_n) to integers; the
    monomial T_1^a_1 ... T_n^a_n has graded degree sum(k * a_k).  Zero
    coefficients are never stored.
    """

    def __init__(self, n: int, coeffs: dict[tuple[int, ...], int]):
        self.n = n
        self.coeffs = {e: c for e, c in coeffs.items() if c}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GeneratorPoly):
            return NotImplemented
        return (self.n, self.coeffs) == (other.n, other.coeffs)

    def __repr__(self) -> str:
        return f"GeneratorPoly(n={self.n!r}, coeffs={self.coeffs!r})"

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        # within a degree, heavier low-index generators print first
        return sorted(
            self.coeffs.items(),
            key=lambda kv: (
                sum(k * a for k, a in enumerate(kv[0], 1)),
                tuple(-a for a in kv[0]),
            ),
        )

    def to_text(self) -> str:
        terms = self.sorted_terms()
        if not terms:
            return "0"
        pieces = []
        for i, (exps, c) in enumerate(terms):
            mono = "*".join(
                f"T{k}" if a == 1 else f"T{k}^{a}"
                for k, a in enumerate(exps, 1)
                if a
            )
            body = f"{abs(c)}*{mono}" if mono else f"{abs(c)}"
            if i == 0:
                pieces.append(("-" if c < 0 else "") + body)
            else:
                pieces.append((" - " if c < 0 else " + ") + body)
        return "".join(pieces)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "terms": [
                {"exponents": list(e), "coeff": str(c)} for e, c in self.sorted_terms()
            ],
        }

    def __str__(self) -> str:
        return self.to_text()


def _eval_monomial(exps: tuple[int, ...], ctx: HeckeContext) -> HeckeElement:
    return _times_monomial(identity(ctx), exps, ctx, ctx._monos)


def _leading_monomial(lam: Partition, n: int) -> tuple[int, ...]:
    """Exponents of T_1..T_n in prod_i T_(lam'_i), lam' the conjugate of lam."""
    cols = conjugate(lam)
    return tuple(cols.count(k) for k in range(1, n + 1))


def _peel(
    x: Mapping[Partition, int], image: Callable[[Partition], Mapping[Partition, int]]
) -> dict[Partition, int]:
    """The c_lam with x = sum of c_lam image(lam), by peeling leading terms.

    Each image(lam) must lead with 1*lam in the tuple order on partitions,
    so the largest class left fixes its own coefficient and subtracting
    that multiple of its image leaves only smaller classes.  An image that
    does not lead so is a fatal verification failure.
    """
    rest = {lam: c for lam, c in x.items() if c}
    out: dict[Partition, int] = {}
    while rest:
        lam = max(rest)
        img = image(lam)
        if img.get(lam) != 1 or max(img) != lam:
            shown = " + ".join(f"{v}*{format_partition(mu)}" for mu, v in img.items())
            name = format_partition(lam)
            raise VerificationError(f"image of {name} does not lead with 1*{name}: {shown}")
        c = out[lam] = rest[lam]
        for mu, v in img.items():
            rest[mu] = rest.get(mu, 0) - c * v
            if not rest[mu]:
                del rest[mu]
    return out


def decompose_in_generators(x: HeckeElement, ctx: HeckeContext) -> GeneratorPoly:
    """Write x as an integer polynomial in T_1..T_n.

    The monomial prod_i T_(lam'_i) has lam as its largest term in
    dominance order, with coefficient 1 (Macdonald, Symmetric Functions
    and Hall Polynomials, Ch. II-III), and within one degree the tuple
    order on partitions refines dominance.  So _peel, which also inverts
    the transfer (omega.lift_section), solves for the coefficients, and
    its leading-term check on the monomials, evaluated by elementary Pieri
    steps, is a built-in check on the Pieri rule.
    """
    if x.p != ctx.p or x.n != ctx.n:
        raise ValueError("element does not match context")
    n = ctx.n
    coeffs = _peel(
        x.terms, lambda lam: _eval_monomial(_leading_monomial(lam, n), ctx).terms
    )
    return GeneratorPoly(n, {_leading_monomial(lam, n): c for lam, c in coeffs.items()})


def eval_generator_poly(poly: GeneratorPoly, ctx: HeckeContext) -> HeckeElement:
    """Evaluate a generator polynomial back to an element."""
    if poly.n > ctx.n:
        raise ValueError(
            f"polynomial mentions T_{poly.n}, context rank is {ctx.n}"
        )
    padding = (0,) * (ctx.n - poly.n)
    coeffs: dict[tuple[int, ...], int] = {}
    for exps, c in poly.coeffs.items():
        if len(exps) != poly.n:
            raise ValueError(f"exponent vector {exps} does not have length {poly.n}")
        coeffs[tuple(exps) + padding] = c
    return _times_poly(identity(ctx), coeffs, ctx, ctx._monos)
