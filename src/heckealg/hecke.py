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
q-Pascal fills with no division (hall._gaussian_table), grown per context
to the rows the Pieri rule reads.
Products, generator decompositions and the structure constants take
that route and enumerate no subgroups.  Each T-monomial is built once
per context, from the identity by one Pieri step per factor
(_monomial).  A decomposition peels off leading terms against the
monomials (_peel, the one solver that also inverts the transfer in
omega), since they are unitriangular against the classes.  A product
multiplies the decompositions of its factors as polynomials and
evaluates the result on the same monomials, and c(M, N; L) is the
coefficient of L in the product of M and N.

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
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from itertools import groupby
from operator import add

from .errors import DEFAULT_BUDGET, ParseError, VerificationError
from .hall import _gaussian_table, is_prime
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
from .subgroups import _hall_census

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

    def __init__(self, p: int, n: int, budget: int = DEFAULT_BUDGET):
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        if n < 1:
            raise ValueError(f"rank must be at least 1, got {n}")
        if budget < 1:
            raise ValueError("budget must be positive")
        self.p, self.n, self.budget = p, n, budget
        self._pieri: dict[tuple[Partition, int], dict[Partition, int]] = {}
        # the T-monomials built so far, keyed by their exponent vectors
        self._monos: dict[tuple[int, ...], dict[Partition, int]] = {}
        # products of basis classes, the rows c_coeff reads
        self._products: dict[tuple[Partition, Partition], HeckeElement] = {}
        # [a; b]_p for the Pieri rows, grown to the rows they read
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
            if not isinstance(coeff, int) or isinstance(coeff, bool):
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
        return HeckeElement._canonical(self.p, self.n, out)

    def __sub__(self, other: "HeckeElement") -> "HeckeElement":
        return self + other.scaled(-1)

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
        return _class_sum(self.terms)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"HeckeElement(p={self.p}, n={self.n}, {self.to_text()})"


def _signed_sum(terms: Iterable[tuple[int, str]]) -> str:
    """The pairs (c, "*x") as c_1*x_1 + c_2*x_2 - ..., "" standing for x = 1,
    or "0" if there are none; the first sign is written only if it is "-"."""
    text = "".join(f" {'-' if c < 0 else '+'} {abs(c)}{x}" for c, x in terms)
    if not text:
        return "0"
    return text[3:] if text[1] == "+" else "-" + text[3:]


def _class_sum(terms: Mapping[Partition, int]) -> str:
    """terms as c_1*[lam_1] + c_2*[lam_2] - ..., in partition_sort_key order."""
    ordered = sorted(terms.items(), key=lambda kv: partition_sort_key(kv[0]))
    return _signed_sum((c, "*" + format_partition(lam)) for lam, c in ordered)


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
    computed once per context for every L: that row is kept on the
    context beside the T-monomials it is evaluated on, and no value of c
    is written to the coefficient cache.
    """
    classes = _c_classes(m, n_, l, ctx)
    if classes is None:
        return 0
    m, n_, l = classes
    if (m, n_) not in ctx._products:
        ctx._products[m, n_] = multiply(basis_element(m, ctx), basis_element(n_, ctx), ctx)
    return ctx._products[m, n_].terms.get(l, 0)


def _c_cells(max_order_exp: int, n: int) -> Iterator[tuple[Partition, Partition, Partition]]:
    sized = [list(partitions_of_exponent(d, n)) for d in range(max_order_exp + 1)]
    for d, classes in enumerate(sized):  # the L of partitions_up_to, size by size
        for l in classes:
            for dm in range(d + 1):
                for m in sized[dm]:
                    for n_ in sized[d - dm]:
                        yield m, n_, l


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
        top = min(ctx.n, len(mu) + k)  # a counts parts of lam, which has at most len(mu) + k
        if len(ctx._gauss) <= top:
            ctx._gauss = _gaussian_table(ctx.p, min(ctx.n, 2 * top))
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


def _monomial(exps: tuple[int, ...], ctx: HeckeContext) -> dict[Partition, int]:
    """T_1^a_1 ... T_n^a_n, from the identity by one Pieri step per factor.

    ctx._monos holds every monomial built in the context, so monomials
    that share their lower factors share the steps.  The missing exponent
    vectors are found by lowering the last factor and built upwards in a
    loop, so no degree reaches the recursion limit.  The dict returned is
    the table's own, which callers only read.
    """
    steps = []  # (exponents, index of their last factor), last step first
    while exps not in ctx._monos:
        if not any(exps):
            ctx._monos[exps] = {(): 1}
            break
        k = max(i for i, a in enumerate(exps) if a)
        steps.append((exps, k))
        exps = exps[:k] + (exps[k] - 1,) + exps[k + 1 :]
    value = ctx._monos[exps]
    for exps, k in reversed(steps):
        value = ctx._monos[exps] = _apply(value, lambda mu: _pieri_row(mu, k + 1, ctx))
    return value


def _evaluate(coeffs: Mapping[tuple[int, ...], int], ctx: HeckeContext) -> HeckeElement:
    """The element that the generator polynomial with these coefficients names."""
    terms = _apply(coeffs, lambda exps: _monomial(exps, ctx))
    return HeckeElement._canonical(ctx.p, ctx.n, terms)


def multiply(x: HeckeElement, y: HeckeElement, ctx: HeckeContext) -> HeckeElement:
    """Bilinear product; the zero element is absorbing as usual.

    Both factors are written in the generators (decompose_in_generators),
    their polynomials are multiplied, and the product is evaluated on the
    context's T-monomials, so no subgroup is enumerated and a product
    repeated in one context takes no Pieri step.  The Hall tables, which
    c_by_enumeration reads, are the independent oracle for the result.
    """
    left = decompose_in_generators(x, ctx).coeffs  # each checks its factor against ctx
    right = decompose_in_generators(y, ctx).coeffs
    coeffs = _apply(left, lambda a: {tuple(map(add, a, b)): c for b, c in right.items()})
    return _evaluate(coeffs, ctx)


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
        return _signed_sum(
            (c, "".join(f"*T{k}" if a == 1 else f"*T{k}^{a}" for k, a in enumerate(exps, 1) if a))
            for exps, c in self.sorted_terms()
        )

    def __str__(self) -> str:
        return self.to_text()


def _leading_monomial(lam: Partition, n: int) -> tuple[int, ...]:
    """Exponents of T_1..T_n in prod_i T_(lam'_i), lam' the conjugate of lam."""
    cols = conjugate(lam)
    return tuple(cols.count(k) for k in range(1, n + 1))


def _apply(
    x: Mapping[Partition, int], image: Callable[[Partition], Mapping[Partition, int]]
) -> dict[Partition, int]:
    """The sum of c image(key) over the terms c key of x: image extended linearly
    (omega, a Pieri step, a T-monomial or a polynomial keyed by exponent vectors)."""
    out: dict[Partition, int] = {}
    for key, c in x.items():
        for lam, v in image(key).items():
            out[lam] = out.get(lam, 0) + c * v
    return out


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
            name = format_partition(lam)
            raise VerificationError(
                f"image of {name} does not lead with 1*{name}: {_class_sum(img)}"
            )
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
        raise ValueError(
            f"element (p={x.p}, n={x.n}) does not match context "
            f"(p={ctx.p}, n={ctx.n})"
        )
    n = ctx.n
    coeffs = _peel(x.terms, lambda lam: _monomial(_leading_monomial(lam, n), ctx))
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
    return _evaluate(coeffs, ctx)
