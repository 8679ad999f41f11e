"""The Hecke algebra of finite abelian p-groups of bounded rank.

The rank-n algebra is the free Z-module on isomorphism classes of finite
abelian p-groups of p-rank at most n (partitions, here).  The product of
two classes counts configurations inside the colimit lattice
(Q_p/Z_p)^n:

    M * N = sum over L of c(M, N; L) L,

where c(M, N; L) is the number of subgroups of a fixed group of type L
that are isomorphic to M with quotient isomorphic to N.  That fixed-
representative description already divides out the transitive action of
the ambient automorphisms; the definitional count over pairs of nested
subgroups of (Q_p/Z_p)^n, divided by the number of copies of L, is kept
as a verification mode and must agree exactly.

The algebra is a polynomial ring over Z on the classes T_k of elementary
abelian groups (Z/p)^k for 1 <= k <= n, so every element decomposes as
an integer polynomial in T_1..T_n; the decomposition peels off leading
terms in integer arithmetic, since the T-monomials are unitriangular
against the classes in dominance order.

>>> ctx = HeckeContext(p=2, n=2)
>>> print(multiply(basis_element((1,), ctx), basis_element((1,), ctx), ctx))
1*[2] + 3*[1,1]
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .errors import ParseError, VerificationError, exact_quotient
from .modmat import _span_contains_rows
from .partitions import (
    Partition,
    conjugate,
    embeds,
    format_partition,
    order_exponent,
    p_rank,
    parse_partition,
    partition_sort_key,
    partitions_of_exponent,
    validate_partition,
)
from .subgroups import (
    DEFAULT_BUDGET,
    Ambient,
    SubgroupRep,
    _quotient_type_rows,
    enumerate_subgroups,
    is_prime,
    m_count,
    subgroup_from_rows,
    type_of,
)

__all__ = [
    "HeckeContext",
    "HeckeElement",
    "GeneratorPoly",
    "basis_element",
    "identity",
    "t_aggregate",
    "c_coeff",
    "multiply",
    "decompose_in_generators",
    "eval_generator_poly",
    "parse_element",
]


@dataclass
class HeckeContext:
    """Shared state for one (p, n): structure-constant memo and budget."""

    p: int
    n: int
    budget: int = DEFAULT_BUDGET
    memo: dict[str, int] = field(default_factory=dict, repr=False)
    _hall: dict[Partition, dict[tuple[Partition, Partition], int]] = field(
        default_factory=dict, repr=False
    )
    _ktables: dict[Partition, dict[tuple[Partition, Partition], int]] = field(
        default_factory=dict, repr=False
    )
    _monos: dict[tuple[int, ...], "HeckeElement"] = field(
        default_factory=dict, repr=False
    )

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        if self.n < 1:
            raise ValueError(f"rank must be at least 1, got {self.n}")
        if self.budget < 1:
            raise ValueError("budget must be positive")


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


def _standard_copy(lam: Partition, p: int) -> tuple[Ambient, SubgroupRep]:
    """A fixed subgroup of type lam: diagonal rows p^(r - lam_j) e_j."""
    r = lam[0]
    amb = Ambient(p, len(lam), r)
    rows = []
    for j, part in enumerate(lam):
        row = [0] * len(lam)
        row[j] = p ** (r - part)
        rows.append(row)
    return amb, subgroup_from_rows(amb, rows)


def _hall_table(
    lam: Partition, ctx: HeckeContext
) -> dict[tuple[Partition, Partition], int]:
    """All structure constants with target class lam, in one sweep."""
    cached = ctx._hall.get(lam)
    if cached is not None:
        return cached
    table: dict[tuple[Partition, Partition], int] = {}
    if not lam:
        table[(), ()] = 1
    else:
        amb, copy = _standard_copy(lam, ctx.p)
        floors = tuple(lam[0] - part for part in lam)
        # the column floors put every s inside copy: no containment check
        for s in enumerate_subgroups(amb, col_val_min=floors, budget=ctx.budget):
            q = _quotient_type_rows(copy.basis.rows, s.basis.rows, amb.p, amb.r, amb.n)
            key = (type_of(s), q)
            table[key] = table.get(key, 0) + 1
    ctx._hall[lam] = table
    return table


def c_coeff(
    m: Sequence[int],
    n_: Sequence[int],
    l: Sequence[int],
    ctx: HeckeContext,
    *,
    verify: bool = False,
) -> int:
    """Structure constant c(M, N; L) of the rank-ctx.n algebra.

    Zero unless all three classes have p-rank at most ctx.n and the order
    exponents add up.  With verify=True the definitional count (pairs of
    nested subgroups in the rank-n lattice, divided by the number of
    copies of L) is computed instead; inexact division there is a fatal
    verification failure.
    """
    m = validate_partition(m)
    n_ = validate_partition(n_)
    l = validate_partition(l)
    rank = ctx.n
    if p_rank(m) > rank or p_rank(n_) > rank or p_rank(l) > rank:
        return 0
    if order_exponent(m) + order_exponent(n_) != order_exponent(l):
        return 0
    if verify:
        return _c_coeff_verified(m, n_, l, ctx)
    key = _c_key(ctx.p, ctx.n, m, n_, l)
    hit = ctx.memo.get(key)
    if hit is not None:
        return hit
    value = _hall_table(l, ctx).get((m, n_), 0)
    ctx.memo[key] = value
    return value


def _c_key(p: int, n: int, m: Partition, n_: Partition, l: Partition) -> str:
    return (
        f"c:p={p}:n={n}:M={format_partition(m)}"
        f":N={format_partition(n_)}:L={format_partition(l)}"
    )


def _k_table(
    l: Partition, ctx: HeckeContext
) -> dict[tuple[Partition, Partition], int]:
    """|K(M, N; L)| for all (M, N): double enumeration in the rank-n lattice.

    Counts pairs (M', L') with L' of type L inside (Z/p^r)^n, r = l_1, and
    M' a subgroup of L'.  Deliberately independent of the fixed-
    representative route used by the default c_coeff path.
    """
    cached = ctx._ktables.get(l)
    if cached is not None:
        return cached
    table: dict[tuple[Partition, Partition], int] = {}
    if not l:
        table[(), ()] = 1
    else:
        amb = Ambient(ctx.p, ctx.n, l[0])
        p, r = amb.p, amb.r
        for lp in enumerate_subgroups(
            amb, order_exp=order_exponent(l), budget=ctx.budget
        ):
            if type_of(lp) != l:
                continue
            lrows = lp.basis.rows
            in_lp = lambda row: _span_contains_rows(lrows, row, p, r)
            # row_filter puts every mp inside lp: no containment check
            for mp in enumerate_subgroups(
                amb, row_filter=in_lp, budget=ctx.budget
            ):
                key = (type_of(mp), _quotient_type_rows(lrows, mp.basis.rows, p, r, ctx.n))
                table[key] = table.get(key, 0) + 1
    ctx._ktables[l] = table
    return table


def _c_coeff_verified(m: Partition, n_: Partition, l: Partition, ctx: HeckeContext) -> int:
    k_value = _k_table(l, ctx).get((m, n_), 0)
    if k_value == 0:
        return 0
    copies = m_count(l, ctx.n, ctx.p, budget=ctx.budget)
    return exact_quotient(k_value, copies, f"|K| over the copies of {format_partition(l)}")


# --- products ---------------------------------------------------------------


def multiply(x: HeckeElement, y: HeckeElement, ctx: HeckeContext) -> HeckeElement:
    """Bilinear product; the zero element is absorbing as usual."""
    x._check_compatible(y)
    if x.p != ctx.p or x.n != ctx.n:
        raise ValueError(
            f"element (p={x.p}, n={x.n}) does not match context "
            f"(p={ctx.p}, n={ctx.n})"
        )
    out: dict[Partition, int] = {}
    for mx, cx in x.terms.items():
        for my, cy in y.terms.items():
            weight = cx * cy
            d = order_exponent(mx) + order_exponent(my)
            for l in partitions_of_exponent(d, ctx.n):
                # a subgroup and a quotient of L both embed in L
                if not (embeds(mx, l) and embeds(my, l)):
                    continue
                c = c_coeff(mx, my, l, ctx)
                if c:
                    out[l] = out.get(l, 0) + weight * c
    return HeckeElement(ctx.p, ctx.n, out)


# --- generator decomposition -------------------------------------------------


@dataclass
class GeneratorPoly:
    """Integer polynomial in the generators T_1..T_n.

    coeffs maps exponent vectors (a_1, ..., a_n) to integers; the
    monomial T_1^a_1 ... T_n^a_n has graded degree sum(k * a_k).
    """

    n: int
    coeffs: dict[tuple[int, ...], int]

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        # within a degree, heavier low-index generators print first
        return sorted(
            ((e, c) for e, c in self.coeffs.items() if c),
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
    hit = ctx._monos.get(exps)
    if hit is not None:
        return hit
    if not any(exps):
        value = identity(ctx)
    else:
        k = max(i for i, a in enumerate(exps) if a)
        prev = exps[:k] + (exps[k] - 1,) + exps[k + 1 :]
        t_k = basis_element((1,) * (k + 1), ctx)
        value = multiply(_eval_monomial(prev, ctx), t_k, ctx)
    ctx._monos[exps] = value
    return value


def _leading_monomial(lam: Partition, n: int) -> tuple[int, ...]:
    """Exponents of T_1..T_n in prod_i T_(lam'_i), lam' the conjugate of lam."""
    cols = conjugate(lam)
    return tuple(cols.count(k) for k in range(1, n + 1))


def decompose_in_generators(x: HeckeElement, ctx: HeckeContext) -> GeneratorPoly:
    """Write x as an integer polynomial in T_1..T_n by peeling leading terms.

    The monomial prod_i T_(lam'_i) has lam as its largest term in
    dominance order, with coefficient 1 (Macdonald, Symmetric Functions
    and Hall Polynomials, Ch. II-III), and within one degree the tuple
    order on partitions refines dominance.  So the largest class left
    fixes the coefficient of its monomial, and subtracting that multiple
    leaves only smaller classes; the arithmetic stays in the integers.  A
    monomial that does not lead with its class and coefficient 1 is a
    fatal verification failure.
    """
    if x.p != ctx.p or x.n != ctx.n:
        raise ValueError("element does not match context")
    coeffs: dict[tuple[int, ...], int] = {}
    rest = x
    while rest.terms:
        lam = max(rest.terms)
        exps = _leading_monomial(lam, ctx.n)
        mono = _eval_monomial(exps, ctx)
        if mono.terms.get(lam) != 1 or max(mono.terms) != lam:
            raise VerificationError(
                f"monomial {exps} does not lead with 1*{format_partition(lam)}: "
                f"{mono.to_text()}"
            )
        coeffs[exps] = rest.terms[lam]
        rest = rest - mono.scaled(rest.terms[lam])
    return GeneratorPoly(ctx.n, coeffs)


def eval_generator_poly(poly: GeneratorPoly, ctx: HeckeContext) -> HeckeElement:
    """Evaluate a generator polynomial back to an element."""
    if poly.n > ctx.n:
        raise ValueError(
            f"polynomial mentions T_{poly.n}, context rank is {ctx.n}"
        )
    out = HeckeElement(ctx.p, ctx.n, {})
    for exps, c in poly.coeffs.items():
        if len(exps) != poly.n:
            raise ValueError(f"exponent vector {exps} does not have length {poly.n}")
        padded = tuple(exps) + (0,) * (ctx.n - poly.n)
        out = out + _eval_monomial(padded, ctx).scaled(c)
    return out
