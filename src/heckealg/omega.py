"""The rank-lowering transfer between algebras of adjacent ranks.

Fix a split exact sequence

    0 -> V -> Lambda -> Q_p/Z_p -> 0

with Lambda the rank-(n+1) colimit lattice and V a rank-n coordinate
kernel.  Sending a class M of the rank-(n+1) algebra to

    omega(M) = sum over N of a(M, N) N,

where a(M, N) counts subgroups isomorphic to M whose intersection with V
is a fixed copy of N (normalized by the number of copies of N), defines
a surjective ring homomorphism down to the rank-n algebra.

The default route takes a(M, N) from a closed form (see a_coeff) built
on Macdonald's Hall polynomials and Riedtmann's formula; it enumerates
nothing.  a(M, N) is zero unless M/N is a horizontal strip, so omega(M)
walks the strips below M (partitions.strips_below), and each bin behind
a_coeff is generated from the strips above N (partitions.horizontal_strips)
and built once per context; neither lists partitions to filter them.

The enumeration route, the oracle, reads the count at (M, N) off one
sweep of the subgroups of order p^|M|, counted by their type and the
type of their intersection with V, and divides it by the number of
copies of N inside V, checking exact divisibility.  That table lives in
subgroups, next to every other sweep, and is shared by all contexts
with the same key.

The transfer is unitriangular: a(M, M) = 1, and every other class in
omega(M) lies inside M, so it is smaller in the tuple order.  So the
leading-term peel that writes elements in the generators (hecke._peel)
also solves omega(lift(N)) = N for the section, and the integer inverse
b(B, A) of a is the coefficient of A in lift(B).
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence

from .cache import coeff_key
from .errors import VerificationError, exact_quotient
from .hall import _aut_order, _hall_cyclic
from .hecke import (
    HeckeContext, HeckeElement, _peel, basis_element, multiply, t_aggregate
)

# unused here, but perfbench's span self-check looks this binding up
from .modmat import _howell_rows  # noqa: F401
from .partitions import (
    Partition,
    embeds,
    format_partition,
    horizontal_strips,
    order_exponent,
    p_rank,
    strips_below,
    validate_partition,
)
from .subgroups import (
    DEFAULT_BUDGET,
    Ambient,
    SubgroupRep,
    _meet_census,
    _sweep,
    intersect,
    m_count,
    standard_split,
)

__all__ = [
    "OmegaContext",
    "a_coeff",
    "a_by_enumeration",
    "i_count",
    "b_coeff",
    "omega",
    "lift_section",
    "j_count",
    "HomReport",
    "TpReport",
    "verify_omega_hom",
    "verify_tp_formula",
]


class OmegaContext:
    """State for the transfer from rank n+1 down to rank n.

    split and trunc_override set up the enumeration oracle (i_count,
    a_by_enumeration) and change no value of the closed form: split picks
    the oracle's kernel V ("first" keeps the leading n coordinates, "last"
    the trailing ones), and trunc_override raises the exponent of its
    ambient, never below the exponent of the class at hand.
    """

    def __init__(
        self, p: int, n: int, split: str = "first", trunc_override: int | None = None,
        budget: int = DEFAULT_BUDGET, memo: dict[str, int] | None = None,
    ):
        if split not in ("first", "last"):
            raise ValueError(f"split must be 'first' or 'last', got {split!r}")
        if trunc_override is not None and trunc_override < 1:
            raise ValueError("truncation override must be at least 1")
        if n < 1:
            raise ValueError(f"target rank must be at least 1, got {n}")
        self.p, self.n, self.split = p, n, split
        self.trunc_override, self.budget = trunc_override, budget
        self.memo = {} if memo is None else memo
        # shares the scalar memo so cached values flow to both ranks
        self.source = HeckeContext(p, n + 1, budget, self.memo)
        self.target = HeckeContext(p, n, budget, self.memo)
        self._images: dict[Partition, dict[Partition, int]] = {}
        self._lifts: dict[Partition, HeckeElement] = {}
        self._bins: dict[tuple[Partition, int, int], dict[Partition, int]] = {}
        self._auts: dict[Partition, int] = {}

    def _trunc(self, lam: Partition) -> int:
        base = lam[0] if lam else 1
        if self.trunc_override is not None:
            return max(base, self.trunc_override)
        return base

    def _aut(self, lam: Partition) -> int:
        hit = self._auts.get(lam)
        if hit is None:
            hit = self._auts[lam] = _aut_order(lam, self.p)
        return hit


def _transversal_bins(
    ctx: OmegaContext, n_: Partition, t: int, r: int
) -> dict[Partition, int]:
    """a(M, n_) for every type M with M_1 <= r and |M| = |n_| + t; needs 0 < t <= r.

    a(M, n_) counts the cosets v + N' of a fixed copy N' of n_ in V[p^r]
    with p^t v in N' whose span <N', (v, p^(r-t))> has type M, so the
    values must add up to all p^(sum_i min(t, r - nu_i)) such cosets, nu
    the parts of n_ padded to n.  The bin is generated from the horizontal
    t-strips over n_ (every other M gets 0) and memoised on ctx per
    (n_, t, r); that sum is checked once per key, before any value of the
    bin is read.
    """
    bins = ctx._bins.get((n_, t, r))
    if bins is not None:
        return bins
    p, n = ctx.p, ctx.n
    scale = p ** (t * n) * ctx._aut((t,)) * ctx._aut(n_)
    bins = {}
    for m in horizontal_strips(n_, t, n + 1, r):
        num, aut = scale * _hall_cyclic(m, n_, p), ctx._aut(m)
        bins[m], rest = divmod(num, aut)
        if rest:
            raise VerificationError(
                f"a({format_partition(m)}, {format_partition(n_)}) at gap {t}: "
                f"{num} is not divisible by {aut}"
            )
    cosets = p ** sum(min(t, r - x) for x in n_ + (0,) * (n - len(n_)))
    if sum(bins.values()) != cosets:
        raise VerificationError(
            f"a(M, {format_partition(n_)}) at gap {t} add up to {sum(bins.values())}, "
            f"not {cosets}"
        )
    ctx._bins[n_, t, r] = bins
    return bins


def a_coeff(m: Sequence[int], n_: Sequence[int], ctx: OmegaContext) -> int:
    """Transfer coefficient a(M, N) of omega at (p, n).

    M lives in the rank-(n+1) algebra, N in the rank-n one.  Zero when
    the ranks do not fit, when N does not embed in M, or when the order
    gap t = |M| - |N| exceeds the exponent of M.  For t > 0 the value is
    Riedtmann's formula: v -> p^t v maps the p^(tn) cosets that count
    a(M, N) (see _transversal_bins, here at r = M_1) onto Ext(Z/p^t, N)
    with fibers of p^(tn) / |N[p^t]|, so that

        a(M, N) = p^(tn) G^M_{N,(t)}(p) |Aut Z/p^t| |Aut N| / |Aut M|,

    G the Hall polynomial of Macdonald III (3.2), (5.7') and |Aut| from
    Macdonald II (1.6).  Neither ctx.split nor ctx.trunc_override is
    read; a_by_enumeration is the independent oracle and must agree.
    """
    m = validate_partition(m)
    n_ = validate_partition(n_)
    if p_rank(m) > ctx.n + 1 or p_rank(n_) > ctx.n or not embeds(n_, m):
        return 0
    return _a_cell(m, n_, order_exponent(m) - order_exponent(n_), ctx)


def _a_cell(m: Partition, n_: Partition, t: int, ctx: OmegaContext) -> int:
    """a(M, N) for canonical classes whose ranks fit, N inside M, t = |M| - |N|."""
    if t == 0:
        # same order and contained, so equal
        return 1
    if t > m[0]:
        return 0
    key = coeff_key("a", ctx.p, ctx.n, M=m, N=n_)
    hit = ctx.memo.get(key)
    if hit is not None:
        return hit
    value = _transversal_bins(ctx, n_, t, m[0]).get(m, 0)
    ctx.memo[key] = value
    return value


def i_count(m: Sequence[int], n_: Sequence[int], ctx: OmegaContext) -> int:
    """Unnormalized count behind a(M, N): subgroups of type M in the
    truncated ambient whose intersection with V has type N.

    Read off subgroups._meet_census, shared per (r, |M|, split, budget)
    with r the larger of M_1 and ctx.trunc_override: one sweep over the
    order-p^|M| subgroups S of (Z/p^r)^(n+1), counted by (type S,
    type S & V) with V the ctx.split kernel; deliberately independent of
    the closed form of a_coeff.
    """
    m = validate_partition(m)
    n_ = validate_partition(n_)
    if p_rank(m) > ctx.n + 1 or p_rank(n_) > ctx.n:
        return 0
    r, size = ctx._trunc(m), order_exponent(m)
    return _meet_census(r, ctx.n + 1, size, ctx.p, ctx.split, ctx.budget)[m, n_]


def a_by_enumeration(m: Sequence[int], n_: Sequence[int], ctx: OmegaContext) -> int:
    """The oracle for a_coeff: i_count divided by the number of copies
    of N in V, checking exact divisibility."""
    raw = i_count(m, n_, ctx)
    if raw == 0:
        return 0
    copies = m_count(n_, ctx.n, ctx.p, budget=ctx.budget)
    what = f"I-count of ({format_partition(m)}, {format_partition(n_)}) over the copies of N"
    return exact_quotient(raw, copies, what)


# --- the transfer and its section -------------------------------------------


def _omega_image(m: Partition, ctx: OmegaContext) -> dict[Partition, int]:
    image = ctx._images.get(m)
    if image is None:
        size = order_exponent(m)
        below = strips_below(m, ctx.n)  # a(M, N) = 0 unless M/N is a horizontal strip
        image = ctx._images[m] = {
            n_: a for n_ in below if (a := _a_cell(m, n_, size - order_exponent(n_), ctx))
        }
    return image


def omega(x: HeckeElement, ctx: OmegaContext) -> HeckeElement:
    """Apply the transfer to an element of the rank-(n+1) algebra."""
    if x.p != ctx.p or x.n != ctx.n + 1:
        raise ValueError(
            f"omega at (p={ctx.p}, n={ctx.n}) expects elements of the rank-"
            f"{ctx.n + 1} algebra, got (p={x.p}, n={x.n})"
        )
    out: dict[Partition, int] = {}
    for m, c in x.terms.items():
        for n_, a in _omega_image(m, ctx).items():
            out[n_] = out.get(n_, 0) + c * a
    return HeckeElement._canonical(ctx.p, ctx.n, out)


def b_coeff(b: Sequence[int], a: Sequence[int], ctx: OmegaContext) -> int:
    """Entry of the inverse of the triangular matrix (a(B, A)): the
    coefficient of A in lift_section(B).  Both compositions with a are the
    Kronecker delta."""
    b = validate_partition(b)
    a = validate_partition(a)
    if p_rank(b) > ctx.n or p_rank(a) > ctx.n:
        raise ValueError("b is defined on classes of the rank-n algebra")
    if b == a:
        return 1
    if not embeds(a, b):
        return 0
    key = coeff_key("b", ctx.p, ctx.n, B=b, A=a)
    hit = ctx.memo.get(key)
    if hit is not None:
        return hit
    value = lift_section(b, ctx).terms.get(a, 0)
    ctx.memo[key] = value
    return value


def lift_section(n_: Sequence[int], ctx: OmegaContext) -> HeckeElement:
    """The element of the rank-(n+1) algebra that omega sends to n_.

    omega(C) leads with 1*C, so hecke._peel, which also writes elements
    in the generators, solves for it and checks that leading term of each
    image it uses.  Memoised per class.
    """
    n_ = validate_partition(n_)
    if p_rank(n_) > ctx.n:
        raise ValueError(f"{format_partition(n_)} has rank over {ctx.n}")
    hit = ctx._lifts.get(n_)
    if hit is None:
        terms = _peel({n_: 1}, lambda c: _omega_image(c, ctx))
        hit = ctx._lifts[n_] = HeckeElement._canonical(ctx.p, ctx.n + 1, terms)
    return hit


# --- subgroup-fiber count ----------------------------------------------------


def j_count(r: int, nrep: SubgroupRep, ctx: OmegaContext) -> int:
    """Number of order-p^r subgroups meeting V in the given subgroup.

    The fiber size is p^((r - s) n) with p^s the order of the given
    subgroup; the direct count is compared against that closed form and
    a mismatch is a fatal verification failure.
    """
    if r < 0:
        raise ValueError("order exponent must be nonnegative")
    amb = Ambient(ctx.p, ctx.n + 1, max(r, 1))
    if nrep.ambient != amb:
        raise ValueError(
            f"subgroup lives in {nrep.ambient}, fiber count needs {amb}"
        )
    v = standard_split(amb, ctx.split)
    if not v.contains(nrep):
        raise ValueError("the given subgroup does not lie inside V")
    s = nrep.order_exp
    if s > r:
        raise ValueError(f"subgroup order exponent {s} exceeds r = {r}")
    fiber = _sweep((amb.r,) * amb.n, r, ctx.p, ctx.budget)
    count = sum(intersect(sub, v) == nrep for sub in fiber)
    expected = ctx.p ** ((r - s) * ctx.n)
    if count != expected:
        raise VerificationError(
            f"fiber over an order-p^{s} subgroup has {count} members, "
            f"expected p^({r}-{s})*{ctx.n} = {expected}"
        )
    return count


# --- verification reports -----------------------------------------------------


class HomReport(namedtuple("HomReport", "m1 m2 lhs rhs")):
    """Outcome of one multiplicativity check of omega."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.lhs == self.rhs

    def describe(self) -> str:
        tag = "ok" if self.passed else "MISMATCH"
        return (
            f"hom M1={format_partition(self.m1)} M2={format_partition(self.m2)}: "
            f"{tag}; omega(M1*M2) = {self.lhs.to_text()}; "
            f"omega(M1)*omega(M2) = {self.rhs.to_text()}"
        )


class TpReport(namedtuple("TpReport", "r lhs rhs recursion_lhs recursion_rhs")):
    """Outcome of one aggregate-pushforward check.

    lhs is omega applied to the order-p^r aggregate of the source
    algebra, rhs the predicted weighted sum of lower aggregates; for
    r > 0 the recursion form (recursion_lhs, recursion_rhs; both None
    at r = 0) is checked as well.
    """

    __slots__ = ()

    @property
    def passed(self) -> bool:
        if self.lhs != self.rhs:
            return False
        if self.recursion_lhs is None:
            return True
        return self.recursion_lhs == self.recursion_rhs

    def describe(self) -> str:
        tag = "ok" if self.passed else "MISMATCH"
        out = (
            f"aggregate r={self.r}: {tag}; omega(T~(p^{self.r})) = "
            f"{self.lhs.to_text()}; weighted sum = {self.rhs.to_text()}"
        )
        if self.recursion_lhs is not None:
            out += (
                f"; recursion lhs = {self.recursion_lhs.to_text()}, "
                f"rhs = {self.recursion_rhs.to_text()}"
            )
        return out


def verify_omega_hom(
    m1: Sequence[int], m2: Sequence[int], ctx: OmegaContext
) -> HomReport:
    """Compare omega(M1 M2) with omega(M1) omega(M2)."""
    m1 = validate_partition(m1)
    m2 = validate_partition(m2)
    e1 = basis_element(m1, ctx.source)
    e2 = basis_element(m2, ctx.source)
    lhs = omega(multiply(e1, e2, ctx.source), ctx)
    rhs = multiply(omega(e1, ctx), omega(e2, ctx), ctx.target)
    return HomReport(m1, m2, lhs, rhs)


def verify_tp_formula(r: int, ctx: OmegaContext) -> TpReport:
    """Check omega on the order-p^r aggregate against its closed form.

    omega(T~(p^r)) = sum over s <= r of p^((r-s) n) T~(p^s), and for
    r > 0 equivalently T~(p^r) = omega(T~(p^r)) - p^n omega(T~(p^(r-1)))
    downstairs.
    """
    if r < 0:
        raise ValueError("order exponent must be nonnegative")
    lhs = omega(t_aggregate(r, ctx.source), ctx)
    rhs = HeckeElement(ctx.p, ctx.n, {})
    for s in range(r + 1):
        rhs = rhs + t_aggregate(s, ctx.target).scaled(ctx.p ** ((r - s) * ctx.n))
    rec_lhs = rec_rhs = None
    if r > 0:
        rec_lhs = t_aggregate(r, ctx.target)
        rec_rhs = lhs - omega(t_aggregate(r - 1, ctx.source), ctx).scaled(
            ctx.p**ctx.n
        )
    return TpReport(r, lhs, rhs, rec_lhs, rec_rhs)
