"""The rank-lowering transfer between algebras of adjacent ranks.

Fix a split exact sequence

    0 -> V -> Lambda -> Q_p/Z_p -> 0

with Lambda the rank-(n+1) colimit lattice and V a rank-n coordinate
kernel.  Sending a class M of the rank-(n+1) algebra to

    omega(M) = sum over N of a(M, N) N,

where a(M, N) counts subgroups isomorphic to M whose intersection with V
is a fixed copy of N (normalized by the number of copies of N), defines
a surjective ring homomorphism down to the rank-n algebra.

The default route takes a(M, N) from a closed form (see a_coeff), the
Hall-Littlewood branching rule of Macdonald III (5.5'), (5.8'); it
enumerates nothing.  a(M, N) is zero unless M/N is a horizontal strip,
and the N below M, like the M of one size above N with M_1 <= r, form an
interval of the containment order: omega(M) and each bin behind a_coeff
(built once per context) walk it with partitions.partitions_between.

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

This module holds the transfer, its section and the oracle only: the
checks that omega is multiplicative and how it acts on the aggregates
T~(p^r) are the `verify hom` and `verify tp` suites of heckealg.verify.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import prod

from .cache import coeff_key
from .errors import DEFAULT_BUDGET, VerificationError, exact_quotient
from .hecke import HeckeContext, HeckeElement, _apply, _peel

# unused here, but perfbench's span self-check looks this binding up
from .modmat import _howell_rows  # noqa: F401
from .partitions import (
    Partition,
    embeds,
    format_partition,
    order_exponent,
    p_rank,
    partitions_between,
    validate_partition,
)
from .subgroups import _meet_census, m_count

__all__ = [
    "OmegaContext",
    "a_coeff",
    "a_by_enumeration",
    "i_count",
    "b_coeff",
    "omega",
    "lift_section",
]


class OmegaContext:
    """State for the transfer from rank n+1 down to rank n.

    The target, the rank-n algebra, is built first and checks p, n and
    the budget, in that order, so a transfer reports a bad prime or rank
    as that algebra does.  split and trunc_override set up the
    enumeration oracle (i_count, a_by_enumeration) and change no value of
    the closed form: split picks the oracle's kernel V ("first" keeps the
    leading n coordinates, "last" the trailing ones), and trunc_override
    raises the exponent of its ambient, never below the exponent of the
    class at hand.
    """

    def __init__(
        self, p: int, n: int, split: str = "first", trunc_override: int | None = None,
        budget: int = DEFAULT_BUDGET, memo: dict[str, int] | None = None,
    ):
        self.target = HeckeContext(p, n, budget)
        if split not in ("first", "last"):
            raise ValueError(f"split must be 'first' or 'last', got {split!r}")
        if trunc_override is not None and trunc_override < 1:
            raise ValueError("truncation override must be at least 1")
        self.p, self.n, self.split = p, n, split
        self.trunc_override, self.budget = trunc_override, budget
        self.memo = {} if memo is None else memo  # the b values, keyed by coeff_key
        self.source = HeckeContext(p, n + 1, budget)
        self._images: dict[Partition, dict[Partition, int]] = {}
        self._lifts: dict[Partition, HeckeElement] = {}
        self._bins: dict[tuple[Partition, int, int], dict[Partition, int]] = {}


def _branching(m: Partition, n_: Partition, p: int, n: int) -> int:
    """a(m, n_) for m/n_ a horizontal strip, by the branching rule (see a_coeff).

    Counting rows from i = 0, n(N) - n(M) + n|M/N| = sum_i (n - i)(M_i - N_i).
    The box of theta in column j + 1, j in J, lies in the top row i of the
    parts of N equal to j, and n - i >= m_j(N), so no exponent is negative.
    """
    rows = list(zip(m, n_ + (0,)))
    theta = {j for a, b in rows for j in range(b + 1, a + 1)}  # the j with theta'_j = 1
    runs = [n_.count(j - 1) for j in theta if j > 1 and j - 1 not in theta]  # m_j(N), j in J
    exp = sum((n - i) * (a - b) for i, (a, b) in enumerate(rows)) - sum(runs)
    return p**exp * prod(p**k - 1 for k in runs)


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
    strips = partitions_between(n_, ((r,) + n_)[: n + 1], order_exponent(n_) + t)
    bins = {m: _branching(m, n_, p, n) for m in strips}
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
    the branching rule of Hall-Littlewood functions.  Macdonald III (3.4)
    sends the class M to p^(-n(M)) P_M(x; 1/p), with n(lam) =
    sum_i (i - 1) lam_i, and omega becomes the specialization
    x_(n+1) = p^n.  III (5.5'), (5.8') expand P_M over the P_N with M/N a
    horizontal strip, so that

        a(M, N) = p^(n(N) - n(M) + nt - sum_J m_j(N)) prod_J (p^(m_j(N)) - 1),

    theta = M - N, J the columns j >= 1 with theta'_j = 0 and
    theta'_(j+1) = 1, and m_j(N) the number of parts of N equal to j:
    one product, with no division, so it is never stored.  Neither
    ctx.split nor ctx.trunc_override is read; a_by_enumeration is the
    independent oracle and must agree.
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
    return _transversal_bins(ctx, n_, t, m[0]).get(m, 0)


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
    r = max(m[0] if m else 1, ctx.trunc_override or 1)
    return _meet_census(r, ctx.n + 1, order_exponent(m), ctx.p, ctx.split, ctx.budget)[m, n_]


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
        below = partitions_between(m[1:], m[: ctx.n])  # the N with M/N a horizontal strip
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
    return HeckeElement._canonical(ctx.p, ctx.n, _apply(x.terms, lambda m: _omega_image(m, ctx)))


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
    key = coeff_key(ctx.p, ctx.n, b, a)
    if key not in ctx.memo:
        ctx.memo[key] = lift_section(b, ctx).terms.get(a, 0)
    return ctx.memo[key]


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
