"""The verification suites of `heckealg verify` and `heckealg selftest`.

Each suite checks what the other commands compute against an independent
route, and yields (name, passed, detail) per check.  Each builds both sides
of its identities and words its detail here, the paper's claim that omega
is multiplicative (hom) and its image of the aggregates (tp) included.
Only the `verify` and `selftest` commands import this module, inside the
command: a run without bytecode compiles every module it imports, and the
suites would be the largest part of the command line's compile.

This module never imports heckealg.cli: under `python -m heckealg.cli`
that module is __main__, and importing it would compile it a second
time.  The command line's entry point builds the run's one context
instead, and every suite takes it with --max-order-exp: the
H_(n+1) -> H_n transfer, whose target, the rank-n algebra, is all that
shimura reads.
"""

from __future__ import annotations

from collections.abc import Iterator

from .errors import VerificationError
from .hecke import (
    HeckeElement,
    _c_cells,
    _hall_table,
    basis_element,
    c_by_enumeration,
    c_coeff,
    decompose_in_generators,
    eval_generator_poly,
    multiply,
    t_aggregate,
)
from .omega import (
    OmegaContext,
    a_by_enumeration,
    a_coeff,
    b_coeff,
    lift_section,
    omega,
)
from .partitions import (
    embedded_pairs,
    embeds,
    format_partition,
    order_exponent,
    partitions_between,
    partitions_up_to,
)
from .subgroups import count_of_type_in_group, m_count

Check = tuple[str, bool, str]


def _hom(maxoe: int, ctx: OmegaContext) -> Iterator[Check]:
    # the paper's claim: omega is multiplicative on every pair of classes
    elems = [(m, basis_element(m, ctx.source)) for m in partitions_up_to(maxoe, ctx.n + 1)]
    for m1, e1 in elems:
        for m2, e2 in elems:
            lhs = omega(multiply(e1, e2, ctx.source), ctx)
            rhs = multiply(omega(e1, ctx), omega(e2, ctx), ctx.target)
            name, ok = f"hom M1={format_partition(m1)} M2={format_partition(m2)}", lhs == rhs
            yield (
                name,
                ok,
                f"{name}: {'ok' if ok else 'MISMATCH'}; "
                f"omega(M1*M2) = {lhs.to_text()}; omega(M1)*omega(M2) = {rhs.to_text()}",
            )


def _tp(maxoe: int, ctx: OmegaContext) -> Iterator[Check]:
    # omega(T~(p^r)) = sum over s <= r of p^((r-s) n) T~(p^s), and for r > 0
    # equivalently T~(p^r) = omega(T~(p^r)) - p^n omega(T~(p^(r-1))) downstairs;
    # that recursion reuses the image checked at r - 1, so it restates the
    # weighted sums at r and r - 1 and is no independent check
    p, n = ctx.p, ctx.n
    below = None  # omega(T~(p^(r-1))), the image of the previous r
    for r in range(maxoe + 1):
        image = omega(t_aggregate(r, ctx.source), ctx)
        weighted = HeckeElement(p, n, {})
        for s in range(r + 1):
            weighted = weighted + t_aggregate(s, ctx.target).scaled(p ** ((r - s) * n))
        ok = image == weighted
        rest = ""
        if below is not None:
            rec_lhs = t_aggregate(r, ctx.target)
            rec_rhs = image - below.scaled(p**n)
            ok = ok and rec_lhs == rec_rhs
            rest = f"; recursion lhs = {rec_lhs.to_text()}, rhs = {rec_rhs.to_text()}"
        below = image
        yield (
            f"aggregate r={r}",
            ok,
            f"aggregate r={r}: {'ok' if ok else 'MISMATCH'}; omega(T~(p^{r})) = "
            f"{image.to_text()}; weighted sum = {weighted.to_text()}{rest}",
        )


def _inverse(maxoe: int, ctx: OmegaContext) -> Iterator[Check]:
    # the (B, A) cells of `table b`
    for b, a in embedded_pairs(maxoe, ctx.n):
        mids = list(partitions_between(a, b))
        lhs = sum(a_coeff(b, c, ctx) * b_coeff(c, a, ctx) for c in mids)
        rhs = sum(b_coeff(b, c, ctx) * a_coeff(c, a, ctx) for c in mids)
        want = 1 if a == b else 0
        yield (
            f"inverse B={format_partition(b)} A={format_partition(a)}",
            lhs == want and rhs == want,
            f"a.b = {lhs}, b.a = {rhs}, expected {want}",
        )
    for n_ in partitions_up_to(maxoe, ctx.n):
        back = omega(lift_section(n_, ctx), ctx)
        yield (
            f"section N={format_partition(n_)}",
            back == basis_element(n_, ctx.target),
            f"omega(lift) = {back.to_text()}",
        )


def _shimura(maxoe: int, octx: OmegaContext) -> Iterator[Check]:
    ctx = octx.target  # the rank-n algebra
    targets = [
        (f"L={format_partition(lam)}", f"{format_partition(lam)} =", basis_element, lam)
        for lam in partitions_up_to(maxoe, ctx.n)
    ] + [
        (f"aggregate r={r}", f"aggregate r={r}:", t_aggregate, r)
        for r in range(maxoe + 1)
    ]
    for name, label, make, arg in targets:
        try:
            elem = make(arg, ctx)
            poly = decompose_in_generators(elem, ctx)
            ok = eval_generator_poly(poly, ctx) == elem
            detail = f"{label} {poly.to_text()}"
        except VerificationError as exc:
            ok, detail = False, str(exc)
        yield (f"generators {name}", ok, detail)


def _oracle(maxoe: int, octx: OmegaContext) -> Iterator[Check]:
    p, budget, hctx = octx.p, octx.budget, octx.target

    # the subgroups of (Z/p^r)^n, summed off its Hall table: where the
    # group is also an L of the c-route cells below, both read one sweep
    def total(n: int, r: int) -> int:
        return sum(_hall_table((r,) * n, hctx).values())

    expected_totals = [
        ("count rank2 exponent1", 2, 1, p + 3),
        ("count rank3 exponent1", 3, 1, 2 * p * p + 2 * p + 4),
    ] + [(f"count chain r={r}", 1, r, r + 1) for r in range(1, 5)]
    for name, nn, rr, want in expected_totals:
        got = total(nn, rr)
        yield (name, got == want, f"got {got}")
    for nn, rr in ((1, 1), (1, 2), (2, 1), (2, 2)):
        sum_m = sum(m_count(m, nn, p, budget=budget) for m in partitions_between((), (rr,) * nn))
        got = total(nn, rr)
        yield (f"m-sum n={nn} r={rr}", sum_m == got, f"sum {sum_m} vs total {got}")
    shapes = list(partitions_up_to(maxoe, maxoe or 1))
    for lam in shapes:
        for mu in shapes:
            if order_exponent(mu) > order_exponent(lam):
                continue
            found = count_of_type_in_group(lam, mu, p, budget=budget) > 0
            predicted = embeds(mu, lam)
            yield (
                f"embedding L={format_partition(lam)} M={format_partition(mu)}",
                found == predicted,
                f"search {found}, containment {predicted}",
            )
    for m in partitions_up_to(maxoe, octx.n + 1):
        for n_ in partitions_up_to(order_exponent(m), octx.n):
            va = a_coeff(m, n_, octx)
            vb = a_by_enumeration(m, n_, octx)
            yield (
                f"a-route M={format_partition(m)} N={format_partition(n_)}",
                va == vb,
                f"transversal {va}, enumeration {vb}",
            )
    # labels kept so that stdout stays byte-identical: "table" is the
    # Pieri product, "normalized count" the Hall table
    for m, n_, l in _c_cells(maxoe, hctx.n):
        vc = c_coeff(m, n_, l, hctx)
        vv = c_by_enumeration(m, n_, l, hctx)
        yield (
            f"c-route M={format_partition(m)} "
            f"N={format_partition(n_)} L={format_partition(l)}",
            vc == vv,
            f"table {vc}, normalized count {vv}",
        )


# the names and order of the command line's suite table, which `verify all`
# runs; each suite takes --max-order-exp and the run's context
SUITES = {
    "hom": _hom,
    "tp": _tp,
    "inverse": _inverse,
    "shimura": _shimura,
    "oracle": _oracle,
}
