"""The rank-lowering transfer, its inverse and its fiber counts."""

import sys

import pytest

from heckealg import hecke, modmat, subgroups
from heckealg.cli import main
from heckealg.errors import VerificationError
from heckealg.hecke import basis_element, multiply, t_aggregate
from heckealg.modmat import _span_contains_rows
from heckealg.omega import (
    OmegaContext,
    a_by_enumeration,
    a_coeff,
    b_coeff,
    i_count,
    j_count,
    lift_section,
    omega,
    verify_omega_hom,
    verify_tp_formula,
)
from heckealg.partitions import embeds, order_exponent, partitions_up_to
from heckealg.subgroups import (
    Ambient,
    _type_of_rows,
    enumerate_subgroups,
    standard_split,
)

# the package binds the name omega to the function, not the module
omega_module = sys.modules["heckealg.omega"]


@pytest.fixture(scope="module")
def ctx1():
    return OmegaContext(p=2, n=1)


@pytest.fixture(scope="module")
def ctx2():
    return OmegaContext(p=2, n=2)


def test_context_validation():
    with pytest.raises(ValueError):
        OmegaContext(p=2, n=1, split="middle")
    with pytest.raises(ValueError):
        OmegaContext(p=2, n=0)
    with pytest.raises(ValueError):
        OmegaContext(p=2, n=1, trunc_override=0)


def test_rank_one_a_values(ctx1):
    assert a_coeff((1,), (), ctx1) == 2
    assert a_coeff((2,), (1,), ctx1) == 1
    assert a_coeff((2,), (), ctx1) == 4
    assert a_coeff((2, 1), (1,), ctx1) == 2


def test_a_guards(ctx1):
    assert a_coeff((1,), (2,), ctx1) == 0  # bigger downstairs
    assert a_coeff((1, 1, 1), (1,), ctx1) == 0  # rank over n+1
    assert a_coeff((2,), (1, 1), ctx1) == 0  # rank over n
    assert a_coeff((1, 1), (), ctx1) == 0  # non-cyclic cannot meet V trivially
    assert a_coeff((2, 2), (1,), ctx1) == 0  # does not embed


@pytest.fixture
def no_enumeration(monkeypatch):
    """Make every subgroup enumeration, Howell form and quotient type raise."""

    def refuse(*args, **kwargs):
        raise AssertionError("the default route enumerated")

    for module in (modmat, subgroups, hecke, omega_module):
        for name in ("enumerate_subgroups", "_howell_rows", "_quotient_type_rows"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)


def test_default_routes_enumerate_nothing(no_enumeration):
    before = _type_of_rows.cache_info().currsize
    ctx = OmegaContext(p=5, n=2, split="last", trunc_override=5)
    assert a_coeff((3, 2, 1), (2, 1), ctx) > 0
    assert b_coeff((3, 2), (1,), ctx) != 0
    lifted = lift_section((2, 1), ctx)
    assert omega(lifted, ctx) == basis_element((2, 1), ctx.target)
    assert _type_of_rows.cache_info().currsize == before


@pytest.mark.parametrize("kind", ["a", "omega"])
def test_transfer_tables_enumerate_nothing(no_enumeration, capsys, kind):
    argv = ["table", kind, "--p", "3", "--n", "2", "--max-order-exp", "6"]
    assert main(argv) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.endswith("coeff" if kind == "omega" else "value") and rows


@pytest.mark.parametrize(
    "argv",
    [
        ["mul", "--p", "3", "--n", "3", "1*[2,2,1]", "1*[2,1,1]"],
        ["decompose", "--p", "3", "--n", "4", "1*[2,2,2,2]"],
        ["verify", "hom", "--p", "3", "--n", "2", "--max-order-exp", "4"],
        ["verify", "shimura", "--p", "3", "--n", "4", "--max-order-exp", "6"],
        ["ccoeff", "--p", "1009", "--n", "3", "--M", "[1]", "--N", "[1,1]", "--L", "[1,1,1]"],
        ["table", "c", "--p", "1009", "--n", "3", "--max-order-exp", "4"],
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_products_enumerate_nothing(no_enumeration, capsys, argv):
    # products, decompositions and structure constants take the Pieri rule,
    # never the Hall table
    assert main(argv) == 0
    assert capsys.readouterr().out


@pytest.mark.parametrize("p", [2, 3, 5, 1009])
@pytest.mark.parametrize("n", range(1, 7))
def test_omega_on_generators(p, n):
    # omega(T_k) = T_k + p^(n+1-k) T_(k-1), T_0 = 1, and T_(n+1) goes to T_n
    ctx = OmegaContext(p=p, n=n)
    for k in range(1, n + 2):
        image = omega(basis_element((1,) * k, ctx.source), ctx)
        want = {(1,) * (k - 1): p ** (n + 1 - k)}
        if k <= n:
            want[(1,) * k] = 1
        assert image.terms == want, k


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("n", [1, 2])
def test_a_is_one_on_the_diagonal(p, n):
    ctx = OmegaContext(p=p, n=n)
    for lam in partitions_up_to(3, n):
        assert a_coeff(lam, lam, ctx) == 1


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("n", [1, 2])
def test_elementary_chain_closed_form(p, n):
    # a((Z/p)^s, (Z/p)^(s-1)) = p^(n-s+1)
    ctx = OmegaContext(p=p, n=n)
    for s in range(1, n + 2):
        if s - 1 > n:
            continue
        assert a_coeff((1,) * s, (1,) * (s - 1), ctx) == p ** (n - s + 1)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("n", [1, 2])
def test_cyclic_closed_form(p, n):
    # a(Z/p^r, Z/p^(r-s)) = p^(sn-1)(p-1) for 0 < s < r, p^(rn) at s = r
    ctx = OmegaContext(p=p, n=n)
    for r in range(1, 4):
        for s in range(1, r + 1):
            n_ = (r - s,) if r - s else ()
            want = p ** (r * n) if s == r else p ** (s * n - 1) * (p - 1)
            assert a_coeff((r,), n_, ctx) == want


def test_dual_routes_agree(ctx2):
    for m in partitions_up_to(3, 3):
        for n_ in partitions_up_to(order_exponent(m), 2):
            direct = a_coeff(m, n_, ctx2)
            counted = a_by_enumeration(m, n_, ctx2)
            assert direct == counted, (m, n_)


def test_dual_routes_agree_other_prime():
    ctx = OmegaContext(p=3, n=1)
    for m in partitions_up_to(3, 2):
        for n_ in partitions_up_to(order_exponent(m), 1):
            assert a_coeff(m, n_, ctx) == a_by_enumeration(m, n_, ctx)
    # G((3,1)/(2)) = p - 1: its two end columns share one division by p - 1
    assert a_coeff((3, 1), (2,), ctx) == 2 == a_by_enumeration((3, 1), (2,), ctx)


def test_i_count_is_m_count_times_a(ctx1):
    from heckealg.subgroups import m_count

    for m in partitions_up_to(3, 2):
        for n_ in partitions_up_to(order_exponent(m), 1):
            assert i_count(m, n_, ctx1) == a_coeff(m, n_, ctx1) * m_count(
                n_, 1, 2
            )


def test_split_choice_does_not_matter():
    for n in (1, 2):
        first = OmegaContext(p=2, n=n, split="first")
        last = OmegaContext(p=2, n=n, split="last")
        for m in partitions_up_to(3, n + 1):
            for n_ in partitions_up_to(order_exponent(m), n):
                value = a_coeff(m, n_, first)
                assert value == a_coeff(m, n_, last)
                assert value == a_by_enumeration(m, n_, last), (m, n_)


def test_truncation_depth_does_not_matter():
    base = OmegaContext(p=2, n=2)
    for m in partitions_up_to(3, 3):
        deeper = OmegaContext(p=2, n=2, trunc_override=(m[0] if m else 1) + 1)
        for n_ in partitions_up_to(order_exponent(m), 2):
            value = a_coeff(m, n_, base)
            assert value == a_coeff(m, n_, deeper)
            assert value == a_by_enumeration(m, n_, deeper), (m, n_)


def test_closed_form_ignores_truncation(monkeypatch):
    # the bin is built at r = M_1 whatever the oracle's ambient depth
    depths = []
    real = omega_module._transversal_bins

    def recording(ctx, n_, t, r):
        depths.append(r)
        return real(ctx, n_, t, r)

    monkeypatch.setattr(omega_module, "_transversal_bins", recording)
    m = (3, 1)
    assert a_coeff(m, (2,), OmegaContext(p=3, n=1, trunc_override=m[0] + 2)) == 2
    assert depths == [m[0]]


def test_omega_images(ctx1):
    img = omega(basis_element((1,), ctx1.source), ctx1)
    assert img.terms == {(1,): 1, (): 2}
    img = omega(basis_element((1, 1), ctx1.source), ctx1)
    assert img.terms == {(1,): 1}


def test_omega_rejects_misfit_elements(ctx1):
    with pytest.raises(ValueError):
        omega(basis_element((1,), ctx1.target), ctx1)


def test_omega_is_linear(ctx1):
    x = basis_element((2,), ctx1.source)
    y = basis_element((1, 1), ctx1.source)
    combo = x.scaled(3) - y.scaled(2)
    assert omega(combo, ctx1) == omega(x, ctx1).scaled(3) - omega(y, ctx1).scaled(2)


def test_b_values(ctx1):
    assert b_coeff((1,), (1,), ctx1) == 1
    assert b_coeff((1,), (), ctx1) == -2
    assert b_coeff((2,), (), ctx1) == -2
    assert b_coeff((), (1,), ctx1) == 0


def test_b_rejects_high_rank(ctx1):
    with pytest.raises(ValueError):
        b_coeff((1, 1), (1,), ctx1)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("n", [1, 2])
def test_delta_identities(p, n):
    ctx = OmegaContext(p=p, n=n)
    parts = list(partitions_up_to(3, n))
    for b in parts:
        for a in parts:
            if order_exponent(a) > order_exponent(b):
                continue
            mids = [
                c
                for c in partitions_up_to(order_exponent(b), n)
                if embeds(a, c) and embeds(c, b)
            ]
            want = 1 if a == b else 0
            assert sum(a_coeff(b, c, ctx) * b_coeff(c, a, ctx) for c in mids) == want
            assert sum(b_coeff(b, c, ctx) * a_coeff(c, a, ctx) for c in mids) == want


def _b_by_recursion(ctx):
    """b by its defining recursion, the reference for b_coeff and lift_section:
    b(A, A) = 1 and b(B, A) = - sum over A <= C < B of a(B, C) b(C, A)."""
    memo = {}

    def b(big, small):
        if big == small:
            return 1
        if not embeds(small, big):
            return 0
        if (big, small) not in memo:
            memo[big, small] = -sum(
                a_coeff(big, c, ctx) * b(c, small)
                for c in partitions_up_to(order_exponent(big), ctx.n)
                if c != big and embeds(small, c) and embeds(c, big)
            )
        return memo[big, small]

    return b


@pytest.mark.parametrize("p,n,d", [(2, 2, 6), (3, 3, 5), (1009, 4, 6)])
def test_b_and_lift_match_the_recursion(p, n, d):
    ctx = OmegaContext(p=p, n=n)
    old = _b_by_recursion(OmegaContext(p=p, n=n))
    for big in partitions_up_to(d, n):
        below = [s for s in partitions_up_to(order_exponent(big), n) if embeds(s, big)]
        for small in below:
            assert b_coeff(big, small, ctx) == old(big, small), (big, small)
        want = {s: old(big, s) for s in below if old(big, s)}
        assert lift_section(big, ctx).terms == want, big


def _corrupt_image(monkeypatch, m, extra):
    """Make the omega-image of the class m read extra on top of the truth."""
    real = omega_module._omega_image

    def image(c, ctx):
        return {**real(c, ctx), **extra} if c == m else real(c, ctx)

    monkeypatch.setattr(omega_module, "_omega_image", image)


@pytest.mark.parametrize(
    "extra",
    [{(1, 1): 2}, {(2,): 1}],
    ids=["a(M, M) = 2", "a class outside M"],
)
def test_lift_checks_that_omega_is_unitriangular(monkeypatch, capsys, extra):
    _corrupt_image(monkeypatch, (1, 1), extra)
    ctx = OmegaContext(p=2, n=2)
    with pytest.raises(VerificationError, match=r"image of \[1,1\] does not lead"):
        lift_section((2, 1), ctx)
    argv = ["bcoeff", "--p", "2", "--n", "2", "--B", "[1,1]", "--A", "[]"]
    assert main(argv) == 4
    assert "does not lead with 1*[1,1]" in capsys.readouterr().err


def test_lift_section_values(ctx1):
    lifted = lift_section((1,), ctx1)
    assert lifted.terms == {(1,): 1, (): -2}
    assert lifted.n == 2  # lives upstairs


@pytest.mark.parametrize("n", [1, 2])
def test_omega_inverts_lift(n):
    ctx = OmegaContext(p=2, n=n)
    for lam in partitions_up_to(3, n):
        assert omega(lift_section(lam, ctx), ctx) == basis_element(lam, ctx.target)


def test_hom_on_elementary_pair(ctx1):
    report = verify_omega_hom((1,), (1,), ctx1)
    assert report.passed
    assert report.lhs.terms == {(2,): 1, (1,): 4, (): 4}


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (3, 1)])
def test_hom_small_sweep(p, n):
    ctx = OmegaContext(p=p, n=n)
    parts = list(partitions_up_to(2, n + 1))
    for m1 in parts:
        for m2 in parts:
            assert verify_omega_hom(m1, m2, ctx).passed


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (3, 1)])
def test_aggregate_formula(p, n):
    ctx = OmegaContext(p=p, n=n)
    for r in range(0, 4):
        report = verify_tp_formula(r, ctx)
        assert report.passed
        # closed form coefficient of the top aggregate is 1
        assert report.lhs != report.lhs.scaled(0) or r == 0


def test_aggregate_report_contents(ctx1):
    report = verify_tp_formula(2, ctx1)
    # omega(T~(4)) = T~(4) + 2 T~(2) + 4 T~(1)
    want = (
        t_aggregate(2, ctx1.target)
        + t_aggregate(1, ctx1.target).scaled(2)
        + t_aggregate(0, ctx1.target).scaled(4)
    )
    assert report.lhs == want
    assert report.recursion_lhs == t_aggregate(2, ctx1.target)


def test_j_count_fibers():
    for n in (1, 2):
        ctx = OmegaContext(p=2, n=n)
        for r in range(0, 3):
            amb = Ambient(2, n + 1, max(r, 1))
            v = standard_split(amb, "first")
            vrows = v.basis.rows
            inside = lambda row: _span_contains_rows(vrows, row, 2, amb.r)
            for s in range(0, r + 1):
                for nrep in enumerate_subgroups(amb, order_exp=s, row_filter=inside):
                    assert j_count(r, nrep, ctx) == 2 ** ((r - s) * n)


def test_j_count_validates_inputs(ctx1):
    amb = Ambient(2, 2, 2)
    v = standard_split(amb, "first")
    with pytest.raises(ValueError):
        j_count(1, v, ctx1)  # ambient truncation mismatch
    whole = Ambient(2, 2, 1)
    from heckealg.subgroups import subgroup_from_rows

    off_v = subgroup_from_rows(whole, [(0, 1)])
    with pytest.raises(ValueError):
        j_count(1, off_v, ctx1)  # not inside V
