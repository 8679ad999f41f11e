"""The rank-lowering transfer, its inverse and its fiber counts."""

import json
import sys
from collections import Counter
from math import prod
from pathlib import Path

import pytest
from conftest import aut_order, delsarte, error_message, fibers, is_horizontal_strip, riedtmann

from heckealg import hecke, modmat, subgroups
from heckealg.cache import CACHE_FILENAME
from heckealg.cli import main
from heckealg.errors import VerificationError
from heckealg.hecke import (
    HeckeContext, basis_element, c_by_enumeration, multiply, t_aggregate
)
from heckealg.omega import (
    OmegaContext,
    a_by_enumeration,
    a_coeff,
    b_coeff,
    i_count,
    lift_section,
    omega,
)
from heckealg.partitions import (
    conjugate, embeds, order_exponent, partitions_between, partitions_up_to
)
from heckealg.subgroups import DEFAULT_BUDGET, _type_of_rows
from heckealg.verify import SUITES

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
        OmegaContext(p=2, n=1, trunc_override=0)
    # the target algebra checks the rank, before the split is read
    rank = "rank must be at least 1, got 0"
    assert error_message(ValueError, OmegaContext, p=2, n=0) == rank
    assert error_message(ValueError, OmegaContext, p=2, n=0, split="middle") == rank


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


def test_a_rejects_bool_parts():
    # True == 1, but it would store a second cache key for a([2,1], [1])
    ctx = OmegaContext(p=2, n=1)
    with pytest.raises(ValueError, match="positive integers"):
        a_coeff((2, True), (1,), ctx)
    with pytest.raises(ValueError, match="positive integers"):
        a_coeff((2, 1), (True,), ctx)
    assert ctx.memo == {}


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


@pytest.mark.parametrize(
    ("p", "n", "max_order_exp"), [(1009, 6, 9), (1009, 4, 8), (2, 3, 6), (3, 2, 6)]
)
def test_transfer_preserves_subgroup_counts(p, n, max_order_exp):
    # every subgroup of type M in (Z/p^r)^(n+1), r = M_1, meets V[p^r] =
    # (Z/p^r)^n in some copy of an N, and a(M, N) counts those meeting a
    # fixed copy, so sum_N a(M, N) alpha_(r^n)(N; p) = alpha_(r^(n+1))(M; p)
    ctx = OmegaContext(p=p, n=n)
    for m in partitions_up_to(max_order_exp, n + 1):
        if m:
            r = m[0]
            got = sum(
                a_coeff(m, n_, ctx) * delsarte((r,) * n, n_, p)
                for n_ in partitions_between((), m)
            )
            assert got == delsarte((r,) * (n + 1), m, p), m


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


def test_i_count_sweeps_once_per_truncation_and_order(sweeps):
    ctx = OmegaContext(p=2, n=1)
    cells = [(m, n_) for m in partitions_up_to(3, 2) for n_ in partitions_up_to(3, 1)]
    counts = [i_count(m, n_, ctx) for m, n_ in cells]
    # one table per (r, |M|), r = M_1 (1 for M = ())
    tables = [(1, 0), (1, 1), (1, 2), (2, 2), (2, 3), (3, 3)]
    assert sorted(args[2:4] for _, args in sweeps) == tables
    assert {table for table, _ in sweeps} == {"_meet_census"}
    assert [i_count(m, n_, ctx) for m, n_ in cells] == counts and len(sweeps) == len(tables)


def test_sweep_tables_are_shared_and_keyed_by_what_changes_them(sweeps):
    for ctx in (HeckeContext(2, 2), HeckeContext(2, 2)):
        assert c_by_enumeration((1,), (1, 1), (2, 1), ctx) == 1
    assert sweeps == [("_hall_census", (2, 2, 2, None, (0, 1), DEFAULT_BUDGET))]
    assert c_by_enumeration((1,), (1, 1), (2, 1), HeckeContext(2, 2, budget=10**5)) == 1
    assert sweeps[1:] == [("_hall_census", (2, 2, 2, None, (0, 1), 10**5))]
    sweeps.clear()
    for ctx in (OmegaContext(2, 1), OmegaContext(2, 1), OmegaContext(2, 1, split="last")):
        assert i_count((1, 1), (1,), ctx) == 1
    # the split changes no sweep, only what each subgroup is met with
    assert sweeps == [("_meet_census", (2, 2, 1, 2, (0, 0), DEFAULT_BUDGET))] * 2


# the distinct sweeps that the oracle suite made while each oracle cell
# still swept on its own (432 sweeps in all), as (p, n, r, order_exp,
# col_val_min, budget)
ORACLE_SWEEPS = {
    (p, n, r, oe, tuple(floors), budget)
    for p, n, r, oe, floors, budget in json.loads(
        (Path(__file__).parent / "data" / "oracle_sweeps.json").read_text()
    )
}


def test_oracle_suite_makes_each_sweep_once_per_table(sweeps, capsys):
    assert main(["verify", "oracle", "--p", "2", "--n", "2", "--max-order-exp", "5"]) == 0
    capsys.readouterr()
    for table in {table for table, _ in sweeps}:
        made = [args for t, args in sweeps if t == table]
        assert len(made) == len(set(made)), table
    assert {args for _, args in sweeps} == ORACLE_SWEEPS
    assert {table for table, _ in sweeps} == {"_type_census", "_meet_census", "_hall_census"}
    # the totals read the Hall table, so the type census sweeps no group whole
    assert not [args for t, args in sweeps if t == "_type_census" and args[3] is None]
    # 4 of those groups are swept twice, by two different tables: the
    # order-2^k subgroups of (Z/2)^3, k = 0..3, counted by type in the type
    # census and by (type, type of the meet with V) in the i_count table
    assert len(sweeps) == 119


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


@pytest.mark.parametrize(
    "p,n,d", [(2, 1, 10), (2, 3, 8), (3, 2, 6), (1009, 4, 8), (1009, 6, 10)]
)
def test_omega_images_walk_the_strips(p, n, d):
    # the filtered route tries every N up to |M| that embeds in M
    ctx, filtered = OmegaContext(p=p, n=n), OmegaContext(p=p, n=n)
    for m in partitions_up_to(d, n + 1):
        want = {}
        for n_ in partitions_up_to(order_exponent(m), n):
            if embeds(n_, m) and (a := a_coeff(m, n_, filtered)):
                want[n_] = a
        assert omega_module._omega_image(m, ctx) == want, m


def test_each_bin_is_built_once_per_context(monkeypatch):
    built = []
    real = omega_module.partitions_between

    def recording(low, high, size=None):
        if size is not None:  # only a bin walks one size
            built.append((low, high, size))
        return real(low, high, size)

    monkeypatch.setattr(omega_module, "partitions_between", recording)
    classes = list(partitions_up_to(6, 3))
    for _ in range(2):
        ctx = OmegaContext(p=3, n=2)
        for m in classes + classes:
            omega(basis_element(m, ctx.source), ctx)
            for n_ in partitions_up_to(order_exponent(m), 2):
                a_coeff(m, n_, ctx)
    keys = set(built)
    assert keys and len(built) == 2 * len(keys)


@pytest.mark.parametrize("p,n,d,keys", [(3, 2, 6, 73), (2, 3, 7, 148), (1009, 6, 9, 470)])
def test_table_a_builds_the_bins_of_its_cells(monkeypatch, capsys, p, n, d, keys):
    # `table a` reads the images, and each bin it builds runs its coset-sum
    # check: the same bins as a_coeff on every cell of the table
    real = omega_module._transversal_bins
    built = []

    def recording(ctx, n_, t, r):
        if (n_, t, r) not in ctx._bins:
            built.append((n_, t, r))
        return real(ctx, n_, t, r)

    monkeypatch.setattr(omega_module, "_transversal_bins", recording)
    argv = ["table", "a", "--p", str(p), "--n", str(n), "--max-order-exp", str(d)]
    assert main(argv) == 0
    capsys.readouterr()
    by_table = set(built)
    del built[:]
    ctx = OmegaContext(p=p, n=n)
    for m in partitions_up_to(d, n + 1):
        for n_ in partitions_between((), m[:n]):
            a_coeff(m, n_, ctx)
    assert len(by_table) == keys
    assert by_table == set(built)


@pytest.mark.parametrize("p", [2, 3, 1009])
def test_aut_order_is_the_conjugate_formula(p):
    # Macdonald II (1.6) read off the conjugate and a Counter of the parts
    for lam in partitions_up_to(10, 10):
        mult = Counter(lam).values()
        exp = sum(c * c for c in conjugate(lam)) - sum(m * (m + 1) // 2 for m in mult)
        want = p**exp * prod(p**k - 1 for m in mult for k in range(1, m + 1))
        assert aut_order(lam, p) == want, lam


def test_memoised_bins_keep_their_check(monkeypatch, tmp_path):
    # one branching value off by one: the bin of (N, t, r) = ([2,1], 2, 3) no
    # longer adds up to its coset count, and holds [3,2] and [3,1,1]
    real = omega_module._branching

    def off_by_one(m, n_, p, n):
        return real(m, n_, p, n) + (m == (3, 2))

    monkeypatch.setattr(omega_module, "_branching", off_by_one)
    ctx = OmegaContext(p=2, n=2)
    for m in [(3, 1, 1), (3, 2), (3, 1, 1)]:
        with pytest.raises(VerificationError, match="add up to"):
            a_coeff(m, (2, 1), ctx)
    argv = ["table", "omega", "--p", "2", "--n", "2", "--max-order-exp", "5"]
    assert main(argv) == 4
    # a run that fails its check writes nothing to the cache
    assert main(argv + ["--cache", str(tmp_path)]) == 4
    assert not (tmp_path / CACHE_FILENAME).exists()


@pytest.mark.parametrize(
    "p,n,d", [(2, 1, 8), (2, 4, 9), (3, 2, 8), (5, 3, 8), (1009, 6, 12)]
)
def test_branching_rule_is_riedtmanns_formula(p, n, d):
    # the Hall polynomial and the automorphism counts, with their checked
    # division, against a_coeff's one product on every horizontal strip
    ctx = OmegaContext(p=p, n=n)
    for m in partitions_up_to(d, n + 1):
        for n_ in partitions_up_to(order_exponent(m) - 1, n):
            if is_horizontal_strip(m, n_):
                assert a_coeff(m, n_, ctx) == riedtmann(m, n_, p, n), (m, n_)


@pytest.mark.parametrize("p,n,d", [(3, 2, 5), (2, 3, 6), (1009, 6, 8)])
def test_table_a_stores_nothing_and_is_the_closed_form(tmp_path, capsys, p, n, d):
    # a is computed, never stored: --cache names a directory that no run makes
    store = tmp_path / "store"
    argv = ["table", "a", "--p", str(p), "--n", str(n), "--max-order-exp", str(d)]
    assert main(argv + ["--output", "json", "--cache", str(store)]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert not store.exists()
    assert any(row["value"] for row in rows)
    for row in rows:
        m, n_ = tuple(row["M"]), tuple(row["N"])
        want = riedtmann(m, n_, p, n) if is_horizontal_strip(m, n_) and m != n_ else int(m == n_)
        assert int(row["value"]) == want, (m, n_)


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
    e = basis_element((1,), ctx1.source)
    lhs = omega(multiply(e, e, ctx1.source), ctx1)
    assert lhs == multiply(omega(e, ctx1), omega(e, ctx1), ctx1.target)
    assert lhs.terms == {(2,): 1, (1,): 4, (): 4}


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (3, 1)])
def test_hom_small_sweep(p, n):
    checks = list(SUITES["hom"](2, OmegaContext(p=p, n=n)))
    assert len(checks) == len(list(partitions_up_to(2, n + 1))) ** 2
    assert all(ok for _, ok, _ in checks)


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (3, 1)])
def test_aggregate_formula(p, n):
    ctx = OmegaContext(p=p, n=n)
    checks = list(SUITES["tp"](3, ctx))
    assert [name for name, _, _ in checks] == [f"aggregate r={r}" for r in range(4)]
    assert all(ok for _, ok, _ in checks)
    # each image is nonzero: it holds the aggregate downstairs with coefficient 1
    for r in range(4):
        assert not omega(t_aggregate(r, ctx.source), ctx).is_zero()


def test_aggregate_suite_transfers_each_aggregate_once(ctx1, monkeypatch):
    # the recursion at r reuses omega(T~(p^(r-1))) from r - 1, so the suite
    # transfers T~(1), ..., T~(p^3) once each and nothing else
    import heckealg.verify as verify

    real, seen = verify.omega, []

    def counted(x, ctx):
        seen.append(x)
        return real(x, ctx)

    monkeypatch.setattr(verify, "omega", counted)
    assert all(ok for _, ok, _ in SUITES["tp"](3, ctx1))
    assert seen == [t_aggregate(r, ctx1.source) for r in range(4)]


def test_aggregate_report_contents(ctx1):
    image = omega(t_aggregate(2, ctx1.source), ctx1)
    # omega(T~(4)) = T~(4) + 2 T~(2) + 4 T~(1)
    want = (
        t_aggregate(2, ctx1.target)
        + t_aggregate(1, ctx1.target).scaled(2)
        + t_aggregate(0, ctx1.target).scaled(4)
    )
    assert image == want
    below = omega(t_aggregate(1, ctx1.source), ctx1)
    assert image - below.scaled(2) == t_aggregate(2, ctx1.target)


def test_fiber_counts():
    for n in (1, 2):
        for r in range(0, 3):
            for s, count in fibers(2, n, r):
                assert count == 2 ** ((r - s) * n), (n, r, s)


def test_classes_of_too_high_a_rank(sweeps):
    ctx = OmegaContext(2, 1)
    assert i_count((1, 1, 1), (), ctx) == 0  # M of rank over n + 1
    assert i_count((1, 1), (1, 1), ctx) == 0  # N of rank over n
    assert sweeps == []  # answered before any subgroup is enumerated
    assert error_message(ValueError, lift_section, (1, 1), ctx) == "[1,1] has rank over 1"
