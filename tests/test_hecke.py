"""Products, structure constants and generator decompositions."""

import doctest
import itertools
import json
import random
from collections import Counter
from math import lcm

import pytest
from conftest import (
    aut_order,
    delsarte,
    error_message,
    gaussian_binomial,
    hall_littlewood_point,
    is_horizontal_strip,
)

from heckealg import hall, hecke
from heckealg.cli import main
from heckealg.errors import ParseError, VerificationError, exact_quotient
from heckealg.hecke import (
    GeneratorPoly,
    HeckeContext,
    HeckeElement,
    _apply,
    _leading_monomial,
    _monomial,
    _pieri_row,
    basis_element,
    c_by_enumeration,
    c_coeff,
    decompose_in_generators,
    eval_generator_poly,
    identity,
    multiply,
    parse_element,
    t_aggregate,
)
from heckealg.omega import OmegaContext, a_coeff, b_coeff, omega
from heckealg.partitions import (
    conjugate,
    order_exponent,
    partitions_between,
    partitions_of_exponent,
    partitions_up_to,
)
from heckealg.subgroups import DEFAULT_BUDGET, _type_census, count_of_type_in_group


@pytest.fixture(scope="module")
def ctx22():
    return HeckeContext(p=2, n=2)


@pytest.fixture(scope="module")
def ctx21():
    return HeckeContext(p=2, n=1)


def test_context_validation():
    with pytest.raises(ValueError):
        HeckeContext(p=6, n=2)
    with pytest.raises(ValueError):
        HeckeContext(p=2, n=0)


def test_guards_name_the_fault(ctx21, ctx22):
    assert error_message(ValueError, HeckeContext, 2, 1, budget=0) == "budget must be positive"
    one = basis_element((1,), ctx21)  # x and y agree, the context differs
    assert error_message(ValueError, multiply, one, one, ctx22) == (
        "element (p=2, n=1) does not match context (p=2, n=2)"
    )
    # x and y differ: the factor that does not match the context is named
    assert error_message(ValueError, multiply, basis_element((1,), ctx22), one, ctx22) == (
        "element (p=2, n=1) does not match context (p=2, n=2)"
    )
    assert error_message(ValueError, decompose_in_generators, one, ctx22) == (
        "element (p=2, n=1) does not match context (p=2, n=2)"
    )
    assert error_message(ValueError, eval_generator_poly, GeneratorPoly(2, {(1,): 1}), ctx22) == (
        "exponent vector (1,) does not have length 2"
    )
    assert error_message(VerificationError, exact_quotient, 7, 2, "seven halves") == (
        "seven halves: 7 is not divisible by 2"
    )
    assert error_message(VerificationError, exact_quotient, 7, 0, "by zero") == (
        "by zero: 7 is not divisible by 0"
    )


def test_equality_and_hashing():
    x = HeckeElement(2, 2, {(1,): 1, (2,): 2})
    y = HeckeElement(2, 2, {(2,): 2, (1,): 1})  # the same terms, inserted in another order
    assert x == y and hash(x) == hash(y)
    assert x != HeckeElement(3, 2, {(1,): 1, (2,): 2}) and x != HeckeElement(2, 3, x.terms)
    poly = GeneratorPoly(2, {(1, 0): 1})
    assert poly == GeneratorPoly(2, {(1, 0): 1, (0, 1): 0})
    assert poly != GeneratorPoly(3, poly.coeffs)
    for value in [x, poly]:
        assert value.__eq__("1*[1]") is NotImplemented and value != "1*[1]"


def test_element_normalization():
    e = HeckeElement(2, 2, {(1,): 2, (2,): 0})
    assert e.terms == {(1,): 2}
    with pytest.raises(ValueError):
        HeckeElement(2, 1, {(1, 1): 1})  # rank too high
    with pytest.raises(ValueError):
        HeckeElement(2, 2, {(1, 2): 1})  # not a partition
    with pytest.raises(ValueError, match="positive integers"):
        HeckeElement(2, 2, {(2, True): 1})
    for coeff in [True, False, 1.0]:
        with pytest.raises(ValueError, match="coefficients must be integers"):
            HeckeElement(2, 1, {(1,): coeff})


def test_element_arithmetic():
    a = HeckeElement(2, 2, {(1,): 1, (2,): 2})
    b = HeckeElement(2, 2, {(1,): -1, (1, 1): 5})
    assert (a + b).terms == {(2,): 2, (1, 1): 5}
    assert (a - a).is_zero()
    assert (a - b).terms == {(1,): 2, (2,): 2, (1, 1): -5}
    assert a.scaled(3).terms == {(1,): 3, (2,): 6}
    with pytest.raises(ValueError):
        a + HeckeElement(3, 2, {})
    with pytest.raises(ValueError, match="context mismatch"):
        a - HeckeElement(2, 1, {})
    with pytest.raises(ValueError, match="coefficients must be integers"):
        a.scaled(0.5)


def test_text_rendering():
    e = HeckeElement(2, 2, {(1, 1): -3, (2,): 1})
    assert e.to_text() == "1*[2] - 3*[1,1]"
    assert HeckeElement(2, 2, {}).to_text() == "0"


def test_elementary_square(ctx22):
    x = multiply(basis_element((1,), ctx22), basis_element((1,), ctx22), ctx22)
    assert x.terms == {(2,): 1, (1, 1): 3}


def test_identity_is_neutral(ctx22):
    e = identity(ctx22)
    for lam in partitions_up_to(3, 2):
        b = basis_element(lam, ctx22)
        assert multiply(e, b, ctx22) == b
        assert multiply(b, e, ctx22) == b


@pytest.mark.parametrize(
    "p,n,d", [(2, 2, 6), (3, 2, 6), (2, 3, 6), (3, 3, 5), (5, 2, 4), (2, 4, 5)]
)
def test_products_match_the_hall_table(p, n, d):
    # multiply takes the Pieri rule; the Hall table, read by
    # c_by_enumeration, is its oracle
    ctx = HeckeContext(p=p, n=n)
    classes = list(partitions_up_to(d, n))
    for m, n_ in itertools.product(classes, repeat=2):
        e = order_exponent(m) + order_exponent(n_)
        if e > d:
            continue
        want = {}
        for l in partitions_of_exponent(e, n):
            c = c_by_enumeration(m, n_, l, ctx)
            if c:
                want[l] = c
        got = multiply(basis_element(m, ctx), basis_element(n_, ctx), ctx)
        assert got.terms == want, (m, n_)


def _point_characters(p, n, d):
    """chi_j(L) for 0 <= j <= n and every class L of order at most p^d in
    rank n, keyed (j, L): the number of subgroups of type L of (Z/p^d)^n
    that meet a fixed subgroup F of rank j in 0.  Moebius inversion over the
    elementary subgroups of F (Butler 1994) gives

        chi_j(L) = alpha(L) sum_k (-1)^k p^(k(k-1)/2) [j; k]_p [l(L); k]_p / [n; k]_p,

    alpha(L) the Delsarte count and l(L) the length of L, so chi_0 = alpha.
    Each term is an integer: alpha(L) [l(L); k]_p counts the pairs (S, E)
    with E of rank k in S[p], and [n; k]_p divides it."""
    chi = {}
    for lam in partitions_up_to(d, n):
        alpha = delsarte((d,) * n, lam, p)
        for j in range(n + 1):
            chi[j, lam] = sum(
                exact_quotient(
                    (-1) ** k * p ** (k * (k - 1) // 2) * alpha
                    * gaussian_binomial(j, k, p) * gaussian_binomial(len(lam), k, p),
                    gaussian_binomial(n, k, p),
                    f"a term of chi_{j}({lam})",
                )
                for k in range(min(j, len(lam)) + 1)
            )
    return chi


@pytest.mark.parametrize("p,n,d", [(2, 2, 8), (3, 3, 8), (1009, 6, 9)])
def test_subgroup_count_is_a_character(p, n, d):
    # each point character chi_j is a ring homomorphism to Z, so
    # sum_L c(M, N; L) chi_j(L) = chi_j(M) chi_j(N): a check of the Pieri
    # products at primes that no enumeration reaches.  chi_0 = alpha, the
    # number of subgroups of type L in (Z/p^d)^n, is the transfers composed
    # down to rank 0; chi_j vanishes on the L longer than n - j
    ctx = HeckeContext(p=p, n=n)
    chi = _point_characters(p, n, d)
    classes = [lam for lam in partitions_up_to(d, n) if lam]
    for i, m in enumerate(classes):
        for n_ in classes[i:]:
            if order_exponent(m) + order_exponent(n_) <= d:
                got = multiply(basis_element(m, ctx), basis_element(n_, ctx), ctx)
                for j in range(n + 1):
                    total = sum(c * chi[j, lam] for lam, c in got.terms.items())
                    assert total == chi[j, m] * chi[j, n_], (j, m, n_)


@pytest.mark.parametrize("p,n,d", [(2, 2, 8), (3, 3, 8), (1009, 6, 9)])
def test_the_transfer_keeps_each_point_character(p, n, d):
    # sum_N a(M, N) chi_j^(n)(N) = chi_j^(n+1)(M) for j <= n, M in rank n + 1
    # and N in rank n: put F inside V, so that S & F = (S & V) & F, and a(M, N) counts
    # the S of type M over each S & V of type N.  It reads the branching
    # rule against Delsarte's counts, at every prime
    octx = OmegaContext(p=p, n=n)
    below, above = _point_characters(p, n, d), _point_characters(p, n + 1, d)
    for m in partitions_up_to(d, n + 1):
        image = omega(basis_element(m, octx.source), octx)
        for j in range(n + 1):
            total = sum(a * below[j, n_] for n_, a in image.terms.items())
            assert total == above[j, m], (j, m)


@pytest.mark.parametrize("p,n,d", [(2, 2, 6), (3, 3, 6), (5, 2, 8), (1009, 6, 9)])
def test_hall_littlewood_points_are_characters(p, n, d):
    # sum_L c(M, N; L) u_L(y) = u_M(y) u_N(y) at two seeded integer points y:
    # the Pieri products against the branching rule, with no Delsarte count.
    # Unlike chi_j, which vanishes on the L longer than n - j, the points
    # also see the full-rank classes
    ctx = HeckeContext(p=p, n=n)
    rng = random.Random(1000 * p + 10 * n + d)
    points = [
        hall_littlewood_point(p, [rng.randrange(-10**6 + 1, 10**6) for _ in range(n)])
        for _ in range(2)
    ]
    classes = list(partitions_up_to(d, n))
    for m, n_ in itertools.product(classes, repeat=2):
        if order_exponent(m) + order_exponent(n_) <= d:
            got = multiply(basis_element(m, ctx), basis_element(n_, ctx), ctx)
            for u in points:
                total = sum(c * u(lam) for lam, c in got.terms.items())
                assert total == u(m) * u(n_), (m, n_)


@pytest.mark.parametrize("p,n,d", [(2, 1, 6), (2, 2, 6), (3, 3, 7), (5, 4, 8), (1009, 6, 10)])
def test_the_aggregates_invert_shimuras_polynomial(p, n, d):
    # sum_r T~(p^r) X^r = (sum_k (-1)^k p^(k(k-1)/2) [1^k] X^k)^(-1)
    # (Shimura, 3.2), so for every r >= 1
    #   sum_(k <= min(r, n)) (-1)^k p^(k(k-1)/2) [1^k] T~(p^(r-k)) = 0:
    # the Pieri rows against a closed sum over all classes, with no
    # transfer, peel or enumeration
    ctx = HeckeContext(p=p, n=n)
    for r in range(1, d + 1):
        total = HeckeElement(p, n, {})
        for k in range(min(r, n) + 1):
            term = multiply(basis_element((1,) * k, ctx), t_aggregate(r - k, ctx), ctx)
            total = total + term.scaled((-1) ** k * p ** (k * (k - 1) // 2))
        assert total.is_zero(), (r, total)



def _green_sides(p, n, d):
    """(mu, nu, rho, sigma, left, right) for every |mu| + |nu| = |rho| + |sigma| <= d
    with l(mu) + l(nu) <= n and l(rho) + l(sigma) <= n, the two sides of
    Green's theorem (Invent. Math. 120, 1995) with g^lam_(mu nu) = c(mu, nu; lam)
    and a_lam = |Aut lam|:

        a_mu a_nu a_rho a_sigma sum_lam g^lam_(mu nu) g^lam_(rho sigma) / a_lam
          = sum g^mu_(alpha beta) g^nu_(gamma delta) g^rho_(alpha gamma)
                g^sigma_(beta delta) a_alpha a_beta a_gamma a_delta,

    each side times the lcm of the a_lam of that order, so that no term is
    a fraction.  The length filter keeps every lam of the left sum inside
    rank n."""
    ctx = HeckeContext(p=p, n=n)
    sized = [list(partitions_of_exponent(e, n)) for e in range(d + 1)]
    aut = {lam: aut_order(lam, p) for lam in partitions_up_to(d, n)}

    def pairs(e):
        return [(m, n_) for k in range(e + 1) for m in sized[k] for n_ in sized[e - k]]

    # the coproduct of each class: the (alpha, beta) with c(alpha, beta; mu) != 0
    splits = {
        mu: {ab: c for ab in pairs(e) if (c := c_coeff(*ab, mu, ctx))}
        for e in range(d + 1)
        for mu in sized[e]
    }
    for e in range(d + 1):
        den = lcm(*(aut[lam] for lam in sized[e]))
        short = [(m, n_) for m, n_ in pairs(e) if len(m) + len(n_) <= n]
        for (m, n_), (r, s) in itertools.product(short, repeat=2):
            left = aut[m] * aut[n_] * aut[r] * aut[s] * sum(
                c_coeff(m, n_, lam, ctx) * c_coeff(r, s, lam, ctx) * (den // aut[lam])
                for lam in sized[e]
            )
            right = den * sum(
                g_mu * g_nu * c_coeff(al, ga, r, ctx) * c_coeff(be, de, s, ctx)
                * aut[al] * aut[be] * aut[ga] * aut[de]
                for (al, be), g_mu in splits[m].items()
                for (ga, de), g_nu in splits[n_].items()
            )
            yield m, n_, r, s, left, right


@pytest.mark.parametrize(
    "p,n,d,quadruples",
    [(2, 2, 4, 147), (2, 4, 4, 530), (3, 3, 5, 839), (1009, 3, 6, 1800), (1009, 6, 6, 6051)],
)
def test_the_structure_constants_satisfy_greens_theorem(p, n, d, quadruples):
    # the Hall algebra is a twisted bialgebra (Green 1995; Zelevinsky 1981),
    # an identity quadratic in c that shares nothing with the transfer or
    # the characters; a faulty Pieri row still gives a commutative,
    # associative ring, and this sees it
    sides = list(_green_sides(p, n, d))
    assert len(sides) == quadruples
    bad = [quad for *quad, left, right in sides if left != right]
    assert not bad, f"{len(bad)} of {quadruples} quadruples fail, first {bad[:3]}"


@pytest.mark.parametrize("p,n,d", [(2, 1, 4), (2, 2, 4), (3, 2, 4), (2, 3, 5), (1009, 3, 5)])
def test_the_transfer_kills_kappa(p, n, d):
    # kappa_n = sum_k (-1)^(n+1-k) p^((n+1-k)(n-k)/2) [1^k] in rank n + 1
    # generates the kernel of omega (Stanley I, 3.10), so omega(M kappa_n) = 0
    # for every M: rank-(n+1) products against the branching rule
    octx = OmegaContext(p=p, n=n)
    up = octx.source
    kappa = HeckeElement(
        p, n + 1,
        {(1,) * k: (-1) ** (n + 1 - k) * p ** ((n + 1 - k) * (n - k) // 2) for k in range(n + 2)},
    )
    for m in partitions_up_to(d, n + 1):
        image = omega(multiply(basis_element(m, up), kappa, up), octx)
        assert image.is_zero(), (m, image)


# --- the reference Pieri coefficients, by division and from both conjugates ---


def _hall_vertical(lam, mu, p):
    """G^lam_{mu,(1^k)}(p), lam/mu a vertical k-strip (Macdonald II (4.6)).

    With a_i = lam'_i - lam'_(i+1) and b_i = lam'_i - mu'_i, II (4.6) reads
    p^(n(lam) - n(mu) - n(1^k)) prod_i [a_i; b_i]_(1/p); since
    [a; b]_(1/p) = p^(-b(a - b)) [a; b]_p this is

        p^(n(lam) - n(mu) - k(k - 1)/2 - sum_i b_i (a_i - b_i)) prod_i [a_i; b_i]_p.
    """
    k = sum(lam) - sum(mu)
    cols = conjugate(lam) + (0,)
    inner = conjugate(mu) + (0,) * len(cols)
    exp = sum(i * part for i, part in enumerate(lam)) - sum(i * part for i, part in enumerate(mu))
    exp -= k * (k - 1) // 2
    value = 1
    for i in range(len(cols) - 1):
        a, b = cols[i] - cols[i + 1], cols[i] - inner[i]
        exp -= b * (a - b)
        value *= gaussian_binomial(a, b, p)
    assert exp >= 0, (lam, mu)
    return p**exp * value


def test_reference_pieri_values():
    assert (_hall_vertical((1, 1), (1,), 2), _hall_vertical((2, 2, 1), (2, 1), 3)) == (3, 12)


@pytest.mark.parametrize("p", [2, 3, 1009])
def test_gaussian_table_is_the_division_formula(p):
    table = hall._gaussian_table(p, 8)
    assert [len(row) for row in table] == list(range(1, 10))
    for a, row in enumerate(table):
        assert row == [gaussian_binomial(a, b, p) for b in range(a + 1)], a


def test_pieri_rows_by_strip_match_the_filter():
    # the row grows the top rows of each block of mu and lists each lam
    # once, lexicographically decreasing; the filter over all partitions
    # of |mu| + k keeps those with lam/mu a vertical strip
    for p, n in itertools.product([2, 3, 1009], range(1, 6)):
        ctx = HeckeContext(p=p, n=n)
        for mu in partitions_up_to(6, n):
            for k in range(1, n + 1):
                want = {
                    lam: _hall_vertical(lam, mu, p)
                    for lam in partitions_of_exponent(order_exponent(mu) + k, n)
                    if is_horizontal_strip(conjugate(lam), conjugate(mu))
                }
                got = _pieri_row(mu, k, ctx)
                assert got == want, (p, n, mu, k)
                assert list(got) == sorted(want, reverse=True), (p, n, mu, k)



@pytest.mark.parametrize("p,n,d", [(2, 2, 3), (3, 3, 4), (1009, 4, 5)])
def test_pieri_operators_commute(p, n, d):
    # u_lam T_j T_k = u_lam T_k T_j: the algebra is commutative.  multiply
    # goes through the polynomial ring on the T_k, where that holds by
    # construction, so this is the check that the rows themselves commute
    ctx = HeckeContext(p=p, n=n)

    def times(x, k):
        return _apply(x, lambda mu: _pieri_row(mu, k, ctx))

    bad = [
        (lam, j, k)
        for lam in partitions_up_to(d, n)
        for j, k in itertools.product(range(1, n + 1), repeat=2)
        if times(times({lam: 1}, j), k) != times(times({lam: 1}, k), j)
    ]
    assert not bad, bad

def test_a_product_at_large_rank_grows_only_the_gaussian_rows_it_reads():
    # u_(1) T_1 reads [a; b]_p only for a <= 2, whatever the rank
    ctx = HeckeContext(p=2, n=300)
    x = basis_element((1,), ctx)
    assert multiply(x, x, ctx) == HeckeElement(2, 300, {(2,): 1, (1, 1): 3})
    assert len(ctx._gauss) <= 5
    assert ctx._gauss == hall._gaussian_table(2, len(ctx._gauss) - 1)



def test_a_repeated_product_takes_no_pieri_step(monkeypatch):
    # every product is evaluated on the context's one table of T-monomials,
    # so the second time a context multiplies two elements it builds nothing
    calls = Counter()
    real = hecke._pieri_row

    def counted(mu, k, ctx):
        calls[ctx] += 1
        return real(mu, k, ctx)

    monkeypatch.setattr(hecke, "_pieri_row", counted)
    ctx = HeckeContext(p=3, n=3)
    x = HeckeElement(3, 3, {(2, 1): 1, (1, 1, 1): -2})
    y = HeckeElement(3, 3, {(3,): 4, (1,): 1})
    want = multiply(x, y, ctx)
    assert calls[ctx] > 0
    calls.clear()
    assert multiply(x, y, ctx) == want
    assert calls[ctx] == 0

def test_oracle_catches_a_wrong_gaussian_binomial(monkeypatch, capsys):
    # [2; 1]_p = p + 1 enters u_(1) T_1 at [1,1]; verify shimura writes and
    # evaluates through the same rows, the Hall-table oracle does not
    real = hall._gaussian_table

    def off_by_one(p, n):
        table = real(p, n)
        table[2][1] += 1
        return table

    monkeypatch.setattr(hecke, "_gaussian_table", off_by_one)
    assert main(["verify", "oracle", "--p", "2", "--n", "2", "--max-order-exp", "3"]) == 4


def test_table_c_computes_each_product_once(monkeypatch, capsys):
    calls = []
    real = hecke.multiply

    def counting(x, y, ctx):
        calls.append((x, y))
        return real(x, y, ctx)

    monkeypatch.setattr(hecke, "multiply", counting)
    assert main(["table", "c", "--p", "3", "--n", "2", "--max-order-exp", "4"]) == 0
    capsys.readouterr()
    # one product for each of the 30 pairs (M, N) with |M| + |N| <= 4
    assert len(calls) == 30


def test_hall_doctests():
    assert doctest.testmod(hall).failed == 0


def test_c_guards(sweeps):
    # both routes share the guards, so the oracle answers them without a sweep
    ctx = HeckeContext(p=2, n=2)
    for route in (c_coeff, c_by_enumeration):
        assert route((1, 1, 1), (1,), (1, 1), ctx) == 0  # rank too high
        assert route((1,), (1,), (1, 1, 1), ctx) == 0
        assert route((1,), (1,), (3,), ctx) == 0  # orders do not add up
        assert route((), (), (), ctx) == 1  # the trivial class enumerates nothing
    assert sweeps == []


def test_c_of_elementary_classes_counts_subspaces():
    # c((1^a), (1^b); (1^(a+b))) counts the a-dimensional subspaces of
    # F_p^(a+b); at p = 1009 only the Pieri route can reach it
    p = 1009
    ctx = HeckeContext(p=p, n=4)
    for a in range(5):
        for b in range(5 - a):
            top = bottom = 1
            for i in range(a):
                top *= p ** (a + b) - p**i
                bottom *= p**a - p**i
            want, rest = divmod(top, bottom)
            assert rest == 0
            assert c_coeff((1,) * a, (1,) * b, (1,) * (a + b), ctx) == want, (a, b)


def test_memo_keys_are_scoped():
    # the transfer memoises b under its cache key, scoped by p and the
    # target rank; a is one product off its bin and c is read off its
    # product row, so neither has a key
    ctx = OmegaContext(p=2, n=1)
    assert a_coeff((2, 1), (1,), ctx) == 2
    assert ctx.memo == {}
    assert b_coeff((2,), (), ctx) == -2
    assert ctx.memo == {"b:p=2:n=1:B=[2]:A=[]": -2}
    assert c_coeff((1,), (1,), (1, 1), ctx.source) == 3
    assert ctx.memo == {"b:p=2:n=1:B=[2]:A=[]": -2}
    assert not hasattr(ctx.source, "memo")


def test_aggregate_sums_classes(ctx22):
    assert t_aggregate(0, ctx22) == identity(ctx22)
    assert t_aggregate(2, ctx22).terms == {(2,): 1, (1, 1): 1}
    with pytest.raises(ValueError):
        t_aggregate(-1, ctx22)


def test_single_class_decomposition(ctx22):
    poly = decompose_in_generators(basis_element((2,), ctx22), ctx22)
    assert poly.coeffs == {(2, 0): 1, (0, 1): -3}


def test_aggregate_decomposition(ctx22):
    poly = decompose_in_generators(t_aggregate(2, ctx22), ctx22)
    assert poly.coeffs == {(2, 0): 1, (0, 1): -2}


def test_decomposition_other_prime():
    ctx = HeckeContext(p=3, n=2)
    poly = decompose_in_generators(basis_element((2,), ctx), ctx)
    assert poly.coeffs == {(2, 0): 1, (0, 1): -4}


def _dominates(lam, mu):
    return all(sum(mu[:i]) <= sum(lam[:i]) for i in range(1, len(mu) + 1))


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_leading_monomials_are_unitriangular(p, n):
    # the T-monomial of lam leads with 1*lam in dominance order, and the
    # tuple order on partitions of one degree refines dominance; this is
    # what lets decompose_in_generators peel off leading terms
    ctx = HeckeContext(p=p, n=n)
    for lam in partitions_up_to(5, n):
        mono = _monomial(_leading_monomial(lam, n), ctx)
        assert mono[lam] == 1
        assert max(mono) == lam
        assert all(_dominates(lam, mu) for mu in mono)


def test_decompose_failure_names_its_class(monkeypatch):
    # a monomial that does not lead with 1*lam stops the decomposition at lam
    def doubled(exps, ctx):
        mono = _monomial(exps, ctx)
        return {lam: 2 * c for lam, c in mono.items()} if exps == (2, 0) else mono

    monkeypatch.setattr(hecke, "_monomial", doubled)
    ctx = HeckeContext(p=2, n=2)
    with pytest.raises(VerificationError, match=r"does not lead with 1\*\[2\]"):
        decompose_in_generators(basis_element((2,), ctx), ctx)


def test_decompose_failure_prints_the_image_as_an_element(monkeypatch):
    def negated(exps, ctx):
        mono = _monomial(exps, ctx)
        return {lam: -c for lam, c in mono.items()} if exps == (2, 0) else mono

    monkeypatch.setattr(hecke, "_monomial", negated)
    ctx = HeckeContext(p=2, n=2)
    with pytest.raises(VerificationError) as info:
        decompose_in_generators(basis_element((2,), ctx), ctx)
    assert str(info.value) == "image of [2] does not lead with 1*[2]: -1*[2] - 3*[1,1]"


def test_decompose_mixed_element(ctx22):
    elem = HeckeElement(2, 2, {(2, 1): 2, (1,): -1, (): 7})
    poly = decompose_in_generators(elem, ctx22)
    assert eval_generator_poly(poly, ctx22) == elem


def test_poly_drops_zero_coefficients():
    poly = GeneratorPoly(2, {(1, 0): 3, (0, 1): 0})
    assert poly == GeneratorPoly(2, {(1, 0): 3})
    assert poly.coeffs == {(1, 0): 3}
    assert GeneratorPoly(2, {(0, 0): 0}) == GeneratorPoly(2, {})


@pytest.mark.parametrize(
    ("coeffs", "text"),
    [
        ({(2, 0): 1, (0, 1): -3, (0, 0): 5}, "5 + 1*T1^2 - 3*T2"),
        ({(1, 0): -1}, "-1*T1"),
        ({(0, 0): -5, (1, 0): 2}, "-5 + 2*T1"),
        ({(1, 1): 4}, "4*T1*T2"),
        ({}, "0"),
    ],
)
def test_poly_rendering(capsys, ctx22, coeffs, text):
    poly = GeneratorPoly(2, coeffs)
    assert poly.to_text() == str(poly) == text
    # the JSON shape belongs to the command line: decompose the element poly names
    element = eval_generator_poly(poly, ctx22).to_text()
    assert main(["decompose", "--p", "2", "--n", "2", "--output", "json", "--", element]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["p"], payload["n"]) == (2, 2)
    assert {tuple(t["exponents"]): int(t["coeff"]) for t in payload["terms"]} == coeffs


def test_eval_rejects_misfit_poly(ctx21):
    poly = GeneratorPoly(2, {(0, 1): 1})
    with pytest.raises(ValueError):
        eval_generator_poly(poly, ctx21)


def test_parse_element_round_trip(ctx22):
    x = multiply(basis_element((1,), ctx22), basis_element((1,), ctx22), ctx22)
    assert parse_element(x.to_text(), 2, 2) == x
    assert parse_element("0", 2, 2).is_zero()
    assert parse_element("2*[1] - 2*[]", 2, 1).terms == {(1,): 2, (): -2}
    assert parse_element("1*[1]+1*[1]", 2, 1).terms == {(1,): 2}


@pytest.mark.parametrize(
    "text", ["", "[1]", "1*", "1*[1] 2*[2]", "x*[1]", "1*[1] + + 2*[]", "1*[2,3]"]
)
def test_parse_element_rejects(text):
    with pytest.raises(ParseError):
        parse_element(text, 2, 2)


def test_parse_element_respects_rank():
    with pytest.raises(ParseError):
        parse_element("1*[1,1]", 2, 1)


# --- subgroup counts at every prime ------------------------------------------


@pytest.mark.parametrize(("p", "n", "max_order_exp"), [(1009, 4, 8), (2, 3, 6), (3, 2, 6)])
def test_structure_constants_sum_to_subgroup_counts(p, n, max_order_exp):
    # sum_N c(M, N; L) counts the subgroups of cotype M in a group of type
    # L, and sum_N c(N, M; L) those of type M: both are alpha_L(M; p)
    ctx = HeckeContext(p=p, n=n)
    checked = 0
    for lam in partitions_up_to(max_order_exp, n):
        d = order_exponent(lam)
        for mu in partitions_up_to(d, n):
            rest = list(partitions_of_exponent(d - order_exponent(mu), n))
            want = delsarte(lam, mu, p)
            assert sum(c_coeff(mu, nu, lam, ctx) for nu in rest) == want, (lam, mu)
            assert sum(c_coeff(nu, mu, lam, ctx) for nu in rest) == want, (lam, mu)
            if d <= 4 and p <= 3:
                assert count_of_type_in_group(lam, mu, p) == want, (lam, mu)
            checked += want > 0
    assert checked == sum(
        len(list(partitions_between((), lam))) for lam in partitions_up_to(max_order_exp, n)
    )


# the (p, n, r) of (Z/p^r)^n whose 66 subgroup types the formula is
# checked on by enumeration
_DELSARTE_GRID = [
    (2, 1, 4), (2, 2, 3), (2, 3, 2), (3, 2, 2), (3, 3, 1), (5, 2, 2), (2, 4, 1), (2, 3, 3),
]


def test_delsarte_counts_the_enumerated_subgroups_of_each_type():
    cells = 0
    for p, n, r in _DELSARTE_GRID:
        # one census per order: the type census sweeps no group whole
        census = sum(
            (_type_census((r,) * n, d, p, DEFAULT_BUDGET) for d in range(r * n + 1)), Counter()
        )
        assert hall._delsarte_counts((r,) * n, p) == census, (p, n, r)
        cells += len(census)
    assert cells == 66


def test_delsarte_without_division_is_the_product_form():
    # every type below (4^6) at p = 1009, against the test copy that
    # divides its Gaussian binomials out
    lam = (4,) * 6
    counts = hall._delsarte_counts(lam, 1009)
    assert list(counts) == list(partitions_between((), lam)) and len(counts) == 210
    for mu, count in counts.items():
        assert count == delsarte(lam, mu, 1009), mu
