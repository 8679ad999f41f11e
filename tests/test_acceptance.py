"""Acceptance sweep: the binding checks, at their full stated bounds.

Every comparison is exact integer equality.  Each criterion is one test
parametrized over its inputs, so a failure names the cell it failed in.
Each cell prints one line (visible under `pytest -s`); a failure raises
with the first counterexamples attached.
"""

import itertools

import pytest
from conftest import fibers

from heckealg.hecke import (
    HeckeContext,
    basis_element,
    c_by_enumeration,
    c_coeff,
    multiply,
)
from heckealg.omega import OmegaContext, a_by_enumeration, a_coeff
from heckealg.partitions import (
    embedded_pairs,
    embeds,
    order_exponent,
    partitions_of_exponent,
    partitions_up_to,
)
from heckealg.subgroups import count_of_type_in_group, enumerate_subgroups
from heckealg.verify import SUITES

P_N = list(itertools.product((2, 3), (1, 2)))


def _run(num, name, body):
    try:
        body()
    except BaseException:
        print(f"ACCEPT {num:02d} {name}: FAIL", flush=True)
        raise
    print(f"ACCEPT {num:02d} {name}: pass", flush=True)


# every pair up to order p^3, and spot checks one rank higher
@pytest.mark.parametrize("p,n,d", [(p, n, 3) for p, n in P_N] + [(2, 3, 2)])
def test_criterion_01_transfer_is_multiplicative(p, n, d):
    def body():
        checks = list(SUITES["hom"](d, OmegaContext(p=p, n=n)))
        assert len(checks) == len(list(partitions_up_to(d, n + 1))) ** 2
        bad = [name for name, ok, _ in checks if not ok]
        assert not bad, f"multiplicativity failed at {bad[:5]}"

    _run(1, f"transfer is a ring homomorphism (p={p}, n={n}, d={d})", body)


@pytest.mark.parametrize("p,n", P_N)
def test_criterion_02_aggregate_pushforward(p, n):
    def body():
        # the weighted sum, and for r > 0 the recursion, at r = 0..3
        checks = list(SUITES["tp"](3, OmegaContext(p=p, n=n)))
        assert [name for name, _, _ in checks] == [f"aggregate r={r}" for r in range(4)]
        bad = [name for name, ok, _ in checks if not ok]
        assert not bad, f"aggregate formula failed at {bad[:5]}"

    _run(2, f"aggregate pushforward closed form (p={p}, n={n})", body)


@pytest.mark.parametrize("r", [0, 1, 2])
@pytest.mark.parametrize("n", [1, 2])
def test_criterion_03_fiber_counts(n, r):
    def body():
        found = list(fibers(2, n, r))
        # V holds a subgroup of every order up to p^r
        assert sorted({s for s, _ in found}) == list(range(r + 1))
        for s, count in found:
            assert count == 2 ** ((r - s) * n), (s, count)

    _run(3, f"fiber count over every concrete intersection (n={n}, r={r})", body)


@pytest.mark.parametrize("p,n", P_N)
def test_criterion_04_structure_constant_routes(p, n):
    def body():
        bad = []
        ctx = HeckeContext(p=p, n=n)
        for l in partitions_up_to(4, n):
            d = order_exponent(l)
            for dm in range(d + 1):
                for m in partitions_of_exponent(dm, n):
                    for n_ in partitions_of_exponent(d - dm, n):
                        pieri = c_coeff(m, n_, l, ctx)
                        hall = c_by_enumeration(m, n_, l, ctx)
                        if pieri != hall:
                            bad.append((m, n_, l, pieri, hall))
        assert not bad, f"c-routes disagree at {bad[:5]}"

    _run(4, f"Pieri product vs Hall table (p={p}, n={n})", body)


@pytest.mark.parametrize("law", ["commutative", "associative"])
def test_criterion_05_commutative_associative(law):
    def body():
        ctx = HeckeContext(p=2, n=2)
        if law == "commutative":
            for m, n_ in itertools.product(partitions_up_to(3, 2), repeat=2):
                x = basis_element(m, ctx)
                y = basis_element(n_, ctx)
                assert multiply(x, y, ctx) == multiply(y, x, ctx), (m, n_)
            return
        for m, n_, l in itertools.product(partitions_up_to(2, 2), repeat=3):
            x = basis_element(m, ctx)
            y = basis_element(n_, ctx)
            z = basis_element(l, ctx)
            lhs = multiply(multiply(x, y, ctx), z, ctx)
            rhs = multiply(x, multiply(y, z, ctx), ctx)
            assert lhs == rhs, (m, n_, l)

    _run(5, f"product is {law}", body)


@pytest.mark.parametrize("p", [2, 3])
def test_criterion_06_rank_one_is_a_polynomial_ring(p):
    def body():
        ctx = HeckeContext(p=p, n=1)
        for a in range(0, 7):
            for b in range(0, 7 - a):
                x = basis_element((a,) if a else (), ctx)
                y = basis_element((b,) if b else (), ctx)
                want = {((a + b,) if a + b else ()): 1}
                got = multiply(x, y, ctx)
                assert got.terms == want, (a, b, got)

    _run(6, f"rank-one product adds order exponents (p={p})", body)


@pytest.mark.parametrize("p,n", P_N)
def test_criterion_07_triangular_inverse(p, n):
    def body():
        # every cell (B, A) with A inside B, and the section of every class
        checks = list(SUITES["inverse"](4, OmegaContext(p=p, n=n)))
        assert len(checks) == len(list(embedded_pairs(4, n))) + len(
            list(partitions_up_to(4, n))
        )
        bad = [name for name, ok, _ in checks if not ok]
        assert not bad, f"inverse identities failed at {bad[:5]}"

    _run(7, f"transfer matrix inverts exactly (p={p}, n={n})", body)


@pytest.mark.parametrize("p,n", P_N)
def test_criterion_08_generator_decomposition(p, n):
    def body():
        # every class up to order p^4 and the aggregates T~(p^r), r = 0..4
        checks = list(SUITES["shimura"](4, HeckeContext(p=p, n=n)))
        assert len(checks) == len(list(partitions_up_to(4, n))) + 5
        bad = [name for name, ok, _ in checks if not ok]
        assert not bad, f"decompositions failed at {bad[:5]}"

    name = "every class is an integer polynomial in the generators"
    _run(8, f"{name} (p={p}, n={n})", body)


# the split V and the truncation depth that the transfer is built from
CHOICES = {
    "first": lambda n, m: OmegaContext(p=2, n=n, split="first"),
    "last": lambda n, m: OmegaContext(p=2, n=n, split="last"),
    "deeper": lambda n, m: OmegaContext(p=2, n=n, trunc_override=(m[0] if m else 1) + 1),
}


@pytest.mark.parametrize("choice", list(CHOICES))
@pytest.mark.parametrize("n", [1, 2])
def test_criterion_09_transfer_choice_invariance(n, choice):
    def body():
        bad = []
        base = OmegaContext(p=2, n=n)
        for m in partitions_up_to(3, n + 1):
            ctx = CHOICES[choice](n, m)
            for n_ in partitions_up_to(order_exponent(m), n):
                # the closed form and the enumeration oracle under this choice,
                # against the closed form under the default one
                values = [
                    a_coeff(m, n_, base),
                    a_coeff(m, n_, ctx),
                    a_by_enumeration(m, n_, ctx),
                ]
                if len(set(values)) != 1:
                    bad.append((m, n_, values))
        assert not bad, f"coefficients moved under {choice}: {bad[:5]}"

    _run(9, f"transfer coefficients ignore split and truncation (n={n}, {choice})", body)


# subgroups of (Z/p)^2, (Z/2)^3 and the cyclic Z/2^r
CENSUS = [((1, 1), p, p + 3) for p in (2, 3)] + [((1, 1, 1), 2, 16)]
CENSUS += [((r,), 2, r + 1) for r in range(1, 5)]


@pytest.mark.parametrize("lam,p,count", CENSUS)
def test_criterion_10_enumeration_census(lam, p, count):
    def body():
        assert sum(1 for _ in enumerate_subgroups(lam, p)) == count

    _run(10, f"subgroup census (lam={lam}, p={p})", body)


@pytest.mark.parametrize("p", [2, 3])
def test_criterion_10_containment_oracle(p):
    def body():
        bad = []
        shapes = [
            lam
            for d in range(0, 6)
            for lam in partitions_of_exponent(d, d if d else 1)
        ]
        for lam in shapes:
            for mu in shapes:
                if order_exponent(mu) > order_exponent(lam):
                    continue
                found = count_of_type_in_group(lam, mu, p) > 0
                if found != embeds(mu, lam):
                    bad.append((lam, mu, found))
        assert not bad, f"containment mismatches search at {bad[:5]}"

    _run(10, f"containment oracle (p={p})", body)
