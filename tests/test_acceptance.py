"""Acceptance sweep: the binding checks, at their full stated bounds.

Every comparison is exact integer equality.  Each criterion prints one
line (visible under `pytest -s`); a failure raises with the first
counterexamples attached.
"""

import itertools

from conftest import fibers

from heckealg.hecke import (
    HeckeContext,
    basis_element,
    c_by_enumeration,
    c_coeff,
    decompose_in_generators,
    eval_generator_poly,
    multiply,
)
from heckealg.omega import (
    OmegaContext,
    a_coeff,
    b_coeff,
    lift_section,
    omega,
)
from heckealg.partitions import (
    embeds,
    order_exponent,
    partitions_of_exponent,
    partitions_up_to,
)
from heckealg.subgroups import count_of_type_in_group, enumerate_subgroups
from heckealg.verify import SUITES


def _run(num, name, body):
    try:
        body()
    except BaseException:
        print(f"ACCEPT {num:02d} {name}: FAIL", flush=True)
        raise
    print(f"ACCEPT {num:02d} {name}: pass", flush=True)


def test_criterion_01_transfer_is_multiplicative():
    def body():
        bad = []
        # every pair up to order p^3, and spot checks one rank higher
        cases = [(p, n, 3) for p, n in itertools.product((2, 3), (1, 2))] + [(2, 3, 2)]
        for p, n, d in cases:
            checks = list(SUITES["hom"](d, OmegaContext(p=p, n=n)))
            assert len(checks) == len(list(partitions_up_to(d, n + 1))) ** 2
            bad += [(p, n, name) for name, ok, _ in checks if not ok]
        assert not bad, f"multiplicativity failed at {bad[:5]}"

    _run(1, "transfer is a ring homomorphism", body)


def test_criterion_02_aggregate_pushforward():
    def body():
        bad = []
        for p, n in itertools.product((2, 3), (1, 2)):
            # the weighted sum, and for r > 0 the recursion, at r = 0..3
            checks = list(SUITES["tp"](3, OmegaContext(p=p, n=n)))
            assert len(checks) == 4
            bad += [(p, n, name) for name, ok, _ in checks if not ok]
        assert not bad, f"aggregate formula failed at {bad[:5]}"

    _run(2, "aggregate pushforward closed form", body)


def test_criterion_03_fiber_counts():
    def body():
        checked = 0
        for n in (1, 2):
            for r in range(0, 3):
                for s, count in fibers(2, n, r):
                    assert count == 2 ** ((r - s) * n), (n, r, s, count)
                    checked += 1
        assert checked >= 20

    _run(3, "fiber count over every concrete intersection", body)


def test_criterion_04_structure_constant_routes():
    def body():
        bad = []
        for p, n in itertools.product((2, 3), (1, 2)):
            ctx = HeckeContext(p=p, n=n)
            for l in partitions_up_to(4, n):
                d = order_exponent(l)
                for dm in range(d + 1):
                    for m in partitions_of_exponent(dm, n):
                        for n_ in partitions_of_exponent(d - dm, n):
                            pieri = c_coeff(m, n_, l, ctx)
                            hall = c_by_enumeration(m, n_, l, ctx)
                            if pieri != hall:
                                bad.append((p, n, m, n_, l, pieri, hall))
        assert not bad, f"c-routes disagree at {bad[:5]}"

    _run(4, "Pieri product vs Hall table", body)


def test_criterion_05_commutative_associative():
    def body():
        ctx = HeckeContext(p=2, n=2)
        pair_classes = list(partitions_up_to(3, 2))
        for m, n_ in itertools.product(pair_classes, repeat=2):
            x = basis_element(m, ctx)
            y = basis_element(n_, ctx)
            assert multiply(x, y, ctx) == multiply(y, x, ctx), (m, n_)
        triple_classes = list(partitions_up_to(2, 2))
        for m, n_, l in itertools.product(triple_classes, repeat=3):
            x = basis_element(m, ctx)
            y = basis_element(n_, ctx)
            z = basis_element(l, ctx)
            lhs = multiply(multiply(x, y, ctx), z, ctx)
            rhs = multiply(x, multiply(y, z, ctx), ctx)
            assert lhs == rhs, (m, n_, l)

    _run(5, "product is commutative and associative", body)


def test_criterion_06_rank_one_is_a_polynomial_ring():
    def body():
        for p in (2, 3):
            ctx = HeckeContext(p=p, n=1)
            for a in range(0, 7):
                for b in range(0, 7 - a):
                    x = basis_element((a,) if a else (), ctx)
                    y = basis_element((b,) if b else (), ctx)
                    want = {((a + b,) if a + b else ()): 1}
                    got = multiply(x, y, ctx)
                    assert got.terms == want, (p, a, b, got)

    _run(6, "rank-one product adds order exponents", body)


def test_criterion_07_triangular_inverse():
    def body():
        bad = []
        for p, n in itertools.product((2, 3), (1, 2)):
            ctx = OmegaContext(p=p, n=n)
            parts = list(partitions_up_to(4, n))
            for big in parts:
                for small in parts:
                    if order_exponent(small) > order_exponent(big):
                        continue
                    mids = [
                        c
                        for c in partitions_up_to(order_exponent(big), n)
                        if embeds(small, c) and embeds(c, big)
                    ]
                    want = 1 if big == small else 0
                    ab = sum(
                        a_coeff(big, c, ctx) * b_coeff(c, small, ctx) for c in mids
                    )
                    ba = sum(
                        b_coeff(big, c, ctx) * a_coeff(c, small, ctx) for c in mids
                    )
                    if ab != want or ba != want:
                        bad.append((p, n, big, small, ab, ba))
            for n_ in parts:
                if omega(lift_section(n_, ctx), ctx) != basis_element(
                    n_, ctx.target
                ):
                    bad.append((p, n, n_, "section"))
        assert not bad, f"inverse identities failed at {bad[:5]}"

    _run(7, "transfer matrix inverts exactly", body)


def test_criterion_08_generator_decomposition():
    def body():
        ctx = HeckeContext(p=2, n=2)
        for lam in partitions_up_to(4, 2):
            elem = basis_element(lam, ctx)
            poly = decompose_in_generators(elem, ctx)  # raises if non-integral
            back = eval_generator_poly(poly, ctx)
            assert back == elem, (lam, poly.to_text())

    _run(8, "every class is an integer polynomial in the generators", body)


def test_criterion_09_transfer_choice_invariance():
    def body():
        bad = []
        for n in (1, 2):
            base = OmegaContext(p=2, n=n, split="first")
            flipped = OmegaContext(p=2, n=n, split="last")
            for m in partitions_up_to(3, n + 1):
                deeper = OmegaContext(
                    p=2, n=n, trunc_override=(m[0] if m else 1) + 1
                )
                for n_ in partitions_up_to(order_exponent(m), n):
                    v0 = a_coeff(m, n_, base)
                    v1 = a_coeff(m, n_, flipped)
                    v2 = a_coeff(m, n_, deeper)
                    if not (v0 == v1 == v2):
                        bad.append((n, m, n_, v0, v1, v2))
        assert not bad, f"coefficients moved under split/truncation: {bad[:5]}"

    _run(9, "transfer coefficients ignore split and truncation", body)


def test_criterion_10_enumeration_oracles():
    def body():
        assert sum(1 for _ in enumerate_subgroups((1, 1), 2)) == 5
        assert sum(1 for _ in enumerate_subgroups((1, 1, 1), 2)) == 16
        for r in range(1, 5):
            assert sum(1 for _ in enumerate_subgroups((r,), 2)) == r + 1
        bad = []
        shapes = [
            lam
            for d in range(0, 6)
            for lam in partitions_of_exponent(d, d if d else 1)
        ]
        for p in (2, 3):
            for lam in shapes:
                for mu in shapes:
                    if order_exponent(mu) > order_exponent(lam):
                        continue
                    found = count_of_type_in_group(lam, mu, p) > 0
                    if found != embeds(mu, lam):
                        bad.append((p, lam, mu, found))
        assert not bad, f"containment mismatches search at {bad[:5]}"

    _run(10, "subgroup census and containment oracle", body)
