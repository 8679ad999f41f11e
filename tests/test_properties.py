"""Property tests of the map omega from the rank-(n+1) algebra to the rank-n one.

omega is a ring homomorphism, and on the generators it is
omega(T_k) = T_k + p^(n+1-k) T_(k-1), with T_0 = 1 and T_(n+1) not a
rank-n class.  Both properties run at primes and ranks where no subgroup
enumeration would fit in a budget.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from heckealg.hecke import (
    HeckeElement,
    basis_element,
    decompose_in_generators,
    identity,
    multiply,
)
from heckealg.omega import OmegaContext, omega
from heckealg.partitions import partitions_up_to

PRIMES = (2, 3, 1009)
MAX_DEGREE = 3  # of each factor upstairs


@st.composite
def elements(draw, count: int):
    """An OmegaContext and count elements of its rank-(n+1) algebra."""
    ctx = OmegaContext(p=draw(st.sampled_from(PRIMES)), n=draw(st.integers(1, 6)))
    classes = list(partitions_up_to(MAX_DEGREE, ctx.n + 1))
    coeffs = st.integers(-9, 9).filter(bool)
    xs = [
        HeckeElement(ctx.p, ctx.n + 1, draw(st.dictionaries(
            st.sampled_from(classes), coeffs, min_size=1, max_size=3
        )))
        for _ in range(count)
    ]
    return ctx, *xs


def _omega_by_generators(x: HeckeElement, ctx: OmegaContext) -> HeckeElement:
    """Decompose x, substitute omega(T_k), and evaluate downstairs."""
    down, n = ctx.target, ctx.n
    images = [
        (basis_element((1,) * k, down) if k <= n else HeckeElement(ctx.p, n, {}))
        + basis_element((1,) * (k - 1), down).scaled(ctx.p ** (n + 1 - k))
        for k in range(1, n + 2)
    ]
    total = HeckeElement(ctx.p, n, {})
    for exps, c in decompose_in_generators(x, ctx.source).coeffs.items():
        term = identity(down)
        for image, a in zip(images, exps):
            for _ in range(a):
                term = multiply(term, image, down)
        total = total + term.scaled(c)
    return total


@settings(max_examples=20, deadline=None, derandomize=True)
@given(elements(2))
def test_omega_is_multiplicative(case):
    ctx, x, y = case
    lhs = omega(multiply(x, y, ctx.source), ctx)
    assert lhs == multiply(omega(x, ctx), omega(y, ctx), ctx.target)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(elements(1))
def test_omega_is_the_substitution_on_generators(case):
    ctx, x = case
    assert omega(x, ctx) == _omega_by_generators(x, ctx)
