"""Exception types shared across the package, and the exact division that raises one."""


class HeckeError(Exception):
    """Base class for errors raised by this package."""


class ParseError(HeckeError, ValueError):
    """Malformed text input (partition or element literals, bad config)."""


DEFAULT_BUDGET = 10**6


class BudgetExceededError(HeckeError):
    """An enumeration would exceed its candidate budget.

    Raised up front, before any partial work, so callers never see a
    silently truncated count.  needed is a lower bound: counting stops
    once it passes the budget.
    """

    def __init__(self, needed: int, budget: int, what: str | None = None):
        self.needed = needed
        self.budget = budget
        what = what or f"enumeration of subgroup bases needs at least {needed} candidates"
        super().__init__(f"{what}, budget is {budget}")


class VerificationError(HeckeError):
    """An exact identity that must hold failed.

    Every occurrence is a genuine defect (or a false theorem): inexact
    division where divisibility is guaranteed, a count disagreeing with
    its closed form, or a non-integer solution to an integral system.
    """


def exact_quotient(num: int, den: int, what: str) -> int:
    """num / den, which must be an integer; otherwise a VerificationError naming what."""
    if den == 0 or num % den:
        raise VerificationError(f"{what}: {num} is not divisible by {den}")
    return num // den
