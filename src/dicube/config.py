"""Shared enumeration budgets, error types and JSON input checks."""

import os
from contextlib import contextmanager

DEFAULT_BUDGET = 10**6

BUDGET_ENV_VAR = "DICUBE_BUDGET"


class BudgetExceeded(RuntimeError):
    """An enumeration was about to exceed its configured budget.

    Raised instead of silently truncating; callers must either raise the
    budget or shrink the instance.
    """


def default_budget():
    value = os.environ.get(BUDGET_ENV_VAR)
    if value is None:
        return DEFAULT_BUDGET
    try:
        budget = int(value)
    except ValueError:
        budget = 0
    if budget <= 0:
        raise ValueError(f"{BUDGET_ENV_VAR} must be a positive integer, got {value!r}")
    return budget


class Budget:
    """Counts enumeration steps and aborts once the limit is hit."""

    def __init__(self, limit=None):
        self.limit = default_budget() if limit is None else limit
        if self.limit <= 0:
            raise ValueError("budget must be positive")
        self.used = 0

    @classmethod
    def of(cls, budget):
        """`budget` itself when it is a Budget, else a new one with that limit."""
        return budget if isinstance(budget, cls) else cls(budget)

    def spend(self, amount=1):
        self.used += amount
        if self.used > self.limit:
            raise BudgetExceeded(
                f"enumeration budget exceeded ({self.used} > {self.limit})"
            )


@contextmanager
def json_errors(error, what):
    """Report a missing key or a malformed value met while reading `what`
    JSON as one `error`, never as a bare KeyError or TypeError."""
    try:
        yield
    except KeyError as exc:
        raise error(f"{what} JSON lacks the key {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise error(f"malformed {what} JSON: {exc}") from None


def check_ints(values, blank=False):
    """Raise ValueError unless every value is an int (or None where `blank`)."""
    if any(not (type(v) is int or (blank and v is None)) for v in values):
        raise ValueError("non-integer entry")
