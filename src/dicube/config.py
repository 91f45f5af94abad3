"""Shared enumeration budgets, the isomorphism search, error types and JSON
input checks."""

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


def find_bijection(pa, pb, consistent):
    """A bijection x -> y with pa[x] == pb[y] at every x (an index tuple),
    or None.  Backtracking places x in order of fewest candidates and keeps
    y only when consistent(x, y, assign) holds for the partial `assign`."""
    if sorted(pa) != sorted(pb):
        return None
    candidates = [[y for y, q in enumerate(pb) if q == p] for p in pa]
    order = sorted(range(len(pa)), key=lambda x: len(candidates[x]))
    assign, used = {}, set()

    def rec(pos):
        if pos == len(order):
            return True
        x = order[pos]
        for y in candidates[x]:
            if y not in used and consistent(x, y, assign):
                assign[x] = y
                used.add(y)
                if rec(pos + 1):
                    return True
                del assign[x]
                used.discard(y)
        return False

    return tuple(assign[x] for x in range(len(pa))) if rec(0) else None


@contextmanager
def json_errors(error, what):
    """Report a missing key or a malformed value met while reading `what`
    JSON as one `error`, never as a bare KeyError or TypeError."""
    try:
        yield
    except KeyError as exc:
        raise error(f"{what} JSON lacks the key {exc}") from None
    except (AttributeError, RecursionError, TypeError, ValueError) as exc:
        raise error(f"malformed {what} JSON: {exc}") from None


def check_ints(values, blank=False):
    """Raise ValueError unless every value is an int (or None where `blank`)."""
    if any(not (type(v) is int or (blank and v is None)) for v in values):
        raise ValueError("non-integer entry")
