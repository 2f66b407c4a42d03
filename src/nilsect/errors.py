"""Shared exception types for the decision procedures."""


class BudgetExceeded(Exception):
    """A configured work cap fired before the run could finish."""

    def __init__(self, message, *, budget=None):
        super().__init__(message)
        self.budget = budget


class MemoryBudgetExceeded(BudgetExceeded):
    """The breadth-first oracle hit its stored-matrix cap."""
