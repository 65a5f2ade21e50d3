"""Shared primitives: error types, the step budget and the ground-size
ceilings past which a question ends in an explicit unknown, and three-valued
verdicts."""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_ENUMERATION_BUDGET = 10**7
DEFAULT_STRONG_GROUND_LIMIT = 16
# the subset-sum join's ground-size ceiling: each half table has at most 2^20 entries
JOIN_GROUND_LIMIT = 40


class GraphError(ValueError):
    """Malformed graph input, descriptor, or violated operation precondition."""


class BudgetExhausted(RuntimeError):
    """An enumeration ran out of its step budget; partial results are unusable."""

    def __init__(self, message: str, limit: int | None = None):
        super().__init__(message)
        self.limit = limit


@dataclass
class Budget:
    """Mutable step counter shared by nested enumerations."""

    limit: int
    used: int = 0

    def spend(self) -> None:
        self.used += 1
        if self.used > self.limit:
            raise BudgetExhausted(f"budget of {self.limit} steps exhausted", self.limit)


def make_budget(budget: "Budget | int | None") -> Budget:
    if budget is None:
        return Budget(DEFAULT_ENUMERATION_BUDGET)
    if isinstance(budget, int):
        return Budget(budget)
    return budget


YES = "yes"
NO = "no"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class Verdict:
    """Decision outcome carrying a machine-checkable witness (or a budget note)."""

    value: str
    witness: object = None

    @property
    def is_yes(self) -> bool:
        return self.value == YES

    @property
    def is_no(self) -> bool:
        return self.value == NO

    @property
    def is_unknown(self) -> bool:
        return self.value == UNKNOWN


def yes(witness: object = None) -> Verdict:
    return Verdict(YES, witness)


def no(witness: object = None) -> Verdict:
    return Verdict(NO, witness)


def unknown(witness: object = None) -> Verdict:
    return Verdict(UNKNOWN, witness)
