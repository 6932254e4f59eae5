"""Exception vocabulary shared by the whole package.

The CLI maps these onto its exit codes (see cli.py):
parse errors -> 1, HypothesisNotMet -> 2, nothing found / gap -> 3,
verification failure -> 4, infeasible generation -> 5, budget -> 6.
"""


class CyclemodError(Exception):
    """Base class for all package errors."""


class InvalidArgument(CyclemodError):
    """Caller violated an operation's precondition (bad sets, bad vertex id...)."""


class Disconnected(CyclemodError):
    """Operation needs a connected graph."""


class HypothesisNotMet(CyclemodError):
    """Input fails the degree/connectivity hypothesis of the requested result."""


class InvalidWitness(CyclemodError):
    """A supplied path/cycle/family does not validate against the host graph."""


class BudgetExceeded(CyclemodError):
    """An exhaustive search hit its node budget before finishing."""


class GenerationInfeasible(CyclemodError):
    """Random generation could not satisfy the requested properties."""


class InvariantViolated(CyclemodError):
    """A construction broke one of its own invariants: a bug, not bad input."""
