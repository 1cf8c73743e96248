"""Exception types shared across the package."""


class UsageError(ValueError):
    """Caller violated an operation's precondition (bad levels, bad parameters)."""


class PreconditionError(RuntimeError):
    """A required verification (e.g. associativity) has not been run or failed."""


class InvariantViolation(RuntimeError):
    """An internal invariant failed; indicates a bug, not bad input."""
