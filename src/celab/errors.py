"""Shared exception types."""


class InvalidGameError(ValueError):
    """A game definition violates a structural requirement."""


class PreconditionError(ValueError):
    """An operation was called with arguments outside its contract."""


class NumericError(RuntimeError):
    """A numeric computation produced non-finite values."""


class SolverError(RuntimeError):
    """An LP solve ended without an answer that passes its own check."""
