"""Shared exception types."""


class GroupError(ValueError):
    """Invalid algebraic input: malformed permutation, wrong parent group, ..."""


class SpecError(ValueError):
    """Invalid spec document or command-line arguments."""


class NotStronglyConnected(ValueError):
    """Operation requires a strongly connected digraph."""


class CapExceeded(RuntimeError):
    """An enumeration or search exceeded its configured cap; the message
    names the cap and its value."""


class CrossCheckError(RuntimeError):
    """Two independent computations of the same quantity disagreed.

    Raised when a mandatory internal cross-check fails; this always means
    an implementation bug, never bad user input.
    """
