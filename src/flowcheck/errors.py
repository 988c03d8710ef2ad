"""Error hierarchy shared by every flowcheck module."""

from __future__ import annotations


class FlowcheckError(Exception):
    """Base class for all errors raised by flowcheck."""


class InputError(FlowcheckError):
    """Bad input: a file, a flag, or arguments that break a public function's precondition."""


class InternalInvariantError(FlowcheckError):
    """An internal invariant failed; always a bug, never a user error."""


class InconclusiveError(FlowcheckError):
    """A bounded search hit its cap before reaching a verdict."""


def count_text(n: int) -> str:
    """A count for a note: in decimal below 2^64, else as the power of two at
    or below it, since str of a many-digit int is slow or refused."""
    return str(n) if n < 1 << 64 else f"2^{n.bit_length() - 1} or more"
