"""Error hierarchy shared by every flowcheck module, and the run's expansion cap."""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterable, Iterator


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


DEFAULT_EXPANSION_CAP = 4096

# the one cap every bounded search of the run reads: the context estimate, the
# transfer-equality guard, related values, closures, the lattice
EXPANSION_CAP: ContextVar[int] = ContextVar("expansion_cap", default=DEFAULT_EXPANSION_CAP)


@contextmanager
def expansion_cap(limit: int) -> Iterator[None]:
    """Runs a block with every bounded search capped at limit; a thread
    started inside it starts from a fresh context, at the default."""
    token = EXPANSION_CAP.set(limit)
    try:
        yield
    finally:
        EXPANSION_CAP.reset(token)


def capped_product(sizes: Iterable[int]) -> tuple[int, int] | None:
    """None when the product of sizes stays within the cap; else the product
    up to the first size that takes it past, and how many sizes that took."""
    limit = EXPANSION_CAP.get()
    product = 1
    for taken, size in enumerate(sizes, 1):
        product *= size
        if product > limit:
            return product, taken
    return None
