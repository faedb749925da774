"""Exception types, and the argument tests behind them, shared across the package."""

import math
import numbers
from contextlib import contextmanager


class ValidationError(ValueError):
    """A configuration, data file or argument violates its contract."""


@contextmanager
def allocating(what: str):
    """Numpy's failure to allocate an array, as a ``ValidationError`` naming ``what``."""
    try:
        yield
    except (MemoryError, OverflowError, ValueError):
        raise ValidationError(f"cannot allocate {what}") from None


def is_number(value) -> bool:
    """A real number that is not a bool (JSON ``true`` loads as a bool) and
    converts to a finite float (JSON integers have no size limit)."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(float(value))
    except OverflowError:
        return False


def is_integer(value) -> bool:
    """A Python or numpy integer that is not a bool (``True`` is an ``int`` too)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


class NumericsError(RuntimeError):
    """A numerical computation produced non-finite or degenerate values."""


class ExplosionError(NumericsError):
    """A simulated diffusion left the finite range.

    Carries the first time at which a non-finite state was produced.
    """

    def __init__(self, time: float):
        self.time = float(time)
        super().__init__(f"diffusion state became non-finite at t={self.time:.6g}")

    def __reduce__(self):
        # rebuild from the time: by default pickle passes the message to __init__
        return type(self), (self.time,)
