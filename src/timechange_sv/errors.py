"""Exception types shared across the package."""

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
