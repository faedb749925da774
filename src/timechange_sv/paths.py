"""Core path numerics: random streams, time grids, quadrature.

Paths are stored as explicit (times, values) pairs because the time-change
maps act on the times directly; increments are always recomputed on demand.
All stochastic integrals and time integrals use the left-point (Ito) rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


class RandomStream:
    """Deterministic random source.

    The same (seed, stream) pair always replays the identical draw sequence,
    which makes every sampler in this package bit-reproducible. Distinct
    stream ids give statistically independent sequences for the same seed.
    """

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed)
        self.stream = int(stream)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        self._gen = np.random.Generator(np.random.PCG64(ss))

    def normal(self, size=None):
        return self._gen.standard_normal(size)

    def uniform(self, size=None):
        return self._gen.uniform(size=size)

    def __repr__(self):
        return f"RandomStream(seed={self.seed}, stream={self.stream})"


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing, finite time points.

    A single-point grid is allowed so that degenerate paths (no increments)
    can be represented.
    """

    times: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or t.size < 1:
            raise ValidationError("time grid must be a 1-d array with at least one point")
        if not np.all(np.isfinite(t)):
            raise ValidationError("time grid contains non-finite values")
        if t.size > 1 and not np.all(np.diff(t) > 0):
            raise ValidationError("time grid must be strictly increasing")
        object.__setattr__(self, "times", t)

    def __len__(self):
        return self.times.size

    @property
    def steps(self) -> np.ndarray:
        return np.diff(self.times)


@dataclass(frozen=True)
class Path:
    """A piecewise-linearly interpolated diffusion skeleton."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (len(self.grid),):
            raise ValidationError(
                f"path has {v.size} values for {len(self.grid)} grid points"
            )
        if not np.all(np.isfinite(v)):
            raise ValidationError("path contains non-finite values")
        object.__setattr__(self, "values", v)

    @property
    def times(self) -> np.ndarray:
        return self.grid.times

    def __len__(self):
        return len(self.grid)

    @classmethod
    def from_arrays(cls, times, values) -> "Path":
        return cls(TimeGrid(np.asarray(times, dtype=float)), values)


def cumulative_left_riemann(times: np.ndarray, integrand_values: np.ndarray) -> np.ndarray:
    """Cumulative left-point integral evaluated at every grid point.

    Works on batched rows: ``times`` and ``integrand_values`` may be
    (n, K)-shaped; the return has the same shape with zeros in column 0.
    """
    t = np.asarray(times, dtype=float)
    f = np.asarray(integrand_values, dtype=float)
    inc = f[..., :-1] * np.diff(t, axis=-1)
    out = np.zeros_like(t)
    np.cumsum(inc, axis=-1, out=out[..., 1:])
    return out
