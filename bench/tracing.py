"""Outside-in spans around calls into the package's layers.

The sampler, the chain runner and the CLI commands look their callees up as
module attributes at call time, so replacing those attributes with timing
wrappers measures each layer without touching the package. A span's self
time is its duration minus the time of the spans it encloses; work the
tracer itself does after a call (counting knots, fresh times, draws) is
charged to nobody's self time.
"""

from __future__ import annotations

import functools
import math
import time
from collections import defaultdict


class Tracer:
    """Records calls, total time and self time per span name."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[list] = []  # [name, child_s] per open span
        self._undo: list[tuple] = []

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._open)

    def wrap(self, owner, attr: str, name, after=None) -> bool:
        """Replace ``owner.attr`` by a timed wrapper.

        ``name`` is a span name or a function of the call's (args, kwargs)
        that returns one. ``after(tracer, args, kwargs)`` runs once the call
        has returned, for counts. Returns False, wrapping nothing, when the
        attribute does not exist.
        """
        fn = getattr(owner, attr, None)
        if fn is None:
            return False
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = name(args, kwargs) if callable(name) else name
            frame = [key, 0.0]
            tracer._open.append(frame)
            t0 = tracer.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = tracer.clock() - t0
                tracer._open.pop()
                rec = tracer.stats.setdefault(key, [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[1]
                extra = 0.0
                if after is not None:
                    t1 = tracer.clock()
                    after(tracer, args, kwargs)
                    extra = tracer.clock() - t1
                if tracer._open:
                    tracer._open[-1][1] += elapsed + extra

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, fn))
        return True

    def count_calls(self, owner, attr: str, counter) -> bool:
        """Wrap ``owner.attr`` without timing; ``counter(tracer, args, kwargs)``
        runs before each call."""
        fn = getattr(owner, attr, None)
        if fn is None:
            return False
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counter(tracer, args, kwargs)
            return fn(*args, **kwargs)

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, fn))
        return True

    def restore(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    # -- reading -----------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def total(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[1]

    def self_time(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[2]

    def merge(self, stats: dict, counts: dict) -> None:
        """Add another tracer's dumped stats and counts (from a subprocess)."""
        for key, (calls, total, own) in stats.items():
            rec = self.stats.setdefault(key, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total
            rec[2] += own
        for key, value in counts.items():
            self.counts[key] += value

    def dump(self) -> dict:
        return {"stats": self.stats, "counts": dict(self.counts)}


def draw_count(size) -> int:
    if size is None:
        return 1
    if isinstance(size, (tuple, list)):
        return math.prod(int(s) for s in size)
    return int(size)


def install_layers(tracer: Tracer, pkg) -> set[str]:
    """Wrap every layer the per-layer metrics read; returns the span names
    whose attribute was missing (reported as 0)."""
    import numpy as np

    mcmc, cli, models, diagnostics, paths = (
        pkg.mcmc, pkg.cli, pkg.models, pkg.diagnostics, pkg.paths,
    )
    missing: set[str] = set()

    def need(ok: bool, name: str) -> None:
        if not ok:
            missing.add(name)

    def count_knots(t, args, kwargs):
        x_knots = kwargs.get("x_knots", args[2] if len(args) > 2 else None)
        t.counts["likelihood.interval_quantities.knots"] += np.size(x_knots)

    def count_times(t, args, kwargs):
        t.counts["timechange.refine_rows.times"] += np.size(args[2])

    def param_kernel(args, kwargs):
        state, name = args[0], args[1]
        if name in state.model.timescale_params:
            return "mcmc.timescale_param"
        return "mcmc.drift_param"

    def count_steps(t, args, kwargs):
        t.counts["models.euler_simulate.steps"] += len(args[4]) - 1

    def rng_counter(kind):
        def counter(t, args, kwargs):
            if t.inside("mcmc.sweep"):
                n = draw_count(kwargs.get("size", args[1] if len(args) > 1 else None))
                t.counts[f"paths.rng.{kind}"] += n
                # a requested time that matches no stored knot costs one
                # bridge draw; exact hits reuse the stored value
                if kind == "normals" and t.inside("timechange.refine_rows"):
                    t.counts["timechange.refine_rows.fresh"] += n
        return counter

    need(tracer.wrap(mcmc, "interval_quantities", "likelihood.interval_quantities",
                     count_knots), "likelihood.interval_quantities")
    need(tracer.wrap(mcmc, "refine_rows", "timechange.refine_rows", count_times),
         "timechange.refine_rows")
    need(tracer.wrap(mcmc, "_update_z_rows", "mcmc.z_paths"), "mcmc.z_paths")
    need(tracer.wrap(mcmc, "_gamma_anchored_pass", "mcmc.gamma_anchored"),
         "mcmc.gamma_anchored")
    need(tracer.wrap(mcmc, "update_gamma_block", "mcmc.gamma_terminal"),
         "mcmc.gamma_terminal")
    if not tracer.wrap(mcmc, "_update_param", param_kernel):
        missing.update(("mcmc.timescale_param", "mcmc.drift_param"))
    need(tracer.wrap(mcmc, "sweep", "mcmc.sweep"), "mcmc.sweep")
    need(tracer.wrap(mcmc, "init_state", "mcmc.init_state"), "mcmc.init_state")
    need(tracer.wrap(mcmc, "run_chain", "mcmc.run_chain"), "mcmc.run_chain")
    need(tracer.wrap(models, "euler_simulate", "models.euler_simulate", count_steps),
         "models.euler_simulate")
    need(tracer.wrap(diagnostics, "iact", "diagnostics.iact"), "diagnostics.iact")
    need(tracer.wrap(diagnostics, "kde_export", "diagnostics.kde_export"),
         "diagnostics.kde_export")
    # the CLI imported these names into its own namespace
    tracer.wrap(cli, "run_chain", "mcmc.run_chain")
    tracer.wrap(cli, "euler_simulate", "models.euler_simulate", count_steps)
    tracer.wrap(cli, "iact", "diagnostics.iact")
    tracer.wrap(cli, "kde_export", "diagnostics.kde_export")
    for cmd in ("cmd_simulate", "cmd_fit", "cmd_diagnose"):
        need(tracer.wrap(cli, cmd, f"cli.{cmd}"), f"cli.{cmd}")
    stream = getattr(paths, "RandomStream", None)
    for kind, attr in (("normals", "normal"), ("uniforms", "uniform")):
        if stream is None or not tracer.count_calls(stream, attr, rng_counter(kind)):
            missing.add(f"paths.rng.{kind}")
    return missing
