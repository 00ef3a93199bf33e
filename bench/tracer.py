"""Outside-in span tracer for the traced benchmark run.

The tracer replaces a layer's public entry point at the attribute its callers
resolve (a module global, or a method on a class) with a wrapper that records
a span around the original call.  Nothing in the package is edited: the
wrappers are installed for the traced phase and the originals are restored
afterwards.

A span is ``[name, start, end, parent, experiment]`` with ``parent`` the index
of the enclosing span (-1 for a root).  Spans stay in memory until ``dump``.
A layer's self time is its span's duration minus the durations of its direct
children; calls are sequential, so children never overlap.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.experiment = -1
        self._stack = []
        self._patches = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.experiment])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    # -- wrapping ------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``count(args, kwargs)`` may return a mapping of counter increments,
        taken from the call's arguments before the call runs.
        """
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            if count is not None:
                tracer.counts.update(count(args, kwargs))
            idx = tracer.open(name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.close(idx)

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict:
        """Total self time per span name, over every recorded span."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(float)
        for k, (name, t0, t1, _, _) in enumerate(self.spans):
            out[name] += (t1 - t0) - child[k]
        return dict(out)

    def dump(self, path: str) -> None:
        """Write every span, one JSON array per line, times relative to the first."""
        base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, t0, t1, parent, exp in self.spans:
                fh.write(json.dumps([name, t0 - base, t1 - base, parent, exp]))
                fh.write("\n")


def install_layers(tracer: Tracer) -> None:
    """Wrap each layer's entry points where the CLI (or the layer's caller) resolves them."""
    import numpy as np

    from combmemory import cli, dynamics
    from combmemory.gaussian import CovarianceMatrix
    from combmemory.modes import ModeBasis

    def pde_write_work(args, kwargs):
        n_z = int(kwargs.get("n_z", args[2] if len(args) > 2 else 0))
        n_t = int(kwargs.get("n_t", args[3] if len(args) > 3 else 0))
        # computed from the arguments: cells = n_z x steps; the marcher keeps
        # a and b histories of n_z x n_t complex128 values (2 x 16 bytes)
        return {"dynamics.march.cells": n_z * (n_t - 1),
                "dynamics.march.hist_bytes": 32 * n_z * n_t}

    def cov_work(args, kwargs):
        modes = np.shape(args[0].entries)[0] // 2
        return {"gaussian.cov.calls": 1, f"gaussian.cov.calls.m{modes}": 1}

    tracer.wrap(cli, "main", "cli")
    tracer.wrap(cli, "load_config", "config.load")
    tracer.wrap(cli, "write_analytic", "dynamics.write")
    tracer.wrap(cli, "pde_write", "dynamics.march", count=pde_write_work)
    tracer.wrap(cli, "energy_budget", "dynamics.budget")
    tracer.wrap(cli, "transfer_function_estimate", "dynamics.transfer")
    tracer.wrap(dynamics, "bessel_j0", "dynamics.j0",
                count=lambda a, k: {"dynamics.j0.points": int(np.size(a[0]))})
    tracer.wrap(CovarianceMatrix, "__post_init__", "gaussian.cov", count=cov_work)
    tracer.wrap(cli, "supermode_extraction", "gaussian.extract")
    tracer.wrap(ModeBasis, "__post_init__", "modes.basis",
                count=lambda a, k: {"modes.basis.calls": 1})
    tracer.wrap(cli, "apply_cascade", "channel.cascade")
    for fn in ("report_from_block", "retrieval_table", "overall_fidelity"):
        tracer.wrap(cli, fn, "metrics.report",
                    count=lambda a, k: {"metrics.report.calls": 1})
