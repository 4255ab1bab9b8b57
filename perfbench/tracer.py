"""Spans around calls into the program, recorded from outside it.

A traced run rebinds public functions of ``pdefilter`` to timing wrappers
for its duration.  Each wrapper is installed on the module whose globals the
caller resolves the name through: ``filters`` imports ``make_branches``,
``prediction_domain`` and ``assemble_prior`` by name, and ``density`` looks
up ``mollified_delta``, ``folded_generator``, ``density_quantiles``,
``barycentric_interp`` and ``linalg.expm`` at call time.  Model calls are
counted by wrapping the callables of the benchmark's own model object.

Spans carry a parent id and stay in memory until :meth:`Tracer.write`.  A
span's self time is its duration minus the durations of its direct children;
model calls count as children but are not stored as spans, since the wide
particle workload makes 2 x 10^4 of them per step.
"""

from __future__ import annotations

import dataclasses
import math
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from pdefilter import chebyshev, density, filters, linalg

# (module the caller resolves the name through, attribute, span name)
PATCHES = (
    (filters, "ukf_step", "filters.ukf_step"),
    (filters, "pf_step", "filters.pf_step"),
    (filters, "pdef_step", "filters.pdef_step"),
    (filters, "posterior_update", "filters.posterior_update"),
    (filters, "gaussian_likelihood", "filters.gaussian_likelihood"),
    (filters, "systematic_resample", "filters.systematic_resample"),
    (filters, "make_branches", "density.make_branches"),
    (filters, "prediction_domain", "density.prediction_domain"),
    (filters, "assemble_prior", "density.assemble_prior"),
    (density, "mollified_delta", "density.mollified_delta"),
    (density, "folded_generator", "density.folded_generator"),
    (density, "density_quantiles", "density.density_quantiles"),
    (density, "barycentric_interp", "chebyshev.barycentric_interp"),
    (linalg, "expm", "linalg.expm"),
    (linalg, "lu_solve", "linalg.lu_solve"),
)
GRID_BUILD = "chebyshev.SpectralGrid.build"
STEP_SPANS = ("filters.ukf_step", "filters.pf_step", "filters.pdef_step")

# linalg.expm's scaling rule: halve until the 1-norm is at most this
EXPM_SCALING_TARGET = 0.5


def expm_cost(a) -> tuple[int, float]:
    """Squaring count and flops of ``linalg.expm`` on matrix *a*.

    Padé-6 costs four n x n products (a^2, a^4, a^6 and the odd part), an LU
    factorization (2n^3/3) with n right-hand sides (2n^3), and one product
    per squaring; each product is 2n^3 flops.
    """
    n = a.shape[0]
    norm = float(np.abs(a).sum(axis=0).max()) if a.size else 0.0
    s = 0
    if norm > EXPM_SCALING_TARGET:
        s = max(0, math.ceil(math.log2(norm / EXPM_SCALING_TARGET)))
    return s, n ** 3 * (8.0 + 2.0 / 3.0 + 2.0 + 2.0 * s)


class Tracer:
    """In-memory spans and per-name totals of one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self.totals: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.span_id = array("q")
        self.parent_id = array("q")
        self.name_index = array("H")
        self.start = array("d")
        self.end = array("d")
        self.expm_squarings = 0
        self.expm_flops = 0.0
        self.branches = 0
        self._stack: list[list] = []  # open spans: [span id, child seconds]
        self._next_id = 0

    def _entry(self, name: str) -> list:
        if name not in self.totals:
            self.names.append(name)
            self.totals[name] = [0, 0.0, 0.0]
        return self.totals[name]

    def span(self, name: str, fn):
        """Wrap *fn* so each call records a span named *name*."""
        entry = self._entry(name)
        index = self.names.index(name)
        stack = self._stack

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                duration = t1 - t0
                if stack:
                    stack[-1][1] += duration
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[1]
                self.span_id.append(span_id)
                self.parent_id.append(parent)
                self.name_index.append(index)
                self.start.append(t0)
                self.end.append(t1)

        return traced

    def counted(self, name: str, fn):
        """Wrap a model callable: counted and timed, charged to its caller."""
        entry = self._entry(name)
        stack = self._stack

        def traced(*args):
            t0 = perf_counter()
            try:
                return fn(*args)
            finally:
                duration = perf_counter() - t0
                if stack:
                    stack[-1][1] += duration
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration

        return traced

    def counting_model(self, model):
        """A copy of *model* whose transition and observation are counted."""
        return dataclasses.replace(
            model,
            transition=self.counted("model.transition", model.transition),
            observation=self.counted("model.observation", model.observation),
        )

    @contextmanager
    def patched(self):
        """Rebind the traced functions for the duration of the block."""
        saved = []
        try:
            for module, attr, name in PATCHES:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._noted(name, self.span(name, original)))
            build = chebyshev.SpectralGrid.__dict__["build"]
            saved.append((chebyshev.SpectralGrid, "build", build))
            chebyshev.SpectralGrid.build = classmethod(
                self.span(GRID_BUILD, build.__func__)
            )
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _noted(self, name, fn):
        # counts that need the call's arguments or result, taken outside
        # the span so they are charged to the caller's self time
        if name == "linalg.expm":
            def expm(a, *args, **kwargs):
                squarings, flops = expm_cost(np.asarray(a))
                self.expm_squarings += squarings
                self.expm_flops += flops
                return fn(a, *args, **kwargs)
            return expm
        if name == "density.make_branches":
            def make_branches(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.branches += len(result)
                return result
            return make_branches
        return fn

    def calls(self, name: str) -> int:
        return self.totals[name][0]

    def total_ms(self, name: str) -> float:
        return 1e3 * self.totals[name][1]

    def self_ms(self, name: str) -> float:
        return 1e3 * self.totals[name][2]

    def coverage(self) -> float:
        """Share of filter-step time spent in traced children."""
        total = sum(self.total_ms(n) for n in STEP_SPANS)
        own = sum(self.self_ms(n) for n in STEP_SPANS)
        return (total - own) / total

    def write(self, path) -> int:
        """Write the spans to *path* (``.npz``); returns the span count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            span_id=np.frombuffer(self.span_id, dtype=np.int64),
            parent_id=np.frombuffer(self.parent_id, dtype=np.int64),
            name_index=np.frombuffer(self.name_index, dtype=np.uint16),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
        return len(self.span_id)
