"""Spans and counts around the package's public functions.

The traced run installs a wrapper on each function named in TARGETS by
replacing the module attribute, so calls made through the module and calls
made inside the module both pass through it.  Spans stay in memory and are
written out when the run ends.  Nothing under src/ changes.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from dataclasses import asdict, dataclass

MIB = 2**20

# (module, function, span name).  The two sampling functions share one
# layer name.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("spectra", "lens_scalar_multiplicity", "spectra.lens_scalar_multiplicity"),
    ("spectra", "torus_spectrum", "spectra.torus_spectrum"),
    ("spectra", "load_hyperbolic_spectrum", "spectra.load_hyperbolic_spectrum"),
    ("indicial", "assemble_catalog", "indicial.assemble_catalog"),
    ("oracle", "flat_mode_pencil", "oracle.flat_mode_pencil"),
    ("oracle", "pencil_roots", "oracle.pencil_roots"),
    ("oracle", "companion_roots", "oracle.companion_roots"),
    ("fields", "identity_suite", "fields.identity_suite"),
    ("fields", "f_forward", "fields.f_forward"),
    ("curvature", "christoffel_riemann", "curvature.christoffel_riemann"),
    ("curvature", "asd_form_background", "curvature.asd_form_background"),
    ("curvature", "sample_cyl_tensor", "curvature.sample"),
    ("curvature", "sample_cross_section_tensor", "curvature.sample"),
    ("curvature", "fd_linearization_errors", "curvature.fd_linearization_errors"),
)

# Arrays of the CurvatureGrid that christoffel_riemann returns; the input
# metric is not counted.
_CURVATURE_ARRAYS = ("ginv", "gamma", "riemann", "ricci", "scalar")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: int


class Tracer:
    """Records spans while enabled; passes calls straight through otherwise."""

    def __init__(self):
        self.spans: list[Span] = []
        # (job, value) per call: roots in each assembled catalog, and bytes
        # of each computed curvature grid.
        self.catalog_roots: list[tuple[int, int]] = []
        self.result_bytes: list[tuple[int, int]] = []
        self.job = -1
        self.enabled = False
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(self.spans)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.job)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every target; returns the targets the package lacks."""
        hooks = {
            "indicial.assemble_catalog": self._count_roots,
            "curvature.christoffel_riemann": self._record_curvature,
        }
        missing = []
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(f"indicyl.{module_name}")
            fn = getattr(module, attr, None)
            if fn is None:
                missing.append(f"{module_name}.{attr}")
                continue
            self._installed.append((module, attr, fn))
            setattr(module, attr, self.wrap(name, fn, hooks.get(name)))
        return missing

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    def _count_roots(self, catalog) -> None:
        self.catalog_roots.append((self.job, len(catalog.roots)))

    def _record_curvature(self, curv) -> None:
        self.result_bytes.append((self.job, sum(getattr(curv, a).nbytes for a in _CURVATURE_ARRAYS)))

    def span_cost(self, calls: int = 20000, repeats: int = 5) -> float:
        """Median added seconds per recorded span, from a wrapped no-op."""
        def noop():
            return None

        wrapped = self.wrap("calibration", noop)
        kept, was_enabled = len(self.spans), self.enabled
        self.enabled = True
        costs = []
        try:
            for _ in range(repeats):
                t0 = time.perf_counter()
                for _ in range(calls):
                    noop()
                t1 = time.perf_counter()
                for _ in range(calls):
                    wrapped()
                t2 = time.perf_counter()
                costs.append(((t2 - t1) - (t1 - t0)) / calls)
                del self.spans[kept:]
        finally:
            self.enabled = was_enabled
        return statistics.median(costs)

    def layer_totals(self, jobs: range) -> dict[str, dict[str, float]]:
        """Per span name, over the given jobs: calls, inclusive seconds and
        self seconds (the span minus the time its direct children cover)."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        totals: dict[str, dict[str, float]] = {}
        for span, children in zip(self.spans, child_time):
            if span.job not in jobs:
                continue
            t = totals.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            t["calls"] += 1
            t["s"] += span.end - span.start
            t["self_s"] += span.end - span.start - children
        return totals

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]
