"""Span tracing of bootsmooth layers from outside the package.

``Tracer.install`` replaces each traced function with a timing wrapper in
every ``bootsmooth`` module namespace that binds it: the defining module
(for calls from inside it) and each module that imports it.  Calls resolve
module globals at call time, so the wrapper sees every call made through
those names.  Two sites are narrower on purpose:

* ``rng.generator`` is wrapped only where ``smoothing`` imports it, so its
  call count is one per bootstrap replicate;
* ``selection.svd`` is ``numpy.linalg.svd`` as reached through the ``np``
  name of ``selection`` alone, via a copy of the numpy module namespace.

Spans stay in memory, with parent links, until ``write`` dumps them.  No
file of the package is modified.  The program runs single-threaded here
(``--threads 1``), so one stack gives the parent of every span.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import types
from time import perf_counter

# span name -> (defining module, function name)
TRACED = {
    "forecast.evaluate_fixed_distribution": ("forecast", "evaluate_fixed_distribution"),
    "forecast.load_matrix_csv": ("forecast", "load_matrix_csv"),
    "tuning.cv_error_surface": ("tuning", "cv_error_surface"),
    "tuning.cv_cell_error": ("tuning", "cv_cell_error"),
    "smoothing.pbs_fit": ("smoothing", "pbs_fit"),
    "smoothing.smoothed_variances": ("smoothing", "smoothed_variances"),
    "selection.ols_fit": ("selection", "ols_fit"),
    "selection.select_fit": ("selection", "select_fit"),
    "selection.ridge_prediction_variance": ("selection", "ridge_prediction_variance"),
    "splines.load_demand_csv": ("splines", "load_demand_csv"),
    "splines.build_demand_design": ("splines", "build_demand_design"),
    "splines.demand_feature_row": ("splines", "demand_feature_row"),
    "simulation.run_study": ("simulation", "run_study"),
    "tabular.write_csv": ("tabular", "write_csv"),
}
# Spans whose wrapping site is fixed rather than discovered.
GENERATOR_SPAN = "rng.generator"
SVD_SPAN = "selection.svd"
MAIN_SPAN = "cli.main"

SPAN_NAMES = (MAIN_SPAN, *TRACED, SVD_SPAN, GENERATOR_SPAN)

MODULES = (
    "cli", "forecast", "tuning", "smoothing", "selection",
    "rng", "splines", "simulation", "tabular",
)


class Tracer:
    """In-memory span recorder: name, parent index, start, end, raised."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.raised: list[bool] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.raised.append(False)
            self.ends.append(0.0)
            self._stack.append(idx)
            self.starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.raised[idx] = True
                raise
            finally:
                self.ends[idx] = perf_counter()
                self._stack.pop()

        return traced

    def install(self) -> None:
        """Patch every traced name in the namespaces of the package modules."""
        mods = {m: importlib.import_module(f"bootsmooth.{m}") for m in MODULES}
        for span, (owner, attr) in TRACED.items():
            original = getattr(mods[owner], attr, None)
            if original is None:
                continue
            wrapped = self.wrap(span, original)
            for mod in mods.values():
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapped)
        smoothing = mods["smoothing"]
        if hasattr(smoothing, "generator"):
            smoothing.generator = self.wrap(GENERATOR_SPAN, smoothing.generator)
        selection = mods["selection"]
        np_mod = getattr(selection, "np", None)
        if isinstance(np_mod, types.ModuleType):
            linalg = types.ModuleType(np_mod.linalg.__name__)
            linalg.__dict__.update(vars(np_mod.linalg))
            linalg.svd = self.wrap(SVD_SPAN, np_mod.linalg.svd)
            np_copy = types.ModuleType(np_mod.__name__)
            np_copy.__dict__.update(vars(np_mod))
            np_copy.linalg = linalg
            selection.np = np_copy

    def write(self, path) -> None:
        """Dump the spans as parallel arrays (times in seconds)."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "parents": self.parents,
                    "starts": self.starts,
                    "ends": self.ends,
                    "raised": self.raised,
                },
                fh,
            )


def quantile_ms(sorted_s: list[float], q: float) -> float:
    """Nearest-rank quantile of sorted durations in seconds, in milliseconds."""
    if not sorted_s:
        return 0.0
    rank = max(1, math.ceil(round(q * len(sorted_s), 9)))
    return 1e3 * sorted_s[rank - 1]


def summarize(spans: dict, percentile_spans=()) -> dict[str, float]:
    """Per-span-name calls, busy_s (inclusive) and self_s (minus children).

    Spans nest (one thread), so a span's self time is its duration minus
    the durations of its direct children.  ``percentile_spans`` also get
    ``.p50_ms`` and ``.p99_ms`` of their durations.
    """
    names, parents = spans["names"], spans["parents"]
    dur = [e - s for s, e in zip(spans["starts"], spans["ends"])]
    child = [0.0] * len(dur)
    for i, p in enumerate(parents):
        if p >= 0:
            child[p] += dur[i]
    out: dict[str, float] = {}
    per_name: dict[str, list[float]] = {n: [] for n in SPAN_NAMES}
    for i, name in enumerate(names):
        per_name.setdefault(name, []).append(dur[i])
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + dur[i] - child[i]
    for name, ds in per_name.items():
        out[f"{name}.calls"] = len(ds)
        out[f"{name}.busy_s"] = sum(ds, 0.0)
        out.setdefault(f"{name}.self_s", 0.0)
    for name in percentile_spans:
        ds = sorted(per_name.get(name, []))
        out[f"{name}.p50_ms"] = quantile_ms(ds, 0.50)
        out[f"{name}.p99_ms"] = quantile_ms(ds, 0.99)
    out["trace.errors"] = sum(1 for r in spans["raised"] if r)
    return out
