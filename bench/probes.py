"""Isolated layer probes: public functions timed at the workloads' shapes.

Usage: ``python3 bench/probes.py SEED RESULT.json``.  Each probe is
warmed up, then called repeatedly for about ``PROBE_SECONDS``; the result
maps ``probe.<module>.<function>.<shape>.p50_ms`` and ``.p99_ms`` to the
nearest-rank percentiles of its call times, plus ``.samples``.  The
"narrow" shape is fit_matrix's (n=30, p=21, 4 nested candidates x 51
lambdas), the "wide" shape is sweep_wide's (n=400, p=41, 2 candidates x 6
lambdas, m=400 targets).
"""

from __future__ import annotations

import datetime as dt
import json
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import numpy as np  # noqa: E402

from bootsmooth.forecast import same_weekday_window  # noqa: E402
from bootsmooth.selection import (  # noqa: E402
    CandidateModel,
    Dataset,
    SelectorConfig,
    default_lambda_grid,
    ridge_prediction_variance,
    select_fit,
)
from bootsmooth.smoothing import (  # noqa: E402
    ResamplingDistribution,
    draw_replicates,
    pbs_fit,
    smoothed_variances,
)
from bootsmooth.splines import (  # noqa: E402
    DemandModelSpec,
    DemandTable,
    SplineBasisSpec,
    build_demand_design,
)
from bootsmooth.tuning import cv_cell_error, kfold_split  # noqa: E402
from tracer import quantile_ms  # noqa: E402
import workloads  # noqa: E402

PROBE_SECONDS = 0.5
MIN_SAMPLES = 20
MAX_SAMPLES = 5000
WARMUP = 2


def _time(fn) -> list[float]:
    for _ in range(WARMUP):
        fn()
    samples: list[float] = []
    start = perf_counter()
    while len(samples) < MAX_SAMPLES and (
        len(samples) < MIN_SAMPLES or perf_counter() - start < PROBE_SECONDS
    ):
        t0 = perf_counter()
        fn()
        samples.append(perf_counter() - t0)
    return sorted(samples)


def _narrow(seed: int):
    rng = np.random.default_rng([101, seed])
    X, y = workloads.nested_matrix(rng, 30, 20, 11, 5.0)
    selector = SelectorConfig(
        candidates=tuple(CandidateModel(j, tuple(range(5 * j + 1))) for j in range(1, 5)),
        lambda_grid=tuple(default_lambda_grid()),
    )
    return Dataset(y, X), selector


def _wide(seed: int):
    rng = np.random.default_rng([102, seed])
    X, y = workloads.nested_matrix(rng, 400, 40, 21, 5.0)
    Xt, _ = workloads.nested_matrix(rng, 400, 40, 21, 5.0)
    selector = SelectorConfig(
        candidates=(CandidateModel(1, tuple(range(21))), CandidateModel(2, tuple(range(41)))),
        lambda_grid=(0.0, 0.01, 0.1, 1.0, 10.0, 100.0),
    )
    return Dataset(y, X), Xt, selector


def _demand(seed: int):
    demand_rows, temp_rows = workloads.demand_series(seed)
    values = {
        (dt.date.fromisoformat(d), int(h)): float(v) for d, h, v in demand_rows
    }
    temps = {dt.date.fromisoformat(d): float(t) for d, t in temp_rows}
    table = DemandTable(values=values, dates=tuple(sorted({d for d, _ in values})))
    target = dt.date(workloads.DEMAND_YEAR, 12, 31)
    window = same_weekday_window(table.dates, target, 15)
    seen = [temps[d] for d in window]
    spec = DemandModelSpec(
        t_lags=1,
        hour_basis=SplineBasisSpec.uniform_cyclic(3, 1, 0.0, 24.0),
        temp_basis=SplineBasisSpec.uniform(3, 4, min(seen) - 0.5, max(seen) + 0.5),
    )
    return table, temps, spec, window


def probes(seed: int) -> dict:
    data, selector = _narrow(seed)
    dist = ResamplingDistribution(gamma=0.5, sigma2=25.0)
    folds = kfold_split(data.n, 5, seed)
    wdata, wtargets, wselector = _wide(seed)
    wfit = pbs_fit(wdata, dist, 4000, wselector, seed)
    full = wselector.candidates[-1]
    table, temps, spec, window = _demand(seed)
    cases = {
        "probe.selection.select_fit.narrow": lambda: select_fit(data, selector),
        "probe.smoothing.draw_replicates.narrow": lambda: draw_replicates(
            data.y, dist.sigma2, 64, seed
        ),
        "probe.smoothing.pbs_fit.chunk": lambda: pbs_fit(data, dist, 64, selector, seed),
        "probe.tuning.cv_cell_error.narrow": lambda: cv_cell_error(
            data, folds, 0, dist, 100, selector, seed
        ),
        "probe.smoothing.smoothed_variances.wide": lambda: smoothed_variances(
            wfit, wdata, wtargets
        ),
        "probe.selection.ridge_prediction_variance.wide": lambda: ridge_prediction_variance(
            wdata, full, 1.0, wtargets[0], 25.0
        ),
        "probe.splines.build_demand_design": lambda: build_demand_design(
            table, temps, spec, 8, window
        ),
    }
    out = {}
    for name, fn in cases.items():
        samples = _time(fn)
        out[f"{name}.p50_ms"] = quantile_ms(samples, 0.50)
        out[f"{name}.p99_ms"] = quantile_ms(samples, 0.99)
        out[f"{name}.samples"] = len(samples)
    return out


if __name__ == "__main__":
    result = probes(int(sys.argv[1]))
    with open(sys.argv[2], "w") as fh:
        json.dump(result, fh)
