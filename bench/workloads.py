"""Seeded inputs and CLI invocations for the four benchmark workloads.

Each workload writes its input files (CSV and a JSON config) from a seed
and names the ``bootsmooth`` subcommand that consumes them.  Shapes are
fixed; only the data values depend on the seed.  ``replicates`` is the
number of bootstrap replicates one CLI call fits, each a full (model,
lambda) selection plus fit, computed from the config rather than counted.
"""

from __future__ import annotations

import datetime as dt
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Workload-specific tags keep the generators of different workloads apart.
_TAG = {"fit_matrix": 1, "simulate": 2, "fit_demand": 3, "sweep_wide": 4}


@dataclass(frozen=True)
class Invocation:
    """One prepared CLI call: its argv and the replicates it fits."""

    argv: tuple[str, ...]
    replicates: int


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([_TAG[workload], int(seed)])


def _write_matrix_csv(path: Path, X: np.ndarray, y: np.ndarray) -> None:
    # column 0 of X is the intercept and is emitted like any feature
    header = ["y"] + [f"x{j}" for j in range(X.shape[1])]
    lines = [",".join(header)]
    for yi, row in zip(y, X):
        lines.append(",".join([repr(float(yi))] + [repr(float(v)) for v in row]))
    path.write_text("\n".join(lines) + "\n")


def _write_config(path: Path, cfg: dict) -> Path:
    path.write_text(json.dumps(cfg, indent=1) + "\n")
    return path


def nested_matrix(rng, n: int, p_features: int, active: int, noise_sd: float):
    """Intercept plus uniform features; the first ``active`` columns carry unit
    coefficients, so the nested candidates below contain the true model."""
    X = np.column_stack([np.ones(n), rng.uniform(-5.0, 5.0, size=(n, p_features))])
    y = X[:, :active].sum(axis=1) + rng.normal(0.0, noise_sd, size=n)
    return X, y


def fit_matrix(seed: int, workdir: Path, out: Path) -> Invocation:
    """README quickstart scale: n=30, p=21, four nested candidates x 51
    lambdas, a 20 x 6 (sigma2, gamma) grid, K=5, b_inner=100, B=500 and ten
    targets with truth."""
    rng = _rng("fit_matrix", seed)
    X, y = nested_matrix(rng, 30, 20, 11, 5.0)
    Xt, yt = nested_matrix(rng, 10, 20, 11, 5.0)
    _write_matrix_csv(workdir / "train.csv", X, y)
    _write_matrix_csv(workdir / "targets.csv", Xt, yt)
    k, sigma2_count, b_inner, b = 5, 20, 100, 500
    gammas = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
    cfg = {
        "mode": "matrix",
        "seed": int(seed),
        "train_csv": str(workdir / "train.csv"),
        "targets_csv": str(workdir / "targets.csv"),
        "candidates": [
            {"id": j, "columns": list(range(0, 5 * j + 1))} for j in range(1, 5)
        ],
        "b": b,
        "cv": {
            "k": k,
            "sigma2_count": sigma2_count,
            "gamma_candidates": gammas,
            "b_inner": b_inner,
        },
    }
    path = _write_config(workdir / "config.json", cfg)
    return Invocation(
        ("fit", "--config", str(path), "--out", str(out), "--threads", "1"),
        k * sigma2_count * len(gammas) * b_inner + b,
    )


# Sized so that one call takes under a second and a run holds many calls.
SIMULATE_REPS = 1


def simulate(seed: int, workdir: Path, out: Path) -> Invocation:
    """Criterion-4 grid: n=30, true model 2, sigma2 = k^2 for k=1..10,
    gamma in {0, 0.5, 1}, b=200, at a reduced replication count."""
    sigma2 = [float(k) ** 2 for k in range(1, 11)]
    gamma = [0.0, 0.5, 1.0]
    b = 200
    cfg = {
        "seed": int(seed),
        "study": {
            "n": 30,
            "true_model_j": 2,
            "reps": SIMULATE_REPS,
            "b": b,
            "sigma2_sweep": sigma2,
            "gamma_sweep": gamma,
        },
    }
    path = _write_config(workdir / "config.json", cfg)
    return Invocation(
        ("simulate", "--config", str(path), "--out", str(out), "--threads", "1"),
        SIMULATE_REPS * len(sigma2) * len(gamma) * b,
    )


DEMAND_YEAR = 2023
# Sized so that one call takes under a second and a run holds many calls.
DEMAND_TARGET_DAYS = 1
DEMAND_TARGET_HOURS = (8, 13, 19)


def demand_series(seed: int):
    """One year of hourly demand and daily mean temperature.

    Demand follows a daily profile, a weekday effect, a U-shaped response to
    temperature (heating and cooling) and AR(1) day-to-day noise per hour.
    Returns (demand_rows, temperature_rows) of CSV-ready string tuples.
    """
    rng = _rng("fit_demand", seed)
    start = dt.date(DEMAND_YEAR, 1, 1)
    days = [start + dt.timedelta(days=d) for d in range(365)]
    doy = np.arange(365)
    temps = 12.0 + 10.0 * np.sin(2.0 * np.pi * (doy - 110) / 365.0)
    temps = temps + rng.normal(0.0, 2.5, size=365)
    hours = np.arange(1, 25)
    profile = 60.0 + 25.0 * np.sin(np.pi * (hours - 6) / 12.0).clip(min=-0.4)
    weekday = np.array([4.0, 5.0, 5.0, 5.0, 3.0, -8.0, -12.0])
    thermal = 0.35 * (temps - 16.0) ** 2
    noise = np.empty((365, 24))
    noise[0] = rng.normal(0.0, 3.0, size=24)
    for d in range(1, 365):
        noise[d] = 0.6 * noise[d - 1] + rng.normal(0.0, 3.0, size=24)
    demand_rows, temp_rows = [], []
    for d, day in enumerate(days):
        temp_rows.append((day.isoformat(), repr(float(temps[d]))))
        level = profile + weekday[day.weekday()] + thermal[d] + noise[d]
        for h in hours:
            demand_rows.append((day.isoformat(), str(int(h)), repr(float(level[h - 1]))))
    return demand_rows, temp_rows


def fit_demand(seed: int, workdir: Path, out: Path) -> Invocation:
    """Demand mode on a one-year hourly series: the last day of the year at
    three hours, window_days=15, one lag, Q=1 hour function, a
    four-function temperature basis, structural candidates x 51 lambdas,
    K=3, a 6 x 3 (sigma2, gamma) grid, b_inner=40 and b=200.

    The temperature basis is cubic: with four functions it has no interior
    knot, so every column is nonzero on every CV training block.  At degree
    2 its one interior knot leaves a column all zero on some training
    blocks, and the fit exits 4 (rank-deficient fold).
    """
    demand_rows, temp_rows = demand_series(seed)
    dpath, tpath = workdir / "demand.csv", workdir / "temperature.csv"
    dpath.write_text(
        "date,hour,demand\n" + "".join(f"{d},{h},{v}\n" for d, h, v in demand_rows)
    )
    tpath.write_text("date,mean_temp\n" + "".join(f"{d},{t}\n" for d, t in temp_rows))
    last = dt.date(DEMAND_YEAR, 12, 31)
    dates = [
        (last - dt.timedelta(days=i)).isoformat() for i in reversed(range(DEMAND_TARGET_DAYS))
    ]
    k, sigma2_count, b_inner, b = 3, 6, 40, 200
    gammas = [0.0, 0.5, 1.0]
    cfg = {
        "mode": "demand",
        "seed": int(seed),
        "demand_csv": str(dpath),
        "temperature_csv": str(tpath),
        "targets": {"dates": dates, "hours": list(DEMAND_TARGET_HOURS)},
        "window_days": 15,
        "t_lags": 1,
        "hour_basis": {"n_basis": 1, "degree": 3},
        "temp_basis": {"n_basis": 4, "degree": 3},
        "candidates": "structural",
        "b": b,
        "cv": {
            "k": k,
            "sigma2_count": sigma2_count,
            "gamma_candidates": gammas,
            "b_inner": b_inner,
        },
    }
    path = _write_config(workdir / "config.json", cfg)
    n_targets = DEMAND_TARGET_DAYS * len(DEMAND_TARGET_HOURS)
    return Invocation(
        ("fit", "--config", str(path), "--out", str(out), "--threads", "1"),
        n_targets * (k * sigma2_count * len(gammas) * b_inner + b),
    )


SWEEP_POINTS = (5.0, 10.0, 25.0, 50.0, 100.0)


def sweep_wide(seed: int, workdir: Path, out: Path) -> Invocation:
    """sweep-sigma on n=400, p=41: two nested candidates x 6 lambdas,
    B=4000, 400 targets with truth, gamma=0.5 and five sigma2 points."""
    rng = _rng("sweep_wide", seed)
    X, y = nested_matrix(rng, 400, 40, 21, 5.0)
    Xt, yt = nested_matrix(rng, 400, 40, 21, 5.0)
    _write_matrix_csv(workdir / "train.csv", X, y)
    _write_matrix_csv(workdir / "targets.csv", Xt, yt)
    b = 4000
    cfg = {
        "mode": "matrix",
        "seed": int(seed),
        "train_csv": str(workdir / "train.csv"),
        "targets_csv": str(workdir / "targets.csv"),
        "candidates": [
            {"id": 1, "columns": list(range(21))},
            {"id": 2, "columns": list(range(41))},
        ],
        "lambda_grid": [0.0, 0.01, 0.1, 1.0, 10.0, 100.0],
        "b": b,
        "gamma": 0.5,
        "sigma2_sweep": list(SWEEP_POINTS),
    }
    path = _write_config(workdir / "config.json", cfg)
    return Invocation(
        ("sweep-sigma", "--config", str(path), "--out", str(out), "--threads", "1"),
        len(SWEEP_POINTS) * b,
    )


WORKLOADS = {
    "fit_matrix": fit_matrix,
    "simulate": simulate,
    "fit_demand": fit_demand,
    "sweep_wide": sweep_wide,
}


def prepare(name: str, seed: int, workdir: Path) -> tuple[Invocation, Path]:
    """Write the inputs of workload ``name`` for ``seed`` under ``workdir``.

    Returns the invocation and the output directory it writes into.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    out = workdir / "out"
    return WORKLOADS[name](seed, workdir, out), out
