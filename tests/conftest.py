"""Shared fixtures and independent oracles.

Oracles here deliberately avoid the library's solve paths: dense hat
matrices via explicit inversion, normal-equation solves via explicit
inverses, and normal quantiles via erf and erfc bisection.
"""

from __future__ import annotations

import bisect
import csv
import datetime as dt
import math
import os

import numpy as np
import pytest
from hypothesis import settings

from bootsmooth import (
    CandidateModel,
    Dataset,
    SelectorConfig,
    bspline_basis,
    draw_replicates,
    gcv_score,
)
from bootsmooth.tabular import read_blocks

# HYPOTHESIS_PROFILE=derandomized draws the same examples on every run, so a
# property failure found once is found again; unset, each run draws afresh.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE") or "default")


def make_instance(rng: np.random.Generator, n: int, p: int, noise: float = 1.0) -> Dataset:
    """Random full-rank-ish instance with a planted sparse signal."""
    X = rng.uniform(-5.0, 5.0, size=(n, p))
    beta = np.zeros(p)
    beta[: max(1, p // 2)] = rng.normal(0.0, 1.0, size=max(1, p // 2))
    y = X @ beta + noise * rng.standard_normal(n)
    return Dataset(y, X)


def z_quantile_bisect(alpha: float) -> float:
    """Two-sided standard-normal quantile z_{alpha/2} via erf bisection."""
    target = 1.0 - alpha / 2.0

    def cdf(z: float) -> float:
        return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))

    lo, hi = 0.0, 10.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if cdf(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def z_upper_tail_bisect(alpha: float) -> float:
    """z_{alpha/2} by bisection on the upper tail ``erfc(z / sqrt(2)) = alpha``.

    The tail is compared directly, so no ``1 - alpha/2`` is ever rounded and
    the root stays accurate to a few ulp for small alpha.
    """
    lo, hi = 0.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if math.erfc(mid / math.sqrt(2.0)) > alpha:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def dense_gcv(data: Dataset, model: CandidateModel, lam: float) -> float:
    """GCV via an explicitly formed hat matrix and matrix inverse."""
    Xj = data.X[:, list(model.columns)]
    k = Xj.shape[1]
    H = Xj @ np.linalg.inv(Xj.T @ Xj + lam * np.eye(k)) @ Xj.T
    n = data.n
    resid = (np.eye(n) - H) @ data.y
    tr = np.trace(np.eye(n) - H)
    return n * float(resid @ resid) / tr**2


def normal_equation_coefficients(X: np.ndarray, columns, lam: float, y: np.ndarray) -> np.ndarray:
    """Ridge coefficients ``inv(X_j'X_j + lam I) X_j' y``, exact zeros off ``columns``; (p,)."""
    cols = list(columns)
    Xj = X[:, cols]
    beta = np.zeros(X.shape[1])
    beta[cols] = np.linalg.inv(Xj.T @ Xj + lam * np.eye(len(cols))) @ (Xj.T @ y)
    return beta


def brute_force_select(data: Dataset, config: SelectorConfig):
    """Exhaustive (model, lambda) scan with the documented tie-break."""
    best = None
    for model in config.candidates:
        for lam in config.lambda_grid:
            try:
                score = gcv_score(data, model, lam)
            except Exception:
                continue
            key = (score, len(model.columns), lam, model.id)
            if best is None or key < best[0]:
                best = (key, model.id, lam)
    assert best is not None, "oracle found no scoreable pair"
    return best[1], best[2]


def redrawn_responses(fit) -> np.ndarray:
    """The fit's bootstrap responses, regenerated from its seed; (B, n)."""
    return draw_replicates(fit.mean_vector, fit.distribution.sigma2, fit.B, fit.seed)


def per_replicate_draws(mean: np.ndarray, sigma2: float, B: int, seed: int) -> np.ndarray:
    """Replicate responses built one fresh generator at a time; (B, n).

    Replicate ``b`` draws from ``Generator(Philox(SeedSequence(seed,
    spawn_key=(b,))))``, built directly from numpy rather than through
    ``bootsmooth.rng``.
    """
    mean = np.asarray(mean, dtype=float)
    sd = float(np.sqrt(sigma2))
    out = np.empty((B, mean.shape[0]))
    for b in range(B):
        seq = np.random.SeedSequence(int(seed), spawn_key=(b,))
        out[b] = mean + sd * np.random.Generator(np.random.Philox(seq)).standard_normal(mean.shape[0])
    return out


def dense_smoothed_variance(fit, data: Dataset, x_new: np.ndarray) -> float:
    """Delta-method variance with explicit {gamma H + (1-gamma) I}^2.

    The covariance is a plain loop over the redrawn responses, not the
    fit's sufficient statistics.
    """
    responses = redrawn_responses(fit)
    ybar = responses.mean(axis=0)
    mu = fit.coefficients @ x_new
    mu_pbs = float(x_new @ fit.beta_pbs)
    cov = np.zeros(data.n)
    for b in range(fit.B):
        cov += (mu[b] - mu_pbs) * (responses[b] - ybar)
    cov /= fit.B
    H = data.X @ np.linalg.inv(data.X.T @ data.X) @ data.X.T
    g = fit.distribution.gamma
    A = g * H + (1.0 - g) * np.eye(data.n)
    return float(cov @ (A @ A) @ cov) / fit.distribution.sigma2


def cyclic_basis_oracle(spec, x: float) -> np.ndarray:
    """The cyclic basis ``spec`` at ``x`` by the one-point loop, in plain Python floats.

    ``x`` is reduced onto the domain; the Cox-de Boor recursion runs on the
    periodic extension of the knot sites (d extra on each side), and each of
    the d + 1 nonzero values is added into its column modulo the site count,
    in ascending order.
    """
    lo, d = spec.domain[0], spec.degree
    period = spec.domain[1] - lo
    sites = [lo, *spec.interior_knots]
    q = len(sites)
    knots = [sites[i % q] + period * (i // q) for i in range(-d, q + d + 1)]
    x = lo + float(np.mod(float(x) - lo, period))
    span = min(max(bisect.bisect_right(knots, x) - 1, d), q + d - 1)
    vals, left, right = [1.0], [None], [None]
    for j in range(1, d + 1):
        left.append(x - knots[span + 1 - j])
        right.append(knots[span + j] - x)
        saved = 0.0
        for r in range(j):
            tmp = vals[r] / (right[r + 1] + left[j - r])
            vals[r] = saved + right[r + 1] * tmp
            saved = left[j - r] * tmp
        vals.append(saved)
    out = [0.0] * q
    for offset, v in enumerate(vals):
        out[(span - d + offset) % q] += v
    return np.array(out)


def write_demand_files(tmp_path, rows, temps):
    """Write demand and temperature CSVs; returns their paths."""
    demand_path = tmp_path / "demand.csv"
    temp_path = tmp_path / "temps.csv"
    with open(demand_path, "w") as fh:
        fh.write("date,hour,demand\n")
        for day, hour, val in rows:
            fh.write(f"{day},{hour},{val}\n")
    with open(temp_path, "w") as fh:
        fh.write("date,mean_temp\n")
        for day, val in temps:
            fh.write(f"{day},{val}\n")
    return demand_path, temp_path


def read_float_table(path, header=None):
    """The header of an output CSV and its data rows as float tuples, read by ``read_blocks``."""
    blocks = read_blocks(path, header)
    return next(blocks), [tuple(float(v) for v in fields) for _, block in blocks for fields in block]


def csv_header_and_rows(path):
    """The stripped header and the data rows of a CSV file, read one row at a time."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader)]
        return header, list(reader)


def demand_csv_oracle(path):
    """``(values, dates)`` of a well-formed demand CSV, parsed row by row with the standard library."""
    values = {}
    for date, hour, demand in csv_header_and_rows(path)[1]:
        values[(dt.date.fromisoformat(date), int(hour))] = float(demand)
    return values, tuple(sorted({day for day, _ in values}))


def temperature_csv_oracle(path):
    """The date -> temperature mapping of a well-formed temperature CSV, parsed row by row."""
    return {dt.date.fromisoformat(date): float(temp) for date, temp in csv_header_and_rows(path)[1]}


def keyed_csv_first_fault(path):
    """The message of the first fault of a demand or temperature CSV, read row by row; None if none.

    Its header names the schema (``date,hour,demand`` or ``date,mean_temp``).
    Each row is read and checked in turn with the standard library alone: a
    row the csv module cannot read, the field count, the date (ASCII
    ``YYYY-MM-DD`` naming a calendar day), the hour (an integer in 1..24),
    the number (a finite float), then the key.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader)]
        try:
            return _first_row_fault(path, header, enumerate(reader, 2))
        except csv.Error as exc:
            return f"{path}:{reader.line_num}: {exc}"


def _first_row_fault(path, header, rows):
    """The message of the first fault among the ``(lineno, fields)`` of ``rows``; None if none."""
    seen = set()
    for lineno, row in rows:
        where = f"{path}:{lineno}: "
        if len(row) != len(header):
            return where + f"expected {len(header)} fields, got {len(row)}"
        date, *hour, number = row
        digits = date[:4] + date[5:7] + date[8:]
        try:
            if len(date) != 10 or date[4] + date[7] != "--" or not set(digits) <= set("0123456789"):
                raise ValueError(date)
            key = day = dt.date(int(date[:4]), int(date[5:7]), int(date[8:]))
        except ValueError:
            return where + f"bad ISO date {date!r}"
        if hour:  # the hour field of a demand row
            try:
                hour = int(hour[0])
            except ValueError:
                return where + f"hour is not an integer: {hour[0]!r}"
            if not 1 <= hour <= 24:
                return where + f"hour must be in 1..24, got {hour}"
            key = (day, hour)
        try:
            value = float(number)
        except ValueError:
            return where + f"{header[-1]} is not a number: {number!r}"
        if value in (math.inf, -math.inf) or value != value:
            return where + f"{header[-1]} must be finite"
        if key in seen:
            return where + "duplicate entry for " + (f"({day}, {hour})" if key != day else f"{day}")
        seen.add(key)
    return None


def matrix_csv_oracle(path):
    """``(y_or_None, X, names)`` of a well-formed matrix CSV, parsed row by row."""
    header, rows = csv_header_and_rows(path)
    table = np.array([[float(v) for v in row] for row in rows])
    has_y = header[0] == "y"
    return (table[:, 0] if has_y else None), table[:, int(has_y):], tuple(header[int(has_y):])


def synth_weekday_demand(seed: int, n_weeks: int = 26, hour: int = 9, noise_sd: float = 2.0):
    """Synthetic same-weekday demand generated from the lag + spline model.

    One weekly chain (Mondays): y_k = a * y_{k-1} + f(temp_k) + eps, with f a
    B-spline curve with known coefficients.  Returns (dates, demand_rows,
    temp_rows, truth_map) ready for the CSV writers.
    """
    rng = np.random.default_rng(seed)
    start = dt.date(2021, 1, 4)  # a Monday
    dates = [start + dt.timedelta(days=7 * k) for k in range(n_weeks)]
    temps = 12.0 + 9.0 * np.sin(2.0 * np.pi * np.arange(n_weeks) / n_weeks)
    temps = temps + rng.normal(0.0, 1.0, size=n_weeks)

    from bootsmooth import SplineBasisSpec

    gen_basis = SplineBasisSpec.uniform(2, 4, -5.0, 30.0)
    gen_coef = np.array([18.0, 30.0, 42.0, 24.0])
    a = 0.55
    y = np.empty(n_weeks)
    y[0] = 60.0
    for k in range(n_weeks):
        f = float(gen_coef @ bspline_basis(gen_basis, float(temps[k])))
        prev = y[k - 1] if k > 0 else 60.0
        y[k] = a * prev + f + rng.normal(0.0, noise_sd)
    demand_rows = [(d.isoformat(), hour, repr(float(v))) for d, v in zip(dates, y)]
    temp_rows = [(d.isoformat(), repr(float(t))) for d, t in zip(dates, temps)]
    truth = {(d, hour): float(v) for d, v in zip(dates, y)}
    return dates, demand_rows, temp_rows, truth


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def pytest_runtest_logreport(report):
    # one visible pass/fail line per acceptance criterion
    if report.when == "call" and "test_acceptance" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        print(f"\n[acceptance] {name}: {report.outcome.upper()}")
