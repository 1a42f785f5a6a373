"""Forecasting pipelines: fixed-distribution evaluation, CV-tuned fits,
rolling same-weekday demand windows, sigma2 sweeps and report emission.

All randomness flows through two path tags: ``(seed, 0, i)`` for the i-th
evaluation run and ``(seed, 1, i)`` for the i-th cross-validation grid, so a
sweep point reproduces a standalone run with the matching derived seed.
"""

from __future__ import annotations

import csv
import datetime as _dt
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, IngestionError, NumericalError
from .rng import derive_seed
from .selection import (
    CandidateModel,
    Dataset,
    SelectorConfig,
    default_lambda_grid,
    ols_fit,
    ridge_prediction_variance,
    select_fit,
    unbiased_variance,
)
from .smoothing import (
    ResamplingDistribution,
    pbs_fit,
    residual_variance_pbs,
    smoothed_variances,
    two_sided_z,
)
from .splines import (
    DemandModelSpec,
    DemandTable,
    SplineBasisSpec,
    build_demand_design,
    demand_feature_row,
)
from .tabular import fmt, write_csv
from .tuning import (
    DEFAULT_GAMMA_CANDIDATES,
    CvGrid,
    CvSurface,
    cv_error_surface,
    default_sigma2_candidates,
    select_distribution,
)

TAG_EVAL = 0
TAG_CV = 1


@dataclass
class TargetRow:
    """One prediction target in a report."""

    label: str
    prediction: float
    lower: float
    upper: float
    ridge_prediction: float
    ridge_lower: float
    ridge_upper: float
    truth: float | None
    sigma2: float
    gamma: float

    @property
    def covered(self) -> bool | None:
        if self.truth is None:
            return None
        return self.lower <= self.truth <= self.upper

    @property
    def ridge_covered(self) -> bool | None:
        if self.truth is None:
            return None
        return self.ridge_lower <= self.truth <= self.ridge_upper


@dataclass
class ForecastReport:
    """Per-target rows plus the run-level accuracy summaries."""

    rows: list[TargetRow]
    alpha: float
    seed: int
    b: int
    mode: str
    selected: tuple[float, float] | None = None
    surface_path: str | None = None

    def _mean_over_truth(self, name: str, term) -> float | None:
        """Mean of ``term(row)`` over rows with a truth; ``NumericalError`` if not finite."""
        rows = [r for r in self.rows if r.truth is not None]
        if not rows:
            return None
        with np.errstate(over="ignore", invalid="ignore"):
            value = float(np.mean([term(r) for r in rows]))
        if not np.isfinite(value):
            raise NumericalError(f"{name} over the targets with a truth is {value}")
        return value

    @property
    def mspe(self) -> float | None:
        return self._mean_over_truth("mspe", lambda r: np.square(r.prediction - r.truth))

    @property
    def mspe_ridge(self) -> float | None:
        return self._mean_over_truth(
            "mspe_ridge", lambda r: np.square(r.ridge_prediction - r.truth)
        )

    @property
    def coverage(self) -> float | None:
        return self._mean_over_truth("coverage", lambda r: float(r.covered))

    @property
    def coverage_ridge(self) -> float | None:
        return self._mean_over_truth("coverage_ridge", lambda r: float(r.ridge_covered))


def load_matrix_csv(path: str | Path):
    """Plain-matrix CSV: header row; ``y`` first column when truth is present.

    Returns ``(y_or_None, X, feature_names)``.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or not header:
            raise IngestionError(f"{path}:1: empty file or missing header")
        header = [h.strip() for h in header]
        has_y = header[0] == "y"
        names = header[1:] if has_y else header
        if not names:
            raise IngestionError(f"{path}:1: no feature columns")
        ys, rows = [], []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise IngestionError(
                    f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}"
                )
            try:
                vals = [float(v) for v in row]
            except ValueError:
                raise IngestionError(f"{path}:{lineno}: non-numeric field") from None
            if has_y:
                ys.append(vals[0])
                rows.append(vals[1:])
            else:
                rows.append(vals)
        if not rows:
            raise IngestionError(f"{path}: no data rows")
    X = np.asarray(rows)
    y = np.asarray(ys) if has_y else None
    return y, X, tuple(names)


def evaluate_fixed_distribution(
    data: Dataset,
    x_targets: np.ndarray,
    dist: ResamplingDistribution,
    b: int,
    selector: SelectorConfig,
    alpha: float,
    eval_seed: int,
    threads: int = 1,
):
    """Bootstrap-smoothed predictions/intervals plus the ridge baseline.

    Returns a dict of per-target arrays: ``prediction``, ``lower``,
    ``upper``, ``ridge_prediction``, ``ridge_lower``, ``ridge_upper``.
    Raises ``NumericalError`` when any of them is not finite.
    """
    z = two_sided_z(alpha)
    x_targets = np.atleast_2d(np.asarray(x_targets, dtype=float))
    fit = pbs_fit(data, dist, b, selector, eval_seed, threads=threads)
    rvar = residual_variance_pbs(fit, data)
    sv = smoothed_variances(fit, data, x_targets)
    pred = x_targets @ fit.beta_pbs
    hw = z * np.sqrt(sv + rvar)

    baseline = select_fit(data, selector)
    model = next(c for c in selector.candidates if c.id == baseline.model_id)
    s2_ub = unbiased_variance(data, ols_fit(data))
    ridge_pred = x_targets @ baseline.coefficients
    ridge_hw = np.array(
        [
            z
            * np.sqrt(
                ridge_prediction_variance(data, model, baseline.lam, x, s2_ub) + s2_ub
            )
            for x in x_targets
        ]
    )
    out = {
        "prediction": pred,
        "lower": pred - hw,
        "upper": pred + hw,
        "ridge_prediction": ridge_pred,
        "ridge_lower": ridge_pred - ridge_hw,
        "ridge_upper": ridge_pred + ridge_hw,
    }
    for key, values in out.items():
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise NumericalError(
                f"target {bad[0]}: {key} is {values[bad[0]]} at "
                f"sigma2={dist.sigma2!r}, gamma={dist.gamma!r}"
            )
    return {**out, "fit": fit, "baseline": baseline}


def resolve_cv_grid(cv_cfg: dict, data: Dataset, seed: int) -> CvGrid:
    """Build a CvGrid from config, deriving sigma2 candidates when absent."""
    sigma2 = cv_cfg.get("sigma2_candidates")
    if sigma2 is None:
        sigma2 = default_sigma2_candidates(
            data,
            count=int(cv_cfg.get("sigma2_count", 50)),
            span=float(cv_cfg.get("sigma2_span", 100.0)),
        )
    gamma = cv_cfg.get("gamma_candidates", DEFAULT_GAMMA_CANDIDATES)
    return CvGrid(
        sigma2_candidates=tuple(sigma2),
        gamma_candidates=tuple(gamma),
        k=int(cv_cfg.get("k", 5)),
        b_inner=int(cv_cfg["b_inner"]),
        seed=seed,
        fold_mode=cv_cfg.get("fold_mode", "random"),
        refit_ols_per_block=bool(cv_cfg.get("refit_ols_per_block", True)),
    )


def _rows_from_eval(
    labels, ev, truths, dist: ResamplingDistribution
) -> list[TargetRow]:
    rows = []
    for t, label in enumerate(labels):
        rows.append(
            TargetRow(
                label=str(label),
                prediction=float(ev["prediction"][t]),
                lower=float(ev["lower"][t]),
                upper=float(ev["upper"][t]),
                ridge_prediction=float(ev["ridge_prediction"][t]),
                ridge_lower=float(ev["ridge_lower"][t]),
                ridge_upper=float(ev["ridge_upper"][t]),
                truth=None if truths is None or truths[t] is None else float(truths[t]),
                sigma2=dist.sigma2,
                gamma=dist.gamma,
            )
        )
    return rows


def run_matrix_eval(
    data: Dataset,
    x_targets: np.ndarray,
    truths,
    dist: ResamplingDistribution,
    selector: SelectorConfig,
    b: int,
    alpha: float,
    seed: int,
    threads: int = 1,
    point_index: int = 0,
) -> list[TargetRow]:
    """Fixed-distribution matrix-mode evaluation; one sweep point."""
    ev = evaluate_fixed_distribution(
        data,
        x_targets,
        dist,
        b,
        selector,
        alpha,
        derive_seed(seed, TAG_EVAL, point_index),
        threads=threads,
    )
    labels = [str(i) for i in range(x_targets.shape[0])]
    return _rows_from_eval(labels, ev, truths, dist)


def run_matrix_fit(
    data: Dataset,
    x_targets: np.ndarray,
    truths,
    selector: SelectorConfig,
    cv_cfg: dict,
    b: int,
    alpha: float,
    seed: int,
    threads: int = 1,
) -> tuple[list[TargetRow], CvSurface, ResamplingDistribution]:
    """CV-select the resampling distribution on ``data``, then evaluate."""
    grid = resolve_cv_grid(cv_cfg, data, derive_seed(seed, TAG_CV, 0))
    surface = cv_error_surface(data, grid, selector, threads=threads)
    dist = select_distribution(surface)
    rows = run_matrix_eval(
        data, x_targets, truths, dist, selector, b, alpha, seed, threads, point_index=0
    )
    return rows, surface, dist


def same_weekday_window(dates, target_day: _dt.date, length: int) -> list:
    """The ``length`` most recent dates before ``target_day`` sharing its weekday."""
    prior = [d for d in dates if d < target_day and d.weekday() == target_day.weekday()]
    if len(prior) < length:
        raise ConfigError(
            f"target {target_day}: only {len(prior)} same-weekday days of history, "
            f"need {length}"
        )
    return prior[-length:]


def structural_candidates(spec: DemandModelSpec) -> tuple[CandidateModel, ...]:
    """Column-subset candidates of one demand design: full, lags-only, temp-only."""
    p, t = spec.p, spec.t_lags
    return (
        CandidateModel("full", tuple(range(p))),
        CandidateModel("lags", tuple(range(t))),
        CandidateModel("temp", tuple(range(t, p))),
    )


def window_spec(
    spec: DemandModelSpec, temps: dict, window, target_day, pad: float = 0.5
) -> DemandModelSpec:
    """Respecify the temperature basis over the window's observed range.

    Knots placed over a global range leave basis columns exactly zero on a
    window that covers only part of it (local support), which makes the
    window design rank deficient.  Anchoring the knots to the window's own
    temperatures (plus the target's, padded) keeps every column supported.
    """
    seen = [temps[d] for d in window if d in temps]
    if target_day in temps:
        seen.append(temps[target_day])
    if not seen:
        raise ConfigError(f"no temperatures available for the window before {target_day}")
    lo, hi = min(seen) - pad, max(seen) + pad
    tb = spec.temp_basis
    return replace(spec, temp_basis=SplineBasisSpec.uniform(tb.degree, tb.n_basis, lo, hi))


def run_demand_fit(
    demand: DemandTable,
    temps: dict,
    spec: DemandModelSpec,
    targets: list[tuple[_dt.date, int]],
    window_days: int,
    candidates: tuple[CandidateModel, ...],
    lambda_grid,
    cv_cfg: dict | None,
    b: int,
    alpha: float,
    seed: int,
    threads: int = 1,
    dist_override: ResamplingDistribution | None = None,
    auto_temp_domain: bool = True,
) -> list[TargetRow]:
    """Rolling same-weekday forecasts with per-target CV distribution choice.

    Target t gets CV seed ``(seed, 1, t)`` and evaluation seed
    ``(seed, 0, t)``.  With ``dist_override`` the CV step is skipped and the
    given distribution is used for every target.  When ``auto_temp_domain``
    is set the temperature knots are respecified over each window's observed
    range (see :func:`window_spec`).  Truth is read from the demand table
    when the target is present in it.
    """
    lam = tuple(default_lambda_grid()) if lambda_grid is None else tuple(lambda_grid)
    rows: list[TargetRow] = []
    for ti, (day, hour) in enumerate(targets):
        window = same_weekday_window(demand.dates, day, window_days)
        wspec = window_spec(spec, temps, window, day) if auto_temp_domain else spec
        data = build_demand_design(demand, temps, wspec, hour, window)
        x_t = demand_feature_row(demand, temps, wspec, hour, window, day)
        selector = SelectorConfig(candidates=candidates, lambda_grid=lam)
        if dist_override is None:
            grid = resolve_cv_grid(cv_cfg, data, derive_seed(seed, TAG_CV, ti))
            surface = cv_error_surface(data, grid, selector, threads=threads)
            dist = select_distribution(surface)
        else:
            dist = dist_override
        ev = evaluate_fixed_distribution(
            data,
            x_t[None, :],
            dist,
            b,
            selector,
            alpha,
            derive_seed(seed, TAG_EVAL, ti),
            threads=threads,
        )
        truth = demand.values.get((day, int(hour)))
        rows.extend(
            _rows_from_eval([f"{day.isoformat()}:{int(hour):02d}"], ev, [truth], dist)
        )
    return rows


def run_sigma_sweep(
    data: Dataset,
    x_targets: np.ndarray,
    truths,
    sigma2_sweep,
    gamma: float,
    selector: SelectorConfig,
    b: int,
    alpha: float,
    seed: int,
    threads: int = 1,
) -> list[dict]:
    """Accuracy curve over a sigma2 list at fixed gamma.

    Point i reruns the fixed-distribution evaluation with the derived seed
    ``(seed, 0, i)``, so each entry equals an independent single-point run.
    """
    if truths is None:
        raise ConfigError("sweep-sigma needs target truth values (a 'y' column)")
    curve = []
    for i, s2 in enumerate(sigma2_sweep):
        dist = ResamplingDistribution(gamma=gamma, sigma2=float(s2))
        rows = run_matrix_eval(
            data, x_targets, truths, dist, selector, b, alpha, seed, threads, point_index=i
        )
        rep = ForecastReport(rows=rows, alpha=alpha, seed=seed, b=b, mode="matrix")
        curve.append(
            {
                "sigma2": float(s2),
                "mspe": rep.mspe,
                "coverage": rep.coverage,
            }
        )
    return curve


_REPORT_HEADER = [
    "target",
    "prediction",
    "lower",
    "upper",
    "ridge_prediction",
    "ridge_lower",
    "ridge_upper",
    "truth",
    "covered",
    "ridge_covered",
    "sigma2",
    "gamma",
]


def write_report_csv(report: ForecastReport, path: str | Path) -> None:
    rows = []
    for r in report.rows:
        rows.append(
            [
                r.label,
                fmt(r.prediction),
                fmt(r.lower),
                fmt(r.upper),
                fmt(r.ridge_prediction),
                fmt(r.ridge_lower),
                fmt(r.ridge_upper),
                "" if r.truth is None else fmt(r.truth),
                "" if r.covered is None else str(int(r.covered)),
                "" if r.ridge_covered is None else str(int(r.ridge_covered)),
                fmt(r.sigma2),
                fmt(r.gamma),
            ]
        )
    write_csv(path, _REPORT_HEADER, rows)


def report_summary(report: ForecastReport, command: str, threads: int) -> dict:
    return {
        "command": command,
        "mode": report.mode,
        "alpha": report.alpha,
        "seed": report.seed,
        "b": report.b,
        "threads": threads,
        "n_targets": len(report.rows),
        "mspe": report.mspe,
        "mspe_ridge": report.mspe_ridge,
        "coverage": report.coverage,
        "coverage_ridge": report.coverage_ridge,
        "selected_sigma2": None if report.selected is None else report.selected[0],
        "selected_gamma": None if report.selected is None else report.selected[1],
        "surface_csv": report.surface_path,
    }
