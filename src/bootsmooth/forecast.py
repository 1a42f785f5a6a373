"""Forecasting: one loop over forecast problems, rolling same-weekday demand
windows, sigma2 sweeps, and the accuracy and report file of the rows.

A forecast problem is a ``(data, x_targets, labels, truths)`` tuple: a
matrix fit is one problem, a demand fit one problem per target.
:func:`run_forecasts` takes problem i through the paper's chain: tune
(sigma2, gamma) by K-fold CV, or take them fixed, then smooth and predict.
All randomness flows through two path tags indexed by problem: ``(seed, 1, i)``
for problem i's cross-validation grid and ``(seed, 0, i)`` for its
evaluation run.  Sweep point i evaluates with ``(seed, 0, i)`` as well, so it
reproduces a standalone run with the matching derived seed.  The CV tag is
applied in one place, :func:`tune_distribution`.

The loop returns one :class:`TargetRow` per target.  :func:`accuracy` scores
any list of rows (the MSPE and interval coverage of the smoothed fit and of
the GCV-ridge baseline), and :func:`write_report_csv` writes them.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass, replace
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import ConfigError, IngestionError, NumericalError
from .rng import derive_seed
from .selection import (
    CandidateModel,
    Dataset,
    SelectorConfig,
    ridge_prediction_variance,
    select_fit,
    unbiased_variance,
)
from .smoothing import ResamplingDistribution, _pbs_intervals, pbs_fit, two_sided_z
from .splines import (
    DemandModelSpec,
    DemandTable,
    SplineBasisSpec,
    build_demand_design,
    demand_feature_row,
)
from .tabular import finite_number, finite_numbers, fmt, read_blocks, write_csv
from .tuning import CvGrid, CvSurface, cv_error_surface, select_distribution

TAG_EVAL = 0
TAG_CV = 1

# The margin added on each side of the observed temperatures to make a
# temperature basis domain.
TEMP_PAD = 0.5

# The TargetRow fields that must be finite, in the order they are checked.
_BOUNDS = ("prediction", "lower", "upper", "ridge_prediction", "ridge_lower", "ridge_upper")


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

    def __post_init__(self):
        for name in _BOUNDS:
            value = getattr(self, name)
            if not np.isfinite(value):
                raise NumericalError(
                    f"target {self.label}: {name} is {value} at "
                    f"sigma2={self.sigma2!r}, gamma={self.gamma!r}"
                )

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


# The accuracy term of a row with a truth, per summary name, in the order the
# names are checked.
_ACCURACY_TERMS = {
    "mspe": lambda r: np.square(r.prediction - r.truth),
    "mspe_ridge": lambda r: np.square(r.ridge_prediction - r.truth),
    "coverage": lambda r: float(r.covered),
    "coverage_ridge": lambda r: float(r.ridge_covered),
}


def accuracy(rows) -> dict:
    """MSPE and interval coverage of both methods over the rows with a truth.

    Returns ``mspe``, ``mspe_ridge``, ``coverage`` and ``coverage_ridge``,
    each None when no row has a truth.  A value that is not finite raises
    ``NumericalError``; the values are checked in that order.
    """
    return _accuracy(rows, _ACCURACY_TERMS)


def _accuracy(rows, names) -> dict:
    """:func:`accuracy`'s values of ``names`` alone, checked in the order given."""
    scored = [r for r in rows if r.truth is not None]
    means = dict.fromkeys(names)
    if not scored:
        return means
    for name in names:
        with np.errstate(over="ignore", invalid="ignore"):
            value = float(np.mean([_ACCURACY_TERMS[name](r) for r in scored]))
        if not np.isfinite(value):
            raise NumericalError(f"{name} over the targets with a truth is {value}")
        means[name] = value
    return means


def load_matrix_csv(path: str | Path):
    """Plain-matrix CSV: header row; ``y`` first column when truth is present.

    Returns ``(y_or_None, X, feature_names)``.  Each block of rows is parsed
    whole; only a block with a field that is not a finite number is walked
    row by row, to name the first such field.
    """
    blocks = read_blocks(path)
    header = next(blocks)
    has_y = header[0] == "y"
    names = header[1:] if has_y else header
    if not names:
        raise IngestionError(f"{path}:1: no feature columns")
    tables = []
    for lineno, block in blocks:
        numbers = finite_numbers(chain.from_iterable(block))
        if numbers is None:
            numbers = [
                finite_number(path, row, name, text)
                for row, fields in enumerate(block, lineno)
                for name, text in zip(header, fields)
            ]
        tables.append(np.reshape(numbers, (len(block), len(header))))
    if not tables:
        raise IngestionError(f"{path}: no data rows")
    table = np.concatenate(tables)
    if has_y:
        return table[:, 0].copy(), np.ascontiguousarray(table[:, 1:]), tuple(names)
    return None, table, tuple(names)


def evaluate_fixed_distribution(
    data: Dataset,
    x_targets: np.ndarray,
    labels,
    truths,
    dist: ResamplingDistribution,
    b: int,
    selector: SelectorConfig,
    alpha: float,
    eval_seed: int,
) -> list[TargetRow]:
    """Bootstrap-smoothed predictions and intervals plus the ridge baseline.

    One row per row of ``x_targets``, named by ``labels``; ``truths`` is
    None or holds each target's truth (or None); either of another length
    than ``x_targets`` raises ``ValueError``.  The smoothed interval is
    :func:`~bootsmooth.smoothing.prediction_interval`'s arithmetic on the
    fit at ``eval_seed``.  A row that is not finite raises ``NumericalError``.
    """
    z = two_sided_z(alpha)
    x_targets = np.atleast_2d(np.asarray(x_targets, dtype=float))
    for name, values in (("labels", labels), ("truths", truths)):
        if values is not None and len(values) != len(x_targets):
            raise ValueError(
                f"{name} has {len(values)} entries for {len(x_targets)} target rows"
            )
    fit = pbs_fit(data, dist, b, selector, eval_seed)
    pred, hw, _, _ = _pbs_intervals(fit, data, x_targets, z)

    baseline = select_fit(data, selector)
    model = next(c for c in selector.candidates if c.id == baseline.model_id)
    s2_ub = unbiased_variance(data)
    ridge_pred = x_targets @ baseline.coefficients
    ridge_var = ridge_prediction_variance(data, model, baseline.lam, x_targets, s2_ub)
    ridge_hw = z * np.sqrt(ridge_var + s2_ub)
    rows = []
    for t, label in enumerate(labels):
        rows.append(
            TargetRow(
                label=str(label),
                prediction=float(pred[t]),
                lower=float(pred[t] - hw[t]),
                upper=float(pred[t] + hw[t]),
                ridge_prediction=float(ridge_pred[t]),
                ridge_lower=float(ridge_pred[t] - ridge_hw[t]),
                ridge_upper=float(ridge_pred[t] + ridge_hw[t]),
                truth=None if truths is None or truths[t] is None else float(truths[t]),
                sigma2=dist.sigma2,
                gamma=dist.gamma,
            )
        )
    return rows


def tune_distribution(
    data: Dataset, grid: CvGrid, selector: SelectorConfig, seed: int, index: int = 0
) -> tuple[CvSurface, ResamplingDistribution]:
    """CV surface on ``data`` and the distribution it selects.

    The CV runs on ``grid`` with its seed replaced by ``(seed, 1, index)``.
    """
    surface = cv_error_surface(data, replace(grid, seed=derive_seed(seed, TAG_CV, index)), selector)
    return surface, select_distribution(surface)


def run_forecasts(
    problems,
    selector: SelectorConfig,
    grid: CvGrid | None,
    dist: ResamplingDistribution | None,
    b: int,
    alpha: float,
    seed: int,
) -> tuple[list[TargetRow], list[CvSurface]]:
    """Report rows of each ``(data, x_targets, labels, truths)`` problem, in order.

    Problem i is evaluated with seed ``(seed, 0, i)`` at ``dist`` when one is
    given (``grid`` may then be None), else at the distribution that
    :func:`tune_distribution` selects on its data with index i; that surface
    is appended to the surfaces returned.  ``problems`` is drawn lazily;
    with neither ``grid`` nor ``dist`` no problem is drawn (``ValueError``).

    A ``NumericalError`` of a one-target problem leads with ``target
    <label>``.
    """
    if grid is None and dist is None:
        raise ValueError("grid is required when dist is None")
    rows: list[TargetRow] = []
    surfaces: list[CvSurface] = []
    for i, (data, x_targets, labels, truths) in enumerate(problems):
        try:
            problem_dist = dist
            if problem_dist is None:
                surface, problem_dist = tune_distribution(data, grid, selector, seed, i)
                surfaces.append(surface)
            rows += evaluate_fixed_distribution(
                data, x_targets, labels, truths, problem_dist, b, selector, alpha,
                derive_seed(seed, TAG_EVAL, i),
            )
        except NumericalError as exc:
            message = str(exc)
            if len(labels) == 1 and not message.startswith(f"target {labels[0]}: "):
                message = f"target {labels[0]}: {message}"
            raise type(exc)(message) from exc
    return rows, surfaces


def same_weekday_window(dates, target_day: _dt.date, length: int) -> list:
    """The ``length`` most recent dates before ``target_day`` sharing its weekday."""
    weekday = target_day.weekday()
    prior = [d for d in dates if d < target_day and d.weekday() == weekday]
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


def window_spec(spec: DemandModelSpec, temps: dict, window, target_day) -> DemandModelSpec:
    """Respecify the temperature basis over the window's observed range.

    Knots placed over a global range leave basis columns exactly zero on a
    window that covers only part of it (local support), which makes the
    window design rank deficient.  Anchoring the knots to the window's own
    temperatures (plus the target's, padded by ``TEMP_PAD``) keeps every
    column supported.
    """
    seen = [temps[d] for d in window if d in temps]
    if target_day in temps:
        seen.append(temps[target_day])
    if not seen:
        raise ConfigError(f"no temperatures available for the window before {target_day}")
    lo, hi = min(seen) - TEMP_PAD, max(seen) + TEMP_PAD
    tb = spec.temp_basis
    return replace(spec, temp_basis=SplineBasisSpec.uniform(tb.degree, tb.n_basis, lo, hi))


def demand_problems(
    demand: DemandTable,
    temps: dict,
    spec: DemandModelSpec,
    targets: list[tuple[_dt.date, int]],
    window_days: int,
    auto_temp_domain: bool = True,
):
    """One forecast problem per ``(day, hour)`` target, built when it is drawn.

    Each is the design of the target's same-weekday window, its feature row,
    its ``YYYY-MM-DD:HH`` label and its truth (read from the demand table
    when the target is present in it, else None).  When ``auto_temp_domain``
    is set the temperature knots are respecified over each window's observed
    range (see :func:`window_spec`); otherwise a temperature basis function
    that is zero on every modeled day, which makes the design singular, is a
    ``NumericalError`` naming the target and the fixed domain.  The generator
    holds one window design at a time, and a target's errors surface only
    once the targets before it have been run.
    """
    for day, hour in targets:
        label = f"{day.isoformat()}:{int(hour):02d}"
        window = same_weekday_window(demand.dates, day, window_days)
        wspec = window_spec(spec, temps, window, day) if auto_temp_domain else spec
        data = build_demand_design(demand, temps, wspec, hour, window)
        if not auto_temp_domain:
            # a temperature function is idle when its tensor columns are zero on every row
            tensor = data.X[:, spec.t_lags :].reshape(data.n, spec.hour_basis.n_basis, -1)
            idle = np.flatnonzero(~tensor.any(axis=(0, 1)))
            if idle.size:
                seen = [temps[d] for d in window[spec.t_lags :]]
                raise NumericalError(
                    f"target {label}: the fixed temp_domain {list(spec.temp_basis.domain)} "
                    f"leaves temperature basis functions {idle.tolist()} zero on every "
                    f"modeled day (temperatures {min(seen):g} to {max(seen):g}); "
                    "narrow temp_domain or omit it"
                )
        x_t = demand_feature_row(demand, temps, wspec, hour, window, day)
        yield data, x_t[None, :], [label], [demand.values.get((day, int(hour)))]


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
) -> list[dict]:
    """Accuracy curve over a sigma2 list at fixed gamma.

    Point i reruns the fixed-distribution evaluation with the derived seed
    ``(seed, 0, i)``, so each entry equals an independent single-point run.
    """
    if truths is None:
        raise ConfigError("sweep-sigma needs target truth values (a 'y' column)")
    x_targets = np.atleast_2d(np.asarray(x_targets, dtype=float))
    labels = [str(t) for t in range(len(x_targets))]
    curve = []
    for i, s2 in enumerate(sigma2_sweep):
        dist = ResamplingDistribution(gamma=gamma, sigma2=float(s2))
        rows = evaluate_fixed_distribution(
            data, x_targets, labels, truths, dist, b, selector, alpha,
            derive_seed(seed, TAG_EVAL, i),
        )
        # sweep.csv writes no ridge accuracy, so none is checked
        curve.append({"sigma2": float(s2), **_accuracy(rows, ("mspe", "coverage"))})
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


def write_report_csv(rows: list[TargetRow], path: str | Path) -> None:
    table = []
    for r in rows:
        table.append(
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
    write_csv(path, _REPORT_HEADER, table)
