"""Monte Carlo study of how the resampling law steers model selection.

Synthetic instances use a 20-column uniform design plus intercept with four
nested true models; for every (sigma2, gamma) cell the bootstrap-smoothed
estimator is compared against a GCV-selected ridge baseline on coefficient
estimation error, and the per-cell model-selection frequencies are recorded.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import NumericalError, SelectionFailureError
from .rng import MAX_REPLICATES, cell_seeds, derive_seed, generator
from .selection import (
    CandidateModel,
    Dataset,
    SelectorConfig,
    select_fit,
)
from .smoothing import ResamplingDistribution, pbs_fit
from .tabular import fmt, write_csv, write_text

_N_FEATURES = 20
_N_MODELS = 4

# Path tags for per-replication stream derivation.
_TAG_DESIGN = 0
_TAG_RESPONSE = 1
_TAG_CELL = 2


_DEFAULT_SIGMA2_SWEEP = tuple(float(v) ** 2 for v in np.arange(1.0, 10.0 + 1e-9, 0.2))
_DEFAULT_GAMMA_SWEEP = (0.0, 0.2, 0.5, 1.0)


@dataclass(frozen=True)
class StudyConfig:
    """Design of one Monte Carlo run.

    Desk-scale defaults (reps=100, B=200) keep a full sweep in the minutes
    range; scale up via the fields.  ``n`` must exceed 21 so the intercept
    plus 20 features stay estimable.  A sweep left None is the default
    sweep; ``lambda_grid`` None is the selector's default grid.
    """

    n: int = 30
    true_model_j: int = 2
    noise_sd: float = 5.0
    reps: int = 100
    b: int = 200
    sigma2_sweep: tuple[float, ...] | None = None
    gamma_sweep: tuple[float, ...] | None = None
    lambda_grid: tuple[float, ...] | None = None
    master_seed: int = 0

    def __post_init__(self):
        if self.n <= _N_FEATURES + 1:
            raise ValueError(f"n must exceed {_N_FEATURES + 1}, got {self.n}")
        if self.true_model_j not in (1, 2, 3, 4):
            raise ValueError(f"true_model_j must be in 1..4, got {self.true_model_j}")
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if self.b < 1:
            raise ValueError("b must be >= 1")
        if self.b > MAX_REPLICATES:
            raise ValueError(f"b must be at most 2**32, the replicates a seed's streams index, got {self.b}")
        if not 0.0 <= self.noise_sd < np.inf:
            raise ValueError(f"noise_sd must be finite and >= 0, got {self.noise_sd}")
        s2 = _DEFAULT_SIGMA2_SWEEP if self.sigma2_sweep is None else self.sigma2_sweep
        gs = _DEFAULT_GAMMA_SWEEP if self.gamma_sweep is None else self.gamma_sweep
        s2, gs = tuple(float(v) for v in s2), tuple(float(v) for v in gs)
        if not s2 or not gs:
            raise ValueError("sweeps must be nonempty")
        for v in s2:
            if not 0.0 < v < np.inf:
                raise ValueError(f"sigma2_sweep values must be finite and > 0, got {v}")
        if any(not 0.0 <= g <= 1.0 for g in gs):
            raise ValueError("gamma sweep values must be in [0, 1]")
        object.__setattr__(self, "sigma2_sweep", s2)
        object.__setattr__(self, "gamma_sweep", gs)
        if self.lambda_grid is not None:
            object.__setattr__(
                self, "lambda_grid", tuple(float(l) for l in self.lambda_grid)
            )


@dataclass
class StudyResult:
    """Per-cell estimation MSE and selection frequencies, plus the baseline."""

    sigma2_sweep: tuple[float, ...]
    gamma_sweep: tuple[float, ...]
    mse: np.ndarray
    selection_freq: np.ndarray
    ridge_baseline_mse: float

    def mse_at(self, sigma2: float, gamma: float) -> float:
        i = self.sigma2_sweep.index(float(sigma2))
        j = self.gamma_sweep.index(float(gamma))
        return float(self.mse[i, j])

    def freq_at(self, sigma2: float, gamma: float) -> np.ndarray:
        i = self.sigma2_sweep.index(float(sigma2))
        j = self.gamma_sweep.index(float(gamma))
        return self.selection_freq[i, j]


def generate_design(n: int, p: int, seed: int) -> np.ndarray:
    """n x p matrix of i.i.d. uniform draws on [-5, 5]."""
    if n < 1 or p < 1:
        raise ValueError(f"design must be at least 1x1, got {n}x{p}")
    return generator(seed).uniform(-5.0, 5.0, size=(n, p))


def true_coefficients(j: int) -> np.ndarray:
    """Feature coefficients of model j: ones on the first 5j entries."""
    if j not in (1, 2, 3, 4):
        raise ValueError(f"model index must be in 1..4, got {j}")
    beta = np.zeros(_N_FEATURES)
    beta[: 5 * j] = 1.0
    return beta


def generate_response(X: np.ndarray, j: int, noise_sd: float, seed: int) -> np.ndarray:
    """Response ``1 + X beta_j + eps`` with ``eps ~ N(0, noise_sd^2 I)``."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != _N_FEATURES:
        raise ValueError(f"X must have {_N_FEATURES} columns, got shape {X.shape}")
    beta = true_coefficients(j)
    eps = noise_sd * generator(seed).standard_normal(X.shape[0])
    return 1.0 + X @ beta + eps


def nested_candidates() -> tuple[CandidateModel, ...]:
    """The four nested candidates: intercept plus feature columns 1..5j."""
    return tuple(
        CandidateModel(j, tuple(range(0, 5 * j + 1))) for j in range(1, _N_MODELS + 1)
    )


def run_study(config: StudyConfig) -> StudyResult:
    """Monte Carlo sweep over the (sigma2, gamma) grid.

    Replication r draws a fresh design and response from streams
    ``(master_seed, 0, r)`` and ``(master_seed, 1, r)``; the cell (r, i, j)
    fit uses seed ``derive_seed(master_seed, 2, r, i, j)``, derived with its
    replicate keys for the cells of replication r in key passes of at most
    ``rng.FAMILY_KEYS`` keys.  A cell reads only the smoothed coefficients and
    the selected models, so its fit skips the variance moments
    (``moments=False``).  Results are averaged over replications in
    replication order.  A generated response that is not finite
    (``noise_sd`` too large) is a ``NumericalError`` naming its replication;
    a cell whose selection fails names its replication and cell.
    """
    selector = SelectorConfig(candidates=nested_candidates(), lambda_grid=config.lambda_grid)
    t, s = len(config.sigma2_sweep), len(config.gamma_sweep)
    sq_err = np.empty((config.reps, t, s))
    freqs = np.empty((config.reps, t, s, _N_MODELS))
    base_err = np.empty(config.reps)
    beta_true = np.concatenate([[1.0], true_coefficients(config.true_model_j)])
    cells = [
        (i, j, ResamplingDistribution(gamma=gamma, sigma2=sigma2))
        for i, sigma2 in enumerate(config.sigma2_sweep)
        for j, gamma in enumerate(config.gamma_sweep)
    ]

    for r in range(config.reps):
        X = generate_design(config.n, _N_FEATURES, derive_seed(config.master_seed, _TAG_DESIGN, r))
        y = generate_response(
            X, config.true_model_j, config.noise_sd, derive_seed(config.master_seed, _TAG_RESPONSE, r)
        )
        if not np.all(np.isfinite(y)):
            raise NumericalError(
                f"replication {r}: the generated response is not finite "
                f"(noise_sd={config.noise_sd!r})"
            )
        data = Dataset(y, np.column_stack([np.ones(config.n), X]))
        baseline = select_fit(data, selector)
        base_err[r] = float(np.sum((baseline.coefficients - beta_true) ** 2))
        seeds = cell_seeds(config.master_seed, (_TAG_CELL, r), (t, s), config.b)
        for (i, j, dist), seed in zip(cells, seeds):
            try:
                fit = pbs_fit(data, dist, config.b, selector, seed, moments=False)
            except SelectionFailureError as exc:
                raise SelectionFailureError(
                    f"replication {r}, sigma2={dist.sigma2!r}, gamma={dist.gamma!r}: {exc}"
                ) from exc
            sq_err[r, i, j] = float(np.sum((fit.beta_pbs - beta_true) ** 2))
            # model ids are 1.._N_MODELS; slot 0 of the count stays empty
            counts = np.bincount(fit.model_ids, minlength=_N_MODELS + 1)
            freqs[r, i, j] = counts[1:] / config.b

    result = StudyResult(
        sigma2_sweep=config.sigma2_sweep,
        gamma_sweep=config.gamma_sweep,
        mse=sq_err.mean(axis=0),
        selection_freq=freqs.mean(axis=0),
        ridge_baseline_mse=float(base_err.mean()),
    )
    if not np.isfinite(result.ridge_baseline_mse):
        raise NumericalError(f"ridge baseline MSE is {result.ridge_baseline_mse}")
    for key, values in (("MSE", result.mse), ("selection share", result.selection_freq)):
        bad = np.argwhere(~np.isfinite(values))
        if bad.size:
            i, j = bad[0][:2]
            raise NumericalError(
                f"{key} is {values[tuple(bad[0])]} at "
                f"sigma2={config.sigma2_sweep[i]!r}, gamma={config.gamma_sweep[j]!r}"
            )
    return result


def write_study_csvs(result: StudyResult, out_dir: str | Path) -> tuple[Path, Path]:
    """Emit ``study_mse.csv`` and ``study_freq.csv`` (long format)."""
    out_dir = Path(out_dir)
    mse_path = out_dir / "study_mse.csv"
    freq_path = out_dir / "study_freq.csv"
    mse_rows = []
    freq_rows = []
    for i, s2 in enumerate(result.sigma2_sweep):
        for j, g in enumerate(result.gamma_sweep):
            mse_rows.append([fmt(s2), fmt(g), fmt(result.mse[i, j])])
            for m in range(_N_MODELS):
                freq_rows.append(
                    [fmt(s2), fmt(g), str(m + 1), fmt(result.selection_freq[i, j, m])]
                )
    write_csv(mse_path, ["sigma2", "gamma", "value"], mse_rows)
    write_csv(freq_path, ["sigma2", "gamma", "model_id", "value"], freq_rows)
    return mse_path, freq_path


def render_mse_svg(result: StudyResult, path: str | Path) -> None:
    """Line chart of MSE versus sigma2, one polyline per gamma, as plain SVG."""
    width, height, margin = 640, 420, 56
    xs = np.asarray(result.sigma2_sweep)
    all_y = np.concatenate([result.mse.ravel(), [result.ridge_baseline_mse]])
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(all_y.min()), float(all_y.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def sx(v: float) -> float:
        return margin + (v - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def sy(v: float) -> float:
        return height - margin - (v - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>',
        f'<text x="{width / 2:.1f}" y="{height - 12}" text-anchor="middle" '
        f'font-size="13">sigma2</text>',
        f'<text x="16" y="{height / 2:.1f}" font-size="13" '
        f'transform="rotate(-90 16 {height / 2:.1f})" text-anchor="middle">estimation MSE</text>',
    ]
    yb = sy(result.ridge_baseline_mse)
    parts.append(
        f'<line x1="{margin}" y1="{yb:.2f}" x2="{width - margin}" y2="{yb:.2f}" '
        'stroke="#555555" stroke-dasharray="6 4"/>'
    )
    parts.append(
        f'<text x="{width - margin}" y="{yb - 5:.2f}" text-anchor="end" font-size="12" '
        'fill="#555555">ridge baseline</text>'
    )
    for j, g in enumerate(result.gamma_sweep):
        color = colors[j % len(colors)]
        pts = " ".join(
            f"{sx(float(x)):.2f},{sy(float(result.mse[i, j])):.2f}" for i, x in enumerate(xs)
        )
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.6"/>')
        parts.append(
            f'<text x="{width - margin + 4}" y="{margin + 16 * j + 10}" font-size="12" '
            f'fill="{color}">g={g:g}</text>'
        )
    parts.append("</svg>")
    write_text(path, "\n".join(parts) + "\n")
