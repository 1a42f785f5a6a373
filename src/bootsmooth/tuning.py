"""Cross-validated choice of the bootstrap resampling distribution.

K-fold CV over a (sigma2, gamma) candidate grid: each cell reruns the whole
bootstrap-smoothing pipeline on the training block and accumulates squared
held-out prediction error.  Each cell has its own derived seed, so any cell
of the surface can be recomputed on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import NumericalError, SingularDesignError
from .rng import derive_seed
from .selection import Dataset, SelectorConfig, _training_block, kfold_split, unbiased_variance
from .smoothing import ResamplingDistribution, pbs_fit
from .tabular import fmt, write_csv

DEFAULT_GAMMA_CANDIDATES = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)


@dataclass(frozen=True, kw_only=True)
class CvGrid:
    """Candidate grid and fold layout for resampling-distribution selection.

    When ``sigma2_candidates`` is None, :func:`cv_error_surface` derives
    them from its data by :func:`default_sigma2_candidates` with
    ``sigma2_count`` and ``sigma2_span``.  ``fold_mode`` is ``"random"``
    (seeded permutation) or ``"contiguous"`` (blocks in index order, for
    time-ordered data).  Every training block is fitted on its own, with
    its own OLS fit as the resampling mean, so the held-out rows never
    shape the replicates they are scored against.
    """

    sigma2_candidates: tuple[float, ...] | None = None
    gamma_candidates: tuple[float, ...] = DEFAULT_GAMMA_CANDIDATES
    k: int = 5
    b_inner: int
    seed: int = 0
    fold_mode: str = "random"
    sigma2_count: int = 50
    sigma2_span: float = 100.0

    def __post_init__(self):
        if self.sigma2_candidates is not None:
            s2 = tuple(float(v) for v in self.sigma2_candidates)
            if len(s2) < 1:
                raise ValueError("at least one sigma2 candidate is required")
            if any(not np.isfinite(v) or v <= 0 for v in s2):
                raise ValueError("sigma2 candidates must be finite and > 0")
            object.__setattr__(self, "sigma2_candidates", s2)
        gs = tuple(float(v) for v in self.gamma_candidates)
        if len(gs) < 1:
            raise ValueError("at least one gamma candidate is required")
        if any(not 0.0 <= g <= 1.0 for g in gs):
            raise ValueError("gamma candidates must lie in [0, 1]")
        if self.k < 2:
            raise ValueError(f"k must be >= 2, got {self.k}")
        if self.b_inner < 1:
            raise ValueError(f"b_inner must be >= 1, got {self.b_inner}")
        if self.fold_mode not in ("random", "contiguous"):
            raise ValueError(f"unknown fold_mode {self.fold_mode!r}")
        object.__setattr__(self, "gamma_candidates", gs)


@dataclass(frozen=True)
class CvSurface:
    """Summed squared held-out error per (sigma2, gamma) candidate.

    ``selected`` is the ``(sigma2, gamma)`` pair of minimal error, computed
    from ``errors`` when the surface is built.  Ties break toward the
    smaller sigma2 value, then the smaller gamma value, independent of the
    order in which cells were evaluated.  A non-finite error is a
    ``NumericalError`` naming its cell.
    """

    errors: np.ndarray
    sigma2_candidates: tuple[float, ...]
    gamma_candidates: tuple[float, ...]
    selected: tuple[float, float] = field(init=False)

    def __post_init__(self):
        errors, sigma2s, gammas = self.errors, self.sigma2_candidates, self.gamma_candidates
        bad = np.argwhere(~np.isfinite(errors))
        if bad.size:
            i, j = bad[0]
            raise NumericalError(
                f"CV error at (sigma2={sigma2s[i]!r}, gamma={gammas[j]!r}) is "
                f"{errors[i, j]}, not a finite number"
            )
        ties = np.argwhere(errors == errors.min())
        object.__setattr__(self, "selected", min((sigma2s[i], gammas[j]) for i, j in ties))


def cv_cell_error(
    data: Dataset,
    folds: list[np.ndarray],
    fold_index: int,
    dist: ResamplingDistribution,
    b_inner: int,
    selector: SelectorConfig,
    seed: int,
) -> float:
    """Squared held-out error of one (fold, sigma2, gamma) cell.

    Runs bootstrap smoothing on the training block (all folds but
    ``fold_index``) and predicts the held-out rows with their own design
    rows.  The resampling mean is the training block's own OLS fit.  Exposed
    so that any cell can be recomputed in isolation from its derived seed.
    """
    held = folds[fold_index]
    train_data = _training_block(data, folds, fold_index)
    try:
        fit = pbs_fit(train_data, dist, b_inner, selector, seed)
    except SingularDesignError as exc:
        raise SingularDesignError(f"fold {fold_index}: {exc}") from exc
    resid = data.y[held] - data.X[held] @ fit.beta_pbs
    return float(resid @ resid)


def cv_error_surface(data: Dataset, grid: CvGrid, selector: SelectorConfig) -> CvSurface:
    """K-fold CV error over the full (sigma2, gamma) candidate grid.

    Cell (k, i, j) uses the seed derived from ``(grid.seed, k, i, j)``; the
    cell errors are summed over folds in fold order.
    """
    if grid.sigma2_candidates is None:
        sigma2s = default_sigma2_candidates(data, grid.sigma2_count, grid.sigma2_span)
        grid = replace(grid, sigma2_candidates=sigma2s)
    folds = kfold_split(data.n, grid.k, grid.seed, grid.fold_mode)
    t, s = len(grid.sigma2_candidates), len(grid.gamma_candidates)
    parts = np.empty((grid.k, t, s))
    for k in range(grid.k):
        for i, sigma2 in enumerate(grid.sigma2_candidates):
            for j, gamma in enumerate(grid.gamma_candidates):
                parts[k, i, j] = cv_cell_error(
                    data,
                    folds,
                    k,
                    ResamplingDistribution(gamma=gamma, sigma2=sigma2),
                    grid.b_inner,
                    selector,
                    derive_seed(grid.seed, k, i, j),
                )
    return CvSurface(parts.sum(axis=0), grid.sigma2_candidates, grid.gamma_candidates)


def select_distribution(surface: CvSurface) -> ResamplingDistribution:
    """Distribution at the surface's ``selected`` pair, its minimal error."""
    sigma2, gamma = surface.selected
    return ResamplingDistribution(gamma=gamma, sigma2=sigma2)


def default_sigma2_candidates(data: Dataset, count: int = 50, span: float = 100.0) -> tuple[float, ...]:
    """Log-spaced sigma2 candidates bracketing the unbiased residual variance.

    ``count`` values spanning ``[s2_ub / span, s2_ub * span]``.  Raises when
    the residual variance is zero (exact fit), since the grid would collapse.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if not 0.0 < span < np.inf:
        raise ValueError(f"span must be finite and > 0, got {span}")
    s2_ub = unbiased_variance(data)
    if s2_ub <= 0.0:
        raise ValueError(
            "unbiased residual variance is zero; supply sigma2 candidates explicitly"
        )
    if count == 1:
        return (float(s2_ub),)
    lo, hi = np.log10(s2_ub / span), np.log10(s2_ub * span)
    return tuple(float(v) for v in np.logspace(lo, hi, count))


def write_surface_csv(surface: CvSurface, path: str | Path) -> None:
    """Surface as CSV: rows sigma2 candidates, columns gamma candidates."""
    header = ["sigma2"] + [fmt(g) for g in surface.gamma_candidates]
    rows = []
    for i, s2 in enumerate(surface.sigma2_candidates):
        rows.append([fmt(s2)] + [fmt(v) for v in surface.errors[i]])
    write_csv(path, header, rows)

