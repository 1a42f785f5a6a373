"""Cross-validated choice of the bootstrap resampling distribution.

K-fold CV over a (sigma2, gamma) candidate grid: each cell reruns the whole
bootstrap-smoothing pipeline on the training block and accumulates squared
held-out prediction error, scored by its smoothed coefficients alone.  A
fold's cells are smoothed in one pass (``smoothing._smoothed_cells``) on the
training block, OLS fit, resampling means and held-out rows memoised on the
data.  Each cell has its own derived seed, so :func:`cv_cell_error`
recomputes any cell on its own to the bytes it has in the surface (see the
README's "Reproducibility").  The seeds and replicate keys of all a
surface's cells are derived in one walk over (fold, sigma2, gamma), in key
passes of at most ``rng.FAMILY_KEYS`` keys (a whole fit_demand surface
takes one), and each fold's pass reads its cells' keys from them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import NumericalError, SelectionFailureError, SingularDesignError
from .rng import MAX_REPLICATES, cell_families, replicate_keys
from .selection import Dataset, SelectorConfig, _training_block, kfold_split, unbiased_variance
from .smoothing import ResamplingDistribution, _smoothed_cells
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
        if self.b_inner > MAX_REPLICATES:
            raise ValueError(
                f"b_inner must be at most 2**32, the replicates a seed's streams index, got {self.b_inner}"
            )
        if self.fold_mode not in ("random", "contiguous"):
            raise ValueError(f"unknown fold_mode {self.fold_mode!r}")
        # checked even when sigma2_candidates are given, so a bad value is never ignored
        if self.sigma2_count < 1:
            raise ValueError(f"sigma2_count must be >= 1, got {self.sigma2_count}")
        if not 0.0 < self.sigma2_span < np.inf:
            raise ValueError(f"sigma2_span must be finite and > 0, got {self.sigma2_span}")
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
    rows.  The resampling mean is the training block's own OLS fit.  The
    one-cell case of a surface's fold pass, with the same bytes: exposed so
    that any cell can be recomputed in isolation from its derived seed.
    """
    return _fold_errors(data, folds, fold_index, _one_cell(dist, seed, b_inner), b_inner, selector)[0]


def _one_cell(dist: ResamplingDistribution, seed: int, B: int):
    """The cell as a one-cell group of the fold pass, its keys derived when the pass reaches it."""
    yield [dist], replicate_keys(seed, 0, B)[None]


def _fold_errors(data, folds, fold_index, groups, b_inner, selector) -> list[float]:
    """Squared held-out errors of one fold's cells, given as ``(dists, keys)`` groups, in order."""
    train_data, y_held, X_held = _fold(data, folds, fold_index)
    try:
        resids = [y_held - X_held @ beta for beta in _smoothed_cells(train_data, groups, b_inner, selector)]
    except SingularDesignError as exc:
        raise SingularDesignError(f"fold {fold_index}: {exc}") from exc
    except SelectionFailureError as exc:
        raise SelectionFailureError(f"fold {fold_index}, {exc}") from exc
    return [float(resid @ resid) for resid in resids]


def _fold(data: Dataset, folds: list[np.ndarray], held: int) -> tuple[Dataset, np.ndarray, np.ndarray]:
    """The training block of fold ``held`` and its held-out ``y`` and ``X`` rows,
    memoised on ``data`` by the held-out fold, as the training block is."""
    rows = folds[held]
    return data._derived(
        ("fold", rows.tobytes()),
        lambda: (_training_block(data, folds, held), data.y[rows], data.X[rows]),
    )


def cv_error_surface(data: Dataset, grid: CvGrid, selector: SelectorConfig) -> CvSurface:
    """K-fold CV error over the full (sigma2, gamma) candidate grid.

    Cell (k, i, j) uses the seed derived from ``(grid.seed, k, i, j)``.  The
    seeds and replicate keys of all the surface's cells are derived in C
    order by one :func:`rng.cell_families` walk, in passes of at most
    ``rng.FAMILY_KEYS`` keys.  The cells of fold k are smoothed in one pass,
    in C order, each fold's share of a key pass as one group, and their
    errors are summed over folds in fold order.
    """
    if grid.sigma2_candidates is None:
        sigma2s = default_sigma2_candidates(data, grid.sigma2_count, grid.sigma2_span)
        grid = replace(grid, sigma2_candidates=sigma2s)
    folds = kfold_split(data.n, grid.k, grid.seed, grid.fold_mode)
    t, s = len(grid.sigma2_candidates), len(grid.gamma_candidates)
    dists = [
        ResamplingDistribution(gamma=gamma, sigma2=sigma2)
        for sigma2 in grid.sigma2_candidates
        for gamma in grid.gamma_candidates
    ]
    passes = (keys for _, keys in cell_families(grid.seed, (), (grid.k, t, s), grid.b_inner))
    rest = ()  # the keys of the current pass not yet handed to a fold

    def fold_groups():  # the next fold's cells, one group per key pass they lie in
        nonlocal rest
        first = 0
        while first < len(dists):
            if not len(rest):
                rest = next(passes)
            count = min(len(rest), len(dists) - first)
            yield dists[first : first + count], rest[:count]
            rest, first = rest[count:], first + count

    parts = np.empty((grid.k, t * s))
    for k in range(grid.k):
        parts[k] = _fold_errors(data, folds, k, fold_groups(), grid.b_inner, selector)
    return CvSurface(parts.sum(axis=0).reshape(t, s), grid.sigma2_candidates, grid.gamma_candidates)


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

