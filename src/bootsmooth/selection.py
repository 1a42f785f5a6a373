"""Linear-model estimation and joint (model, ridge penalty) selection.

OLS, ridge and GCV all run through one SVD workspace per candidate submatrix,
built once per dataset, so scoring one response vector and a whole block of
bootstrap responses follow identical arithmetic.  ``select_fit`` minimises the
configured criterion over every (candidate, lambda) pair with a deterministic
tie-break: fewer columns first, then smaller lambda, then lower model id.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateScoreError,
    DegreesOfFreedomError,
    SelectionFailureError,
    SingularDesignError,
)
from .rng import generator

# Reciprocal-condition floor for X_j'X_j below which a lambda=0 solve is refused.
RCOND_MIN = 1e-12
# Relative floor under which tr(I - H) is treated as zero (saturated fit).
_TRACE_EPS = 1e-12


def default_lambda_grid() -> np.ndarray:
    """Zero plus 50 log-spaced penalties covering near-OLS to near-null fits."""
    return np.concatenate([[0.0], np.logspace(-4.0, 4.0, 50)])


@dataclass(frozen=True)
class Dataset:
    """Response vector ``y`` (length n) and design matrix ``X`` (n x p).

    Entries must be finite and the row count of ``X`` must equal the length
    of ``y``.  ``y`` and ``X`` are read-only copies of the caller's arrays;
    instances and the workspaces they memoise are shared freely across threads.
    """

    y: np.ndarray
    X: np.ndarray
    column_names: tuple[str, ...] | None = None
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        y = np.array(self.y, dtype=float, ndmin=1)
        X = np.array(self.X, dtype=float)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-dimensional, got shape {X.shape}")
        if y.ndim != 1:
            raise ValueError(f"y must be 1-dimensional, got shape {y.shape}")
        n, p = X.shape
        if n < 1 or p < 1:
            raise ValueError(f"design must be at least 1x1, got {n}x{p}")
        if y.shape[0] != n:
            raise ValueError(f"row count of X ({n}) must equal length of y ({y.shape[0]})")
        if not np.all(np.isfinite(y)):
            raise ValueError("y contains non-finite entries")
        if not np.all(np.isfinite(X)):
            raise ValueError("X contains non-finite entries")
        y.setflags(write=False)
        X.setflags(write=False)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "X", X)
        if self.column_names is not None:
            names = tuple(str(c) for c in self.column_names)
            if len(names) != p:
                raise ValueError(f"{len(names)} column names for {p} columns")
            object.__setattr__(self, "column_names", names)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    def _derived(self, key, build):
        """``build()`` memoised under ``key``; racing threads get the first one stored."""
        return self._memo[key] if key in self._memo else self._memo.setdefault(key, build())


@dataclass(frozen=True)
class CandidateModel:
    """A candidate model: an ordered subset of design-matrix columns.

    Column indices are 0-based.  Bounds are checked against the dataset at
    use time; distinctness and non-emptiness are checked here.
    """

    id: object
    columns: tuple[int, ...]

    def __post_init__(self):
        cols = tuple(int(c) for c in self.columns)
        if len(cols) == 0:
            raise ValueError(f"model {self.id!r}: column set is empty")
        if len(set(cols)) != len(cols):
            raise ValueError(f"model {self.id!r}: column indices must be distinct")
        if any(c < 0 for c in cols):
            raise ValueError(f"model {self.id!r}: negative column index")
        object.__setattr__(self, "columns", cols)


@dataclass(frozen=True)
class SelectorConfig:
    """Candidate set, penalty grid and scoring criterion for ``select_fit``.

    ``criterion`` is ``"gcv"`` (closed form, default) or ``"kfold"`` (summed
    squared held-out error over ``cv_folds`` seeded random folds).  Both score
    a candidate's whole lambda grid per product on memoised workspaces, kfold
    on the training block of each of its folds.  kfold needs at least
    ``cv_folds`` rows in the dataset it selects on; under CV tuning that
    dataset is a tuning fold's training block, smaller than the full data.
    """

    candidates: tuple[CandidateModel, ...]
    lambda_grid: tuple[float, ...]
    criterion: str = "gcv"
    cv_folds: int = 5
    cv_seed: int = 0

    def __post_init__(self):
        cands = tuple(self.candidates)
        if len(cands) == 0:
            raise ValueError("at least one candidate model is required")
        ids = [c.id for c in cands]
        if len(set(ids)) != len(ids):
            raise ValueError("candidate model ids must be unique")
        grid = tuple(float(l) for l in self.lambda_grid)
        if len(grid) == 0:
            raise ValueError("lambda_grid must be nonempty")
        if any(not l >= 0 for l in grid):
            raise ValueError("lambda_grid entries must be >= 0")
        if any(b < a for a, b in zip(grid, grid[1:])):
            raise ValueError("lambda_grid must be sorted ascending")
        if self.criterion not in ("gcv", "kfold"):
            raise ValueError(f"unknown criterion {self.criterion!r}")
        if self.criterion == "kfold" and self.cv_folds < 2:
            raise ValueError("cv_folds must be >= 2")
        object.__setattr__(self, "candidates", cands)
        object.__setattr__(self, "lambda_grid", grid)


@dataclass(frozen=True)
class FitResult:
    """Fitted coefficients embedded in the full p-dimensional space.

    Coefficients are exactly zero at indices outside the selected model's
    columns.  ``residual_ss`` is ``||y - X beta||^2`` on the training data.
    """

    coefficients: np.ndarray
    model_id: object
    lam: float
    residual_ss: float

    def __post_init__(self):
        coef = np.asarray(self.coefficients, dtype=float)
        if not np.all(np.isfinite(coef)):
            raise ValueError("coefficients contain non-finite entries")
        object.__setattr__(self, "coefficients", coef)
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        if self.residual_ss < 0:
            raise ValueError("residual_ss must be >= 0")


class _DesignScorer:
    """SVD workspace for one candidate submatrix.

    Holds ``X_j = U diag(s) V'`` and serves ridge solves, hat-matrix traces
    and GCV scores for blocks of response columns, all in one code path.
    """

    def __init__(self, X_sub: np.ndarray, model: CandidateModel, columns: np.ndarray):
        self.model = model
        self.columns = np.asarray(columns, dtype=int)
        self.n, self.k = X_sub.shape
        U, s, Vt = np.linalg.svd(X_sub, full_matrices=False)
        self.U = U
        self.s = s
        self.s2 = s * s
        self.V = np.ascontiguousarray(Vt.T)
        smax = float(s[0]) if s.size else 0.0
        self.gram_rcond = float((s[-1] / s[0]) ** 2) if smax > 0.0 else 0.0
        self.full_rank = self.n >= self.k and self.gram_rcond >= RCOND_MIN

    @classmethod
    def for_data(cls, data: Dataset, model: CandidateModel) -> "_DesignScorer":
        cols = np.asarray(model.columns, dtype=int)
        if cols.max() >= data.p:
            raise ValueError(
                f"model {model.id!r}: column index {int(cols.max())} out of range for p={data.p}"
            )
        # the id's type is part of the key: 1, 1.0 and True are equal ids
        key = ("scorer", type(model.id), model)
        return data._derived(key, lambda: cls(data.X[:, cols], model, cols))

    def require_full_rank(self, context: str) -> None:
        if self.n < self.k:
            raise SingularDesignError(
                f"{context}: n={self.n} rows cannot identify k={self.k} columns "
                f"(model {self.model.id!r})"
            )
        if not self.full_rank:
            raise SingularDesignError(
                f"{context}: X'X for model {self.model.id!r} has reciprocal condition "
                f"{self.gram_rcond:.3e} < {RCOND_MIN:g} (k={self.k} columns)"
            )

    def coef_block(self, Y: np.ndarray, lam: float) -> np.ndarray:
        """Ridge coefficients ``(X'X + lam I)^-1 X'Y`` per column of Y; (k, B)."""
        f = self.s / (self.s2 + lam)
        return self.V @ (f[:, None] * (self.U.T @ Y))

    def lambda_table(self, grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """GCV weights ``(1 - d)^2`` (L, r), ``tr(I - H)`` (L,) and validity (L,).

        ``d = s^2 / (s^2 + lam)`` over the r = min(n, k) singular values is
        exactly 1 at lambda = 0.  A lambda is scoreable when the trace exceeds
        ``n * _TRACE_EPS`` and, at lambda = 0, the design has full column rank.
        """
        lam = np.asarray(grid, dtype=float)[:, None]
        d = np.divide(self.s2, self.s2 + lam, out=np.ones((len(lam), self.s2.size)), where=lam > 0)
        denom = self.n - d.sum(axis=1)
        valid = (denom > self.n * _TRACE_EPS) & ((lam[:, 0] > 0.0) | self.full_rank)
        return (1.0 - d) ** 2, denom, valid

    def gcv_scores(self, Y: np.ndarray, w, denom, valid) -> np.ndarray:
        """GCV ``n RSS / tr(I - H)^2`` per lambda-table row; (L, B), +inf where invalid."""
        UtY = self.U.T @ Y
        sq = UtY * UtY
        perp = np.einsum("ij,ij->j", Y, Y) - sq.sum(axis=0)
        np.maximum(perp, 0.0, out=perp)
        out = np.full((len(denom), Y.shape[1]), np.inf)
        out[valid] = self.n * (w[valid] @ sq + perp) / (denom * denom)[valid, None]
        return out

    def heldout_table(self, X_va: np.ndarray, grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``X_va V`` on this design's columns, ``s / (s^2 + lam)`` (L, r) and validity (L,)."""
        lam = np.asarray(grid, dtype=float)[:, None]
        valid = (lam[:, 0] > 0.0) | self.full_rank  # lambda = 0 needs full column rank
        f = np.zeros((len(lam), self.s.size))
        np.divide(self.s, self.s2 + lam, out=f, where=valid[:, None])
        return X_va[:, self.columns] @ self.V, f, valid

    def heldout_errors(self, Y_tr, Y_va, XvaV, f, valid) -> np.ndarray:
        """Squared ``Y_va`` error of ridge fits to ``Y_tr``; (L, B), +inf where invalid."""
        resid = Y_va - XvaV @ (f[:, :, None] * (self.U.T @ Y_tr))
        return np.where(valid[:, None], np.einsum("lij,lij->lj", resid, resid), np.inf)

    def fit(self, data: Dataset, lam: float) -> FitResult:
        """Ridge fit of ``data.y``, embedded in the full p-space."""
        coef = np.zeros(data.p)
        coef[self.columns] = self.coef_block(data.y[:, None], lam)[:, 0]
        resid = data.y - data.X @ coef
        return FitResult(coef, self.model.id, lam, float(resid @ resid))


def kfold_split(n: int, k: int, seed: int, mode: str = "random") -> list[np.ndarray]:
    """Partition ``range(n)`` into K blocks with sizes differing by at most 1.

    ``mode="random"`` permutes indices with the seeded generator before
    splitting; ``mode="contiguous"`` keeps index order (time-ordered data).
    Blocks are returned with sorted indices.
    """
    if not 2 <= k <= n:
        raise ValueError(f"k must satisfy 2 <= k <= n, got k={k}, n={n}")
    if mode == "random":
        order = generator(seed).permutation(n)
    elif mode == "contiguous":
        order = np.arange(n)
    else:
        raise ValueError(f"unknown fold mode {mode!r}")
    sizes = np.full(k, n // k)
    sizes[: n % k] += 1
    blocks, start = [], 0
    for s in sizes:
        blocks.append(np.sort(order[start : start + s]))
        start += s
    return blocks


def _training_block(data: Dataset, folds: list[np.ndarray], held: int) -> Dataset:
    """Rows outside fold ``held``, memoised on ``data`` (kept for its lifetime)."""
    rows = np.sort(np.concatenate([f for i, f in enumerate(folds) if i != held]))
    return data._derived(("rows", rows.tobytes()), lambda: Dataset(data.y[rows], data.X[rows]))


def _id_key(model_id) -> tuple:
    # ints and strings both order deterministically without cross-type compares
    if isinstance(model_id, bool):
        return (2, 0.0, str(model_id))
    if isinstance(model_id, (int, float)):
        return (0, float(model_id), "")
    return (1, 0.0, str(model_id))


class _PairSelector:
    """All (candidate, lambda) pairs of a selector in tie-break order.

    Pairs are sorted by (column count, lambda, model id), so a plain argmin
    over the score matrix realises the documented tie-break: ``np.argmin``
    returns the first index attaining the minimum.
    """

    def __init__(self, data: Dataset, config: SelectorConfig):
        self.data = data
        self.config = config
        self.scorers = [_DesignScorer.for_data(data, m) for m in config.candidates]
        grid = config.lambda_grid
        if config.criterion == "gcv":
            self.tables = [sc.lambda_table(grid) for sc in self.scorers]
        else:
            if config.cv_folds > data.n:
                raise ValueError(
                    f"cv_folds={config.cv_folds} exceeds the {data.n} rows of the dataset it "
                    "selects on (in CV tuning, a training block smaller than the full data)"
                )
            folds = kfold_split(data.n, config.cv_folds, config.cv_seed)
            self.folds = []  # (training rows, held-out rows, [(workspace, *table)] per candidate)
            for i, va in enumerate(folds):
                block = _training_block(data, folds, i)
                ws = [_DesignScorer.for_data(block, m) for m in config.candidates]
                tables = [(sc, *sc.heldout_table(data.X[va], grid)) for sc in ws]
                self.folds.append((np.setdiff1d(np.arange(data.n), va), va, tables))
        # ``order`` stably sorts row si * L + li (candidate si, lambda li) into tie-break order
        keys = [(sc.k, lam, _id_key(sc.model.id)) for sc in self.scorers for lam in grid]
        self.order = np.array(sorted(range(len(keys)), key=keys.__getitem__))
        self.pair_scorer_index, lam_index = np.divmod(self.order, len(grid))
        self.pair_lambda = np.asarray(grid)[lam_index]

    @classmethod
    def for_data(cls, data: Dataset, config: SelectorConfig) -> "_PairSelector":
        key = ("selector", tuple(type(m.id) for m in config.candidates), config)
        return data._derived(key, lambda: cls(data, config))

    def scores(self, Y: np.ndarray) -> np.ndarray:
        """Score matrix (pairs, B) in tie-break order; invalid pairs +inf."""
        if self.config.criterion == "gcv":
            blocks = [sc.gcv_scores(Y, *t) for sc, t in zip(self.scorers, self.tables)]
        else:
            # summed over folds; a pair unusable on any fold stays +inf
            blocks = sum(
                np.stack([sc.heldout_errors(Y[tr], Y[va], *t) for sc, *t in tables])
                for tr, va, tables in self.folds
            )
        return np.vstack(blocks)[self.order]

    def best_index(self, Y: np.ndarray, offset: int = 0) -> np.ndarray:
        """Tie-broken argmin pair index per response column."""
        sc = self.scores(Y)
        idx = np.argmin(sc, axis=0)
        bad = ~np.isfinite(sc[idx, np.arange(sc.shape[1])])
        if np.any(bad):
            b = int(np.argmax(bad))
            raise SelectionFailureError(
                f"replicate {offset + b}: no scoreable (model, lambda) pair"
            )
        return idx

    def coefficients_block(self, pair_idx: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """Full-p coefficient columns for per-column selected pairs; (p, B)."""
        out = np.zeros((self.data.p, Y.shape[1]))
        for pi in np.flatnonzero(np.bincount(pair_idx)):
            cols_b = np.nonzero(pair_idx == pi)[0]
            sc = self.scorers[int(self.pair_scorer_index[pi])]
            beta = sc.coef_block(Y[:, cols_b], self.pair_lambda[pi])
            out[np.ix_(sc.columns, cols_b)] = beta
        return out

    def fit_result(self, pair_idx: int) -> FitResult:
        sc = self.scorers[int(self.pair_scorer_index[pair_idx])]
        return sc.fit(self.data, float(self.pair_lambda[pair_idx]))


_FULL_MODEL_ID = "full"


def _full_model(data: Dataset) -> CandidateModel:
    return CandidateModel(_FULL_MODEL_ID, tuple(range(data.p)))


def ols_fit(data: Dataset) -> FitResult:
    """Ordinary least squares on the full design.

    Solves the normal equations ``X'X beta = X'y`` through the SVD of ``X``.
    Raises ``SingularDesignError`` when ``n < p`` or the design is rank
    deficient (reciprocal Gram condition below ``RCOND_MIN``).
    """
    sc = _DesignScorer.for_data(data, _full_model(data))
    sc.require_full_rank("ols_fit")
    return sc.fit(data, 0.0)


def unbiased_variance(data: Dataset, fit: FitResult) -> float:
    """Residual variance ``||y - X beta_ols||^2 / (n - p)``.

    ``fit`` must be the full-model OLS fit of the same data.
    """
    if data.n <= data.p:
        raise DegreesOfFreedomError(
            f"unbiased variance needs n > p, got n={data.n}, p={data.p}"
        )
    return float(fit.residual_ss) / (data.n - data.p)


def ridge_fit(data: Dataset, model: CandidateModel, lam: float) -> FitResult:
    """Ridge fit ``(X_j'X_j + lam I)^-1 X_j' y`` on the model's columns.

    Coefficients are embedded in the full p-space with exact zeros outside
    ``model.columns``.  ``lam = 0`` requires the submatrix to be full column
    rank.
    """
    lam = float(lam)
    if lam < 0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    sc = _DesignScorer.for_data(data, model)
    if lam == 0.0:
        sc.require_full_rank("ridge_fit at lambda=0")
    return sc.fit(data, lam)


def gcv_score(data: Dataset, model: CandidateModel, lam: float) -> float:
    """Generalized cross-validation score ``n RSS(lam) / tr(I - H(lam))^2``."""
    lam = float(lam)
    if lam < 0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    sc = _DesignScorer.for_data(data, model)
    if lam == 0.0:
        sc.require_full_rank("gcv_score at lambda=0")
    w, denom, valid = sc.lambda_table((lam,))
    if not valid[0]:
        raise DegenerateScoreError(
            f"model {model.id!r} at lambda={lam:g}: tr(I - H) = {denom[0]:.3e} "
            "leaves no residual degrees of freedom"
        )
    return float(sc.gcv_scores(data.y[:, None], w, denom, valid)[0, 0])


def select_fit(data: Dataset, config: SelectorConfig) -> FitResult:
    """Fit minimising the criterion over candidates x lambda_grid.

    Unscoreable pairs (rank deficient at lambda=0, saturated trace) are
    skipped; if every pair is unscoreable a ``SelectionFailureError`` is
    raised.  Ties break toward fewer columns, then smaller lambda, then lower
    model id.
    """
    sel = _PairSelector.for_data(data, config)
    idx = int(sel.best_index(data.y[:, None])[0])
    return sel.fit_result(idx)


def ridge_prediction_variance(
    data: Dataset, model: CandidateModel, lam: float, x_new: np.ndarray, sigma2: float
) -> float:
    """Sandwich variance of a ridge prediction at ``x_new``.

    Evaluates ``sigma2 * x_j' (G + lam I)^-1 G (G + lam I)^-1 x_j`` with
    ``G = X_j'X_j`` and ``x_j`` the entries of ``x_new`` on the model's
    columns.  This is the no-smoothing baseline variance used for comparison
    intervals.
    """
    x_new = np.asarray(x_new, dtype=float)
    if x_new.shape != (data.p,):
        raise ValueError(f"x_new must have shape ({data.p},), got {x_new.shape}")
    sc = _DesignScorer.for_data(data, model)
    vx = sc.V.T @ x_new[sc.columns]
    g = sc.s / (sc.s2 + float(lam))
    return float(sigma2) * float(np.sum((g * vx) ** 2))
