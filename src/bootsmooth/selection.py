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
    of ``y``.  ``y`` and ``X`` are read-only copies of the caller's arrays, so
    the workspaces an instance memoises stay valid for its lifetime.
    """

    y: np.ndarray
    X: np.ndarray
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

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    def _derived(self, key, build):
        """``build()`` memoised under ``key``."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]


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

    ``lambda_grid`` None means :func:`default_lambda_grid`.
    ``criterion`` is ``"gcv"`` (closed form, default) or ``"kfold"`` (summed
    squared held-out error over ``cv_folds`` seeded random folds).  Both score
    a candidate's whole lambda grid per product on memoised workspaces, kfold
    on the training block of each of its folds.  kfold needs at least
    ``cv_folds`` rows in the dataset it selects on; under CV tuning that
    dataset is a tuning fold's training block, smaller than the full data.
    """

    candidates: tuple[CandidateModel, ...]
    lambda_grid: tuple[float, ...] | None = None
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
        lam = default_lambda_grid() if self.lambda_grid is None else self.lambda_grid
        grid = tuple(float(l) for l in lam)
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
        # NaN fails both comparisons, so it is refused too.
        if not self.lam >= 0:
            raise ValueError(f"lam must be >= 0, got {self.lam}")
        if not self.residual_ss >= 0:
            raise ValueError(f"residual_ss must be >= 0, got {self.residual_ss}")


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

    def gcv_scores(self, Y: np.ndarray, yy: np.ndarray, w: np.ndarray, dd: np.ndarray) -> np.ndarray:
        """GCV ``n RSS / tr(I - H)^2`` per row of ``w``; (rows, B).

        ``yy`` holds the squared column norms of Y, ``w`` the GCV weights and
        ``dd`` (rows, 1) the squared traces of scoreable lambda-table rows.
        """
        UtY = self.U.T @ Y
        sq = UtY * UtY
        perp = yy - sq.sum(axis=0)
        np.maximum(perp, 0.0, out=perp)
        return self.n * (w @ sq + perp) / dd

    def ridge_factors(self, grid) -> tuple[np.ndarray, np.ndarray]:
        """``s / (s^2 + lam)`` (L, r), zero where lambda is unusable, and validity (L,).

        lambda = 0 is usable only on a design of full column rank.  The one
        computation of the ridge factors behind every solve.
        """
        lam = np.asarray(grid, dtype=float)[:, None]
        valid = (lam[:, 0] > 0.0) | self.full_rank
        f = np.zeros((len(lam), self.s.size))
        np.divide(self.s, self.s2 + lam, out=f, where=valid[:, None])
        return f, valid

    def heldout_errors(self, Y_tr, Y_va, XvaV, f, valid) -> np.ndarray:
        """Squared ``Y_va`` error of ridge fits to ``Y_tr``; (L, B), +inf where invalid."""
        resid = Y_va - XvaV @ (f[:, :, None] * (self.U.T @ Y_tr))
        return np.where(valid[:, None], np.einsum("lij,lij->lj", resid, resid), np.inf)

    def fit(self, data: Dataset, lam: float) -> FitResult:
        """Ridge fit ``(X'X + lam I)^-1 X'y`` of ``data.y``, embedded in the full p-space."""
        f, _ = self.ridge_factors((lam,))
        coef = np.zeros(data.p)
        coef[self.columns] = (self.V @ (f.T * (self.U.T @ data.y[:, None])))[:, 0]
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

    Pair ``si * L + li`` (candidate si, lambda li) has tie-break row
    ``rank[si * L + li]``.  :meth:`scores` writes each candidate's block
    straight into those rows of one +inf matrix instead of stacking the
    blocks and reordering them.  Under GCV, each candidate keeps only its
    scoreable lambda rows: their weights, squared traces and destination
    rows, so its unscoreable rows are never computed and stay +inf.

    For :meth:`coefficients_block`, each candidate also keeps its ``V``
    embedded in the full p rows, its ridge factors ``s / (s^2 + lam)`` over
    the grid (zero where lambda = 0 is unusable) plus one zero row, (L+1, r),
    and a map from tie-break pair index to its factor row.  The map sends
    another candidate's pair to the zero row.
    """

    def __init__(self, data: Dataset, config: SelectorConfig):
        self.data = data
        self.config = config
        self.scorers = [_DesignScorer.for_data(data, m) for m in config.candidates]
        grid = config.lambda_grid
        # ``order`` stably sorts pair si * L + li into tie-break order; ``rank`` inverts it
        keys = [(sc.k, lam, _id_key(sc.model.id)) for sc in self.scorers for lam in grid]
        order = np.array(sorted(range(len(keys)), key=keys.__getitem__))
        self.rank = np.empty_like(order)
        self.rank[order] = np.arange(len(order))
        self.pair_scorer_index, lam_index = np.divmod(order, len(grid))
        self.pair_lambda = np.asarray(grid)[lam_index]
        ids = [sc.model.id for sc in self.scorers]
        self.pair_model_id = [ids[si] for si in self.pair_scorer_index.tolist()]
        self.solves = []  # (scorer, embedded V, factor table, pair -> factor row)
        for si, sc in enumerate(self.scorers):
            V = np.zeros((data.p, sc.V.shape[1]))
            V[sc.columns] = sc.V
            # the factors at lambda = inf, s / inf, are the zero row
            f, _ = sc.ridge_factors((*grid, np.inf))
            factor_row = np.where(self.pair_scorer_index == si, lam_index, len(grid))
            self.solves.append((sc, V, f, factor_row))
        if config.criterion == "gcv":
            self.tables = []  # (weights, squared traces, tie-break rows) of scoreable lambdas
            for si, sc in enumerate(self.scorers):
                w, denom, valid = sc.lambda_table(grid)
                rows = self.rank[si * len(grid) : (si + 1) * len(grid)][valid]
                self.tables.append((w[valid], (denom * denom)[valid, None], rows))
        else:
            if config.cv_folds > data.n:
                raise ValueError(
                    f"cv_folds={config.cv_folds} exceeds the {data.n} rows of the dataset it "
                    "selects on (in CV tuning, a training block smaller than the full data)"
                )
            folds = kfold_split(data.n, config.cv_folds, config.cv_seed)
            # (training rows, held-out rows, [(workspace, X_va V, factors, validity)] per candidate)
            self.folds = []
            for i, va in enumerate(folds):
                block, X_va = _training_block(data, folds, i), data.X[va]
                ws = [_DesignScorer.for_data(block, m) for m in config.candidates]
                tables = [(sc, X_va[:, sc.columns] @ sc.V, *sc.ridge_factors(grid)) for sc in ws]
                self.folds.append((np.setdiff1d(np.arange(data.n), va), va, tables))

    @classmethod
    def for_data(cls, data: Dataset, config: SelectorConfig) -> "_PairSelector":
        key = ("selector", tuple(type(m.id) for m in config.candidates), config)
        return data._derived(key, lambda: cls(data, config))

    def scores(self, Y: np.ndarray) -> np.ndarray:
        """Score matrix (pairs, B) in tie-break order; invalid pairs +inf."""
        out = np.full((len(self.rank), Y.shape[1]), np.inf)
        if self.config.criterion == "gcv":
            yy = np.einsum("ij,ij->j", Y, Y)
            for sc, (w, dd, rows) in zip(self.scorers, self.tables):
                out[rows] = sc.gcv_scores(Y, yy, w, dd)
        else:
            # summed over folds; a pair unusable on any fold stays +inf
            blocks = sum(
                np.stack([sc.heldout_errors(Y[tr], Y[va], *t) for sc, *t in tables])
                for tr, va, tables in self.folds
            )
            out[self.rank] = blocks.reshape(out.shape)
        return out

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
        """Full-p coefficient columns for per-column selected pairs; (p, B).

        One whole-block ridge solve per candidate selected by some column,
        each column at its own lambda: ``V (F * U'Y)`` with ``V`` embedded in
        the full p rows and ``F`` the column's factor row.  A column that
        selected another candidate gets the zero row, so every term of this
        candidate's product there is ``0 * x`` and adds an exact zero.
        """
        out = np.zeros((self.data.p, Y.shape[1]))
        selected = np.bincount(self.pair_scorer_index[pair_idx], minlength=len(self.solves))
        for (sc, V, f, factor_row), count in zip(self.solves, selected):
            if count:
                out += V @ (f[factor_row[pair_idx]].T * (sc.U.T @ Y))
        return out


_FULL_MODEL_ID = "full"


def _full_model(data: Dataset) -> CandidateModel:
    return CandidateModel(_FULL_MODEL_ID, tuple(range(data.p)))


def _workspace(data: Dataset, model: CandidateModel, lam: float, context: str) -> _DesignScorer:
    """The memoised workspace of ``model`` on ``data``, refused at ``lam = 0``
    unless the model's columns have full rank; ``context`` leads the message."""
    sc = _DesignScorer.for_data(data, model)
    if lam > 0.0 or sc.full_rank:
        return sc
    if sc.n < sc.k:
        raise SingularDesignError(
            f"{context}: n={sc.n} rows cannot identify k={sc.k} columns (model {model.id!r})"
        )
    raise SingularDesignError(
        f"{context}: X'X for model {model.id!r} has reciprocal condition "
        f"{sc.gram_rcond:.3e} < {RCOND_MIN:g} (k={sc.k} columns)"
    )


def ols_fit(data: Dataset) -> FitResult:
    """Ordinary least squares on the full design.

    Solves the normal equations ``X'X beta = X'y`` through the SVD of ``X``.
    Raises ``SingularDesignError`` when ``n < p`` or the design is rank
    deficient (reciprocal Gram condition below ``RCOND_MIN``), on every call.
    The fit is memoised on ``data``: a later call returns the same object,
    whose coefficients are read-only.
    """
    sc = _workspace(data, _full_model(data), 0.0, "ols_fit")

    def fit() -> FitResult:
        result = sc.fit(data, 0.0)
        result.coefficients.setflags(write=False)
        return result

    return data._derived("ols", fit)


def unbiased_variance(data: Dataset) -> float:
    """Residual variance ``||y - X beta_ols||^2 / (n - p)`` of :func:`ols_fit`'s fit."""
    fit = ols_fit(data)
    if data.n <= data.p:
        raise DegreesOfFreedomError(
            f"unbiased variance needs n > p, got n={data.n}, p={data.p}"
        )
    return float(fit.residual_ss) / (data.n - data.p)


def _penalty(lam) -> float:
    """``lam`` as a float; a ``ValueError`` if it is negative or NaN."""
    lam = float(lam)
    if not lam >= 0.0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    return lam


def _feature_row(x_new, p: int) -> np.ndarray:
    """``x_new`` as a finite (p,) float vector; a ``ValueError`` otherwise."""
    x_new = np.asarray(x_new, dtype=float)
    if x_new.shape != (p,):
        raise ValueError(f"x_new must have shape ({p},), got {x_new.shape}")
    if not np.isfinite(x_new).all():
        raise ValueError("x_new contains non-finite entries")
    return x_new


def ridge_fit(data: Dataset, model: CandidateModel, lam: float) -> FitResult:
    """Ridge fit ``(X_j'X_j + lam I)^-1 X_j' y`` on the model's columns.

    Coefficients are embedded in the full p-space with exact zeros outside
    ``model.columns``.  ``lam = 0`` requires the submatrix to be full column
    rank.
    """
    lam = _penalty(lam)
    return _workspace(data, model, lam, "ridge_fit at lambda=0").fit(data, lam)


def gcv_score(data: Dataset, model: CandidateModel, lam: float) -> float:
    """Generalized cross-validation score ``n RSS(lam) / tr(I - H(lam))^2``."""
    lam = _penalty(lam)
    sc = _workspace(data, model, lam, "gcv_score at lambda=0")
    w, denom, valid = sc.lambda_table((lam,))
    if not valid[0]:
        raise DegenerateScoreError(
            f"model {model.id!r} at lambda={lam:g}: tr(I - H) = {denom[0]:.3e} "
            "leaves no residual degrees of freedom"
        )
    Y = data.y[:, None]
    yy = np.einsum("ij,ij->j", Y, Y)
    return float(sc.gcv_scores(Y, yy, w, (denom * denom)[:, None])[0, 0])


def select_fit(data: Dataset, config: SelectorConfig) -> FitResult:
    """Fit minimising the criterion over candidates x lambda_grid.

    Unscoreable pairs (rank deficient at lambda=0, saturated trace) are
    skipped; if every pair is unscoreable a ``SelectionFailureError`` is
    raised.  Ties break toward fewer columns, then smaller lambda, then lower
    model id.
    """
    sel = _PairSelector.for_data(data, config)
    idx = int(sel.best_index(data.y[:, None])[0])
    sc = sel.scorers[int(sel.pair_scorer_index[idx])]
    return sc.fit(data, float(sel.pair_lambda[idx]))


def ridge_prediction_variance(
    data: Dataset, model: CandidateModel, lam: float, x_new: np.ndarray, sigma2: float
) -> float:
    """Sandwich variance of a ridge prediction at ``x_new``.

    Evaluates ``sigma2 * x_j' (G + lam I)^-1 G (G + lam I)^-1 x_j`` with
    ``G = X_j'X_j`` and ``x_j`` the entries of ``x_new`` on the model's
    columns.  This is the no-smoothing baseline variance used for comparison
    intervals.  ``lam = 0`` requires the submatrix to be full column rank.
    """
    lam = _penalty(lam)
    sigma2 = float(sigma2)
    if not 0.0 <= sigma2 < np.inf:
        raise ValueError(f"sigma2 must be finite and >= 0, got {sigma2}")
    x_new = _feature_row(x_new, data.p)
    sc = _workspace(data, model, lam, "ridge_prediction_variance at lambda=0")
    f, _ = sc.ridge_factors((lam,))
    return sigma2 * float(np.sum((f[0] * (sc.V.T @ x_new[sc.columns])) ** 2))
