"""Linear-model estimation and joint (model, ridge penalty) selection.

OLS, ridge and GCV all run through one SVD workspace per candidate submatrix,
built once per dataset, so scoring one response vector and a whole block of
bootstrap responses follow identical arithmetic.  ``select_fit`` minimises GCV
over every (candidate, lambda) pair with a deterministic tie-break: fewer
columns first, then smaller lambda, then lower model id.
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

# Reciprocal-condition floor for X_j'X_j, on unit-norm columns, below which a
# lambda=0 solve is refused.
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
        """``build()`` memoised under ``key``; a build that raises is not memoised."""
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = build()
        return value


@dataclass(frozen=True)
class CandidateModel:
    """A candidate model: an ordered subset of design-matrix columns.

    The id is a string or an integer (not a bool).  Column indices are
    0-based.  Bounds are checked against the dataset at use time;
    distinctness and non-emptiness are checked here.
    """

    id: str | int
    columns: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.id, (str, int)) or isinstance(self.id, bool):
            raise ValueError(f"model id must be a string or an integer, got {self.id!r}")
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
    """Candidate set and penalty grid over which ``select_fit`` minimises GCV.

    ``lambda_grid`` None means :func:`default_lambda_grid`; each field is
    named as its config key.  GCV scores a candidate's whole lambda grid per
    product on memoised workspaces.
    Its hash and its pairs' tie-break tables are computed once, when built.
    """

    candidates: tuple[CandidateModel, ...]
    lambda_grid: tuple[float, ...] | None = None

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
        if any(not 0.0 <= l < np.inf for l in grid):
            raise ValueError("lambda_grid entries must be finite and >= 0")
        if any(b < a for a, b in zip(grid, grid[1:])):
            raise ValueError("lambda_grid must be sorted ascending")
        object.__setattr__(self, "candidates", cands)
        object.__setattr__(self, "lambda_grid", grid)
        object.__setattr__(self, "_hash", hash((cands, grid)))
        # ``order`` stably sorts pair si * L + li into tie-break order; ``rank`` inverts it
        keys = [(len(c.columns), lam, _id_key(c.id)) for c in cands for lam in grid]
        order = np.array(sorted(range(len(keys)), key=keys.__getitem__))
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        scorer, lam_index = np.divmod(order, len(grid))
        ids = [cands[si].id for si in scorer.tolist()]
        object.__setattr__(self, "_pairs", (rank, scorer, lam_index, np.asarray(grid)[lam_index], ids))

    def __hash__(self):
        return self._hash


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
        object.__setattr__(self, "lam", _penalty(self.lam))
        # NaN fails the comparison, so it is refused too.
        if not self.residual_ss >= 0:
            raise ValueError(f"residual_ss must be >= 0, got {self.residual_ss}")


def _unit_gram_rcond(X: np.ndarray) -> float:
    """Reciprocal condition of ``X'X`` with the columns of ``X`` scaled to unit norm.

    It does not depend on the units of any column, and a zero column gives
    0.  Each column is divided by its largest magnitude first, so that its
    squares cannot overflow.
    """
    peak = np.abs(X).max(axis=0)
    if not peak.all():
        return 0.0
    unit = X / peak
    unit /= np.sqrt(np.einsum("ij,ij->j", unit, unit))
    eig = np.linalg.eigvalsh(unit.T @ unit)
    return max(float(eig[0]), 0.0) / float(eig[-1])


class _DesignScorer:
    """SVD workspace for one candidate submatrix.

    Holds ``X_j = U diag(s) V'`` and serves ridge solves, hat-matrix traces
    and GCV weights for blocks of response columns, all in one code path.
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
        self.gram_rcond = _unit_gram_rcond(X_sub) if self.n >= self.k else 0.0
        self.full_rank = self.n >= self.k and self.gram_rcond >= RCOND_MIN

    @classmethod
    def for_data(cls, data: Dataset, model: CandidateModel) -> "_DesignScorer":
        cols = np.asarray(model.columns, dtype=int)
        if cols.max() >= data.p:
            raise ValueError(
                f"model {model.id!r}: column index {int(cols.max())} out of range for p={data.p}"
            )
        return data._derived(("scorer", model), lambda: cls(data.X[:, cols], model, cols))

    def lambda_table(self, grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """GCV weights ``(1 - d)^2`` (L, r), ``tr(I - H)`` (L,) and validity (L,),
        as :func:`_lambda_tables` computes them."""
        return _lambda_tables([self], grid)[0][:3]

    def ridge_factors(self, grid) -> tuple[np.ndarray, np.ndarray]:
        """``s / (s^2 + lam)`` (L, r), zero where lambda is unusable, as
        :func:`_lambda_tables` computes them, and their validity (L,); the
        factors behind every solve."""
        lam = np.asarray(grid, dtype=float)[:, None]
        valid = (lam[:, 0] > 0.0) | self.full_rank
        return _ridge_factors(self.s, self.s2, lam, valid[:, None])[1], valid

    def fit(self, data: Dataset, lam: float) -> FitResult:
        """Ridge fit ``(X'X + lam I)^-1 X'y`` of ``data.y``, embedded in the full p-space."""
        f, _ = self.ridge_factors((lam,))
        coef = np.zeros(data.p)
        coef[self.columns] = (self.V @ (f.T * (self.U.T @ data.y[:, None])))[:, 0]
        resid = data.y - data.X @ coef
        return FitResult(coef, self.model.id, lam, float(resid @ resid))


def _lambda_tables(scorers, grid) -> list[tuple]:
    """Per workspace of ``scorers``, over the penalties ``grid``: its GCV weights
    ``(1 - d)^2`` (L, r), ``tr(I - H)`` (L,), GCV validity (L,) and ridge
    factors ``s / (s^2 + lam)`` (L, r), from one pass of ``s^2 + lam`` over
    the workspaces' r = min(n, k) singular values end to end.

    ``d = s^2 / (s^2 + lam)`` is exactly 1 at lambda = 0.  lambda = 0 is
    usable only on a design of full column rank (the factors are zero
    otherwise); a lambda is GCV-scoreable when it is usable and the trace
    exceeds ``n * _TRACE_EPS``.
    """
    lam = np.asarray(grid, dtype=float)[:, None]
    sizes = [sc.s.size for sc in scorers]
    usable = (lam > 0.0) | np.repeat([sc.full_rank for sc in scorers], sizes)
    s2 = np.concatenate([sc.s2 for sc in scorers])
    total, f = _ridge_factors(np.concatenate([sc.s for sc in scorers]), s2, lam, usable)
    d = np.divide(s2, total, out=np.ones(total.shape), where=lam > 0)
    w = (1.0 - d) ** 2
    tables, end = [], 0
    for sc, size in zip(scorers, sizes):
        seg, end = slice(end, end + size), end + size
        denom = sc.n - d[:, seg].sum(axis=1)
        valid = (denom > sc.n * _TRACE_EPS) & usable[:, seg.start]
        tables.append((w[:, seg], denom, valid, f[:, seg]))
    return tables


def _ridge_factors(s, s2, lam, usable) -> tuple[np.ndarray, np.ndarray]:
    """``s^2 + lam`` and the ridge factors ``s / (s^2 + lam)``, zero where not
    ``usable``; (L, r) each, over the singular values ``s``, their squares
    ``s2`` and the penalties ``lam``, (L, 1)."""
    total = s2 + lam
    return total, np.divide(s, total, out=np.zeros(total.shape), where=usable)


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
    return [np.sort(block) for block in np.array_split(order, k)]


def _id_key(model_id) -> tuple:
    # ints sort before strings, with no cross-type compare
    return (isinstance(model_id, str), model_id)


def _rows(rows: np.ndarray):
    """A candidate's scored ``rows``, which ascend with its lambdas, as a slice when consecutive."""
    if rows.size and rows[-1] - rows[0] == rows.size - 1:
        return slice(int(rows[0]), int(rows[-1]) + 1)
    return rows


class _PairSelector:
    """All (candidate, lambda) pairs of a selector in tie-break order.

    Pairs are sorted by (column count, lambda, model id), so a plain argmin
    over scores in that order realises the documented tie-break: ``np.argmin``
    returns the first index attaining the minimum.  Pair ``si * L + li``
    (candidate si, lambda li) has tie-break row ``rank[si * L + li]``.

    Scores fill a Fortran-ordered block, so the argmin reads each response
    column contiguously, one row per scoreable pair: tie-break row
    ``scored[i]`` in row i.  Each candidate owns r + 1 rows of one stacked
    block: its ``U'Y`` by its own GEMM (one over all of them rounds
    differently), squared in place, and ``max(y'y - |U'y|^2, 0)``.  Its table
    ``A = [w n/tr(I - H)^2 | n/tr(I - H)^2]'`` over its scoreable lambdas is
    built once, from one :func:`_lambda_tables` pass over all the
    candidates, so one product of those rows' transpose and ``A`` gives its
    final scores, written in place into the score block's C-ordered transpose
    when its scored rows are consecutive, as for a column count no other
    candidate shares.

    For the solve, each candidate also keeps its ``V`` embedded in the full
    p rows and, per tie-break pair, its ridge factors ``s / (s^2 + lam)`` at
    the pair's lambda, (pairs, r): zero where lambda = 0 is unusable and for
    every other candidate's pair.  :meth:`select` scores a block and solves
    it in one pass, with each selected candidate's ``U'Y`` taken again by the
    same GEMM: a chunk that also kept the unsquared block outgrew the heap
    space the C library reuses, which then trimmed and regrew it per chunk.
    """

    def __init__(self, data: Dataset, config: SelectorConfig):
        self.data = data
        self.scorers = [_DesignScorer.for_data(data, m) for m in config.candidates]
        lams = np.asarray(config.lambda_grid)
        self.rank, self.pair_scorer_index, lam_index, self.pair_lambda, self.pair_model_id = config._pairs
        ranks = self.rank.reshape(len(self.scorers), -1)  # tie-break row of pair si * L + li
        w, denom, valid, factors = zip(*_lambda_tables(self.scorers, lams))
        self.solves = []  # (U', embedded V, factors per tie-break pair)
        for sc, mine, f in zip(self.scorers, ranks, factors):
            V = np.zeros((data.p, sc.V.shape[1]))
            V[sc.columns] = sc.V
            F = np.zeros((len(self.rank), sc.s.size))
            F[mine] = f
            self.solves.append((sc.U.T, V, F))
        scoreable = np.array(valid)[self.pair_scorer_index, lam_index]
        self.scored = np.flatnonzero(scoreable)
        row = (np.cumsum(scoreable) - 1)[ranks]  # scored row of pair si * L + li
        self.perp_rows = np.cumsum([sc.s.size + 1 for sc in self.scorers]) - 1
        self.tables = []  # (rows of the stacked block, [w n/tr^2 | n/tr^2]', scored rows)
        for si, (end, ok) in enumerate(zip((self.perp_rows + 1).tolist(), valid)):
            scale = data.n / denom[si][ok, None] ** 2
            A = np.hstack([w[si][ok] * scale, scale]).T.copy()
            self.tables.append((slice(end - len(A), end), A, _rows(row[si][ok])))

    @classmethod
    def for_data(cls, data: Dataset, config: SelectorConfig) -> "_PairSelector":
        return data._derived(("selector", config), lambda: cls(data, config))

    def _score(self, Y: np.ndarray) -> np.ndarray:
        """Scores of the scored pairs, (rows, B)."""
        B = Y.shape[1]
        out = np.empty((len(self.scored), B), order="F")
        sq = np.empty((self.tables[-1][0].stop, B))
        perp = np.empty((len(self.tables), B))
        for (Ut, *_), (seg, *_), row in zip(self.solves, self.tables, perp):
            u = np.matmul(Ut, Y, out=sq[seg.start : seg.stop - 1])
            u *= u
            np.add.reduce(u, axis=0, out=row)
        np.subtract(np.einsum("ij,ij->j", Y, Y), perp, out=perp)
        sq[self.perp_rows] = np.maximum(perp, 0.0, out=perp)
        for seg, A, rows in self.tables:
            if isinstance(rows, slice):
                np.matmul(sq[seg].T, A, out=out.T[:, rows])
            else:
                out.T[:, rows] = sq[seg].T @ A
        return out

    def scores(self, Y: np.ndarray) -> np.ndarray:
        """Score matrix (pairs, B) in tie-break order; invalid pairs +inf."""
        out = np.full((len(self.rank), Y.shape[1]), np.inf)
        out[self.scored] = self._score(Y)
        return out

    def select(self, Y: np.ndarray, offset: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """Tie-broken argmin pair index per response column, (B,), and the
        full-p coefficient columns of the selected pairs, (p, B).

        One whole-block ridge solve per candidate selected by some column,
        each column at its own lambda: ``V (F * U'Y)`` with ``V`` embedded in
        the full p rows and ``F`` the factors of the column's selected pair,
        zero for a column that selected another candidate (every term of the
        product there is ``0 * x``, an exact zero).  ``offset`` is the first
        column's replicate number, for the message when a column has no
        scoreable pair.
        """
        scores = self._score(Y)
        if not len(scores):  # no scoreable pair: every column fails below
            scores = np.full((1, Y.shape[1]), np.inf)
        local = np.argmin(scores, axis=0)
        best = scores[local, np.arange(Y.shape[1])]
        if not np.isfinite(best).all():
            b = int(np.argmax(~np.isfinite(best)))
            raise SelectionFailureError(f"replicate {offset + b}: no scoreable (model, lambda) pair", b)
        idx = self.scored[local]
        out = np.zeros((self.data.p, Y.shape[1]))
        selected = np.bincount(self.pair_scorer_index[idx], minlength=len(self.solves))
        for (Ut, V, F), count in zip(self.solves, selected):
            if count:
                out += V @ (F[idx].T * (Ut @ Y))
        return idx, out


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
        f"{sc.gram_rcond:.3e} < {RCOND_MIN:g} on unit-norm columns (k={sc.k} columns)"
    )


def ols_fit(data: Dataset) -> FitResult:
    """Ordinary least squares on the full design.

    Solves the normal equations ``X'X beta = X'y`` through the SVD of ``X``.
    Raises ``SingularDesignError`` when ``n < p`` or the design is rank
    deficient (reciprocal Gram condition on unit-norm columns below
    ``RCOND_MIN``), on every call.
    The fit is memoised on ``data``: a later call returns the same object,
    whose coefficients are read-only.  The rank check runs when the fit is
    built, so a memo hit returns at once, and a failure is never memoised.
    """

    def fit() -> FitResult:
        result = _workspace(data, _full_model(data), 0.0, "ols_fit").fit(data, 0.0)
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
    """``lam`` as a float; a ``ValueError`` unless it is finite and >= 0."""
    lam = float(lam)
    if not 0.0 <= lam < np.inf:
        raise ValueError(f"lam must be finite and >= 0, got {lam}")
    return lam


def _feature_rows(x_new, p: int) -> np.ndarray:
    """``x_new`` as a finite (p,) or (m, p) float array; a ``ValueError`` otherwise."""
    x_new = np.asarray(x_new, dtype=float)
    if x_new.ndim not in (1, 2) or x_new.shape[-1] != p:
        raise ValueError(f"x_new must have shape ({p},) or (m, {p}), got {x_new.shape}")
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
    _, denom, valid = sc.lambda_table((lam,))
    if not valid[0]:
        raise DegenerateScoreError(
            f"model {model.id!r} at lambda={lam:g}: tr(I - H) = {denom[0]:.3e} "
            "leaves no residual degrees of freedom"
        )
    return float(_PairSelector(data, SelectorConfig((model,), (lam,))).scores(data.y[:, None])[0, 0])


def select_fit(data: Dataset, config: SelectorConfig) -> FitResult:
    """Fit minimising GCV over candidates x lambda_grid.

    Unscoreable pairs (rank deficient at lambda=0, saturated trace) are
    skipped; if every pair is unscoreable a ``SelectionFailureError`` is
    raised.  Ties break toward fewer columns, then smaller lambda, then lower
    model id.
    """
    sel = _PairSelector.for_data(data, config)
    # the fit is refit alone: its bytes are those of the scalar-lambda solve
    idx = int(sel.select(data.y[:, None])[0][0])
    sc = sel.scorers[int(sel.pair_scorer_index[idx])]
    return sc.fit(data, float(sel.pair_lambda[idx]))


def ridge_prediction_variance(
    data: Dataset, model: CandidateModel, lam: float, x_new: np.ndarray, sigma2: float
) -> float | np.ndarray:
    """Sandwich variance of a ridge prediction at each row of ``x_new``.

    Evaluates ``sigma2 * x_j' (G + lam I)^-1 G (G + lam I)^-1 x_j`` with
    ``G = X_j'X_j`` and ``x_j`` the entries of a row on the model's
    columns.  A (p,) row gives a float, (m, p) rows an (m,) array.  This is
    the no-smoothing baseline variance used for comparison intervals.
    ``lam = 0`` requires the submatrix to be full column rank.
    """
    lam = _penalty(lam)
    sigma2 = float(sigma2)
    if not 0.0 <= sigma2 < np.inf:
        raise ValueError(f"sigma2 must be finite and >= 0, got {sigma2}")
    x_new = _feature_rows(x_new, data.p)
    sc = _workspace(data, model, lam, "ridge_prediction_variance at lambda=0")
    f, _ = sc.ridge_factors((lam,))
    values = sigma2 * np.sum((f[0] * (x_new[..., sc.columns] @ sc.V)) ** 2, axis=-1)
    return float(values) if x_new.ndim == 1 else values
