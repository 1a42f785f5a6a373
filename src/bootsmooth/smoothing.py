"""Parametric bootstrap smoothing of a model-selection pipeline.

Bootstrap response vectors are drawn from
``N(gamma * X b_ols + (1 - gamma) * y, sigma2 I)``, the full (model, lambda)
selection is rerun on every replicate, and the replicate coefficient vectors
are averaged.  The module also provides the delta-method variance of the
smoothed prediction in two algebraically equivalent forms and the resulting
prediction interval.

A fit derives the Philox keys of all its replicates once and processes
the replicates serially in chunks of ``REPLICATE_CHUNK`` (256), the last
one partial.  Each chunk's response sums and cross moments are added to
running totals in chunk order, so the GEMM shapes and the summation order,
and with them the output bytes, depend only on the inputs.  Those moments
feed only the delta-method variance: a fit made with ``moments=False`` (a
study cell) skips them, and the variance and interval functions refuse it.
:func:`_smoothed_cells` smooths the cells of a CV fold together, in full
blocks of ``REPLICATE_CHUNK`` columns, each cell to the bytes it has alone:
a block takes its columns' keys as a slice of their key pass, and their
resampling means and scales through each column's cell, ``column // B``;
the coefficient rows of the cells one key pass holds are averaged together.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import DegreesOfFreedomError, NumericalError, SelectionFailureError
from .rng import keyed_generator, replicate_keys
from .selection import (
    Dataset,
    SelectorConfig,
    _PairSelector,
    _feature_rows,
    _full_model,
    _workspace,
    ols_fit,
)

# Replicates per chunk.  A constant: the chunk layout fixes the GEMM shapes
# and the order of the running sums, and with them the output bytes.  Each
# chunk pays a fixed cost in small numpy calls to select and solve, under
# GCV 16 plus 4 per candidate and 5 per selected candidate (some 38 on a
# fit_demand CV chunk), which wider chunks spread over more replicates,
# while its n x width blocks grow with the width: at 512 a fit on n = 400
# rows ran slower than at 256.
REPLICATE_CHUNK = 256

# Replicate b's generator: the one Philox generator re-keyed to stream
# (seed, b).  Every replicate's stream set-up is one call through this name,
# which bench/tracer.py wraps to count them.
generator = keyed_generator

# Negative variances larger than this magnitude indicate a bug, not rounding.
_VARIANCE_CLAMP = 1e-12


@dataclass(frozen=True)
class ResamplingDistribution:
    """Gaussian resampling law ``N(gamma X b_ols + (1-gamma) y, sigma2 I)``.

    ``sigma2 = 0`` is permitted as a documented degenerate mode: replicates
    collapse onto the mean vector and no delta-method variance exists.
    """

    gamma: float
    sigma2: float

    def __post_init__(self):
        g = float(self.gamma)
        s2 = float(self.sigma2)
        if not 0.0 <= g <= 1.0:
            raise ValueError(f"gamma must be in [0, 1], got {g}")
        if not 0.0 <= s2 < np.inf:
            raise ValueError(f"sigma2 must be finite and >= 0, got {s2}")
        object.__setattr__(self, "gamma", g)
        object.__setattr__(self, "sigma2", s2)


@dataclass
class PbsFit:
    """Smoothed coefficients plus the per-replicate fits behind them.

    ``coefficients`` stacks the replicate coefficient vectors (B x p);
    ``beta_pbs`` is their arithmetic mean.  Replicate ``b`` selected model
    ``model_ids[b]`` with penalty ``lambdas[b]``.  The bootstrap response
    vectors are not kept: ``cross_moment`` (the response/coefficient cross
    moment, centered at ``mean_vector`` and at ``center_coefficients``, the
    OLS coefficients of the fitted data) and
    ``ybar_star`` are the sufficient statistics of the delta-method
    covariance.  The vectors themselves are
    ``draw_replicates(mean_vector, sigma2, B, seed)``.
    """

    beta_pbs: np.ndarray
    coefficients: np.ndarray
    model_ids: list
    lambdas: np.ndarray
    cross_moment: np.ndarray
    ybar_star: np.ndarray
    mean_vector: np.ndarray
    center_coefficients: np.ndarray
    distribution: ResamplingDistribution
    seed: int
    B: int


@dataclass(frozen=True)
class PredictionInterval:
    """Symmetric normal-quantile prediction interval."""

    center: float
    half_width: float
    level: float
    variance_components: dict

    def __post_init__(self):
        # Written so that NaN fails each check.
        if not self.half_width >= 0:
            raise ValueError(f"half_width must be >= 0, got {self.half_width}")
        if not 0.0 < self.level < 1.0:
            raise ValueError("level must be in (0, 1)")
        for key in ("smoothing", "residual"):
            if not self.variance_components.get(key, 0.0) >= 0:
                raise ValueError(f"variance component {key!r} must be >= 0")

    @property
    def lower(self) -> float:
        return self.center - self.half_width

    @property
    def upper(self) -> float:
        return self.center + self.half_width


def resampling_mean(data: Dataset, gamma: float) -> np.ndarray:
    """Resampling mean ``gamma X b_ols + (1 - gamma) y``, ``b_ols`` the memoised
    :func:`ols_fit` of ``data``; exact at endpoints.

    Memoised on ``data`` per ``gamma``, as :func:`ols_fit` is: a later call
    returns the same read-only array.
    """
    center = ols_fit(data).coefficients
    gamma = float(gamma)
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must be in [0, 1], got {gamma}")
    return _mean_vector(data, center, gamma)


def _mean_vector(data: Dataset, center: np.ndarray, gamma: float) -> np.ndarray:
    """The memo of :func:`resampling_mean`; ``center`` is ``ols_fit(data).coefficients``."""

    def build() -> np.ndarray:
        mean = gamma * (data.X @ center) + (1.0 - gamma) * data.y
        mean.setflags(write=False)
        return mean

    # keyed by gamma's bits: -0.0 and 0.0 can round a mean's zeros to other signs
    return data._derived(("mean", gamma.hex()), build)


def _draw_block(mean: np.ndarray, sd, keys: list, width: int = 0) -> np.ndarray:
    """One column ``mean + sd * z`` per Philox key in ``keys``, zero-padded to ``width``
    columns if given; ``mean`` is (n, 1) or per column, ``sd`` a float or per column."""
    # Each replicate fills one contiguous row; one pass transposes the chunk.
    Z = np.empty((len(keys), mean.shape[0]))
    for key, row in zip(keys, Z):
        generator(key).standard_normal(out=row)
    out = np.zeros((mean.shape[0], width)) if width else np.empty(Z.T.shape)
    block = np.multiply(Z.T, sd, out=out[:, : len(keys)])
    block += mean
    return out


def _replicate_count(B) -> int:
    """``B`` as an int; a ``ValueError`` unless it is an integer >= 1."""
    try:
        count = operator.index(B)
    except TypeError:
        count = 0
    if count < 1:
        raise ValueError(f"B must be an integer >= 1, got {B!r}")
    return count


def draw_replicates(mean: np.ndarray, sigma2: float, B: int, seed: int) -> np.ndarray:
    """B rows drawn from ``N(mean, sigma2 I)``, reproducible from ``seed``.

    Replicate ``b`` consumes its own counter-based stream derived from
    ``(seed, b)``, so the result is independent of chunking.  ``sigma2 = 0``
    returns ``mean`` in every row exactly.
    """
    mean = np.asarray(mean, dtype=float)
    if mean.ndim != 1:
        raise ValueError("mean must be a vector")
    if not np.isfinite(mean).all():
        raise ValueError("mean must be finite")
    sigma2 = float(sigma2)
    if not 0.0 <= sigma2 < np.inf:
        raise ValueError(f"sigma2 must be finite and >= 0, got {sigma2}")
    B = _replicate_count(B)
    sd = float(np.sqrt(sigma2))
    return _draw_block(mean[:, None], sd, replicate_keys(seed, 0, B).tolist()).T


def pbs_fit(
    data: Dataset,
    dist: ResamplingDistribution,
    B: int,
    selector: SelectorConfig,
    seed: int,
    *,
    moments: bool = True,
) -> PbsFit:
    """Run the full selection pipeline on B bootstrap replicates and average.

    Parameters
    ----------
    data : Dataset
        Observed response and design; the full design must be OLS-estimable.
    dist : ResamplingDistribution
        (gamma, sigma2) of the resampling law.
    B : int
        Bootstrap sample size.
    selector : SelectorConfig
        Candidate models and penalty grid applied to every replicate.
    seed : int
        Master seed; replicate b uses the substream (seed, b).
    moments : bool
        Accumulate ``cross_moment`` and ``ybar_star``, which only the
        delta-method variance reads; False leaves them None and changes no
        other field's bytes.
    """
    B = _replicate_count(B)
    # The one OLS fit; it refuses a rank-deficient design.  ``dist`` has
    # checked gamma, so the mean is that of resampling_mean.
    center = ols_fit(data).coefficients
    mean = _mean_vector(data, center, dist.gamma)
    sd = math.sqrt(dist.sigma2)
    sel = _PairSelector.for_data(data, selector)

    keys = replicate_keys(seed, 0, B).tolist()
    coeffs = np.empty((B, data.p))
    lambdas = np.empty(B)
    model_ids: list = [None] * B
    # Running sums, added to in chunk order; any other order would change
    # the output bytes.
    ysum = np.zeros(data.n) if moments else None
    cross = np.zeros((data.n, data.p)) if moments else None

    for lo in range(0, B, REPLICATE_CHUNK):
        hi = min(lo + REPLICATE_CHUNK, B)
        Y = _draw_block(mean[:, None], sd, keys[lo:hi])
        idx, C = sel.select(Y, offset=lo)
        coeffs[lo:hi] = C.T
        model_ids[lo:hi] = [sel.pair_model_id[i] for i in idx.tolist()]
        lambdas[lo:hi] = sel.pair_lambda[idx]
        if moments:
            u = Y - mean[:, None]
            c = C - center[:, None]
            ysum += Y.sum(axis=1)
            cross += u @ c.T

    return PbsFit(
        beta_pbs=np.add.reduce(coeffs, axis=0) / B,
        coefficients=coeffs,
        model_ids=model_ids,
        lambdas=lambdas,
        cross_moment=cross / B if moments else None,
        ybar_star=ysum / B if moments else None,
        mean_vector=mean,
        center_coefficients=center,
        distribution=dist,
        seed=int(seed),
        B=B,
    )


def _smoothed_cells(data: Dataset, groups, B: int, selector: SelectorConfig):
    """Each cell's smoothed coefficients, averaged as :func:`pbs_fit` averages
    them, in order.

    ``groups`` yields ``(dists, keys)``: the distributions of consecutive
    cells and their replicate keys, (cells, B, 2) uint64, such as the cells
    of one key pass.  The cells' replicates, end to end, are drawn, selected
    and solved in blocks of exactly ``REPLICATE_CHUNK`` columns, the last
    zero-padded; column c of a group is replicate ``c % B`` of its cell
    ``c // B``.  A group's coefficient rows are reduced together once its
    last column is solved.
    """
    B = _replicate_count(B)
    center = ols_fit(data).coefficients
    sel = _PairSelector.for_data(data, selector)
    block, width = [], 0  # the block being filled: (group, first column, end column, block column) per piece

    def solve():
        keys, means, sds = [], [], []
        for (_, flat, mean, sd, _), lo, hi, _ in block:
            cell = np.arange(lo, hi) // B
            keys += flat[lo:hi].tolist()
            means.append(mean[:, cell])
            sds.append(sd[cell])
        Y = _draw_block(np.hstack(means), np.concatenate(sds), keys, REPLICATE_CHUNK)
        try:
            C = sel.select(Y)[1]
        except SelectionFailureError as exc:  # named by its cell and its replicate in the cell
            (dists, *_), lo, _, start = [piece for piece in block if piece[3] <= exc.column][-1]
            cell, replicate = divmod(lo + exc.column - start, B)
            where = f"sigma2={dists[cell].sigma2!r}, gamma={dists[cell].gamma!r}: replicate {replicate}"
            raise SelectionFailureError(f"{where}: no scoreable (model, lambda) pair") from exc
        for (dists, *_, rows), lo, hi, start in block:
            rows[lo:hi] = C[:, start : start + hi - lo].T
            if hi == len(rows):
                yield from np.add.reduce(rows.reshape(len(dists), B, -1), axis=1) / B

    for dists, keys in groups:
        mean = np.stack([_mean_vector(data, center, dist.gamma) for dist in dists], axis=1)
        sd = np.array([math.sqrt(dist.sigma2) for dist in dists])
        group = (dists, keys.reshape(-1, 2), mean, sd, np.empty((len(dists) * B, data.p)))
        lo = 0
        while lo < len(dists) * B:
            hi = min(len(dists) * B, lo + REPLICATE_CHUNK - width)
            block.append((group, lo, hi, width))
            width += hi - lo
            lo = hi
            if width == REPLICATE_CHUNK:
                yield from solve()
                block, width = [], 0
    if block:
        yield from solve()


def _finalize_variance(value: float, context: str) -> float:
    if value < 0.0:
        if value >= -_VARIANCE_CLAMP:
            return 0.0
        raise NumericalError(
            f"{context}: computed variance {value:.3e} is negative beyond rounding "
            f"tolerance {_VARIANCE_CLAMP:g}"
        )
    return float(value)


def _check_variance_inputs(fit: PbsFit, data: Dataset, x_rows) -> np.ndarray:
    """``x_rows`` as finite (m, p) float rows, a (p,) row as one; refuses a fit
    made without moments and sigma2 = 0."""
    if fit.cross_moment is None:
        raise ValueError(
            "the fit was made with moments=False and has no cross moment; "
            "refit with moments=True for a delta-method variance"
        )
    x_rows = np.atleast_2d(_feature_rows(x_rows, data.p))
    if fit.distribution.sigma2 == 0.0:
        raise NumericalError(
            "sigma2 = 0 is the degenerate resampling mode: replicates are "
            "constant and the delta-method variance is undefined"
        )
    return x_rows


def smoothed_variance(fit: PbsFit, data: Dataset, x_new: np.ndarray) -> float:
    """Delta-method variance of the smoothed prediction, projector form.

    Computes ``cov' {gamma H + (1-gamma) I}^2 cov / sigma2`` with
    ``H = X (X'X)^-1 X'`` and ``cov`` the empirical covariance between
    replicate predictions and replicate response vectors.  At ``gamma = 1`` this
    coincides with the Gram form (:func:`smoothed_variance_via_gram`) because
    ``H`` is idempotent.
    """
    x_new = np.asarray(x_new, dtype=float)
    return float(smoothed_variances(fit, data, x_new[None, ...])[0])


def smoothed_variances(fit: PbsFit, data: Dataset, x_rows: np.ndarray) -> np.ndarray:
    """Projector-form delta-method variance for each row of ``x_rows``; (m,)."""
    x_rows = _check_variance_inputs(fit, data, x_rows)
    cov = _cov_matrix(fit, x_rows)
    sc = _workspace(data, _full_model(data), 0.0, "smoothed_variance")
    hc = sc.U @ (sc.U.T @ cov)
    g = fit.distribution.gamma
    w = g * hc + (1.0 - g) * cov
    values = np.einsum("ij,ij->j", w, w) / fit.distribution.sigma2
    return np.array(
        [_finalize_variance(float(v), "smoothed_variance") for v in values]
    )


def _cov_matrix(fit: PbsFit, x_rows: np.ndarray) -> np.ndarray:
    """Empirical covariances ``(1/B) sum_b (mu_b - mu_pbs)(y*_b - ybar*)``.

    One (n,) column per target row; (n, m).  Read off the centered
    sufficient statistics accumulated during the fit.
    """
    cbar_x = x_rows @ (fit.beta_pbs - fit.center_coefficients)
    ubar = fit.ybar_star - fit.mean_vector
    return fit.cross_moment @ x_rows.T - np.outer(ubar, cbar_x)


def smoothed_variance_via_gram(fit: PbsFit, data: Dataset, x_new: np.ndarray) -> float:
    """Delta-method variance routed through the Gram inverse.

    Computes ``c' (X'X)^-1 c / sigma2`` with ``c = X' cov``, the covariance
    taken against ``X' y*_b`` instead of the raw response vectors.  Matches
    :func:`smoothed_variance` at ``gamma = 1``.
    """
    x_rows = _check_variance_inputs(fit, data, np.asarray(x_new, dtype=float)[None, ...])
    cov = _cov_matrix(fit, x_rows)[:, 0]
    sc = _workspace(data, _full_model(data), 0.0, "smoothed_variance_via_gram")
    c = data.X.T @ cov
    z = (sc.V.T @ c) / sc.s
    value = float(z @ z) / fit.distribution.sigma2
    return _finalize_variance(value, "smoothed_variance_via_gram")


def residual_variance_pbs(fit: PbsFit, data: Dataset) -> float:
    """Residual variance around the smoothed fit, ``||y - X beta_pbs||^2 / (n-p)``."""
    if data.n <= data.p:
        raise DegreesOfFreedomError(
            f"residual variance needs n > p, got n={data.n}, p={data.p}"
        )
    r = data.y - data.X @ fit.beta_pbs
    return float(r @ r) / (data.n - data.p)


def two_sided_z(alpha: float) -> float:
    """Standard-normal quantile ``z_{alpha/2}``, the upper ``alpha/2`` point.

    Taken from the lower tail, ``-Phi^{-1}(alpha/2)``: ``alpha/2`` is exact,
    while rounding ``1 - alpha/2`` would cost relative accuracy in ``z`` as
    ``alpha`` gets small (about 3e-12 at ``alpha = 1e-6``).
    """
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    return -NormalDist().inv_cdf(alpha / 2.0)


def _pbs_intervals(fit: PbsFit, data: Dataset, x_rows: np.ndarray, z: float):
    """Smoothed centers and half widths ``z * sqrt(smoothing + residual)`` per row.

    Returns ``(centers, half_widths, smoothing_variances, residual_variance)``;
    the first three are (m,) arrays over the rows of ``x_rows``.
    """
    rv = residual_variance_pbs(fit, data)
    sv = smoothed_variances(fit, data, x_rows)
    return x_rows @ fit.beta_pbs, z * np.sqrt(sv + rv), sv, rv


def prediction_interval(
    fit: PbsFit, data: Dataset, x_new: np.ndarray, alpha: float
) -> PredictionInterval:
    """Two-sided prediction interval for the response at ``x_new``.

    Half width is ``z_{alpha/2} * sqrt(smoothing + residual)`` where the
    smoothing component is the delta-method variance of the smoothed
    prediction and the residual component estimates the new observation's
    noise variance.  The one-row case of the intervals the CLI reports.
    """
    z = two_sided_z(alpha)
    x_row = np.asarray(x_new, dtype=float)[None, ...]
    centers, half_widths, sv, rv = _pbs_intervals(fit, data, x_row, z)
    return PredictionInterval(
        center=float(centers[0]),
        half_width=float(half_widths[0]),
        level=1.0 - float(alpha),
        variance_components={"smoothing": float(sv[0]), "residual": rv},
    )
