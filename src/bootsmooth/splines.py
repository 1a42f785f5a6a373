"""B-spline bases and the hourly demand design matrix.

Provides plain (clamped open-knot) and cyclic B-spline bases, evaluated at
many points at once by one Cox-de Boor evaluator, plus construction of the
autoregressive + hour/temperature tensor-product design used for load
regressions.  A window's design and a target's feature row are rows of one
builder, and :func:`_parse_hour` is the one hour rule (of the loader, the
builder and the CLI).

The demand and temperature CSV loaders live here too: each is one call of
:func:`~bootsmooth.tabular.read_keyed` with its key parsers.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import IngestionError
from .selection import Dataset
from .tabular import iso_date, read_keyed


@dataclass(frozen=True)
class SplineBasisSpec:
    """Degree, interior knots and domain of a B-spline basis.

    Plain bases use clamped (open uniform) boundary knots, so the basis spans
    the domain edges.  Cyclic bases wrap on their domain ``[lo, hi]``, whose
    length is the derived ``period``, with the domain start acting as one knot
    site on the circle; their dimension is ``1 + len(interior_knots)``.
    """

    degree: int
    interior_knots: tuple[float, ...]
    domain: tuple[float, float]
    cyclic: bool = False

    def __post_init__(self):
        if not 0 <= self.degree <= 5:
            raise ValueError(f"degree must be in 0..5, got {self.degree}")
        lo, hi = float(self.domain[0]), float(self.domain[1])
        if not hi > lo:
            raise ValueError(f"domain must satisfy lo < hi, got [{lo}, {hi}]")
        knots = tuple(float(k) for k in self.interior_knots)
        if any(b <= a for a, b in zip(knots, knots[1:])):
            raise ValueError("interior knots must be strictly increasing")
        if knots and (knots[0] <= lo or knots[-1] >= hi):
            raise ValueError("interior knots must lie strictly inside the domain")
        object.__setattr__(self, "interior_knots", knots)
        object.__setattr__(self, "domain", (lo, hi))

    @property
    def n_basis(self) -> int:
        if self.cyclic:
            return 1 + len(self.interior_knots)
        return self.degree + 1 + len(self.interior_knots)

    @property
    def period(self) -> float | None:
        """The domain's length for a cyclic basis; None for a plain one."""
        return self.domain[1] - self.domain[0] if self.cyclic else None

    @classmethod
    def uniform(cls, degree: int, n_basis: int, lo: float, hi: float) -> "SplineBasisSpec":
        """Clamped basis with ``n_basis`` functions and uniform interior knots."""
        n_interior = n_basis - degree - 1
        # a degree outside 0..5 is the constructor's error, ahead of the count
        if n_interior < 0 and 0 <= degree <= 5:
            raise ValueError(f"n_basis must be >= degree + 1, got {n_basis}")
        knots = tuple(
            lo + (hi - lo) * (i + 1) / (n_interior + 1) for i in range(n_interior)
        )
        return cls(degree=degree, interior_knots=knots, domain=(lo, hi))

    @classmethod
    def uniform_cyclic(
        cls, degree: int, n_basis: int, lo: float, period: float
    ) -> "SplineBasisSpec":
        """Cyclic basis with ``n_basis`` uniformly spaced knot sites."""
        if n_basis < 1:
            raise ValueError("cyclic basis needs at least one knot site")
        knots = tuple(lo + period * q / n_basis for q in range(1, n_basis))
        return cls(degree=degree, interior_knots=knots, domain=(lo, lo + period), cyclic=True)


def _nonzero_basis_values(knots: np.ndarray, degree: int, x, n_basis: int) -> tuple:
    """Knot spans and the degree+1 nonzero basis values, (degree + 1, len(x)), at each point of ``x``.

    One Cox-de Boor recursion over the 1-D array ``x``: each point takes the
    floating-point operations of a one-point evaluation, so its values do
    not depend on the other points.
    """
    span = np.minimum(np.maximum(np.searchsorted(knots, x, side="right") - 1, degree), n_basis - 1)
    vals, left, right = [np.ones_like(x)], [None], [None]
    for j in range(1, degree + 1):
        left.append(x - knots[span + 1 - j])
        right.append(knots[span + j] - x)
        saved = 0.0
        for r in range(j):
            tmp = vals[r] / (right[r + 1] + left[j - r])
            vals[r] = saved + right[r + 1] * tmp
            saved = left[j - r] * tmp
        vals.append(saved)
    return span, np.array(vals)


def bspline_basis(spec: SplineBasisSpec, x: float) -> np.ndarray:
    """All basis values at ``x`` for a plain (non-cyclic) basis.

    Values are in [0, 1] and sum to 1 everywhere inside the domain.
    Evaluation outside the domain is an error, never a silent clamp.
    """
    if spec.cyclic:
        raise ValueError("spec is cyclic, use cyclic_bspline_basis")
    return _bspline_rows(spec, [float(x)])[0]


def cyclic_bspline_basis(spec: SplineBasisSpec, x: float) -> np.ndarray:
    """All basis values at ``x`` for a cyclic basis; periodic in ``spec.period``.

    The argument is reduced modulo the period, so ``f(x) == f(x + period)``
    and the partition of unity holds on the whole real line.
    """
    if not spec.cyclic:
        raise ValueError("spec is not cyclic, use bspline_basis")
    return _bspline_rows(spec, [float(x)])[0]


def _bspline_rows(spec: SplineBasisSpec, x) -> np.ndarray:
    """All basis values at each point of ``x``, one row per point; (len(x), n_basis).

    A plain basis has clamped knots and refuses the first point outside its
    domain, in order, with a ``ValueError``.  A cyclic basis reduces each
    point onto its domain, evaluates the plain basis of its q knot sites'
    periodic extension (d extra on each side) and folds column j into column
    j mod q, in ascending j.
    """
    x = np.asarray(x, dtype=float)
    lo, hi = spec.domain
    d = spec.degree
    if spec.cyclic:
        sites = np.concatenate([[lo], np.asarray(spec.interior_knots)])
        q = sites.size
        idx = np.arange(-d, q + d + 1)
        knots = sites[idx % q] + spec.period * np.floor_divide(idx, q)
        x = lo + np.mod(x - lo, spec.period)
    else:
        outside = ~((lo <= x) & (x <= hi))
        if outside.any():
            raise ValueError(f"x={float(x[outside][0])} outside basis domain [{lo}, {hi}]")
        q = spec.n_basis
        knots = np.concatenate([np.full(d + 1, lo), np.asarray(spec.interior_knots), np.full(d + 1, hi)])
    n_ordinary = knots.size - d - 1
    span, vals = _nonzero_basis_values(knots, d, x, n_ordinary)
    out = np.zeros((x.size, n_ordinary))
    out[np.arange(x.size)[:, None], span[:, None] - d + np.arange(d + 1)] = vals.T
    for j in range(q, n_ordinary):
        out[:, j % q] += out[:, j]
    return out[:, :q]


@dataclass(frozen=True)
class DemandModelSpec:
    """Design recipe for one hourly demand regression.

    Column layout: ``t_lags`` same-hour lag columns (lag 1 first), then the
    Q x M tensor-product block ``h_q(hour) * g_m(temp)`` with the hour index
    varying slowest (column ``t_lags + q*M + m``).
    """

    t_lags: int
    hour_basis: SplineBasisSpec
    temp_basis: SplineBasisSpec

    def __post_init__(self):
        if self.t_lags < 1:
            raise ValueError(f"t_lags must be >= 1, got {self.t_lags}")
        if not self.hour_basis.cyclic:
            raise ValueError("hour basis must be cyclic")
        if abs(self.hour_basis.period - 24.0) > 1e-9:
            raise ValueError("hour basis period must be 24")
        if self.temp_basis.cyclic:
            raise ValueError("temperature basis must not be cyclic")

    @property
    def p(self) -> int:
        return self.t_lags + self.hour_basis.n_basis * self.temp_basis.n_basis


@dataclass(frozen=True)
class DemandTable:
    """Hourly demand values keyed by (date, hour); dates sorted ascending."""

    values: dict
    dates: tuple


def _parse_hour(text: str) -> int:
    """The hour ``text`` (or number) as an integer in 1..24; a ``ValueError`` naming the fault otherwise."""
    try:
        hour = int(text)
    except ValueError:
        raise ValueError(f"hour is not an integer: {text!r}") from None
    if not 1 <= hour <= 24:
        raise ValueError(f"hour must be in 1..24, got {hour}")
    return hour


def load_demand_csv(path: str | Path) -> DemandTable:
    """Load ``date,hour,demand`` rows; strict schema with line-numbered errors.

    Read by :func:`~bootsmooth.tabular.read_keyed`.  An hourly file repeats each
    date text on 24 rows and each hour text every day, so both keep their texts.
    """
    days: dict = {}
    values = read_keyed(path, ("date", "hour", "demand"), (iso_date, _parse_hour), (days, {}))
    # the distinct days: a day has one text (YYYY-MM-DD only) and a row (a bad row ends the load)
    return DemandTable(values=values, dates=tuple(sorted(days.values())))


def load_temperature_csv(path: str | Path) -> dict:
    """Load ``date,mean_temp`` rows into a date -> temperature mapping.

    Read by :func:`~bootsmooth.tabular.read_keyed`; a daily file holds each date text once.
    """
    return read_keyed(path, ("date", "mean_temp"), (iso_date,), (None,))


def _demand_rows(demand: DemandTable, temps: dict, spec: DemandModelSpec, hour, days, response: bool):
    """``(y, X)``: the demand (None without ``response``) and design rows of ``days[t_lags:]``.

    A row holds the ``t_lags`` lags (slices of one demand vector), then the
    tensor block of one hour-basis row and the temperature basis at every
    row's day together.  Missing keys, in day order, raise an ``IngestionError``.
    """
    hour = _parse_hour(hour)
    t = spec.t_lags
    lagged = days if response else days[:-1]
    missing = [f"demand({d}, h={hour})" for d in lagged if (d, hour) not in demand.values]
    missing += [f"temperature({d})" for d in days[t:] if d not in temps]
    if missing:
        raise IngestionError("missing keys: " + ", ".join(missing))
    series = np.array([demand.values[(d, hour)] for d in lagged])
    m = len(days) - t
    lags = [series[t - k : t - k + m] for k in range(1, t + 1)]
    h = _bspline_rows(spec.hour_basis, [hour])
    g = _bspline_rows(spec.temp_basis, [temps[d] for d in days[t:]])
    tensor = (h[:, :, None] * g[:, None, :]).reshape(m, -1)
    return series[t:] if response else None, np.column_stack([*lags, tensor])


def build_demand_design(
    demand: DemandTable,
    temps: dict,
    spec: DemandModelSpec,
    hour: int,
    days,
) -> Dataset:
    """Design matrix for one hour over an ordered day window.

    ``days`` is the temporally ordered modeling window; the first ``t_lags``
    entries serve only as lag context, the remaining entries are modeled.
    Each modeled day's row holds the same-hour demand of the ``t_lags``
    preceding window days followed by the hour/temperature tensor block,
    built in one pass.  Missing demand or temperature keys raise an
    ``IngestionError`` listing them.
    """
    days = list(days)
    if len(days) <= spec.t_lags:
        raise ValueError(f"window of {len(days)} days leaves no modeled day after {spec.t_lags} lags")
    return Dataset(*_demand_rows(demand, temps, spec, hour, days, response=True))


def demand_feature_row(
    demand: DemandTable,
    temps: dict,
    spec: DemandModelSpec,
    hour: int,
    days,
    target_day,
) -> np.ndarray:
    """Feature row predicting ``target_day`` from the window's trailing lags.

    It is the design row of ``target_day`` appended to ``days``, built
    without the target's demand.
    """
    days = list(days)
    if len(days) < spec.t_lags:
        raise ValueError(f"need at least {spec.t_lags} context days, got {len(days)}")
    context = days[-spec.t_lags :] + [target_day]
    return _demand_rows(demand, temps, spec, hour, context, response=False)[1][0]
