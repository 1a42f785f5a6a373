"""B-spline bases and the hourly demand design matrix.

Provides plain (clamped open-knot) and cyclic B-spline bases evaluated with
the Cox-de Boor recursion, plus construction of the autoregressive +
hour/temperature tensor-product design used for load regressions.  CSV
loaders for the demand and temperature schemas live here too.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import IngestionError
from .selection import Dataset
from .tabular import finite_number, iso_date, read_table


@dataclass(frozen=True)
class SplineBasisSpec:
    """Degree, interior knots and domain of a B-spline basis.

    Plain bases use clamped (open uniform) boundary knots, so the basis spans
    the domain edges.  Cyclic bases wrap on ``[lo, lo + period]`` with the
    domain start acting as one knot site on the circle; their dimension is
    ``1 + len(interior_knots)``.
    """

    degree: int
    interior_knots: tuple[float, ...]
    domain: tuple[float, float]
    cyclic: bool = False
    period: float | None = None

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
        if self.cyclic:
            if self.period is None:
                raise ValueError("cyclic basis requires a period")
            if abs((hi - lo) - float(self.period)) > 1e-9 * max(1.0, abs(self.period)):
                raise ValueError("cyclic domain length must equal the period")
            object.__setattr__(self, "period", float(self.period))
        elif self.period is not None:
            raise ValueError("period is only meaningful for cyclic bases")
        object.__setattr__(self, "interior_knots", knots)
        object.__setattr__(self, "domain", (lo, hi))

    @property
    def n_basis(self) -> int:
        if self.cyclic:
            return 1 + len(self.interior_knots)
        return self.degree + 1 + len(self.interior_knots)

    @classmethod
    def uniform(cls, degree: int, n_basis: int, lo: float, hi: float) -> "SplineBasisSpec":
        """Clamped basis with ``n_basis`` functions and uniform interior knots."""
        n_interior = n_basis - degree - 1
        if n_interior < 0:
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
        return cls(
            degree=degree,
            interior_knots=knots,
            domain=(lo, lo + period),
            cyclic=True,
            period=period,
        )


def _nonzero_basis_values(knots: np.ndarray, degree: int, x: float, n_basis: int) -> tuple[int, np.ndarray]:
    """Knot span and the degree+1 nonzero basis values at x (Cox-de Boor)."""
    span = int(np.searchsorted(knots, x, side="right")) - 1
    span = min(max(span, degree), n_basis - 1)
    vals = np.zeros(degree + 1)
    vals[0] = 1.0
    left = np.empty(degree + 1)
    right = np.empty(degree + 1)
    for j in range(1, degree + 1):
        left[j] = x - knots[span + 1 - j]
        right[j] = knots[span + j] - x
        saved = 0.0
        for r in range(j):
            tmp = vals[r] / (right[r + 1] + left[j - r])
            vals[r] = saved + right[r + 1] * tmp
            saved = left[j - r] * tmp
        vals[j] = saved
    return span, vals


def bspline_basis(spec: SplineBasisSpec, x: float) -> np.ndarray:
    """All basis values at ``x`` for a plain (non-cyclic) basis.

    Values are in [0, 1] and sum to 1 everywhere inside the domain.
    Evaluation outside the domain is an error, never a silent clamp.
    """
    if spec.cyclic:
        raise ValueError("spec is cyclic, use cyclic_bspline_basis")
    lo, hi = spec.domain
    x = float(x)
    if not lo <= x <= hi:
        raise ValueError(f"x={x} outside basis domain [{lo}, {hi}]")
    d = spec.degree
    knots = np.concatenate(
        [np.full(d + 1, lo), np.asarray(spec.interior_knots), np.full(d + 1, hi)]
    )
    m = spec.n_basis
    span, vals = _nonzero_basis_values(knots, d, x, m)
    out = np.zeros(m)
    out[span - d : span + 1] = vals
    return out


def cyclic_bspline_basis(spec: SplineBasisSpec, x: float) -> np.ndarray:
    """All basis values at ``x`` for a cyclic basis; periodic in ``spec.period``.

    The argument is reduced modulo the period, so ``f(x) == f(x + period)``
    and the partition of unity holds on the whole real line.
    """
    if not spec.cyclic:
        raise ValueError("spec is not cyclic, use bspline_basis")
    lo, _ = spec.domain
    period = float(spec.period)
    d = spec.degree
    sites = np.concatenate([[lo], np.asarray(spec.interior_knots)])
    q = sites.size
    # Periodic extension of the knot sites, d extra on each side.
    idx = np.arange(-d, q + d + 1)
    knots = sites[idx % q] + period * np.floor_divide(idx, q)
    n_ordinary = q + d
    xr = lo + float(np.mod(float(x) - lo, period))
    span, vals = _nonzero_basis_values(knots, d, xr, n_ordinary)
    out = np.zeros(q)
    for offset, v in enumerate(vals):
        out[(span - d + offset) % q] += v
    return out


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


def _parse_date(path, lineno: int, text: str) -> _dt.date:
    try:
        return iso_date(text)
    except ValueError:
        raise IngestionError(f"{path}:{lineno}: bad ISO date {text!r}") from None


def load_demand_csv(path: str | Path) -> DemandTable:
    """Load ``date,hour,demand`` rows; strict schema with line-numbered errors.

    An hourly file repeats each date text on 24 rows, so each distinct text
    is parsed once; only a text that parsed is remembered.
    """
    values: dict = {}
    days: dict = {}
    rows = read_table(path, ("date", "hour", "demand"))
    next(rows)
    for lineno, (date, hour, demand) in rows:
        day = days.get(date)
        if day is None:
            day = days[date] = _parse_date(path, lineno, date)
        try:
            hour = int(hour)
        except ValueError:
            raise IngestionError(f"{path}:{lineno}: hour is not an integer: {hour!r}") from None
        if not 1 <= hour <= 24:
            raise IngestionError(f"{path}:{lineno}: hour must be in 1..24, got {hour}")
        demand = finite_number(path, lineno, "demand", demand)
        if (day, hour) in values:
            raise IngestionError(f"{path}:{lineno}: duplicate entry for ({day}, {hour})")
        values[(day, hour)] = demand
    dates = tuple(sorted({d for d, _ in values}))
    return DemandTable(values=values, dates=dates)


def load_temperature_csv(path: str | Path) -> dict:
    """Load ``date,mean_temp`` rows into a date -> temperature mapping."""
    temps: dict = {}
    rows = read_table(path, ("date", "mean_temp"))
    next(rows)
    for lineno, (date, temp) in rows:
        day = _parse_date(path, lineno, date)
        temp = finite_number(path, lineno, "mean_temp", temp)
        if day in temps:
            raise IngestionError(f"{path}:{lineno}: duplicate entry for {day}")
        temps[day] = temp
    return temps


def _tensor_row(spec: DemandModelSpec, hour: int, temp: float) -> np.ndarray:
    h = cyclic_bspline_basis(spec.hour_basis, float(hour))
    g = bspline_basis(spec.temp_basis, float(temp))
    return np.outer(h, g).ravel()


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
    preceding window days followed by the hour/temperature tensor block.
    Missing demand or temperature keys raise an ``IngestionError`` listing
    them.
    """
    if not 1 <= int(hour) <= 24:
        raise ValueError(f"hour must be in 1..24, got {hour}")
    days = list(days)
    if len(days) <= spec.t_lags:
        raise ValueError(
            f"window of {len(days)} days leaves no modeled day after {spec.t_lags} lags"
        )
    missing = [
        f"demand({d}, h={hour})" for d in days if (d, int(hour)) not in demand.values
    ]
    missing += [f"temperature({d})" for d in days[spec.t_lags :] if d not in temps]
    if missing:
        raise IngestionError("missing keys: " + ", ".join(str(m) for m in missing))
    hour = int(hour)
    rows, ys = [], []
    for i in range(spec.t_lags, len(days)):
        lags = [demand.values[(days[i - t], hour)] for t in range(1, spec.t_lags + 1)]
        rows.append(np.concatenate([lags, _tensor_row(spec, hour, temps[days[i]])]))
        ys.append(demand.values[(days[i], hour)])
    return Dataset(np.asarray(ys), np.vstack(rows))


def demand_feature_row(
    demand: DemandTable,
    temps: dict,
    spec: DemandModelSpec,
    hour: int,
    days,
    target_day,
) -> np.ndarray:
    """Feature row predicting ``target_day`` from the window's trailing lags."""
    days = list(days)
    if len(days) < spec.t_lags:
        raise ValueError(f"need at least {spec.t_lags} context days, got {len(days)}")
    hour = int(hour)
    missing = [
        f"demand({days[-t]}, h={hour})"
        for t in range(1, spec.t_lags + 1)
        if (days[-t], hour) not in demand.values
    ]
    if target_day not in temps:
        missing.append(f"temperature({target_day})")
    if missing:
        raise IngestionError("missing keys: " + ", ".join(missing))
    lags = [demand.values[(days[-t], hour)] for t in range(1, spec.t_lags + 1)]
    return np.concatenate([lags, _tensor_row(spec, hour, temps[target_day])])
