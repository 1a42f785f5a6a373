"""B-spline bases and the hourly demand design matrix.

Provides plain (clamped open-knot) and cyclic B-spline bases evaluated with
the Cox-de Boor recursion, plus construction of the autoregressive +
hour/temperature tensor-product design used for load regressions.  A
window's design is built in one pass: one hour-basis evaluation, the
temperature basis at all modeled days by one array recursion, and the lag
columns as slices of one demand vector.

CSV loaders for the demand and temperature schemas live here too.  They
check each block of rows that :func:`~bootsmooth.tabular.read_blocks` hands
them by whole columns, and walk a block row by row only when a bulk check
fails, to name its first fault.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import IngestionError
from .selection import Dataset
from .tabular import finite_number, finite_numbers, iso_date, read_blocks


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
    """Knot span and the degree+1 nonzero basis values at ``x`` (Cox-de Boor).

    ``x`` is a float, or a 1-D array whose points are evaluated together:
    the values are then (degree + 1, len(x)), and each point takes the
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


def _clamped_knots(spec: SplineBasisSpec) -> np.ndarray:
    lo, hi = spec.domain
    d = spec.degree
    return np.concatenate([np.full(d + 1, lo), np.asarray(spec.interior_knots), np.full(d + 1, hi)])


def bspline_basis(spec: SplineBasisSpec, x: float) -> np.ndarray:
    """All basis values at ``x`` for a plain (non-cyclic) basis.

    Values are in [0, 1] and sum to 1 everywhere inside the domain.
    Evaluation outside the domain is an error, never a silent clamp.
    """
    if spec.cyclic:
        raise ValueError("spec is cyclic, use cyclic_bspline_basis")
    return _bspline_rows(spec, [float(x)])[0]


def _bspline_rows(spec: SplineBasisSpec, x) -> np.ndarray:
    """All values of a plain basis at each point of ``x``, one row per point; (len(x), n_basis).

    The first point outside the domain, in order, is the ``ValueError``.
    """
    x = np.asarray(x, dtype=float)
    lo, hi = spec.domain
    outside = ~((lo <= x) & (x <= hi))
    if outside.any():
        raise ValueError(f"x={float(x[outside][0])} outside basis domain [{lo}, {hi}]")
    d = spec.degree
    span, vals = _nonzero_basis_values(_clamped_knots(spec), d, x, spec.n_basis)
    out = np.zeros((x.size, spec.n_basis))
    out[np.arange(x.size)[:, None], span[:, None] - d + np.arange(d + 1)] = vals.T
    return out


def cyclic_bspline_basis(spec: SplineBasisSpec, x: float) -> np.ndarray:
    """All basis values at ``x`` for a cyclic basis; periodic in ``spec.period``.

    The argument is reduced modulo the period, so ``f(x) == f(x + period)``
    and the partition of unity holds on the whole real line.
    """
    if not spec.cyclic:
        raise ValueError("spec is not cyclic, use bspline_basis")
    lo, _ = spec.domain
    period = spec.period
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


def _demand_rows(path, lineno: int, block, values: dict, days: dict) -> None:
    """Add the ``block`` of rows from line ``lineno`` to ``values`` one row at a time.

    Each row is checked in turn, so the first fault in the block is the one
    raised, as an ``IngestionError`` naming its line.
    """
    for lineno, (date, hour, demand) in enumerate(block, lineno):
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


def _demand_columns(block, values: dict, days: dict, hours: dict) -> dict | None:
    """The ``block``'s ``(date, hour) -> demand`` entries, checked by whole columns.

    Each date and hour text not seen before is parsed once into ``days`` or
    ``hours``, which keep only the texts that pass.  None when a check
    fails: a text that does not parse, an hour outside 1..24, a demand that
    is not a finite number, or a key repeated in the block or in ``values``.
    """
    dates, hour_texts, demands = zip(*block)
    try:
        days.update((text, iso_date(text)) for text in set(dates).difference(days))
        for text in set(hour_texts).difference(hours):
            hour = int(text)
            if not 1 <= hour <= 24:
                return None
            hours[text] = hour
    except ValueError:
        return None
    numbers = finite_numbers(demands)
    if numbers is None:
        return None
    keys = zip(map(days.__getitem__, dates), map(hours.__getitem__, hour_texts))
    entries = dict(zip(keys, numbers))
    if len(entries) < len(block) or not values.keys().isdisjoint(entries):
        return None
    return entries


def load_demand_csv(path: str | Path) -> DemandTable:
    """Load ``date,hour,demand`` rows; strict schema with line-numbered errors.

    Each block of rows is checked by whole columns, and an hourly file
    repeats each date text on 24 rows, so each distinct date and hour text
    is parsed once.  Only a block that fails a bulk check is walked row by
    row, which raises its first fault, as a line-by-line read would.
    """
    values: dict = {}
    days: dict = {}
    hours: dict = {}
    blocks = read_blocks(path, ("date", "hour", "demand"))
    next(blocks)
    for lineno, block in blocks:
        entries = _demand_columns(block, values, days, hours)
        if entries is None:
            _demand_rows(path, lineno, block, values, days)
        else:
            values.update(entries)
    # the distinct days: a day has one text (YYYY-MM-DD only) and a row (a bad row ends the load)
    return DemandTable(values=values, dates=tuple(sorted(days.values())))


def load_temperature_csv(path: str | Path) -> dict:
    """Load ``date,mean_temp`` rows into a date -> temperature mapping.

    Each block of rows is checked by whole columns; only a block that fails
    is walked row by row, to raise its first fault.
    """
    temps: dict = {}
    blocks = read_blocks(path, ("date", "mean_temp"))
    next(blocks)
    for lineno, block in blocks:
        dates, texts = zip(*block)
        numbers = finite_numbers(texts)
        try:
            entries = {} if numbers is None else dict(zip(map(iso_date, dates), numbers))
        except ValueError:
            entries = {}
        if len(entries) == len(block) and temps.keys().isdisjoint(entries):
            temps.update(entries)
            continue
        for lineno, (date, temp) in enumerate(block, lineno):
            day = _parse_date(path, lineno, date)
            temp = finite_number(path, lineno, "mean_temp", temp)
            if day in temps:
                raise IngestionError(f"{path}:{lineno}: duplicate entry for {day}")
            temps[day] = temp
    return temps


def _tensor_rows(spec: DemandModelSpec, hour: int, temps) -> np.ndarray:
    """The hour/temperature tensor block at ``hour`` for each of ``temps``; (len(temps), Q*M)."""
    h = cyclic_bspline_basis(spec.hour_basis, float(hour))
    g = _bspline_rows(spec.temp_basis, temps)
    return (h[None, :, None] * g[:, None, :]).reshape(len(g), -1)


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
    The design is built in one pass: the lag columns are slices of the
    window's demand vector, the hour basis is evaluated once and the
    temperature basis at every modeled day together.  Missing demand or
    temperature keys raise an ``IngestionError`` listing them.
    """
    if not 1 <= int(hour) <= 24:
        raise ValueError(f"hour must be in 1..24, got {hour}")
    days = list(days)
    t = spec.t_lags
    if len(days) <= t:
        raise ValueError(f"window of {len(days)} days leaves no modeled day after {t} lags")
    missing = [
        f"demand({d}, h={hour})" for d in days if (d, int(hour)) not in demand.values
    ]
    missing += [f"temperature({d})" for d in days[t:] if d not in temps]
    if missing:
        raise IngestionError("missing keys: " + ", ".join(str(m) for m in missing))
    hour = int(hour)
    series = np.array([demand.values[(d, hour)] for d in days])
    lags = [series[t - k : len(days) - k] for k in range(1, t + 1)]
    tensor = _tensor_rows(spec, hour, [temps[d] for d in days[t:]])
    return Dataset(series[t:], np.column_stack([*lags, tensor]))


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
    return np.concatenate([lags, _tensor_rows(spec, hour, [temps[target_day]])[0]])
