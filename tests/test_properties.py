"""Property tests on random small instances."""

import datetime as dt
import tempfile
from contextlib import nullcontext
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from conftest import (
    demand_csv_oracle,
    keyed_csv_first_fault,
    make_instance,
    matrix_csv_oracle,
    temperature_csv_oracle,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from bootsmooth import (
    CandidateModel,
    Dataset,
    ResamplingDistribution,
    SelectorConfig,
    load_demand_csv,
    load_matrix_csv,
    load_temperature_csv,
    pbs_fit,
    select_fit,
)
from bootsmooth import IngestionError, tabular
from bootsmooth.selection import _PairSelector

_GRID = (0.0, 0.01, 0.3, 1.0, 10.0)


def _instance(seed: int, n_candidates: int):
    """Dataset with n > p plus random column-subset candidates and grid.

    Ids mix integers and strings, so the id part of the tie-break compares
    across types.
    """
    rng = np.random.default_rng(seed)
    p = int(rng.integers(2, 6))
    data = make_instance(rng, int(rng.integers(p + 3, 15)), p)
    candidates = []
    for i in range(n_candidates):
        k = int(rng.integers(1, p + 1))
        cols = tuple(int(c) for c in rng.choice(p, size=k, replace=False))
        candidates.append(CandidateModel(i if i % 2 else f"m{i}", cols))
    keep = np.sort(rng.choice(len(_GRID), size=int(rng.integers(1, len(_GRID) + 1)), replace=False))
    return data, candidates, tuple(_GRID[i] for i in keep)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_candidates=st.integers(1, 5), data=st.data())
def test_select_fit_ignores_candidate_order(seed, n_candidates, data):
    dataset, candidates, grid = _instance(seed, n_candidates)
    order = data.draw(st.permutations(range(n_candidates)))
    reordered = [candidates[i] for i in order]
    fits = [
        select_fit(Dataset(dataset.y, dataset.X), SelectorConfig(tuple(c), grid))
        for c in (candidates, reordered)
    ]
    assert (fits[0].model_id, fits[0].lam) == (fits[1].model_id, fits[1].lam)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_candidates=st.integers(1, 4),
    B=st.integers(1, 200),
    gamma=st.sampled_from((0.0, 0.5, 1.0)),
)
def test_pbs_fit_bytes_do_not_depend_on_threads(seed, n_candidates, B, gamma):
    dataset, candidates, grid = _instance(seed, n_candidates)
    selector = SelectorConfig(tuple(candidates), grid)
    dist = ResamplingDistribution(gamma=gamma, sigma2=2.0)
    # the first run builds the Dataset's workspaces, the rerun reuses them
    fits = [pbs_fit(dataset, dist, B, selector, seed=seed) for _ in range(2)]
    assert fits[0].beta_pbs.tobytes() == fits[1].beta_pbs.tobytes()
    assert fits[0].cross_moment.tobytes() == fits[1].cross_moment.tobytes()
    assert fits[0].model_ids == fits[1].model_ids


def _dense_gcv(X, columns, lam, y):
    """``(score, scale)`` of one pair from an explicit hat matrix; +inf where unscoreable.

    ``H = X_j (X_j'X_j + lam I)^-1 X_j'`` by ``np.linalg.solve`` and the score
    ``n |(I - H) y|^2 / tr(I - H)^2``.  At lambda = 0 a pair needs full column
    rank and fewer columns than rows, since ``tr(I - H) = n - k`` there.
    ``scale`` is ``n y'y / tr(I - H)^2``, the score of a fit that leaves all
    of ``y`` as its residual.
    """
    Xj = X[:, list(columns)]
    n, k = Xj.shape
    if lam == 0.0 and (k >= n or np.linalg.matrix_rank(Xj) < k):
        return np.inf, np.inf
    M = np.eye(n) - Xj @ np.linalg.solve(Xj.T @ Xj + lam * np.eye(k), Xj.T)
    resid, tr = M @ y, np.trace(M)
    return n * float(resid @ resid) / tr**2, n * float(y @ y) / tr**2


# The selector's residual term y'y - |U'y|^2 cancels on the scale of y'y, so
# scores agree to this fraction of ``scale``.  On 20,000 random instances
# like these the gap stayed under 3.5e-12 of ``scale``; relative to the score
# itself it reached 6e-7, at lambda = 0 with one residual degree of freedom.
_GCV_TOL = 1e-10


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 8),
    shared=st.integers(2, 3),
    B=st.integers(1, 6),
    lams=st.lists(st.sampled_from((0.05, 0.5, 2.0, 10.0, 100.0)), min_size=2, max_size=2, unique=True),
)
def test_gcv_scores_and_selections_match_a_dense_hat_matrix(seed, n, shared, B, lams):
    # p = n + 1 columns, the last repeating the first: "dup" is rank deficient
    # at lambda = 0, "sat" has n columns and a zero trace there, ``shared``
    # candidates of one column count interleave their tie-break rows, and
    # the grid repeats a lambda.
    rng = np.random.default_rng(seed)
    X = rng.uniform(-5.0, 5.0, size=(n, n + 1))
    X[:, n] = X[:, 0]
    k = int(rng.integers(1, n))
    candidates = [CandidateModel("dup", (0, n)), CandidateModel("sat", tuple(range(n)))]
    candidates += [CandidateModel(i, tuple(rng.choice(n + 1, size=k, replace=False).tolist())) for i in range(shared)]
    grid = (0.0, min(lams), min(lams), max(lams))
    Y = (X @ rng.standard_normal(n + 1))[:, None] * rng.uniform(0.1, 10.0, B) + rng.standard_normal((n, B))
    sel = _PairSelector(Dataset(Y[:, 0], X), SelectorConfig(tuple(candidates), grid))
    assert any(not isinstance(rows, slice) for *_, rows in sel.tables)
    scores, (idx, _) = sel.scores(Y), sel.select(Y)
    # a pair's fit: its sorted columns and its lambda
    fits = [(tuple(sorted(candidates[si].columns)), lam) for si, lam in zip(sel.pair_scorer_index, sel.pair_lambda)]
    assert scores[fits.index(((0, n), 0.0))].tolist() == scores[fits.index((tuple(range(n)), 0.0))].tolist() == [np.inf] * B
    for b in range(B):
        want, scale = np.array([_dense_gcv(X, cols, lam, Y[:, b]) for cols, lam in fits]).T
        assert np.array_equal(np.isinf(scores[:, b]), np.isinf(want))
        ok = np.isfinite(want)
        tol = np.where(ok, _GCV_TOL * scale, np.inf)
        assert np.all(np.abs(scores[ok, b] - want[ok]) <= tol[ok]), b
        best = int(np.argmin(want))
        runner = min((i for i, fit in enumerate(fits) if fit != fits[best]), key=want.__getitem__)
        if want[runner] - want[best] > tol[best] + tol[runner]:
            assert fits[idx[b]] == fits[best], b


# Well-formed CSV text as other writers produce it: quoted fields, CRLF line
# ends, spaces around numbers and underscores between digits.
def _QUOTED(text: str) -> str:
    return '"' + text.replace('"', '""') + '"'


_NUMBER_FORMS = (
    repr,
    lambda v: format(v, "_"),
    lambda v: f" {v!r}",
    lambda v: f"{v!r}  ",
    lambda v: _QUOTED(f" {v!r} "),
)
_HOUR_FORMS = (
    str,
    lambda h: f" {h} ",
    lambda h: f"0{h}",
    lambda h: f"{h // 10}_{h % 10}" if h >= 10 else str(h),
    lambda h: _QUOTED(str(h)),
)
_DATE_FORMS = (str, _QUOTED)
# Finite values, some so large that a block's sum overflows.
_VALUES = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from((1e308, -1e308, 0.0, -0.0))
# Rows per block: every row its own block, a few rows, and the shipped size (None).
_BLOCKS = st.sampled_from((1, 2, 3, 5, None))


def _csv_text(data, header, rows, forms) -> str:
    """``header`` and ``rows`` as CSV text, each field in a drawn form and each line in a drawn ending."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(data.draw(st.sampled_from(f))(v) for f, v in zip(forms, row)))
    return "".join(line + data.draw(st.sampled_from(("\n", "\r\n"))) for line in lines)


def _load_both(text: str, load, oracle, block_rows: int):
    """``load`` and ``oracle`` of one file holding ``text``; ``load`` reads it ``block_rows`` rows at a time."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.csv"
        path.write_bytes(text.encode())
        blocks = nullcontext() if block_rows is None else mock.patch.object(tabular, "BLOCK_ROWS", block_rows)
        with blocks:
            return load(path), oracle(path)


@settings(max_examples=60, deadline=None)
@given(
    keys=st.lists(st.tuples(st.integers(0, 40), st.integers(1, 24)), min_size=1, max_size=60, unique=True),
    block_rows=_BLOCKS,
    data=st.data(),
)
def test_demand_loader_matches_the_row_by_row_oracle(keys, block_rows, data):
    start = dt.date(2023, 12, 20)
    rows = [((start + dt.timedelta(days=d)).isoformat(), h, data.draw(_VALUES)) for d, h in keys]
    text = _csv_text(data, ["date", "hour", _QUOTED("demand")], rows, (_DATE_FORMS, _HOUR_FORMS, _NUMBER_FORMS))
    table, (values, dates) = _load_both(text, load_demand_csv, demand_csv_oracle, block_rows)
    # same keys in the same order, and the same bits for every value
    assert list(table.values) == list(values)
    assert [v.hex() for v in table.values.values()] == [v.hex() for v in values.values()]
    assert table.dates == dates


@settings(max_examples=40, deadline=None)
@given(
    days=st.lists(st.integers(0, 400), min_size=1, max_size=40, unique=True),
    block_rows=_BLOCKS,
    data=st.data(),
)
def test_temperature_loader_matches_the_row_by_row_oracle(days, block_rows, data):
    start = dt.date(2022, 1, 1)
    rows = [((start + dt.timedelta(days=d)).isoformat(), data.draw(_VALUES)) for d in days]
    text = _csv_text(data, [" date", "mean_temp "], rows, (_DATE_FORMS, _NUMBER_FORMS))
    temps, oracle = _load_both(text, load_temperature_csv, temperature_csv_oracle, block_rows)
    assert list(temps) == list(oracle)
    assert [v.hex() for v in temps.values()] == [v.hex() for v in oracle.values()]


# Faults a demand or temperature row can hold, each as a function of the
# row's fields and a drawn text that returns the faulty fields; a duplicate
# is placed apart.  Faults land on one row in turn, and earlier short_row
# faults can leave it without the field a later fault rewrites: that fault
# is skipped.  The first fault on a row always applies, so every kind stays
# reachable.
_FAULTS = {
    "bad_date": lambda row, text: [text, *row[1:]],
    "hour_not_an_integer": lambda row, text: [row[0], text, *row[2:]],
    "hour_out_of_range": lambda row, text: [row[0], text, *row[2:]],
    "not_a_number": lambda row, text: [*row[:-1], text],
    "not_finite": lambda row, text: [*row[:-1], text],
    "short_row": lambda row, text: row[:-1],
    "over_long": lambda row, text: [*row[:-1], text],
}
_FAULT_TEXTS = {
    "bad_date": ("2022-13-01", "2022-02-30", "20220101", "2022-W01-1", " 2022-01-01", "2022-1-01",
                 "\uff12022-01-01", "0000-01-01", ""),
    "hour_not_an_integer": ("x", "1.5", "", "1e1", "nan", "1 2"),
    "hour_out_of_range": ("0", "25", "-3", " 100 ", "0_0"),
    "not_a_number": ("abc", "", "1..2", "0x10", "1e"),
    "not_finite": ("nan", "inf", "-inf", "1e400", "-1e999", " NaN "),
    "short_row": ("",),
    # over the csv module's field size limit: a row it cannot read
    "over_long": ("9" * 200_000,),
}
# The fields a fault needs: the hour faults rewrite the second, the others the first or the last.
_FAULT_FIELDS = {"hour_not_an_integer": 2, "hour_out_of_range": 2}


@pytest.mark.parametrize("hourly", [True, False], ids=["demand", "temperature"])
@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 40) | st.integers(257, 600),
    faults=st.lists(
        st.tuples(st.sampled_from(sorted(_FAULTS) + ["duplicate"]), st.integers(0, 10**6), st.integers(0, 10**6)),
        min_size=1,
        max_size=6,
    ),
    block_rows=_BLOCKS,
    data=st.data(),
)
def test_keyed_loader_names_the_oracles_first_fault(hourly, n, faults, block_rows, data):
    start = dt.date(2023, 12, 20)
    if hourly:
        header, load = "date,hour,demand", load_demand_csv
        rows = [[str(start + dt.timedelta(days=r // 24)), str(r % 24 + 1), f"{r}.5"] for r in range(n)]
    else:
        header, load = "date,mean_temp", load_temperature_csv
        rows = [[str(start + dt.timedelta(days=r)), f"{r}.5"] for r in range(n)]
    for kind, at, other in faults:
        at, other = at % n, other % n
        if len(rows[at]) < _FAULT_FIELDS.get(kind, 1):
            continue
        if kind == "duplicate":
            # within one block or across blocks, as the block size and the two rows fall
            rows[at] = [*rows[other][:-1], rows[at][-1]]
        elif hourly or "hour" not in kind:
            rows[at] = _FAULTS[kind](rows[at], data.draw(st.sampled_from(_FAULT_TEXTS[kind])))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.csv"
        path.write_text(header + "\n" + "".join(",".join(row) + "\n" for row in rows), encoding="utf-8")
        expected = keyed_csv_first_fault(path)
        blocks = nullcontext() if block_rows is None else mock.patch.object(tabular, "BLOCK_ROWS", block_rows)
        with blocks:
            if expected is None:
                load(path)
                return
            with pytest.raises(IngestionError) as err:
                load(path)
    assert str(err.value) == expected


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 30),
    width=st.integers(1, 5),
    has_y=st.booleans(),
    block_rows=_BLOCKS,
    data=st.data(),
)
def test_matrix_loader_matches_the_row_by_row_oracle(n, width, has_y, block_rows, data):
    names = [_QUOTED(f"x{j}, unit {j}") for j in range(width)]
    header = (["y"] if has_y else []) + names
    rows = [[data.draw(_VALUES) for _ in header] for _ in range(n)]
    text = _csv_text(data, header, rows, [_NUMBER_FORMS] * len(header))
    (y, X, got_names), (y_oracle, X_oracle, oracle_names) = _load_both(
        text, load_matrix_csv, matrix_csv_oracle, block_rows
    )
    assert got_names == oracle_names
    assert (y is None) == (y_oracle is None)
    if y is not None:
        assert y.shape == y_oracle.shape and y.tobytes() == y_oracle.tobytes()
    assert X.shape == X_oracle.shape and X.tobytes() == X_oracle.tobytes()
