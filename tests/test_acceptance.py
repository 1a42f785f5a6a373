"""Acceptance suite: one test per release criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v`` for the pass/fail line per
criterion.  Criteria with runtime budgets assert them.
"""

import datetime as dt
import json
import time

import numpy as np
import pytest
from conftest import synth_weekday_demand, z_quantile_bisect

from bootsmooth import (
    CandidateModel,
    CvGrid,
    Dataset,
    DemandModelSpec,
    DemandTable,
    ResamplingDistribution,
    SelectorConfig,
    SplineBasisSpec,
    StudyConfig,
    accuracy,
    bspline_basis,
    build_demand_design,
    cv_error_surface,
    cyclic_bspline_basis,
    demand_problems,
    derive_seed,
    kfold_split,
    nested_candidates,
    ols_fit,
    pbs_fit,
    prediction_interval,
    residual_variance_pbs,
    ridge_fit,
    run_forecasts,
    run_study,
    select_distribution,
    smoothed_variance,
    smoothed_variance_via_gram,
    structural_candidates,
    write_report_csv,
)
from bootsmooth.cli import main


def study_selector():
    grid = tuple(np.concatenate([[0.0], np.logspace(-4, 4, 50)]))
    return SelectorConfig(candidates=nested_candidates(), lambda_grid=grid)


def test_criterion_1_gamma_invariance_of_ridge_fits():
    """Submodel ridge fits ignore the gamma mixing of the resampling mean."""
    rng = np.random.default_rng(101)
    start = time.monotonic()
    for _ in range(100):
        X = rng.uniform(-5.0, 5.0, size=(30, 20))
        y = rng.normal(0.0, 5.0, size=30) + X[:, :10].sum(axis=1)
        data = Dataset(y, X)
        beta_ols = ols_fit(data).coefficients
        eps = rng.normal(0.0, 3.0, size=30)
        k = int(rng.integers(1, 21))
        cols = tuple(sorted(rng.choice(20, size=k, replace=False).tolist()))
        model = CandidateModel("sub", cols)
        plain = Dataset(y + eps, X)
        for gamma in (0.0, 0.3, 1.0):
            y_star = gamma * (X @ beta_ols) + (1.0 - gamma) * y + eps
            mixed = Dataset(y_star, X)
            for lam in (0.0, 1.0, 100.0):
                a = ridge_fit(mixed, model, lam).coefficients
                b = ridge_fit(plain, model, lam).coefficients
                rel = np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)
                assert rel < 1e-9, (gamma, lam, rel)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s"


def test_criterion_2_variance_formula_consistency():
    """Projector and Gram delta-method variances agree at gamma = 1."""
    rng = np.random.default_rng(202)
    start = time.monotonic()
    selector = SelectorConfig(
        candidates=(CandidateModel(1, (0, 1)), CandidateModel(2, (0, 1, 2, 3))),
        lambda_grid=(0.0, 0.5, 5.0),
    )
    for i in range(50):
        X = rng.uniform(-3.0, 3.0, size=(14, 4))
        y = X @ np.array([1.0, -1.0, 0.5, 0.0]) + rng.normal(0.0, 1.0, size=14)
        data = Dataset(y, X)
        fit = pbs_fit(
            data, ResamplingDistribution(gamma=1.0, sigma2=1.5), 40, selector, seed=i
        )
        x_new = rng.standard_normal(4)
        a = smoothed_variance(fit, data, x_new)
        b = smoothed_variance_via_gram(fit, data, x_new)
        assert a == pytest.approx(b, rel=1e-9, abs=1e-15), i
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"criterion 2 took {elapsed:.1f}s"


def test_criterion_3_degenerate_limit_recovers_ols():
    """sigma2 = 0, gamma = 1 collapses the smoother onto the OLS fit."""
    rng = np.random.default_rng(303)
    X = np.column_stack([np.ones(30), rng.uniform(-5.0, 5.0, size=(30, 20))])
    y = X[:, :11].sum(axis=1) + rng.normal(0.0, 5.0, size=30)
    data = Dataset(y, X)
    fit = pbs_fit(
        data,
        ResamplingDistribution(gamma=1.0, sigma2=0.0),
        100,
        study_selector(),
        seed=7,
    )
    ols = ols_fit(data)
    np.testing.assert_allclose(fit.beta_pbs, ols.coefficients, atol=1e-10)
    freq_full = sum(1 for m in fit.model_ids if m == 4) / fit.B
    assert freq_full == 1.0


def test_criterion_4_study_trends_at_desk_scale():
    """Simplex frequencies, smoothing beats the ridge baseline somewhere on
    the grid, and the full-model share decays with the resampling variance."""
    start = time.monotonic()
    cfg = StudyConfig(
        n=30,
        true_model_j=2,
        reps=100,
        b=200,
        sigma2_sweep=tuple(float(k) ** 2 for k in range(1, 11)),
        gamma_sweep=(0.0, 0.5, 1.0),
        master_seed=2024,
    )
    res = run_study(cfg)
    # (a) selection frequencies live on the simplex
    assert np.all(res.selection_freq >= 0.0)
    assert np.abs(res.selection_freq.sum(axis=2) - 1.0).max() < 1e-12
    # (b) the best grid cell beats the single-fit ridge baseline
    assert res.mse.min() <= res.ridge_baseline_mse
    # (c) at gamma = 1 the full model dominates at small sigma2, not at large
    assert res.freq_at(1.0, 1.0)[3] > res.freq_at(100.0, 1.0)[3]
    elapsed = time.monotonic() - start
    assert elapsed < 600.0, f"criterion 4 took {elapsed:.1f}s"


def test_criterion_5_cv_selector_matches_naive_reference():
    """Surface and selected pair equal a naive fold/cell loop, shared seeds."""
    start = time.monotonic()
    rng = np.random.default_rng(505)
    X = rng.uniform(-2.0, 2.0, size=(20, 3))
    y = X @ np.array([1.0, 0.5, 0.0]) + rng.normal(0.0, 1.0, size=20)
    data = Dataset(y, X)
    selector = SelectorConfig(
        candidates=(CandidateModel(1, (0, 1)), CandidateModel(2, (0, 1, 2))),
        lambda_grid=(0.0, 0.5, 5.0),
    )
    grid = CvGrid(
        sigma2_candidates=(0.5, 2.0),
        gamma_candidates=(0.0, 1.0),
        k=4,
        b_inner=50,
        seed=42,
    )
    surface = cv_error_surface(data, grid, selector)

    folds = kfold_split(20, 4, seed=42, mode="random")
    reference = np.zeros((2, 2))
    for k in range(4):
        held = folds[k]
        train = np.sort(np.concatenate([folds[i] for i in range(4) if i != k]))
        sub = Dataset(data.y[train], data.X[train])
        for i, s2 in enumerate(grid.sigma2_candidates):
            for j, g in enumerate(grid.gamma_candidates):
                fit = pbs_fit(
                    sub,
                    ResamplingDistribution(gamma=g, sigma2=s2),
                    50,
                    selector,
                    derive_seed(42, k, i, j),
                )
                r = data.y[held] - data.X[held] @ fit.beta_pbs
                reference[i, j] += float(r @ r)
    np.testing.assert_allclose(surface.errors, reference, rtol=1e-9)
    flat = np.argmin(reference)
    expect = (grid.sigma2_candidates[flat // 2], grid.gamma_candidates[flat % 2])
    dist = select_distribution(surface)
    assert (dist.sigma2, dist.gamma) == expect
    assert surface.selected == expect
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"criterion 5 took {elapsed:.1f}s"


def test_criterion_6_interval_matches_quantile_oracle():
    """Half widths reproduce the interval formula with an erf-bisection
    quantile oracle and shrink as alpha grows."""
    rng = np.random.default_rng(606)
    X = rng.uniform(-3.0, 3.0, size=(16, 4))
    y = X @ np.array([2.0, -1.0, 0.0, 0.5]) + rng.normal(0.0, 1.0, size=16)
    data = Dataset(y, X)
    selector = SelectorConfig(
        candidates=(CandidateModel(1, (0, 1)), CandidateModel(2, (0, 1, 2, 3))),
        lambda_grid=(0.0, 1.0),
    )
    fit = pbs_fit(data, ResamplingDistribution(gamma=0.6, sigma2=2.0), 80, selector, seed=3)
    x_new = rng.standard_normal(4)
    sv = smoothed_variance(fit, data, x_new)
    rv = residual_variance_pbs(fit, data)
    widths = []
    for alpha in (0.5, 0.1, 0.05, 0.01):
        pi = prediction_interval(fit, data, x_new, alpha)
        oracle = z_quantile_bisect(alpha) * np.sqrt(sv + rv)
        assert pi.half_width == pytest.approx(oracle, abs=1e-5 * max(1.0, oracle))
        widths.append(pi.half_width)
    assert widths == sorted(widths)  # monotone in 1 - alpha


def test_criterion_7_spline_properties_and_dimension():
    """Partition of unity, 24-hour periodicity, and the 121-column design."""
    rng = np.random.default_rng(707)
    plain = SplineBasisSpec.uniform(3, 12, -4.0, 33.0)
    for x in rng.uniform(-4.0, 33.0, size=1000):
        assert abs(bspline_basis(plain, float(x)).sum() - 1.0) < 1e-12
    cyc = SplineBasisSpec.uniform_cyclic(3, 6, 0.0, 24.0)
    for x in rng.uniform(-30.0, 60.0, size=1000):
        vals = cyclic_bspline_basis(cyc, float(x))
        assert abs(vals.sum() - 1.0) < 1e-12
        np.testing.assert_allclose(
            vals, cyclic_bspline_basis(cyc, float(x) + 24.0), atol=1e-12
        )

    start = dt.date(2023, 5, 1)
    days = [start + dt.timedelta(days=i) for i in range(7)]
    table = DemandTable(
        values={(d, 9): 100.0 + i for i, d in enumerate(days)}, dates=tuple(days)
    )
    temps = {d: 8.0 + 2.0 * i for i, d in enumerate(days)}
    spec = DemandModelSpec(
        t_lags=1,
        hour_basis=SplineBasisSpec.uniform_cyclic(3, 6, 0.0, 24.0),
        temp_basis=SplineBasisSpec.uniform(3, 20, 0.0, 25.0),
    )
    design = build_demand_design(table, temps, spec, hour=9, days=days)
    assert design.p == 121


def test_criterion_8_demand_protocol_tracks_ridge_baseline(tmp_path):
    """Synthetic same-weekday rolling forecasts: CV-tuned smoothing within
    5% of the ridge baseline on pooled MSPE, and emitted coverage recomputes
    exactly from the per-target report rows."""
    sq_pbs, sq_ridge = [], []
    runs = []
    for s in range(20):
        dates, demand_rows, temp_rows, truth = synth_weekday_demand(
            seed=1000 + s, noise_sd=4.0
        )
        values = {
            (dt.date.fromisoformat(d), h): float(v) for d, h, v in demand_rows
        }
        demand = DemandTable(
            values=values, dates=tuple(sorted({k[0] for k in values}))
        )
        temps = {dt.date.fromisoformat(d): float(v) for d, v in temp_rows}
        spec = DemandModelSpec(
            t_lags=1,
            hour_basis=SplineBasisSpec.uniform_cyclic(3, 1, 0.0, 24.0),
            temp_basis=SplineBasisSpec.uniform(1, 3, -10.0, 40.0),
        )
        targets = [(d, 9) for d in dates[-5:]]
        rows, _ = run_forecasts(
            demand_problems(demand, temps, spec, targets, 20),
            SelectorConfig(structural_candidates(spec), (0.0, 0.1, 1.0, 10.0)),
            CvGrid(
                k=3,
                sigma2_candidates=(4.0, 16.0, 64.0),
                gamma_candidates=(0.0, 1.0),
                b_inner=20,
            ),
            None,
            60,
            0.05,
            seed=s,
        )
        for r in rows:
            assert r.truth is not None
            sq_pbs.append((r.prediction - r.truth) ** 2)
            sq_ridge.append((r.ridge_prediction - r.truth) ** 2)
        runs.append(rows)

    mspe_pbs = float(np.mean(sq_pbs))
    mspe_ridge = float(np.mean(sq_ridge))
    assert mspe_pbs <= 1.05 * mspe_ridge, (mspe_pbs, mspe_ridge)

    # coverage recomputes exactly from the emitted rows
    rows = runs[0]
    path = tmp_path / "report.csv"
    write_report_csv(rows, path)
    import csv

    with open(path, newline="") as fh:
        emitted = list(csv.DictReader(fh))
    flags = []
    for row in emitted:
        inside = float(row["lower"]) <= float(row["truth"]) <= float(row["upper"])
        assert int(row["covered"]) == int(inside)
        flags.append(int(row["covered"]))
    recomputed = sum(flags) / len(flags)
    assert accuracy(rows)["coverage"] == recomputed
    assert 0.0 <= recomputed <= 1.0


def test_criterion_9_thread_count_never_changes_output_bytes(tmp_path, rng):
    """Reruns and 1-vs-8-thread runs emit byte-identical primary files."""
    # simulate
    sim_cfg = tmp_path / "sim.json"
    sim_cfg.write_text(
        json.dumps(
            {
                "seed": 5,
                "study": {
                    "n": 23,
                    "reps": 3,
                    "b": 20,
                    "sigma2_sweep": [1.0, 9.0],
                    "gamma_sweep": [0.0, 1.0],
                    "lambda_grid": [0.0, 1.0],
                },
            }
        )
    )
    sim_outs = {}
    for tag, threads in [("a1", "1"), ("a2", "1"), ("b8", "8")]:
        out = tmp_path / f"sim_{tag}"
        assert (
            main(["simulate", "--config", str(sim_cfg), "--threads", threads, "--out", str(out)])
            == 0
        )
        sim_outs[tag] = out
    for name in ("study_mse.csv", "study_freq.csv"):
        ref = (sim_outs["a1"] / name).read_bytes()
        assert (sim_outs["a2"] / name).read_bytes() == ref
        assert (sim_outs["b8"] / name).read_bytes() == ref
    assert (sim_outs["a1"] / "summary.json").read_bytes() == (
        sim_outs["a2"] / "summary.json"
    ).read_bytes()

    # fit (matrix mode with CV selection)
    X = rng.uniform(-3.0, 3.0, size=(18, 3))
    y = X @ np.array([1.0, -2.0, 0.0]) + rng.normal(0.0, 1.0, size=18)
    Xt = rng.uniform(-3.0, 3.0, size=(5, 3))
    yt = Xt @ np.array([1.0, -2.0, 0.0]) + rng.normal(0.0, 1.0, size=5)
    from bootsmooth.tabular import fmt

    train = tmp_path / "train.csv"
    train.write_text(
        "y,x0,x1,x2\n"
        + "".join(
            ",".join([fmt(y[i])] + [fmt(v) for v in X[i]]) + "\n" for i in range(18)
        )
    )
    targets = tmp_path / "targets.csv"
    targets.write_text(
        "y,x0,x1,x2\n"
        + "".join(
            ",".join([fmt(yt[i])] + [fmt(v) for v in Xt[i]]) + "\n" for i in range(5)
        )
    )
    fit_cfg = tmp_path / "fit.json"
    fit_cfg.write_text(
        json.dumps(
            {
                "mode": "matrix",
                "train_csv": str(train),
                "targets_csv": str(targets),
                "lambda_grid": [0.0, 0.5],
                "b": 80,
                "seed": 12,
                "cv": {
                    "k": 3,
                    "sigma2_candidates": [0.5, 2.0],
                    "gamma_candidates": [0.0, 1.0],
                    "b_inner": 30,
                },
            }
        )
    )
    fit_outs = {}
    for tag, threads in [("a1", "1"), ("a2", "1"), ("b8", "8")]:
        out = tmp_path / f"fit_{tag}"
        assert (
            main(["fit", "--config", str(fit_cfg), "--threads", threads, "--out", str(out)])
            == 0
        )
        fit_outs[tag] = out
    for name in ("report.csv", "surface.csv"):
        ref = (fit_outs["a1"] / name).read_bytes()
        assert (fit_outs["a2"] / name).read_bytes() == ref
        assert (fit_outs["b8"] / name).read_bytes() == ref
    assert (fit_outs["a1"] / "summary.json").read_bytes() == (
        fit_outs["a2"] / "summary.json"
    ).read_bytes()
