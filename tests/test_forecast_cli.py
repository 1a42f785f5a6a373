"""End-to-end pipeline and command-line behaviour."""

import csv
import datetime as dt
import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from conftest import read_float_table, synth_weekday_demand, write_demand_files

import bootsmooth
from bootsmooth import (
    CandidateModel,
    ConfigError,
    CvGrid,
    Dataset,
    DemandModelSpec,
    DemandTable,
    NumericalError,
    ResamplingDistribution,
    SelectorConfig,
    SplineBasisSpec,
    StudyConfig,
    TargetRow,
    accuracy,
    bspline_basis,
    build_demand_design,
    cv_error_surface,
    demand_feature_row,
    demand_problems,
    derive_seed,
    evaluate_fixed_distribution,
    load_matrix_csv,
    pbs_fit,
    prediction_interval,
    run_forecasts,
    run_study,
    same_weekday_window,
    structural_candidates,
)
from bootsmooth import cli, tabular
from bootsmooth.cli import main
from bootsmooth.forecast import tune_distribution, window_spec
from bootsmooth.tabular import fmt


# Why a replicate count is bounded, as the config errors say it.
_STREAMS = "the replicates a seed's streams index"


def write_matrix_csv(path, X, y=None, names=None):
    p = X.shape[1]
    names = names or [f"x{i}" for i in range(p)]
    with open(path, "w") as fh:
        header = (["y"] + list(names)) if y is not None else list(names)
        fh.write(",".join(header) + "\n")
        for i in range(X.shape[0]):
            row = ([fmt(y[i])] if y is not None else []) + [fmt(v) for v in X[i]]
            fh.write(",".join(row) + "\n")


@pytest.fixture
def matrix_files(tmp_path, rng):
    n, m, p = 20, 6, 3
    beta = np.array([2.0, -1.0, 0.0])
    X = rng.uniform(-3.0, 3.0, size=(n, p))
    y = X @ beta + rng.normal(0.0, 1.0, size=n)
    Xt = rng.uniform(-3.0, 3.0, size=(m, p))
    yt = Xt @ beta + rng.normal(0.0, 1.0, size=m)
    train = tmp_path / "train.csv"
    targets = tmp_path / "targets.csv"
    write_matrix_csv(train, X, y)
    write_matrix_csv(targets, Xt, yt)
    return train, targets


def run_python(cwd, *args, **env):
    """Run ``python *args`` with this checkout's package on the path, and ``env`` set.

    A fresh interpreter shows what a user sees: pytest records warnings
    instead of printing them, and its own imports fill ``sys.modules``.
    """
    src = Path(bootsmooth.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src), **env}
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=300
    )


def base_matrix_config(train, targets):
    return {
        "mode": "matrix",
        "train_csv": str(train),
        "targets_csv": str(targets),
        "lambda_grid": [0.0, 0.1, 1.0],
        "b": 40,
        "alpha": 0.1,
        "seed": 7,
        "cv": {
            "k": 4,
            "sigma2_candidates": [0.5, 2.0],
            "gamma_candidates": [0.0, 1.0],
            "b_inner": 25,
        },
    }


def every_command_config(matrix_files) -> dict:
    """A matrix-mode config that every command accepts."""
    return {
        **base_matrix_config(*matrix_files),
        "distribution": {"sigma2": 1.0, "gamma": 0.5},
        "sigma2_sweep": [1.0],
        "gamma": 0.5,
        "svg": True,
        "study": {"n": 23, "reps": 1, "b": 5, "sigma2_sweep": [1.0], "gamma_sweep": [1.0]},
    }


def demand_command_config(tmp_path) -> dict:
    """A demand-mode config that ``fit`` and ``predict`` accept."""
    dates, demand_rows, temp_rows, _ = synth_weekday_demand(seed=3)
    dpath, tpath = write_demand_files(tmp_path, demand_rows, temp_rows)
    return {
        "mode": "demand",
        "demand_csv": str(dpath),
        "temperature_csv": str(tpath),
        "targets": [{"date": dates[-1].isoformat(), "hour": 9}],
        "temp_basis": {"n_basis": 5, "degree": 2},
        "lambda_grid": [0.0, 0.1, 1.0, 10.0],
        "b": 40,
        "seed": 11,
        "distribution": {"sigma2": 4.0, "gamma": 0.5},
        "cv": {"k": 3, "sigma2_candidates": [1.0, 4.0], "gamma_candidates": [0.0, 1.0], "b_inner": 20},
    }


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=2))
    return path


def write_text(path, text) -> str:
    """Write ``text`` to ``path``; returns the path as a string."""
    path.write_text(text)
    return str(path)


def read_report(path):
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return list(reader)


class TestLoadMatrixCsv:
    def test_with_and_without_truth(self, tmp_path, rng):
        X = rng.standard_normal((4, 2))
        y = rng.standard_normal(4)
        p1 = tmp_path / "a.csv"
        write_matrix_csv(p1, X, y)
        y1, X1, names = load_matrix_csv(p1)
        np.testing.assert_allclose(X1, X)
        np.testing.assert_allclose(y1, y)
        assert names == ("x0", "x1")
        p2 = tmp_path / "b.csv"
        write_matrix_csv(p2, X)
        y2, X2, _ = load_matrix_csv(p2)
        assert y2 is None
        np.testing.assert_allclose(X2, X)

    def test_errors(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("y,x0\n1,2\n3\n")
        from bootsmooth import IngestionError

        with pytest.raises(IngestionError, match="bad.csv:3"):
            load_matrix_csv(p)
        p.write_text("y,x0\n1,abc\n")
        with pytest.raises(IngestionError, match="bad.csv:2"):
            load_matrix_csv(p)
        # the first bad line in file order is reported, with its column
        p.write_text("y,x0\n1,abc\n3,4\n5\n")
        with pytest.raises(IngestionError) as err:
            load_matrix_csv(p)
        assert str(err.value) == f"{p}:2: x0 is not a number: 'abc'"

    @pytest.mark.parametrize("block_rows", [1, 2, 3, None], ids=["1", "2", "3", "shipped"])
    def test_bad_value_before_a_short_row(self, tmp_path, monkeypatch, block_rows):
        # the first fault in file order is reported, whichever block holds it
        if block_rows is not None:
            monkeypatch.setattr(tabular, "BLOCK_ROWS", block_rows, raising=False)
        from bootsmooth import IngestionError

        p = tmp_path / "bad.csv"
        rows = [f"{i},{2 * i},{3 * i}" for i in range(12)]
        rows[5] = "5,1e999,15"
        rows[9] = "9,18"
        p.write_text("y,x0,x1\n" + "\n".join(rows) + "\n")
        with pytest.raises(IngestionError) as err:
            load_matrix_csv(p)
        assert str(err.value) == f"{p}:7: x0 must be finite"


def assert_rows_match_intervals(rows, intervals):
    """Each row's smoothed prediction and bounds equal the interval's, to rounding."""
    assert len(rows) == len(intervals)
    for row, pi in zip(rows, intervals):
        tol = 1e-12 * (abs(pi.center) + pi.half_width)
        assert abs(row.prediction - pi.center) <= tol
        assert abs(row.lower - pi.lower) <= tol
        assert abs(row.upper - pi.upper) <= tol


def weekday_demand_inputs(seed):
    """Demand table, temperatures, spec and Monday dates of one synthetic series."""
    dates, demand_rows, temp_rows, _ = synth_weekday_demand(seed=seed)
    values = {(dt.date.fromisoformat(d), h): float(v) for d, h, v in demand_rows}
    demand = DemandTable(values=values, dates=tuple(sorted({k[0] for k in values})))
    temps = {dt.date.fromisoformat(d): float(v) for d, v in temp_rows}
    spec = DemandModelSpec(
        t_lags=1,
        hour_basis=SplineBasisSpec.uniform_cyclic(3, 1, 0.0, 24.0),
        temp_basis=SplineBasisSpec.uniform(1, 3, -10.0, 40.0),
    )
    return demand, temps, spec, dates


def fixed_domain_message(spec, temps, window, label) -> str:
    """The fixed-``temp_domain`` refusal, built from one ``bspline_basis`` call per modeled day."""
    seen = [temps[d] for d in window[spec.t_lags :]]
    idle = np.flatnonzero(sum(bspline_basis(spec.temp_basis, t) for t in seen) == 0)
    assert idle.size
    return (
        f"target {label}: the fixed temp_domain {list(spec.temp_basis.domain)} leaves "
        f"temperature basis functions {idle.tolist()} zero on every modeled day "
        f"(temperatures {min(seen):g} to {max(seen):g}); narrow temp_domain or omit it"
    )


class TestEvaluationPath:
    """Report rows carry prediction_interval's arithmetic on the evaluation fit."""

    @staticmethod
    def matrix_problem(rng, n=25, m=7):
        X = rng.uniform(-3.0, 3.0, size=(n, 4))
        data = Dataset(X @ np.array([1.5, -1.0, 0.5, 0.0]) + rng.standard_normal(n), X)
        Xt = rng.uniform(-3.0, 3.0, size=(m, 4))
        selector = SelectorConfig(
            candidates=(CandidateModel("a", (0, 1)), CandidateModel("full", (0, 1, 2, 3))),
            lambda_grid=(0.0, 0.1, 1.0),
        )
        return data, Xt, selector

    def test_matrix_rows_match_prediction_interval(self, rng):
        data, Xt, selector = self.matrix_problem(rng)
        dist = ResamplingDistribution(gamma=0.6, sigma2=2.0)
        labels = [str(i) for i in range(7)]
        rows, surfaces = run_forecasts(
            [(data, Xt, labels, None)] * 3, selector, None, dist, 70, 0.1, 13
        )
        assert surfaces == [] and len(rows) == 21
        for i in range(3):
            fit = pbs_fit(data, dist, 70, selector, derive_seed(13, 0, i))
            intervals = [prediction_interval(fit, data, x, 0.1) for x in Xt]
            assert_rows_match_intervals(rows[7 * i : 7 * (i + 1)], intervals)
        assert [r.label for r in rows[:7]] == labels

    def test_target_rows_may_be_a_list(self, rng):
        data, Xt, selector = self.matrix_problem(rng)
        dist = ResamplingDistribution(gamma=0.6, sigma2=2.0)
        labels = [str(i) for i in range(7)]
        from_array, _ = run_forecasts([(data, Xt, labels, None)], selector, None, dist, 30, 0.1, 2)
        from_list, _ = run_forecasts(
            [(data, Xt.tolist(), labels, None)], selector, None, dist, 30, 0.1, 2
        )
        assert from_list == from_array

    @pytest.mark.parametrize("name, count", [("labels", 2), ("truths", 1)])
    def test_labels_and_truths_need_one_entry_per_target_row(self, rng, name, count):
        data, Xt, selector = self.matrix_problem(rng, n=12, m=3)
        given = {"labels": ["0", "1", "2"], "truths": None, name: [1.0] * count}
        dist = ResamplingDistribution(gamma=0.6, sigma2=2.0)
        with pytest.raises(ValueError, match=f"^{name} has {count} entries for 3 target rows$"):
            evaluate_fixed_distribution(
                data, Xt, given["labels"], given["truths"], dist, 10, selector, 0.1, 0
            )

    def test_neither_grid_nor_dist_is_a_value_error(self, rng):
        data, Xt, selector = self.matrix_problem(rng, n=12, m=3)
        with pytest.raises(ValueError, match="^grid is required when dist is None$"):
            run_forecasts([(data, Xt, ["0", "1", "2"], None)], selector, None, None, 10, 0.1, 0)

    def test_neither_grid_nor_dist_draws_no_problem(self):
        demand, temps, spec, dates = weekday_demand_inputs(seed=5)
        selector = SelectorConfig(structural_candidates(spec), (0.0, 0.1, 1.0))
        # the first date has no history, so drawing its problem raises ConfigError
        problems = demand_problems(demand, temps, spec, [(dates[0], 9)], 15)
        with pytest.raises(ValueError, match="^grid is required when dist is None$"):
            run_forecasts(problems, selector, None, None, 10, 0.1, 0)
        with pytest.raises(ConfigError, match="same-weekday days of history"):
            next(problems)

    def test_fixed_domain_refusal_names_the_functions_idle_under_every_hour_function(self):
        # at hour 9 the second of two degree-0 hour functions is zero, so its
        # tensor columns are zero whatever the temperature
        demand, temps, spec, dates = weekday_demand_inputs(seed=5)
        spec = DemandModelSpec(
            t_lags=2,
            hour_basis=SplineBasisSpec.uniform_cyclic(0, 2, 0.0, 24.0),
            temp_basis=SplineBasisSpec.uniform(1, 8, -40.0, 80.0),
        )
        day = dates[-1]
        window = same_weekday_window(demand.dates, day, 15)
        label = f"{day.isoformat()}:09"
        with pytest.raises(NumericalError) as info:
            next(demand_problems(demand, temps, spec, [(day, 9)], 15, auto_temp_domain=False))
        assert str(info.value) == fixed_domain_message(spec, temps, window, label)

    def test_demand_rows_match_prediction_interval(self):
        demand, temps, spec, dates = weekday_demand_inputs(seed=5)
        selector = SelectorConfig(structural_candidates(spec), (0.0, 0.1, 1.0))
        dist = ResamplingDistribution(gamma=0.5, sigma2=4.0)
        targets = [(d, 9) for d in dates[-3:]]
        rows, _ = run_forecasts(
            demand_problems(demand, temps, spec, targets, 15), selector, None, dist, 40, 0.05, 3
        )
        intervals = []
        for ti, (day, hour) in enumerate(targets):
            window = same_weekday_window(demand.dates, day, 15)
            wspec = window_spec(spec, temps, window, day)
            data = build_demand_design(demand, temps, wspec, hour, window)
            x_t = demand_feature_row(demand, temps, wspec, hour, window, day)
            fit = pbs_fit(data, dist, 40, selector, derive_seed(3, 0, ti))
            intervals.append(prediction_interval(fit, data, x_t, 0.05))
        assert_rows_match_intervals(rows, intervals)
        assert [r.label for r in rows] == [f"{d.isoformat()}:09" for d, _ in targets]

    def test_demand_target_t_tunes_and_evaluates_with_index_t(self):
        demand, temps, spec, dates = weekday_demand_inputs(seed=6)
        selector = SelectorConfig(structural_candidates(spec), (0.0, 0.1, 1.0))
        grid = CvGrid(
            k=3, sigma2_candidates=(1.0, 4.0, 16.0), gamma_candidates=(0.0, 1.0), b_inner=10
        )
        targets = [(d, 9) for d in dates[-3:]]
        rows, surfaces = run_forecasts(
            demand_problems(demand, temps, spec, targets, 15), selector, grid, None, 30, 0.05, 11
        )
        assert len(rows) == len(surfaces) == 3
        for t, problem in enumerate(demand_problems(demand, temps, spec, targets, 15)):
            data, x_t, labels, truths = problem
            surface, dist = tune_distribution(data, grid, selector, 11, t)
            np.testing.assert_array_equal(surfaces[t].errors, surface.errors)
            assert (rows[t].sigma2, rows[t].gamma) == (dist.sigma2, dist.gamma)
            oracle = evaluate_fixed_distribution(
                data, x_t, labels, truths, dist, 30, selector, 0.05, derive_seed(11, 0, t)
            )
            assert [rows[t]] == oracle

    @pytest.mark.parametrize(
        "field", ["prediction", "lower", "upper", "ridge_prediction", "ridge_lower", "ridge_upper"]
    )
    def test_target_row_refuses_a_non_finite_bound(self, field):
        values = dict(
            prediction=1.0, lower=0.0, upper=2.0,
            ridge_prediction=1.0, ridge_lower=0.0, ridge_upper=2.0,
        )
        values[field] = float("nan")
        with pytest.raises(NumericalError) as info:
            TargetRow(label="2021-06-28:09", truth=None, sigma2=4.0, gamma=0.5, **values)
        assert str(info.value) == f"target 2021-06-28:09: {field} is nan at sigma2=4.0, gamma=0.5"


class TestAccuracy:
    @staticmethod
    def row(prediction, ridge_prediction, truth):
        return TargetRow(
            label="t",
            prediction=prediction,
            lower=prediction - 1.0,
            upper=prediction + 1.0,
            ridge_prediction=ridge_prediction,
            ridge_lower=ridge_prediction - 0.5,
            ridge_upper=ridge_prediction + 0.5,
            truth=truth,
            sigma2=1.0,
            gamma=0.5,
        )

    def test_means_over_the_rows_with_a_truth(self):
        rows = [self.row(1.0, 0.0, 1.5), self.row(2.0, 0.0, None), self.row(0.0, 0.0, 3.0)]
        assert accuracy(rows) == {
            "mspe": (0.25 + 9.0) / 2,
            "mspe_ridge": (2.25 + 9.0) / 2,
            "coverage": 0.5,
            "coverage_ridge": 0.0,
        }
        assert accuracy(rows[1:2]) == dict.fromkeys(["mspe", "mspe_ridge", "coverage", "coverage_ridge"])
        assert accuracy([]) == accuracy(rows[1:2])

    @pytest.mark.parametrize(
        "prediction, ridge_prediction, name",
        [(1e200, 1e200, "mspe"), (0.0, 1e200, "mspe_ridge")],
    )
    def test_the_first_non_finite_value_is_named(self, prediction, ridge_prediction, name):
        rows = [self.row(prediction, ridge_prediction, 0.0)]
        with pytest.raises(NumericalError, match=f"^{name} over the targets with a truth is inf$"):
            accuracy(rows)


class TestFitCommand:
    def test_fit_writes_consistent_report(self, tmp_path, matrix_files):
        train, targets = matrix_files
        cfg_path = write_config(tmp_path, base_matrix_config(train, targets))
        out = tmp_path / "out"
        assert main(["fit", "--config", str(cfg_path), "--out", str(out)]) == 0
        rows = read_report(out / "report.csv")
        summary = json.loads((out / "summary.json").read_text())
        assert (out / "surface.csv").exists()
        assert summary["surface_csv"] == "surface.csv"
        assert summary["n_targets"] == len(rows) == 6

        # accuracy summaries recompute exactly from the emitted rows
        sq = [(float(r["prediction"]) - float(r["truth"])) ** 2 for r in rows]
        assert summary["mspe"] == pytest.approx(float(np.mean(sq)), abs=1e-12)
        cov = [int(r["covered"]) for r in rows]
        assert summary["coverage"] == float(np.mean(cov))
        sq_r = [(float(r["ridge_prediction"]) - float(r["truth"])) ** 2 for r in rows]
        assert summary["mspe_ridge"] == pytest.approx(float(np.mean(sq_r)), abs=1e-12)
        # interval bounds honour the emitted coverage flags
        for r in rows:
            inside = float(r["lower"]) <= float(r["truth"]) <= float(r["upper"])
            assert inside == bool(int(r["covered"]))
        assert (summary["selected_sigma2"], summary["selected_gamma"]) in [
            (s2, g) for s2 in (0.5, 2.0) for g in (0.0, 1.0)
        ]

    def test_rerun_is_byte_identical(self, tmp_path, matrix_files):
        train, targets = matrix_files
        cfg_path = write_config(tmp_path, base_matrix_config(train, targets))
        outs = [tmp_path / f"out{i}" for i in range(2)]
        for out in outs:
            assert main(["fit", "--config", str(cfg_path), "--out", str(out)]) == 0
        for name in ("report.csv", "summary.json", "surface.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_thread_override_keeps_bytes(self, tmp_path, matrix_files):
        train, targets = matrix_files
        cfg_path = write_config(tmp_path, base_matrix_config(train, targets))
        out1, out8 = tmp_path / "t1", tmp_path / "t8"
        assert main(["fit", "--config", str(cfg_path), "--threads", "1", "--out", str(out1)]) == 0
        assert main(["fit", "--config", str(cfg_path), "--threads", "8", "--out", str(out8)]) == 0
        assert (out1 / "report.csv").read_bytes() == (out8 / "report.csv").read_bytes()
        assert (out1 / "surface.csv").read_bytes() == (out8 / "surface.csv").read_bytes()
        summary1 = json.loads((out1 / "summary.json").read_text())
        summary8 = json.loads((out8 / "summary.json").read_text())
        summary1.pop("threads"), summary8.pop("threads")
        assert summary1 == summary8

    def test_fit_does_not_import_scipy(self, tmp_path, matrix_files):
        # nor, after a fit and a simulate, the thread pool or its logging
        cfg_path = write_config(tmp_path, base_matrix_config(*matrix_files))
        sim_path = write_config(
            tmp_path, {"study": {"n": 23, "reps": 1, "b": 5, "sigma2_sweep": [1.0]}}, "sim.json"
        )
        code = (
            "import sys\n"
            "import bootsmooth.cli\n"
            f"fit = bootsmooth.cli.main(['fit', '--config', {str(cfg_path)!r}, '--out', 'o'])\n"
            f"sim = bootsmooth.cli.main(['simulate', '--config', {str(sim_path)!r}, '--out', 's'])\n"
            "print(fit, sim, [m in sys.modules for m in ('scipy', 'concurrent.futures', 'logging')])\n"
        )
        proc = run_python(tmp_path, "-c", code)
        assert (proc.returncode, proc.stdout) == (0, "0 0 [False, False, False]\n"), proc.stderr

    def test_outputs_do_not_depend_on_the_hash_seed(self, tmp_path, matrix_files):
        # each interpreter hashes strings with its own seed, which orders
        # sets and keys memo dicts; no output byte may follow that order
        configs = {
            "matrix": write_config(tmp_path, base_matrix_config(*matrix_files), "matrix.json"),
            "demand": write_config(tmp_path, demand_command_config(tmp_path), "demand.json"),
            "sim": write_config(
                tmp_path, {"seed": 5, "study": {"n": 23, "reps": 1, "b": 20}}, "sim.json"
            ),
        }
        calls = [("fit", "matrix"), ("fit", "demand"), ("simulate", "sim")]
        for hash_seed in ("0", "1"):
            code = "import bootsmooth.cli\n" + "".join(
                f"assert bootsmooth.cli.main([{command!r}, '--config', {str(configs[name])!r}, "
                f"'--out', {f'{name}_{hash_seed}'!r}]) == 0\n"
                for command, name in calls
            )
            proc = run_python(tmp_path, "-c", code, PYTHONHASHSEED=hash_seed)
            assert proc.returncode == 0, proc.stderr
        for _, name in calls:
            first, second = tmp_path / f"{name}_0", tmp_path / f"{name}_1"
            names = sorted(p.name for p in first.iterdir())
            assert names == sorted(p.name for p in second.iterdir()) and "summary.json" in names
            for file in names:
                assert (first / file).read_bytes() == (second / file).read_bytes(), (name, file)


class TestPredictCommand:
    def test_deterministic_summary(self, tmp_path, matrix_files):
        train, targets = matrix_files
        cfg = base_matrix_config(train, targets)
        cfg["distribution"] = {"sigma2": 1.5, "gamma": 0.5}
        cfg_path = write_config(tmp_path, cfg)
        out1, out2 = tmp_path / "p1", tmp_path / "p2"
        assert main(["predict", "--config", str(cfg_path), "--out", str(out1)]) == 0
        assert main(["predict", "--config", str(cfg_path), "--out", str(out2)]) == 0
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()

    def test_requires_distribution(self, tmp_path, matrix_files):
        train, targets = matrix_files
        cfg_path = write_config(tmp_path, base_matrix_config(train, targets))
        assert main(["predict", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 2


class TestSweepCommand:
    def test_single_point_equals_fit_with_pinned_grid(self, tmp_path, matrix_files):
        train, targets = matrix_files
        ofit, osweep = tmp_path / "fit", tmp_path / "sweep"
        cfg_fit = base_matrix_config(train, targets)
        cfg_fit["cv"] = {"k": 4, "sigma2_candidates": [1.5], "gamma_candidates": [0.5], "b_inner": 10}
        assert main(["fit", "--config", str(write_config(tmp_path, cfg_fit, "f.json")), "--out", str(ofit)]) == 0
        cfg_sw = base_matrix_config(train, targets)
        cfg_sw["sigma2_sweep"] = [1.5]
        cfg_sw["gamma"] = 0.5
        assert main(["sweep-sigma", "--config", str(write_config(tmp_path, cfg_sw, "s.json")), "--out", str(osweep)]) == 0
        fit_summary = json.loads((ofit / "summary.json").read_text())
        sweep_rows = read_report(osweep / "sweep.csv")
        assert len(sweep_rows) == 1
        assert float(sweep_rows[0]["sigma2"]) == 1.5
        assert float(sweep_rows[0]["mspe"]) == fit_summary["mspe"]
        assert float(sweep_rows[0]["coverage"]) == fit_summary["coverage"]

    def test_points_match_derived_seed_runs(self, tmp_path, matrix_files):
        train, targets = matrix_files
        cfg = base_matrix_config(train, targets)
        cfg["sigma2_sweep"] = [0.5, 1.0, 4.0]
        cfg["gamma"] = 1.0
        out = tmp_path / "sw"
        assert main(["sweep-sigma", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 0
        rows = read_report(out / "sweep.csv")

        y, X, _ = load_matrix_csv(train)
        data = Dataset(y, X)
        yt, Xt, _ = load_matrix_csv(targets)
        selector = SelectorConfig(
            candidates=(CandidateModel("full", (0, 1, 2)),), lambda_grid=(0.0, 0.1, 1.0)
        )
        labels = [str(t) for t in range(len(Xt))]
        for i, row in enumerate(rows):
            oracle_rows = evaluate_fixed_distribution(
                data,
                Xt,
                labels,
                list(yt),
                ResamplingDistribution(gamma=1.0, sigma2=float(row["sigma2"])),
                40,
                selector,
                0.1,
                derive_seed(7, 0, i),
            )
            mspe = float(np.mean([(r.prediction - r.truth) ** 2 for r in oracle_rows]))
            assert float(row["mspe"]) == pytest.approx(mspe, abs=1e-12)

    def test_curve_deterministic_per_seed(self, tmp_path, matrix_files):
        train, targets = matrix_files
        cfg = base_matrix_config(train, targets)
        cfg["sigma2_sweep"] = [0.5, 2.0]
        cfg["gamma"] = 0.5
        cfg_path = write_config(tmp_path, cfg)
        o1, o2 = tmp_path / "s1", tmp_path / "s2"
        assert main(["sweep-sigma", "--config", str(cfg_path), "--out", str(o1)]) == 0
        assert main(["sweep-sigma", "--config", str(cfg_path), "--out", str(o2)]) == 0
        assert (o1 / "sweep.csv").read_bytes() == (o2 / "sweep.csv").read_bytes()

    def test_requires_truth(self, tmp_path, matrix_files, rng):
        train, _ = matrix_files
        bare = tmp_path / "bare.csv"
        write_matrix_csv(bare, rng.standard_normal((3, 3)))
        cfg = base_matrix_config(train, bare)
        cfg["sigma2_sweep"] = [1.0]
        cfg["gamma"] = 1.0
        assert main(["sweep-sigma", "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "o")]) == 2


class TestSelectDistCommand:
    def test_surface_matches_library_run(self, tmp_path, matrix_files):
        train, targets = matrix_files
        cfg = base_matrix_config(train, targets)
        out = tmp_path / "sd"
        assert main(["select-dist", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())

        y, X, _ = load_matrix_csv(train)
        data = Dataset(y, X)
        selector = SelectorConfig(
            candidates=(CandidateModel("full", (0, 1, 2)),), lambda_grid=(0.0, 0.1, 1.0)
        )
        grid = CvGrid(**cfg["cv"], seed=derive_seed(7, 1, 0))
        surface = cv_error_surface(data, grid, selector)
        _, rows = read_float_table(out / "surface.csv")
        np.testing.assert_array_equal([r[1:] for r in rows], surface.errors)
        assert (summary["selected_sigma2"], summary["selected_gamma"]) == surface.selected


class TestDemandCommand:
    def test_rolling_fit_end_to_end(self, tmp_path):
        dates, demand_rows, temp_rows, truth = synth_weekday_demand(seed=3)
        dpath, tpath = write_demand_files(tmp_path, demand_rows, temp_rows)
        cfg = {
            "mode": "demand",
            "demand_csv": str(dpath),
            "temperature_csv": str(tpath),
            "targets": [{"date": dates[-1].isoformat(), "hour": 9}],
            "window_days": 15,
            "t_lags": 1,
            "hour_basis": {"n_basis": 1, "degree": 3},
            "temp_basis": {"n_basis": 5, "degree": 2},
            "lambda_grid": [0.0, 0.1, 1.0, 10.0],
            "b": 40,
            "seed": 11,
            "cv": {"k": 3, "sigma2_candidates": [1.0, 4.0, 16.0], "gamma_candidates": [0.0, 1.0], "b_inner": 20},
        }
        out = tmp_path / "out"
        assert main(["fit", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 0
        rows = read_report(out / "report.csv")
        assert len(rows) == 1
        row = rows[0]
        assert row["target"] == f"{dates[-1].isoformat()}:09"
        assert float(row["truth"]) == pytest.approx(truth[(dates[-1], 9)], rel=1e-12)
        assert float(row["lower"]) <= float(row["upper"])
        summary = json.loads((out / "summary.json").read_text())
        assert summary["coverage"] in (0.0, 1.0)

    def test_target_product_form(self, tmp_path):
        dates, demand_rows, temp_rows, _ = synth_weekday_demand(seed=6)
        dpath, tpath = write_demand_files(tmp_path, demand_rows, temp_rows)
        cfg = {
            "mode": "demand",
            "demand_csv": str(dpath),
            "temperature_csv": str(tpath),
            "targets": {"dates": [dates[-2].isoformat(), dates[-1].isoformat()], "hours": [9]},
            "window_days": 15,
            "temp_basis": {"n_basis": 3, "degree": 1},
            "b": 20,
            "cv": {"k": 3, "sigma2_candidates": [4.0], "gamma_candidates": [1.0], "b_inner": 10},
        }
        out = tmp_path / "out"
        assert main(["fit", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 0
        assert len(read_report(out / "report.csv")) == 2

    def test_malformed_targets_are_config_errors(self, tmp_path):
        dates, demand_rows, temp_rows, _ = synth_weekday_demand(seed=6)
        dpath, tpath = write_demand_files(tmp_path, demand_rows, temp_rows)
        base = {
            "mode": "demand",
            "demand_csv": str(dpath),
            "temperature_csv": str(tpath),
            "temp_basis": {"n_basis": 3, "degree": 1},
            "cv": {"k": 3, "sigma2_candidates": [4.0], "gamma_candidates": [1.0], "b_inner": 5},
        }
        for targets in ({"dates": ["2021-06-28"]}, [{"date": "2021-06-28"}], []):
            cfg = dict(base, targets=targets)
            code = main(["fit", "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "o")])
            assert code == 2, targets

    @pytest.mark.parametrize("form", ["integer", "compact", "week"])
    def test_target_date_must_be_a_yyyy_mm_dd_string(self, tmp_path, capsys, form):
        # Python >= 3.11's date.fromisoformat reads the compact and week forms
        dates, demand_rows, temp_rows, _ = synth_weekday_demand(seed=3)
        dpath, tpath = write_demand_files(tmp_path, demand_rows, temp_rows)
        year, week, weekday = dates[-1].isocalendar()
        date = {
            "integer": int(dates[-1].strftime("%Y%m%d")),
            "compact": dates[-1].strftime("%Y%m%d"),
            "week": f"{year}-W{week:02d}-{weekday}",
        }[form]
        cfg = {
            "mode": "demand",
            "demand_csv": str(dpath),
            "temperature_csv": str(tpath),
            "targets": [{"date": date, "hour": 9}],
            "distribution": {"sigma2": 4.0, "gamma": 0.5},
        }
        out = tmp_path / "o"
        assert main(["predict", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert not (out / "report.csv").exists()

    @pytest.mark.parametrize("csv_key", ["demand_csv", "temperature_csv"])
    @pytest.mark.parametrize("form", ["%Y%m%d", "%G-W%V-%u"])
    def test_csv_dates_must_be_yyyy_mm_dd(self, tmp_path, capsys, csv_key, form):
        dates, demand_rows, temp_rows, _ = synth_weekday_demand(seed=3)
        other = dates[0].strftime(form)
        if csv_key == "demand_csv":
            demand_rows = [(other, *demand_rows[0][1:]), *demand_rows[1:]]
        else:
            temp_rows = [(other, *temp_rows[0][1:]), *temp_rows[1:]]
        dpath, tpath = write_demand_files(tmp_path, demand_rows, temp_rows)
        cfg = {
            "mode": "demand",
            "demand_csv": str(dpath),
            "temperature_csv": str(tpath),
            "targets": [{"date": dates[-1].isoformat(), "hour": 9}],
            "distribution": {"sigma2": 4.0, "gamma": 0.5},
        }
        out = tmp_path / "o"
        assert main(["predict", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 3
        path = dpath if csv_key == "demand_csv" else tpath
        assert capsys.readouterr().err == f"ingestion error: {path}:2: bad ISO date {other!r}\n"

    def test_demand_predict_with_fixed_distribution(self, tmp_path):
        dates, demand_rows, temp_rows, _ = synth_weekday_demand(seed=8)
        dpath, tpath = write_demand_files(tmp_path, demand_rows, temp_rows)
        cfg = {
            "mode": "demand",
            "demand_csv": str(dpath),
            "temperature_csv": str(tpath),
            "targets": [{"date": dates[-1].isoformat(), "hour": 9}],
            "window_days": 15,
            "temp_basis": {"n_basis": 3, "degree": 1},
            "distribution": {"sigma2": 4.0, "gamma": 0.5},
            "b": 30,
            "seed": 2,
        }
        out = tmp_path / "out"
        assert main(["predict", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 0
        row = read_report(out / "report.csv")[0]
        assert (float(row["sigma2"]), float(row["gamma"])) == (4.0, 0.5)

    def test_non_finite_interval_names_the_target_date_and_hour(self, tmp_path, capsys):
        dates, demand_rows, temp_rows, _ = synth_weekday_demand(seed=8)
        dpath, tpath = write_demand_files(tmp_path, demand_rows, temp_rows)
        cfg = {
            "mode": "demand",
            "demand_csv": str(dpath),
            "temperature_csv": str(tpath),
            "targets": [{"date": dates[-1].isoformat(), "hour": 9}],
            "temp_basis": {"n_basis": 3, "degree": 1},
            "distribution": {"sigma2": 1e300, "gamma": 0.5},
            "b": 30,
        }
        out = tmp_path / "out"
        assert main(["predict", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"numerical error: target {dates[-1].isoformat()}:09: ")
        assert err.count("\n") == 1
        assert not (out / "report.csv").exists()

    @pytest.mark.parametrize("command", ["fit", "predict"])
    def test_unsupported_fixed_temp_domain_names_the_target(self, tmp_path, capsys, command):
        # it used to exit 4 with an ols_fit message naming no target or temp_domain
        cfg = {**demand_command_config(tmp_path), "temp_domain": [-20, 45]}
        out = tmp_path / "o"
        assert main([command, "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        target = cfg["targets"][0]["date"]
        assert err.startswith(f"numerical error: target {target}:09: the fixed temp_domain [-20.0, 45.0] ")
        assert err.count("\n") == 1
        assert list(out.iterdir()) == []

    def test_fixed_temp_domain_refusal_matches_a_per_day_basis(self, tmp_path, capsys):
        cfg = {**demand_command_config(tmp_path), "temp_domain": [-20, 45]}
        assert main(["predict", "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "o")]) == 4
        demand, temps, _, _ = weekday_demand_inputs(seed=3)
        spec = DemandModelSpec(
            t_lags=1,
            hour_basis=SplineBasisSpec.uniform_cyclic(3, 1, 0.0, 24.0),
            temp_basis=SplineBasisSpec.uniform(2, 5, -20.0, 45.0),
        )
        day = dt.date.fromisoformat(cfg["targets"][0]["date"])
        window = same_weekday_window(demand.dates, day, 15)
        want = fixed_domain_message(spec, temps, window, f"{day.isoformat()}:09")
        assert capsys.readouterr().err == f"numerical error: {want}\n"

    def test_training_block_singular_only_in_raw_units_is_fitted(self, tmp_path):
        # six cubic temperature functions: a fold-0 training block's X'X has
        # reciprocal condition about 2e-15 on the raw columns (the lag column
        # is a demand near 80, the spline columns lie in [0, 1]) and about
        # 4e-6 on unit-norm columns, so the rank guard accepts it
        cfg = {**demand_command_config(tmp_path), "temp_basis": {"n_basis": 6, "degree": 3}}
        out = tmp_path / "o"
        assert main(["fit", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 0
        assert (out / "report.csv").exists()

    @pytest.mark.parametrize("n_basis", [7, 8])
    def test_singular_training_block_names_the_target_and_the_columns(self, tmp_path, capsys, n_basis):
        # cubic temperature columns that are collinear on a CV training
        # block used to exit 4 naming neither the target nor the key
        cfg = {**demand_command_config(tmp_path), "temp_basis": {"n_basis": n_basis, "degree": 3}}
        out = tmp_path / "o"
        assert main(["fit", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        target = cfg["targets"][0]["date"]
        assert err.startswith(f"numerical error: target {target}:09: fold 0: ols_fit: ")
        assert err.endswith(f"; the design's columns are t_lags + temp_basis.n_basis = 1 + {n_basis}\n")
        assert err.count("\n") == 1
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["fit", "predict"])
    def test_hour_basis_with_two_or_more_functions_is_refused(self, tmp_path, capsys, command):
        # it used to run until the first fit and exit 4 with an ols_fit
        # message naming neither the target nor hour_basis
        cfg = {**demand_command_config(tmp_path), "hour_basis": {"n_basis": 2, "degree": 1}}
        out = tmp_path / "o"
        assert main([command, "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: hour_basis.n_basis must be 1, got 2: demand mode fits one regression "
            "per hour, where the hour functions are constants and their columns collinear\n"
        )
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["fit", "predict"])
    @pytest.mark.parametrize("m", [13, 20, 1000])
    def test_temp_basis_wider_than_a_window_is_refused(self, tmp_path, capsys, command, m):
        # it used to exit 4 with an ols_fit message naming neither the target
        # nor temp_basis; 1 lag + M columns need more than the 14 rows
        cfg = {**demand_command_config(tmp_path), "temp_basis": {"n_basis": m, "degree": 3}}
        out = tmp_path / "o"
        assert main([command, "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: t_lags + temp_basis.n_basis must be below the 14 rows each window fits "
            f"(window_days=15 minus t_lags=1), got 1 + {m}\n"
        )
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("domain", [[-10, float("inf")], [-1e308, 1e308]], ids=["infinite", "overflowing"])
    def test_temp_domain_of_infinite_width_is_refused(self, tmp_path, capsys, domain):
        # it used to exit 2 with "interior knots must be strictly increasing"
        cfg = {**demand_command_config(tmp_path), "temp_domain": domain}
        out = tmp_path / "o"
        assert main(["predict", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 2
        lo, hi = map(float, domain)
        assert capsys.readouterr().err == f"config error: temp_domain must have a finite width, got [{lo}, {hi}]\n"
        assert list(out.iterdir()) == []

    def test_temperatures_of_infinite_width_without_temp_domain_are_refused(self, tmp_path, capsys):
        # the placeholder domain over the file's temperatures overflowed, and
        # predict exited 2 with "interior knots must be strictly increasing"
        cfg = demand_command_config(tmp_path)
        path = Path(cfg["temperature_csv"])
        lines = path.read_text().splitlines()
        lines[1] = lines[1].split(",")[0] + ",-1e308"
        lines[2] = lines[2].split(",")[0] + ",1e308"
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "o"
        assert main(["predict", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: the temperatures in temperature_csv span [-1e+308, 1e+308], whose "
            "width is not finite; set temp_domain to a [lo, hi] of finite width\n"
        )
        assert list(out.iterdir()) == []

    def test_explicit_candidates(self, tmp_path):
        dates, demand_rows, temp_rows, _ = synth_weekday_demand(seed=3)
        dpath, tpath = write_demand_files(tmp_path, demand_rows, temp_rows)
        base = {
            "mode": "demand",
            "demand_csv": str(dpath),
            "temperature_csv": str(tpath),
            "targets": [{"date": dates[-1].isoformat(), "hour": 9}],
            "temp_basis": {"n_basis": 4, "degree": 2},
            "lambda_grid": [0.0, 1.0],
            "b": 20,
            "cv": {"k": 3, "sigma2_candidates": [4.0], "gamma_candidates": [1.0], "b_inner": 10},
        }
        out = tmp_path / "out"
        cfg = dict(base, candidates=[[0, 1], [0, 1, 2, 3, 4]])
        assert main(["fit", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 0
        assert len(read_report(out / "report.csv")) == 1
        for bad in ([{"columns": [0, 1]}], [{"id": "lags"}]):
            cfg = dict(base, candidates=bad)
            code = main(["fit", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)])
            assert code == 2, bad

    @pytest.mark.parametrize("key, value", [("demand_csv", None), ("temperature_csv", 0)])
    def test_non_string_paths_are_refused(self, tmp_path, capsys, key, value):
        dates, demand_rows, temp_rows, _ = synth_weekday_demand(seed=3)
        dpath, tpath = write_demand_files(tmp_path, demand_rows, temp_rows)
        cfg = {
            "mode": "demand",
            "demand_csv": str(dpath),
            "temperature_csv": str(tpath),
            "targets": [{"date": dates[-1].isoformat(), "hour": 9}],
            key: value,
        }
        assert main(["fit", "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"config error: {key} must be a string, got {json.dumps(value)}\n"

    def test_select_dist_rejects_demand_mode(self, tmp_path):
        cfg = {"mode": "demand", "demand_csv": "x.csv", "temperature_csv": "t.csv"}
        assert main(["select-dist", "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "o")]) == 2

    def test_missing_temperature_lists_date(self, tmp_path):
        dates, demand_rows, temp_rows, _ = synth_weekday_demand(seed=4)
        target = dates[-1]
        temp_rows = [row for row in temp_rows if row[0] != target.isoformat()]
        dpath, tpath = write_demand_files(tmp_path, demand_rows, temp_rows)
        cfg = {
            "mode": "demand",
            "demand_csv": str(dpath),
            "temperature_csv": str(tpath),
            "targets": [{"date": target.isoformat(), "hour": 9}],
            "window_days": 15,
            "temp_basis": {"n_basis": 4, "degree": 2},
            "b": 10,
            "cv": {"k": 3, "sigma2_candidates": [1.0], "gamma_candidates": [1.0], "b_inner": 5},
        }
        import io
        from contextlib import redirect_stderr

        buf = io.StringIO()
        with redirect_stderr(buf):
            code = main(["fit", "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "o")])
        assert code == 3
        assert target.isoformat() in buf.getvalue()


class TestSimulateCommand:
    def test_smoke_and_round_trip(self, tmp_path):
        cfg = {
            "seed": 5,
            "svg": True,
            "study": {
                "n": 23,
                "reps": 2,
                "b": 15,
                "sigma2_sweep": [1.0, 4.0],
                "gamma_sweep": [0.0, 1.0],
                "lambda_grid": [0.0, 1.0],
            },
        }
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 0
        _, mse_rows = read_float_table(out / "study_mse.csv", ("sigma2", "gamma", "value"))
        _, freq_rows = read_float_table(
            out / "study_freq.csv", ("sigma2", "gamma", "model_id", "value")
        )
        assert (out / "study_mse.svg").exists()

        result = run_study(
            StudyConfig(
                n=23, reps=2, b=15, sigma2_sweep=(1.0, 4.0), gamma_sweep=(0.0, 1.0),
                lambda_grid=(0.0, 1.0), master_seed=5,
            )
        )
        for s2, g, v in mse_rows:
            assert v == result.mse_at(s2, g)
        for s2, g, mid, v in freq_rows:
            assert v == result.freq_at(s2, g)[int(mid) - 1]
        for s2 in (1.0, 4.0):
            for g in (0.0, 1.0):
                cell = [v for (a, b, _, v) in freq_rows if (a, b) == (s2, g)]
                assert abs(sum(cell) - 1.0) < 1e-12
        summary = json.loads((out / "summary.json").read_text())
        assert summary["ridge_baseline_mse"] == result.ridge_baseline_mse


FORECAST_SUMMARY_KEYS = {
    "command", "mode", "alpha", "seed", "b", "threads", "n_targets", "mspe", "mspe_ridge",
    "coverage", "coverage_ridge", "selected_sigma2", "selected_gamma", "surface_csv",
}
SIMULATE_SUMMARY_KEYS = {
    "command", "n", "true_model_j", "reps", "b", "seed", "threads", "ridge_baseline_mse",
    "mse_csv", "freq_csv",
}


class TestSummaryKeys:
    @pytest.mark.parametrize(
        "command, mode, svg, keys",
        [
            ("fit", "matrix", True, FORECAST_SUMMARY_KEYS),
            ("fit", "demand", True, FORECAST_SUMMARY_KEYS),
            ("predict", "matrix", True, FORECAST_SUMMARY_KEYS),
            ("predict", "demand", True, FORECAST_SUMMARY_KEYS),
            (
                "select-dist",
                "matrix",
                True,
                {"command", "mode", "seed", "threads", "selected_sigma2", "selected_gamma", "surface_csv"},
            ),
            (
                "sweep-sigma",
                "matrix",
                True,
                {"command", "mode", "gamma", "seed", "threads", "alpha", "b", "n_points", "sweep_csv"},
            ),
            ("simulate", "matrix", False, SIMULATE_SUMMARY_KEYS),
            ("simulate", "matrix", True, SIMULATE_SUMMARY_KEYS | {"svg"}),
        ],
    )
    def test_summary_key_set(self, tmp_path, matrix_files, command, mode, svg, keys):
        if mode == "matrix":
            cfg = {**every_command_config(matrix_files), "svg": svg}
        else:
            cfg = demand_command_config(tmp_path)
        out = tmp_path / "o"
        assert main([command, "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary) == keys
        assert summary["command"] == command


# Each command and its one-line description in the CLI's help.
COMMAND_HELP = [
    ("fit", "CV-select the resampling distribution, then fit and predict"),
    ("predict", "fit and predict with a fixed resampling distribution"),
    ("select-dist", "cross-validate the (sigma2, gamma) grid only"),
    ("sweep-sigma", "accuracy curve over a sigma2 list at fixed gamma"),
    ("simulate", "synthetic study of selection frequency and estimation MSE"),
]


class TestCommandLine:
    @pytest.mark.parametrize("command", [name for name, _ in COMMAND_HELP])
    def test_every_flag_reaches_every_command(self, command):
        args = cli._parser().parse_args(
            [command, "--config", "c.json", "--seed", "3", "--threads", "2", "--alpha", "0.1", "--out", "o"]
        )
        assert vars(args) == {
            "command": command, "config": "c.json", "seed": 3, "threads": 2, "alpha": 0.1, "out": "o"
        }
        args = cli._parser().parse_args([command, "--config", "c.json"])
        assert vars(args) == {
            "command": command, "config": "c.json", "seed": None, "threads": None, "alpha": None, "out": "."
        }

    @pytest.mark.parametrize(
        "argv",
        [["bogus", "--config", "c.json"], ["fit", "--config", "c.json", "--bogus", "1"], ["fit"], []],
        ids=["unknown_command", "unknown_flag", "no_config", "no_command"],
    )
    def test_bad_arguments_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "error: " in capsys.readouterr().err

    def test_help_lists_each_command_with_its_description(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        lines = capsys.readouterr().out.splitlines()
        for name, text in COMMAND_HELP:
            assert any(line.split() == [name, *text.split()] for line in lines), name


class TestExitCodes:
    def test_config_error(self, tmp_path):
        cfg_path = write_config(tmp_path, {"mode": "matrix"})
        assert main(["fit", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert main(["fit", "--config", str(tmp_path / "absent.json")]) == 2

    def test_ingestion_error(self, tmp_path, rng):
        bad = tmp_path / "bad.csv"
        bad.write_text("y,x0\n1,oops\n")
        t = tmp_path / "t.csv"
        write_matrix_csv(t, rng.standard_normal((2, 1)))
        cfg = {
            "mode": "matrix",
            "train_csv": str(bad),
            "targets_csv": str(t),
            "cv": {"k": 2, "sigma2_candidates": [1.0], "gamma_candidates": [1.0], "b_inner": 5},
        }
        assert main(["fit", "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "o")]) == 2 + 1

    @pytest.mark.parametrize(
        "key, row, column, value",
        [
            ("train_csv", 3, "y", "inf"),
            ("train_csv", 2, "x1", "nan"),
            ("targets_csv", 2, "x0", "nan"),
            ("targets_csv", 4, "x2", "-inf"),
        ],
    )
    def test_non_finite_matrix_field_exits_3(
        self, tmp_path, matrix_files, capsys, key, row, column, value
    ):
        # inf in a training y used to exit 2, NaN in a target feature exit 4
        cfg = base_matrix_config(*matrix_files)
        path = Path(cfg[key])
        lines = path.read_text().splitlines()
        fields = lines[row - 1].split(",")
        fields[lines[0].split(",").index(column)] = value
        lines[row - 1] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        cfg["distribution"] = {"sigma2": 1.0, "gamma": 0.5}
        code = main(["predict", "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 3
        assert err == f"ingestion error: {path}:{row}: {column} must be finite\n"

    @pytest.mark.parametrize(
        "mode, command, k, rows",
        [
            ("matrix", "fit", 21, "20 rows CV tunes on (the rows of train_csv)"),
            ("matrix", "select-dist", 40, "20 rows CV tunes on (the rows of train_csv)"),
            ("demand", "fit", 20, "14 rows CV tunes on (window_days=15 minus t_lags=1)"),
        ],
        ids=["matrix_fit", "matrix_select_dist", "demand_fit"],
    )
    def test_cv_k_above_the_tuning_rows_names_cv_k(
        self, tmp_path, matrix_files, capsys, mode, command, k, rows
    ):
        # it used to say only "k must satisfy 2 <= k <= n, got k=20, n=14"
        if mode == "matrix":
            cfg = base_matrix_config(*matrix_files)
        else:
            cfg = demand_command_config(tmp_path)
        cfg["cv"] = {**cfg["cv"], "k": k}
        out = tmp_path / "o"
        assert main([command, "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: cv.k must be at most the {rows}, got {k}\n"
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("m", [9, 10, 11, 12])
    def test_demand_design_wider_than_a_cv_training_block_is_refused(self, tmp_path, capsys, m):
        # window 15 minus 1 lag leaves 14 rows; cv.k=3 holds out up to 5, so
        # each training block has 9.  It used to exit 4 with
        # "fold 0: ols_fit: n=9 rows cannot identify k=.. columns"
        cfg = {**demand_command_config(tmp_path), "temp_basis": {"n_basis": m, "degree": 3}}
        out = tmp_path / "o"
        assert main(["fit", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config error: the {1 + m} design columns (t_lags + temp_basis.n_basis = 1 + {m}) "
            "exceed the 9 rows of the smallest CV training block (14 minus the 5 held out at cv.k=3)\n"
        )
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["fit", "select-dist"])
    def test_matrix_design_wider_than_a_cv_training_block_is_refused(
        self, tmp_path, rng, capsys, command
    ):
        # it used to exit 4 with "fold 0: ols_fit: n=1 rows cannot identify k=5 columns"
        train = tmp_path / "train.csv"
        write_matrix_csv(train, rng.standard_normal((3, 5)), rng.standard_normal(3))
        targets = tmp_path / "targets.csv"
        write_matrix_csv(targets, rng.standard_normal((2, 5)))
        cfg = {
            "mode": "matrix",
            "train_csv": str(train),
            "targets_csv": str(targets),
            "b": 5,
            "cv": {"k": 2, "sigma2_candidates": [1.0], "gamma_candidates": [1.0], "b_inner": 5},
        }
        out = tmp_path / "o"
        assert main([command, "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: the 5 design columns (the features of train_csv) exceed the 1 rows "
            "of the smallest CV training block (3 minus the 2 held out at cv.k=2)\n"
        )
        assert list(out.iterdir()) == []

    @staticmethod
    def matrix_run(tmp_path, rng, command, n, p, k):
        """``command``'s exit code on an ``n`` x ``p`` train_csv tuned in ``cv.k`` = ``k`` folds."""
        train, targets = tmp_path / "train.csv", tmp_path / "targets.csv"
        X = rng.uniform(-3.0, 3.0, size=(n, p))
        write_matrix_csv(train, X, X[:, 0] + rng.standard_normal(n))
        write_matrix_csv(targets, X[:2], X[:2, 0])
        cfg = {
            **base_matrix_config(train, targets),
            "b": 5,
            "cv": {"k": k, "sigma2_candidates": [1.0], "gamma_candidates": [1.0], "b_inner": 5},
            "distribution": {"sigma2": 1.0, "gamma": 1.0},
            "sigma2_sweep": [1.0],
            "gamma": 1.0,
        }
        out = tmp_path / f"o{p}"
        return main([command, "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]), out

    @pytest.mark.parametrize("command", ["fit", "select-dist"])
    @pytest.mark.parametrize("n, k, block", [(6, 2, 3), (7, 2, 3), (10, 4, 7)])
    def test_design_as_wide_as_the_smallest_training_block_runs(
        self, tmp_path, rng, capsys, command, n, k, block
    ):
        # cv.k = 2 holds out 4 and 3 of 7 rows; cv.k = 4 holds out 3, 3, 2 and 2 of 10
        code, out = self.matrix_run(tmp_path, rng, command, n, block, k)
        assert code == 0
        assert (out / "surface.csv").exists()
        code, out = self.matrix_run(tmp_path, rng, command, n, block + 1, k)
        assert code == 2
        held = n - block
        assert capsys.readouterr().err == (
            f"config error: the {block + 1} design columns (the features of train_csv) exceed the "
            f"{block} rows of the smallest CV training block ({n} minus the {held} held out at cv.k={k})\n"
        )
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["predict", "sweep-sigma"])
    def test_a_command_that_does_not_tune_takes_a_design_wider_than_a_training_block(
        self, tmp_path, rng, command
    ):
        # 6 rows in cv.k = 2 folds leave training blocks of 3, narrower than
        # the 5 columns; neither command splits the rows, so both run
        code, out = self.matrix_run(tmp_path, rng, command, 6, 5, 2)
        assert code == 0
        assert any(out.iterdir())

    def test_numerical_error(self, tmp_path, rng):
        # a repeated column: every training block is tall enough, none has full rank
        # (the 3 x 5 design this test used is now a config error, tested above)
        X = rng.standard_normal((8, 3))
        train = tmp_path / "train.csv"
        write_matrix_csv(train, np.column_stack([X, X[:, :1]]), rng.standard_normal(8))
        targets = tmp_path / "targets.csv"
        write_matrix_csv(targets, rng.standard_normal((2, 4)))
        cfg = {
            "mode": "matrix",
            "train_csv": str(train),
            "targets_csv": str(targets),
            "b": 5,
            "cv": {"k": 2, "sigma2_candidates": [1.0], "gamma_candidates": [1.0], "b_inner": 5},
        }
        assert main(["fit", "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "o")]) == 4

    @pytest.mark.parametrize(
        "command, override",
        [
            ("fit", {"lambda_grid": [0, "x"]}),
            ("fit", {"cv": {"k": 21, "sigma2_candidates": [1.0], "b_inner": 5}}),
            ("fit", {"cv": "oops"}),
            ("fit", {"candidates": [[0, 3]]}),
            ("sweep-sigma", {"sigma2_sweep": [1, "x"], "gamma": 1.0}),
            ("fit", {"seed": -1}),
            ("fit", {"cv": 5}),
            ("fit", {"lambda_grid": 5}),
            ("fit", {"candidates": [1, 2]}),
            ("fit", {"alpha": None}),
            ("fit", {"threads": [3]}),
            ("fit", {"b": True}),
            ("fit", {"cv": {"k": 4, "sigma2_candidates": [1.0], "gamma_candidates": 0.5}}),
            ("fit", {"seed": True}),
            ("simulate", {"svg": "true"}),
            ("fit", {"cv": {"k": 2.7, "sigma2_candidates": [1.0]}}),
            ("fit", {"lambda_grid": [0, float("nan")]}),
            ("fit", {"lambda_grid": [0, 10**400]}),
            ("fit", {"candidates": [{"id": [1], "columns": [0]}]}),
            ("fit", {"train_csv": None}),
            ("predict", {"targets_csv": 0, "distribution": {"sigma2": 1.0, "gamma": 1.0}}),
            ("fit", {"cv": {"k": 4, "sigma2_span": 0}}),
            ("fit", {"cv": {"k": 4, "sigma2_candidates": [1.0], "gamma_candidates": None}}),
            ("simulate", {"study": {"noise_sd": float("nan")}}),
            ("simulate", {"study": {"noise_sd": float("inf")}}),
            # JSON's Infinity: refused with the study's config, not by a fit
            ("simulate", {"study": {"n": 23, "reps": 1, "sigma2_sweep": [1.0, float("inf")]}}),
            # it used to shrink every prediction to 0 and exit 0
            ("predict", {"lambda_grid": [float("inf")], "distribution": {"sigma2": 1.0, "gamma": 1.0}}),
        ],
        ids=[
            "lambda_grid", "cv_k_above_n", "cv_not_object", "column_range", "sweep", "seed",
            "cv_number", "lambda_grid_number", "candidate_number", "alpha_null",
            "threads_list", "b_bool", "gamma_candidates_number", "seed_bool",
            "svg_string", "cv_k_float", "lambda_nan", "lambda_overflow",
            "candidate_id_list", "train_csv_null", "targets_csv_int", "sigma2_span_zero",
            "gamma_candidates_null", "noise_sd_nan", "noise_sd_infinity",
            "sigma2_sweep_infinity", "lambda_inf",
        ],
    )
    def test_bad_values_exit_2_with_one_line(
        self, tmp_path, matrix_files, capsys, command, override
    ):
        cfg = {**base_matrix_config(*matrix_files), **override}
        code = main([command, "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        if override == {"seed": -1}:
            assert err == "config error: seed must be an integer >= 0, got -1\n"
        if "sigma2_sweep" in override.get("study", {}):
            assert err == "config error: study: sigma2_sweep values must be finite and > 0, got inf\n"
        if override.get("lambda_grid") == [float("inf")]:
            assert err == "config error: lambda_grid entries must be finite and >= 0\n"

    @pytest.mark.parametrize(
        "command, config, code, message",
        [
            ("fit", lambda t, m, d: {**m, "threads": 0}, 2, "config error: threads must be an integer >= 1"),
            ("fit", lambda t, m, d: {**m, "b": 0}, 2, "config error: b must be an integer >= 1"),
            (
                "fit", lambda t, m, d: {**m, "b": 2**32 + 1}, 2,
                f"config error: b must be at most 2**32, {_STREAMS}, got 4294967297",
            ),
            (
                "fit",
                lambda t, m, d: "{",
                2,
                "config error: config file {config} is not valid JSON: Expecting property name enclosed in "
                "double quotes: line 1 column 2 (char 1)",
            ),
            ("fit", lambda t, m, d: "[1, 2]", 2, "config error: config root must be a JSON object"),
            (
                "fit",
                lambda t, m, d: {**m, "train_csv": write_text(t / "features.csv", "x0,x1,x2\n1,2,3\n")},
                2,
                "config error: train_csv must carry a leading 'y' column",
            ),
            (
                "fit",
                lambda t, m, d: {**m, "targets_csv": write_text(t / "narrow.csv", "x0,x1\n1,2\n")},
                2,
                "config error: targets_csv has 2 feature columns, training data has 3",
            ),
            (
                "fit",
                lambda t, m, d: {**d, "temperature_csv": write_text(t / "temps0.csv", "date,mean_temp\n")},
                2,
                "config error: temperature file holds no rows",
            ),
            ("fit", lambda t, m, d: {**d, "temp_domain": [0, 10, 20]}, 2, "config error: temp_domain must be [lo, hi]"),
            ("fit", lambda t, m, d: {**d, "window_days": 1}, 2, "config error: window_days must exceed t_lags=1"),
            (
                "fit",
                lambda t, m, d: {**d, "targets": [{**d["targets"][0], "hour": 25}]},
                2,
                "config error: targets[0]: hour must be in 1..24, got 25",
            ),
            (
                "predict",
                lambda t, m, d: {**d, "targets": {"dates": [d["targets"][0]["date"]], "hours": [9, 0]}},
                2,
                "config error: targets: hours must be in 1..24, got 0",
            ),
            (
                "fit",
                lambda t, m, d: {**d, "targets": [{"date": "2021-13-01", "hour": 9}]},
                2,
                "config error: targets[0]: bad target date '2021-13-01'",
            ),
            ("fit", lambda t, m, d: {**d, "targets": []}, 2, "config error: no targets configured"),
            (
                "predict",
                lambda t, m, d: {**d, "targets": {"dates": [], "hours": [9]}},
                2,
                "config error: no targets configured",
            ),
            (
                "fit",
                lambda t, m, d: {**d, "targets": [{"date": "2000-01-03", "hour": 9}]},
                2,
                "config error: target 2000-01-03: only 0 same-weekday days of history, need 15",
            ),
            (
                "sweep-sigma",
                lambda t, m, d: {**d, "sigma2_sweep": [1.0], "gamma": 1.0},
                2,
                "config error: sweep-sigma runs on matrix-mode data",
            ),
            ("sweep-sigma", lambda t, m, d: {**m, "sigma2_sweep": []}, 2, "config error: sigma2_sweep must be nonempty"),
            (
                "fit",
                lambda t, m, d: {**m, "train_csv": write_text(t / "bad.csv", "y,x0,x1,x2\n")},
                3,
                "ingestion error: {tmp}/bad.csv: no data rows",
            ),
            (
                "fit",
                lambda t, m, d: {**m, "train_csv": write_text(t / "bad.csv", "y\n1\n")},
                3,
                "ingestion error: {tmp}/bad.csv:1: no feature columns",
            ),
            (
                "fit",
                lambda t, m, d: {**m, "train_csv": write_text(t / "bad.csv", "")},
                3,
                "ingestion error: {tmp}/bad.csv:1: empty file or missing header",
            ),
        ],
        ids=[
            "threads", "b", "b_2**32+1", "invalid_json", "root_not_object", "train_without_y", "targets_width",
            "temperature_without_rows", "temp_domain_length", "window_days", "target_hour",
            "targets_object_hours", "target_date", "targets_empty_list", "targets_empty_dates",
            "target_without_history", "sweep_sigma_demand",
            "sigma2_sweep_empty", "no_data_rows", "no_feature_columns", "empty_file",
        ],
    )
    def test_each_refusal_exits_with_one_line_and_writes_nothing(
        self, tmp_path, matrix_files, capsys, command, config, code, message
    ):
        cfg = config(tmp_path, every_command_config(matrix_files), demand_command_config(tmp_path))
        path = tmp_path / "config.json"
        path.write_text(cfg if isinstance(cfg, str) else json.dumps(cfg))
        out = tmp_path / "o"
        assert main([command, "--config", str(path), "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert err == message.format(config=path, tmp=tmp_path) + "\n"
        assert not out.exists() or list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "override, message",
        [
            ({"cv": {"sigma2_count": 0}}, "cv: sigma2_count must be >= 1, got 0"),
            ({"cv": {"sigma2_span": -1}}, "cv: sigma2_span must be finite and > 0, got -1.0"),
            ({"threads": 0}, "threads must be an integer >= 1"),
        ],
        ids=["sigma2_count", "sigma2_span", "threads"],
    )
    def test_a_value_the_run_does_not_use_is_still_checked(
        self, tmp_path, matrix_files, capsys, override, message
    ):
        # explicit sigma2 candidates leave sigma2_count and sigma2_span unused, and
        # threads reaches only summary.json; each is refused before any output
        cfg = base_matrix_config(*matrix_files)
        cfg["cv"].update(override.get("cv", {}))
        cfg.update({key: value for key, value in override.items() if key != "cv"})
        out = tmp_path / "o"
        assert main(["fit", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists() or list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "command, mode, override, message",
        [
            ("fit", "matrix", {"cv": {"k": 1}}, "cv: k must be >= 2, got 1"),
            ("fit", "matrix", {"cv": {"b_inner": 0}}, "cv: b_inner must be >= 1, got 0"),
            ("select-dist", "matrix", {"cv": {"fold_mode": "odd"}}, "cv: unknown fold_mode 'odd'"),
            ("fit", "matrix", {"lambda_grid": [1.0, 0.5]}, "lambda_grid must be sorted ascending"),
            (
                "predict", "matrix", {"distribution": {"gamma": 2, "sigma2": 1}},
                "distribution: gamma must be in [0, 1], got 2.0",
            ),
            ("simulate", "matrix", {"study": {"reps": 0}}, "study: reps must be >= 1"),
            ("fit", "demand", {"hour_basis": {"n_basis": 1, "degree": 9}}, "hour_basis: degree must be in 0..5, got 9"),
            ("fit", "demand", {"temp_basis": {"n_basis": 4, "degree": 9}}, "temp_basis: degree must be in 0..5, got 9"),
            (
                "predict", "demand", {"temp_basis": {"n_basis": 2}},
                "temp_basis: n_basis must be >= degree + 1, got 2",
            ),
            # a replicate count past what the streams index: refused before any array is built
            (
                "fit", "demand", {"cv": {"b_inner": 2**32 + 1}},
                f"cv: b_inner must be at most 2**32, {_STREAMS}, got 4294967297",
            ),
            (
                "simulate", "matrix", {"study": {"b": 2**32 + 1}},
                f"study: b must be at most 2**32, {_STREAMS}, got 4294967297",
            ),
        ],
        ids=[
            "cv.k", "cv.b_inner", "cv.fold_mode", "lambda_grid", "distribution.gamma", "study.reps",
            "hour_basis.degree", "temp_basis.degree", "temp_basis.n_basis",
            "cv.b_inner_2**32+1", "study.b_2**32+1",
        ],
    )
    def test_a_bad_value_is_named_by_its_key_path(
        self, tmp_path, matrix_files, capsys, command, mode, override, message
    ):
        # each used to name the library field alone, or the wrong key
        base = every_command_config(matrix_files) if mode == "matrix" else demand_command_config(tmp_path)
        path, out = write_config(tmp_path, {**base, **override}), tmp_path / "o"
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("mode", ["matrix", "demand"])
    @pytest.mark.parametrize("command", ["fit", "predict"])
    @pytest.mark.parametrize("key", ["criterion", "criterion_folds"])
    @pytest.mark.parametrize("value", ["kfold", "gcv", 3])
    def test_the_removed_selector_keys_are_unknown(self, tmp_path, matrix_files, capsys, mode, command, key, value):
        # GCV is the one selector; the keys that chose another are refused with any value
        base = every_command_config(matrix_files) if mode == "matrix" else demand_command_config(tmp_path)
        path, out = write_config(tmp_path, {**base, key: value}), tmp_path / "o"
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: unknown key '{key}'\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, override, key",
        [
            ("fit", {"cv": {"k": 4, "refit_ols_per_block": True}}, "cv: unknown key 'refit_ols_per_block'"),
            ("fit", {"cv": {"k": 4, "b_iner": 5}}, "cv: unknown key 'b_iner'"),
            ("simulate", {"study": {"n": 23, "reps": 1, "master_seed": 3}}, "study: unknown key 'master_seed'"),
            ("predict", {"distribution": {"sigma": 1.0, "gamma": 0.5}}, "distribution: unknown key 'sigma'"),
            ("fit", {"candidates": [{"id": "a", "columns": [0], "colums": [1]}]}, "candidates[0]: unknown key 'colums'"),
            ("fit", {"candidates": [{"id": "a"}]}, "candidates[0]: missing key 'columns'"),
            ("fit", {"candidates": [{"id": [1], "columns": [0]}]}, "candidates[0].id must be a string or an integer, got [1]"),
            ("fit", {"candidates": [["a"]]}, 'candidates[0][0] must be an integer, got "a"'),
        ],
        ids=[
            "cv_refit_ols_per_block", "cv_b_iner", "study_master_seed", "distribution_sigma",
            "candidates_colums", "candidate_columns_missing", "candidate_id_list", "candidate_column_string",
        ],
    )
    def test_unknown_nested_key_exits_2_naming_it(
        self, tmp_path, matrix_files, capsys, command, override, key
    ):
        cfg = {**every_command_config(matrix_files), **override}
        out = tmp_path / "o"
        assert main([command, "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {key}\n"
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["fit", "predict"])
    @pytest.mark.parametrize(
        "override, message",
        [
            ({"temp_basis": {"n_basis": 4, "degre": 2}}, "temp_basis: unknown key 'degre'"),
            ({"hour_basis": {"n_basis": 1, "period": 24}}, "hour_basis: unknown key 'period'"),
            ({"targets": {"dates": ["2021-06-28"], "hours": [9], "hour": 9}}, "targets: unknown key 'hour'"),
            ({"targets": [{"date": "2021-06-28", "hour": 9, "hours": [10]}]}, "targets[0]: unknown key 'hours'"),
            ({"candidates": [{"id": "lags", "columns": [0], "lam": 1}]}, "candidates[0]: unknown key 'lam'"),
            ({"targets": [5]}, "targets[0] must be a JSON object, got 5"),
            ({"targets": {"dates": ["2021-06-28"]}}, "targets: missing key 'hours'"),
            ({"temp_basis": {"degree": 2}}, "temp_basis: missing key 'n_basis'"),
            ({"hour_basis": 3}, "hour_basis must be a JSON object, got 3"),
        ],
        ids=[
            "temp_basis_degre", "hour_basis_period", "targets_hour", "target_hours",
            "candidate_lam", "target_not_object", "targets_hours_missing", "temp_basis_n_basis_missing",
            "hour_basis_number",
        ],
    )
    def test_unknown_nested_demand_key_exits_2_naming_it(
        self, tmp_path, capsys, command, override, message
    ):
        # a misspelt basis degree used to run on the default degree
        cfg = {**demand_command_config(tmp_path), **override}
        out = tmp_path / "o"
        assert main([command, "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_unknown_top_level_key_exits_2_naming_it(self, tmp_path, matrix_files, capsys, command):
        # a misspelt lambda_grid must not run on the default grid
        cfg = {**every_command_config(matrix_files), "lamda_grid": [0.0]}
        out = tmp_path / "o"
        assert main([command, "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "config error: unknown key 'lamda_grid'\n"
        assert not out.exists()

    @pytest.mark.parametrize("key", sorted(cli._CONFIG_KEYS))
    def test_every_config_key_is_read_and_documented(self, tmp_path, matrix_files, capsys, key):
        # a key that no reader reads would run, and one the README omits is undocumented
        if key in cli._DEMAND_KEYS:
            cfg, commands = demand_command_config(tmp_path), ["predict", "fit"]
        else:
            cfg, commands = every_command_config(matrix_files), sorted(cli._COMMANDS)
        config = write_config(tmp_path, {**cfg, key: {"x": 1}})
        messages = []
        for command in commands:
            code = main([command, "--config", str(config), "--out", str(tmp_path / command)])
            err = capsys.readouterr().err
            if code == 2 and err.count("\n") == 1 and re.search(rf"\b{key}\b", err):
                break
            messages.append((command, code, err))
        else:
            pytest.fail(f"no command refuses {key}: {messages}")
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("### Config keys", 1)[1].split("\n### ", 1)[0]
        assert f'"{key}"' in section

    def test_every_hand_read_demand_key_is_accepted(self, tmp_path):
        cfg = {
            **demand_command_config(tmp_path),
            "threads": 2,
            "t_lags": 1,
            "window_days": 15,
            "hour_basis": {"n_basis": 1, "degree": 3},
            "temp_basis": {"n_basis": 3, "degree": 1},
            "temp_domain": [-10.0, 40.0],
            "candidates": "structural",
        }
        out = tmp_path / "o"
        assert main(["predict", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 0

    def test_readme_cv_example_reads_as_the_defaults(self):
        # The README's "cv" example lists every key the cv object reads, at
        # its default value.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        example = re.search(r'^"cv": \{.*?\}$', readme, re.M | re.S)
        assert example is not None, "no cv example in README.md"
        cfg = json.loads("{" + example.group(0) + "}")
        assert set(cfg["cv"]) == set(cli._CV_KEYS)
        run = cli.RunConfig()
        assert cli._cv_grid(cfg, run) == cli._cv_grid({}, run)

    @pytest.mark.parametrize("fault", ["missing", "directory", "not_utf8", "field_too_long"])
    @pytest.mark.parametrize("key", ["train_csv", "targets_csv", "demand_csv", "temperature_csv"])
    def test_unreadable_input_exits_3_naming_the_path(
        self, tmp_path, matrix_files, capsys, key, fault
    ):
        if key in ("train_csv", "targets_csv"):
            cfg = base_matrix_config(*matrix_files)
        else:
            dates, demand_rows, temp_rows, _ = synth_weekday_demand(seed=3)
            dpath, tpath = write_demand_files(tmp_path, demand_rows, temp_rows)
            cfg = {
                "mode": "demand",
                "demand_csv": str(dpath),
                "temperature_csv": str(tpath),
                "targets": [{"date": dates[-1].isoformat(), "hour": 9}],
                "distribution": {"sigma2": 4.0, "gamma": 0.5},
            }
        bad = tmp_path / "bad_input"
        if fault == "directory":
            bad.mkdir()
        elif fault == "not_utf8":
            bad.write_bytes(Path(cfg[key]).read_bytes().replace(b"\n", b"\xff\n", 1))
        elif fault == "field_too_long":
            bad.write_bytes(Path(cfg[key]).read_bytes().replace(b"\n", b"," + b"1" * 200_000 + b"\n", 2))
        cfg = {**cfg, key: str(bad), "distribution": {"sigma2": 4.0, "gamma": 0.5}}
        code = main(["predict", "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith(f"ingestion error: {bad}:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "key, value, column",
        [
            ("demand_csv", "nan", "demand"),
            ("demand_csv", "1e999", "demand"),
            ("temperature_csv", "nan", "mean_temp"),
            ("temperature_csv", "-inf", "mean_temp"),
        ],
    )
    def test_non_finite_demand_or_temperature_exits_3(self, tmp_path, capsys, key, value, column):
        cfg = demand_command_config(tmp_path)
        path = Path(cfg[key])
        header, first, *rest = path.read_text().splitlines()
        path.write_text("\n".join([header, first.rsplit(",", 1)[0] + "," + value, *rest]) + "\n")
        out = tmp_path / "o"
        assert main(["predict", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"ingestion error: {path}:2: {column} must be finite\n"
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["fit", "predict", "sweep-sigma", "select-dist"])
    def test_matrix_inputs_are_read_train_then_targets_then_candidates(
        self, tmp_path, matrix_files, capsys, command
    ):
        missing = tmp_path / "missing_targets.csv"
        cfg = {**every_command_config(matrix_files), "targets_csv": str(missing), "candidates": [["a"]]}
        code = main([command, "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        if command == "select-dist":
            # select-dist reads no targets
            assert code == 2
            assert err.startswith("config error: candidates[0][0] must be an integer")
        else:
            assert code == 3
            assert err.startswith(f"ingestion error: {missing}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("fault", ["config_directory", "out_under_a_file"])
    def test_unusable_config_or_out_path_exits_2(self, tmp_path, matrix_files, capsys, fault):
        config = write_config(tmp_path, base_matrix_config(*matrix_files))
        out = tmp_path / "o"
        if fault == "config_directory":
            config = tmp_path / "config_dir"
            config.mkdir()
        else:
            out = config / "o"
        assert main(["fit", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, name",
        [
            ("fit", "surface.csv"),
            ("fit", "report.csv"),
            ("fit", "summary.json"),
            ("predict", "report.csv"),
            ("predict", "summary.json"),
            ("select-dist", "surface.csv"),
            ("select-dist", "summary.json"),
            ("sweep-sigma", "sweep.csv"),
            ("sweep-sigma", "summary.json"),
            ("simulate", "study_mse.csv"),
            ("simulate", "study_freq.csv"),
            ("simulate", "study_mse.svg"),
            ("simulate", "summary.json"),
        ],
    )
    def test_unwritable_output_exits_2_naming_the_file(
        self, tmp_path, matrix_files, capsys, command, name
    ):
        out = tmp_path / "o"
        (out / name).mkdir(parents=True)
        config = write_config(tmp_path, every_command_config(matrix_files))
        code = main([command, "--config", str(config), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"config error: cannot write {out / name}: ") and err.count("\n") == 1
        assert [p.name for p in out.iterdir()] == [name]

    @pytest.mark.parametrize(
        "command, outputs",
        [
            ("fit", ["report.csv", "summary.json", "surface.csv"]),
            ("predict", ["report.csv", "summary.json"]),
            ("select-dist", ["surface.csv", "summary.json"]),
            ("sweep-sigma", ["sweep.csv", "summary.json"]),
            ("simulate", ["study_freq.csv", "study_mse.csv", "study_mse.svg", "summary.json"]),
        ],
    )
    def test_outputs_appear_all_or_none(self, tmp_path, matrix_files, capsys, command, outputs):
        config = str(write_config(tmp_path, every_command_config(matrix_files)))
        good = tmp_path / "good"
        assert main([command, "--config", config, "--out", str(good)]) == 0
        assert sorted(p.name for p in good.iterdir()) == sorted(outputs)
        # a late write fails: nothing new appears and an earlier output stays as it was
        bad = tmp_path / "bad"
        (bad / "summary.json").mkdir(parents=True)
        earlier = bad / outputs[0]
        earlier.write_text("an earlier run\n")
        capsys.readouterr()
        assert main([command, "--config", config, "--out", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write {bad / 'summary.json'}: ")
        assert err.count("\n") == 1
        assert sorted(p.name for p in bad.iterdir()) == sorted([outputs[0], "summary.json"])
        assert earlier.read_text() == "an earlier run\n"

    def test_non_finite_interval_exits_4(self, tmp_path, matrix_files, capsys):
        cfg = base_matrix_config(*matrix_files)
        cfg["cv"] = dict(cfg["cv"], sigma2_candidates=[1e300])
        out = tmp_path / "o"
        assert main(["fit", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 4
        assert capsys.readouterr().err.startswith("numerical error: target 0: ")
        assert not (out / "report.csv").exists()

    @pytest.mark.parametrize(
        "command, extra",
        [
            ("fit", {}),
            ("predict", {"distribution": {"sigma2": 1.0, "gamma": 0.5}}),
            ("sweep-sigma", {"sigma2_sweep": [1.0], "gamma": 0.5}),
        ],
    )
    def test_overflowing_mspe_exits_4_and_writes_nothing(
        self, tmp_path, matrix_files, rng, capsys, command, extra
    ):
        targets = tmp_path / "huge_truth.csv"
        write_matrix_csv(targets, rng.uniform(-3.0, 3.0, size=(3, 3)), np.array([1.0, 1e200, -1.0]))
        cfg = {**base_matrix_config(matrix_files[0], targets), **extra}
        out = tmp_path / "o"
        assert main([command, "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("numerical error: mspe") and err.count("\n") == 1
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "study, message",
        [
            ({"sigma2_sweep": [6e306]}, "numerical error: "),
            ({"sigma2_sweep": [1e307]}, "numerical error: "),
            ({"noise_sd": 1e308}, "numerical error: replication 0: "),
        ],
        ids=["6e+306", "1e+307", "noise_sd_1e308"],
    )
    def test_overflow_exits_4_with_one_line(self, tmp_path, study, message):
        # at 6e306 the first cell's GCV scores overflow from its replicate 8 on
        cfg = {"seed": 0, "study": {"n": 23, "reps": 2, "b": 20, **study}}
        args = ["--config", str(write_config(tmp_path, cfg)), "--threads", "2"]
        proc = run_python(tmp_path, "-m", "bootsmooth", "simulate", *args, "--out", "o")
        assert proc.returncode == 4
        assert proc.stderr.startswith(message) and proc.stderr.count("\n") == 1

    def test_sigma2_1e306_scores_without_overflow(self, tmp_path):
        # GCV scales each weight by n / tr(I - H)^2 before its sum, so no
        # score passes through n times the residual sum, which overflowed here
        cfg = {"seed": 0, "study": {"n": 23, "reps": 2, "b": 20, "sigma2_sweep": [1e306]}}
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 0
        _, mse_rows = read_float_table(out / "study_mse.csv", ("sigma2", "gamma", "value"))
        _, freq_rows = read_float_table(out / "study_freq.csv", ("sigma2", "gamma", "model_id", "value"))
        assert mse_rows and freq_rows
        assert np.isfinite(mse_rows).all() and np.isfinite(freq_rows).all()

    def test_out_of_memory_names_the_replicate_counts(self, tmp_path, matrix_files, capsys, monkeypatch):
        # numpy raises a MemoryError subclass, with a traceback, when an array cannot be allocated
        def exhausted(study):
            raise MemoryError("Unable to allocate 14.9 GiB for an array with shape (1000000000, 2)")

        monkeypatch.setattr(cli, "run_study", exhausted)
        path, out = write_config(tmp_path, every_command_config(matrix_files)), tmp_path / "o"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: out of memory; the replicate counts b, cv.b_inner and study.b "
            "set the size of a run's arrays\n"
        )
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["fit", "simulate"])
    def test_a_selection_failure_names_its_cell(self, tmp_path, capsys, command):
        # sigma2 = 1e308 draws responses that no (model, lambda) pair can score
        if command == "fit":
            cfg = demand_command_config(tmp_path)
            cfg["cv"]["sigma2_candidates"] = [1e308]
            where = f"target {cfg['targets'][0]['date']}:09: fold 0, sigma2=1e+308, gamma=0.0"
        else:
            cfg = {"seed": 0, "study": {"n": 23, "reps": 2, "b": 20, "sigma2_sweep": [1e308]}}
            where = "replication 0, sigma2=1e+308, gamma=0.0"
        path, out = write_config(tmp_path, cfg), tmp_path / "o"
        assert main([command, "--config", str(path), "--out", str(out)]) == 4
        assert capsys.readouterr().err == (
            f"numerical error: {where}: replicate 0: no scoreable (model, lambda) pair\n"
        )
        assert list(out.iterdir()) == []

    def test_bad_alpha_flag(self, tmp_path, matrix_files):
        train, targets = matrix_files
        cfg_path = write_config(tmp_path, base_matrix_config(train, targets))
        assert main(["fit", "--config", str(cfg_path), "--alpha", "1.5", "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize(
    "cls, names",
    [
        (SelectorConfig, ("candidates", "lambda_grid")),
        (
            CvGrid,
            (
                "sigma2_candidates", "gamma_candidates", "k", "b_inner", "seed", "fold_mode",
                "sigma2_count", "sigma2_span",
            ),
        ),
        (
            StudyConfig,
            (
                "n", "true_model_j", "noise_sd", "reps", "b", "sigma2_sweep", "gamma_sweep",
                "lambda_grid", "master_seed",
            ),
        ),
        (ResamplingDistribution, ("gamma", "sigma2")),
        (CandidateModel, ("id", "columns")),
        (SplineBasisSpec, ("degree", "interior_knots", "domain", "cyclic")),
        (DemandModelSpec, ("t_lags", "hour_basis", "temp_basis")),
    ],
    ids=lambda v: v.__name__ if isinstance(v, type) else None,
)
def test_config_types_have_the_pinned_fields(cls, names):
    # each field is a value a caller can set: adding one is a deliberate edit here
    assert tuple(f.name for f in fields(cls)) == names
