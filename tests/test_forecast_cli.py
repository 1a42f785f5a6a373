"""End-to-end pipeline and command-line behaviour."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import synth_weekday_demand, write_demand_files

import bootsmooth
from bootsmooth import (
    CandidateModel,
    CvGrid,
    Dataset,
    ResamplingDistribution,
    SelectorConfig,
    StudyConfig,
    cv_error_surface,
    derive_seed,
    load_matrix_csv,
    run_matrix_eval,
    run_study,
)
from bootsmooth.cli import main
from bootsmooth.simulation import read_study_freq_csv, read_study_mse_csv
from bootsmooth.tabular import fmt


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


def run_python(cwd, *args):
    """Run ``python *args`` with this checkout's package on the path.

    A fresh interpreter shows what a user sees: pytest records warnings
    instead of printing them, and its own imports fill ``sys.modules``.
    """
    src = Path(bootsmooth.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
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


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=2))
    return path


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

    def test_kfold_criterion_fit(self, tmp_path, matrix_files):
        cfg = base_matrix_config(*matrix_files)
        cfg.update(candidates=[[0], [0, 1], [0, 1, 2]], criterion="kfold", criterion_folds=3)
        cfg_path = write_config(tmp_path, cfg)
        out1, out2 = tmp_path / "t1", tmp_path / "t2"
        assert main(["fit", "--config", str(cfg_path), "--threads", "1", "--out", str(out1)]) == 0
        assert main(["fit", "--config", str(cfg_path), "--threads", "2", "--out", str(out2)]) == 0
        rows = read_report(out1 / "report.csv")
        assert len(rows) == 6
        for key in ("prediction", "lower", "upper", "ridge_prediction", "ridge_lower", "ridge_upper"):
            assert all(np.isfinite(float(r[key])) for r in rows), key
        for name in ("report.csv", "surface.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
        summary1 = json.loads((out1 / "summary.json").read_text())
        summary2 = json.loads((out2 / "summary.json").read_text())
        summary1.pop("threads"), summary2.pop("threads")
        assert summary1 == summary2

    def test_kfold_folds_above_a_training_block_exit_2(self, tmp_path, rng, capsys):
        # 30 rows in cv.k = 5 tuning folds: each training block holds 24 rows
        X = rng.uniform(-3.0, 3.0, size=(30, 3))
        train, targets = tmp_path / "train.csv", tmp_path / "targets.csv"
        write_matrix_csv(train, X, X[:, 0] + rng.standard_normal(30))
        write_matrix_csv(targets, X[:2])
        cfg = base_matrix_config(train, targets)
        cfg.update(criterion="kfold", criterion_folds=30)
        cfg["cv"] = dict(cfg["cv"], k=5)
        code = main(["fit", "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: cv_folds=30 exceeds the 24 rows") and err.count("\n") == 1

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

        y, X, names = load_matrix_csv(train)
        data = Dataset(y, X, column_names=names)
        yt, Xt, _ = load_matrix_csv(targets)
        selector = SelectorConfig(
            candidates=(CandidateModel("full", (0, 1, 2)),), lambda_grid=(0.0, 0.1, 1.0)
        )
        for i, row in enumerate(rows):
            oracle_rows = run_matrix_eval(
                data,
                Xt,
                list(yt),
                ResamplingDistribution(gamma=1.0, sigma2=float(row["sigma2"])),
                selector,
                40,
                0.1,
                7,
                point_index=i,
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

        y, X, names = load_matrix_csv(train)
        data = Dataset(y, X, column_names=names)
        selector = SelectorConfig(
            candidates=(CandidateModel("full", (0, 1, 2)),), lambda_grid=(0.0, 0.1, 1.0)
        )
        grid = CvGrid(**cfg["cv"], seed=derive_seed(7, 1, 0))
        surface = cv_error_surface(data, grid, selector)
        from bootsmooth import read_surface_csv

        errors, s2s, gs = read_surface_csv(out / "surface.csv")
        np.testing.assert_array_equal(errors, surface.errors)
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

    @pytest.mark.parametrize("command", ["fit", "predict"])
    @pytest.mark.parametrize("key, value", [("criterion", "kfold"), ("criterion_folds", 3)])
    def test_matrix_only_keys_are_refused(self, tmp_path, capsys, command, key, value):
        dates, demand_rows, temp_rows, _ = synth_weekday_demand(seed=3)
        dpath, tpath = write_demand_files(tmp_path, demand_rows, temp_rows)
        cfg = {
            "mode": "demand",
            "demand_csv": str(dpath),
            "temperature_csv": str(tpath),
            "targets": [{"date": dates[-1].isoformat(), "hour": 9}],
            "distribution": {"sigma2": 4.0, "gamma": 0.5},
            key: value,
        }
        out = tmp_path / "o"
        assert main([command, "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: '{key}' applies to matrix mode only")
        assert err.count("\n") == 1
        assert not (out / "report.csv").exists()

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
        mse_rows = read_study_mse_csv(out / "study_mse.csv")
        freq_rows = read_study_freq_csv(out / "study_freq.csv")
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
            assert v == result.freq_at(s2, g)[mid - 1]
        for s2 in (1.0, 4.0):
            for g in (0.0, 1.0):
                cell = [v for (a, b, _, v) in freq_rows if (a, b) == (s2, g)]
                assert abs(sum(cell) - 1.0) < 1e-12
        summary = json.loads((out / "summary.json").read_text())
        assert summary["ridge_baseline_mse"] == result.ridge_baseline_mse


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

    def test_numerical_error(self, tmp_path, rng):
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
            ("fit", {"criterion_folds": [3]}),
            ("fit", {"b": True}),
            ("fit", {"cv": {"k": 4, "sigma2_candidates": [1.0], "gamma_candidates": 0.5}}),
            ("fit", {"seed": True}),
            ("fit", {"cv": {"k": 4, "sigma2_candidates": [1.0], "refit_ols_per_block": "false"}}),
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
        ],
        ids=[
            "lambda_grid", "cv_k_above_n", "cv_not_object", "column_range", "sweep", "seed",
            "cv_number", "lambda_grid_number", "candidate_number", "alpha_null",
            "criterion_folds_list", "b_bool", "gamma_candidates_number", "seed_bool",
            "refit_string", "cv_k_float", "lambda_nan", "lambda_overflow",
            "candidate_id_list", "train_csv_null", "targets_csv_int", "sigma2_span_zero",
            "gamma_candidates_null", "noise_sd_nan", "noise_sd_infinity",
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
            ({"sigma2_sweep": [1e306]}, "numerical error: "),
            ({"sigma2_sweep": [1e307]}, "numerical error: "),
            ({"noise_sd": 1e308}, "numerical error: replication 0: "),
        ],
        ids=["1e+306", "1e+307", "noise_sd_1e308"],
    )
    def test_overflow_exits_4_with_one_line(self, tmp_path, study, message):
        cfg = {"seed": 0, "study": {"n": 23, "reps": 2, "b": 20, **study}}
        args = ["--config", str(write_config(tmp_path, cfg)), "--threads", "2"]
        proc = run_python(tmp_path, "-m", "bootsmooth", "simulate", *args, "--out", "o")
        assert proc.returncode == 4
        assert proc.stderr.startswith(message) and proc.stderr.count("\n") == 1

    def test_bad_alpha_flag(self, tmp_path, matrix_files):
        train, targets = matrix_files
        cfg_path = write_config(tmp_path, base_matrix_config(train, targets))
        assert main(["fit", "--config", str(cfg_path), "--alpha", "1.5", "--out", str(tmp_path / "o")]) == 2
