"""Monte Carlo study harness: generators, sweep accumulation, emission."""

import dataclasses
import re

import numpy as np
import pytest
from conftest import forget_cell_family, read_float_table

from bootsmooth import (
    Dataset,
    NumericalError,
    ResamplingDistribution,
    SelectorConfig,
    StudyConfig,
    derive_seed,
    generate_design,
    generate_response,
    nested_candidates,
    pbs_fit,
    render_mse_svg,
    run_study,
    select_fit,
    true_coefficients,
    write_study_csvs,
)
from bootsmooth import simulation


class TestGenerateDesign:
    def test_support(self):
        X = generate_design(200, 5, seed=1)
        assert X.min() >= -5.0 and X.max() <= 5.0

    def test_seed_reproducible(self):
        np.testing.assert_array_equal(generate_design(20, 3, 7), generate_design(20, 3, 7))

    def test_uniform_moments(self):
        X = generate_design(10000, 2, seed=3)
        assert abs(X.mean()) < 0.15
        assert abs(X.var() - 25.0 / 3.0) < 0.5


class TestGenerateResponse:
    def test_noiseless_first_model(self):
        X = generate_design(15, 20, seed=4)
        y = generate_response(X, 1, 0.0, seed=5)
        np.testing.assert_allclose(y, 1.0 + X[:, :5].sum(axis=1), atol=1e-12)

    def test_fourth_model_uses_all_columns(self):
        np.testing.assert_array_equal(true_coefficients(4), np.ones(20))
        X = generate_design(10, 20, seed=6)
        y = generate_response(X, 4, 0.0, seed=7)
        np.testing.assert_allclose(y, 1.0 + X.sum(axis=1), atol=1e-12)

    def test_noise_scale(self):
        X = generate_design(10000, 20, seed=8)
        y = generate_response(X, 2, 5.0, seed=9)
        resid = y - 1.0 - X @ true_coefficients(2)
        assert abs(resid.std() - 5.0) < 0.5

    def test_domain_errors(self):
        X = generate_design(10, 20, seed=1)
        with pytest.raises(ValueError):
            generate_response(X, 5, 1.0, seed=1)
        with pytest.raises(ValueError):
            generate_response(X[:, :7], 1, 1.0, seed=1)


class TestRunStudy:
    def test_frequencies_on_simplex(self):
        cfg = StudyConfig(
            n=25, reps=3, b=40, sigma2_sweep=(1.0, 9.0), gamma_sweep=(0.0, 1.0), master_seed=2
        )
        res = run_study(cfg)
        assert np.all(res.selection_freq >= 0.0)
        np.testing.assert_allclose(res.selection_freq.sum(axis=2), 1.0, atol=1e-12)

    def test_tiny_sigma_selects_full_model_with_lambda_zero(self):
        cfg = StudyConfig(
            n=25, reps=2, b=30, sigma2_sweep=(1e-12,), gamma_sweep=(1.0,), master_seed=3
        )
        res = run_study(cfg)
        np.testing.assert_allclose(res.selection_freq[0, 0], [0.0, 0.0, 0.0, 1.0], atol=0)
        # replicate-level check that the penalty also collapses to zero
        X = generate_design(25, 20, derive_seed(3, 0, 0))
        y = generate_response(X, 2, 5.0, derive_seed(3, 1, 0))
        data = Dataset(y, np.column_stack([np.ones(25), X]))
        selector = SelectorConfig(
            candidates=nested_candidates(),
            lambda_grid=cfg.lambda_grid or tuple(np.concatenate([[0.0], np.logspace(-4, 4, 50)])),
        )
        fit = pbs_fit(
            data,
            ResamplingDistribution(gamma=1.0, sigma2=1e-12),
            30,
            selector,
            derive_seed(3, 2, 0, 0, 0),
        )
        assert np.all(fit.lambdas == 0.0)

    def test_matches_naive_loop_oracle(self):
        cfg = StudyConfig(
            n=24, true_model_j=1, reps=2, b=25,
            sigma2_sweep=(1.0, 4.0), gamma_sweep=(0.0, 1.0),
            lambda_grid=(0.0, 1.0), master_seed=17,
        )
        res = run_study(cfg)

        selector = SelectorConfig(candidates=nested_candidates(), lambda_grid=(0.0, 1.0))
        beta_true = np.concatenate([[1.0], true_coefficients(1)])
        mse = np.zeros((2, 2))
        freq = np.zeros((2, 2, 4))
        base = 0.0
        for r in range(2):
            X = generate_design(24, 20, derive_seed(17, 0, r))
            y = generate_response(X, 1, 5.0, derive_seed(17, 1, r))
            data = Dataset(y, np.column_stack([np.ones(24), X]))
            sel = select_fit(data, selector)
            base += float(np.sum((sel.coefficients - beta_true) ** 2)) / 2
            for i, s2 in enumerate(cfg.sigma2_sweep):
                for j, g in enumerate(cfg.gamma_sweep):
                    fit = pbs_fit(
                        data,
                        ResamplingDistribution(gamma=g, sigma2=s2),
                        25,
                        selector,
                        derive_seed(17, 2, r, i, j),
                    )
                    mse[i, j] += float(np.sum((fit.beta_pbs - beta_true) ** 2)) / 2
                    for mid in fit.model_ids:
                        freq[i, j, mid - 1] += 1.0 / (25 * 2)
        np.testing.assert_allclose(res.mse, mse, rtol=1e-9)
        np.testing.assert_allclose(res.selection_freq, freq, rtol=1e-9, atol=1e-12)
        assert res.ridge_baseline_mse == pytest.approx(base, rel=1e-9)

    def test_equals_cells_fitted_alone_bitwise(self):
        # a replication derives its cell seeds and keys together; fitting each
        # cell from its derived seed alone, with no family to serve its keys,
        # gives the same bytes
        cfg = StudyConfig(
            n=23, true_model_j=2, reps=2, b=30, sigma2_sweep=(1.0, 9.0), gamma_sweep=(0.0, 0.5, 1.0),
            lambda_grid=(0.0, 1.0), master_seed=8,
        )
        res = run_study(cfg)
        selector = SelectorConfig(candidates=nested_candidates(), lambda_grid=(0.0, 1.0))
        beta_true = np.concatenate([[1.0], true_coefficients(2)])
        sq_err = np.empty((2, 2, 3))
        freqs = np.empty((2, 2, 3, 4))
        for r in range(2):
            X = generate_design(23, 20, derive_seed(8, 0, r))
            y = generate_response(X, 2, 5.0, derive_seed(8, 1, r))
            data = Dataset(y, np.column_stack([np.ones(23), X]))
            for i, s2 in enumerate(cfg.sigma2_sweep):
                for j, g in enumerate(cfg.gamma_sweep):
                    forget_cell_family()
                    dist = ResamplingDistribution(gamma=g, sigma2=s2)
                    fit = pbs_fit(data, dist, 30, selector, derive_seed(8, 2, r, i, j))
                    sq_err[r, i, j] = float(np.sum((fit.beta_pbs - beta_true) ** 2))
                    freqs[r, i, j] = np.bincount(fit.model_ids, minlength=5)[1:] / 30
        assert res.mse.tobytes() == sq_err.mean(axis=0).tobytes()
        assert res.selection_freq.tobytes() == freqs.mean(axis=0).tobytes()

    def test_thread_invariance(self):
        cfg = StudyConfig(
            n=23, reps=3, b=20, sigma2_sweep=(1.0,), gamma_sweep=(0.0, 1.0),
            lambda_grid=(0.0, 1.0), master_seed=5,
        )
        a = run_study(cfg)
        b = run_study(cfg)
        np.testing.assert_array_equal(a.mse, b.mse)
        np.testing.assert_array_equal(a.selection_freq, b.selection_freq)
        assert a.ridge_baseline_mse == b.ridge_baseline_mse

    def test_full_model_frequency_drops_with_sigma(self):
        # directional check at gamma = 1 between the sweep extremes
        cfg = StudyConfig(
            n=30, reps=20, b=60, sigma2_sweep=(1.0, 100.0), gamma_sweep=(1.0,),
            lambda_grid=(0.0, 0.1, 1.0, 10.0), master_seed=23,
        )
        res = run_study(cfg)
        assert res.freq_at(1.0, 1.0)[3] >= res.freq_at(100.0, 1.0)[3]

    @pytest.mark.parametrize(
        "name, field, message",
        [
            ("pbs_fit", "beta_pbs", "MSE is inf at sigma2=1.0, gamma=0.0"),
            ("select_fit", "coefficients", "ridge baseline MSE is inf"),
        ],
        ids=["mse", "ridge_baseline"],
    )
    def test_overflowing_error_raises(self, monkeypatch, name, field, message):
        original = getattr(simulation, name)

        def huge(*args, **kwargs):
            fit = original(*args, **kwargs)
            return dataclasses.replace(fit, **{field: np.full_like(getattr(fit, field), 1e200)})

        monkeypatch.setattr(simulation, name, huge)
        cfg = StudyConfig(
            n=23, reps=1, b=10, sigma2_sweep=(1.0,), gamma_sweep=(0.0,), lambda_grid=(0.0, 1.0)
        )
        # as under the CLI, which silences floating-point warnings
        with np.errstate(over="ignore"), pytest.raises(NumericalError, match=re.escape(message)):
            run_study(cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            StudyConfig(n=21)
        with pytest.raises(ValueError):
            StudyConfig(true_model_j=5)
        for value in (np.nan, np.inf, -np.inf, 0.0, -1.0):
            with pytest.raises(ValueError, match=f"sigma2_sweep values must be finite and > 0, got {value}"):
                StudyConfig(sigma2_sweep=(1.0, value))
        for noise_sd in (np.nan, np.inf, -1.0):
            with pytest.raises(ValueError, match="noise_sd must be finite and >= 0"):
                StudyConfig(noise_sd=noise_sd)


class TestEmission:
    def test_csv_round_trip(self, tmp_path):
        cfg = StudyConfig(
            n=23, reps=2, b=15, sigma2_sweep=(1.0, 2.0), gamma_sweep=(0.0, 0.5),
            lambda_grid=(0.0, 1.0), master_seed=9,
        )
        res = run_study(cfg)
        mse_path, freq_path = write_study_csvs(res, tmp_path)
        _, mse_rows = read_float_table(mse_path, ("sigma2", "gamma", "value"))
        for (s2, g, v) in mse_rows:
            assert v == res.mse_at(s2, g)
        _, freq_rows = read_float_table(freq_path, ("sigma2", "gamma", "model_id", "value"))
        for (s2, g, mid, v) in freq_rows:
            assert v == res.freq_at(s2, g)[int(mid) - 1]
        # frequency rows for one cell sum to one
        cell = [v for (s2, g, mid, v) in freq_rows if s2 == 1.0 and g == 0.0]
        assert abs(sum(cell) - 1.0) < 1e-12

    def test_svg_smoke(self, tmp_path):
        cfg = StudyConfig(
            n=23, reps=2, b=10, sigma2_sweep=(1.0, 2.0), gamma_sweep=(0.0, 1.0),
            lambda_grid=(0.0, 1.0), master_seed=9,
        )
        res = run_study(cfg)
        path = tmp_path / "mse.svg"
        render_mse_svg(res, path)
        text = path.read_text()
        assert text.startswith("<svg")
        assert "polyline" in text
