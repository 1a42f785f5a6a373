"""Bootstrap smoothing: replicate generation, averaging, variances, intervals."""

import numpy as np
import pytest
from conftest import (
    dense_smoothed_variance,
    make_instance,
    per_replicate_draws,
    redrawn_responses,
    z_quantile_bisect,
    z_upper_tail_bisect,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from bootsmooth import (
    CandidateModel,
    Dataset,
    DegreesOfFreedomError,
    NumericalError,
    PbsFit,
    PredictionInterval,
    ResamplingDistribution,
    SelectionFailureError,
    SelectorConfig,
    SingularDesignError,
    derive_seed,
    draw_replicates,
    ols_fit,
    pbs_fit,
    prediction_interval,
    resampling_mean,
    residual_variance_pbs,
    ridge_fit,
    smoothed_variance,
    smoothed_variance_via_gram,
    smoothed_variances,
)
from bootsmooth import smoothing
from bootsmooth.rng import replicate_keys
from bootsmooth.smoothing import two_sided_z


def small_selector(p, lambda_grid=(0.0, 0.1, 1.0)):
    cuts = sorted({max(1, p // 2), p})
    candidates = tuple(CandidateModel(i + 1, tuple(range(c))) for i, c in enumerate(cuts))
    return SelectorConfig(candidates=candidates, lambda_grid=lambda_grid)


def handmade_fit(coefficients, responses, mean_vector, distribution, center=None):
    """PbsFit assembled directly from replicate records (for formula tests)."""
    coefficients = np.asarray(coefficients, dtype=float)
    responses = np.asarray(responses, dtype=float)
    B, p = coefficients.shape
    beta_pbs = coefficients.mean(axis=0)
    ybar = responses.mean(axis=0)
    center = beta_pbs if center is None else np.asarray(center, dtype=float)
    u = responses - mean_vector[None, :]
    c = coefficients - center[None, :]
    return PbsFit(
        beta_pbs=beta_pbs,
        coefficients=coefficients,
        model_ids=[1] * B,
        lambdas=np.zeros(B),
        cross_moment=u.T @ c / B,
        ybar_star=ybar,
        mean_vector=np.asarray(mean_vector, dtype=float),
        center_coefficients=center,
        distribution=distribution,
        seed=0,
        B=B,
    )


class TestResamplingDistribution:
    def test_non_finite_sigma2_rejected(self):
        for s2 in (np.inf, np.nan, -1.0):
            with pytest.raises(ValueError, match="sigma2 must be finite"):
                ResamplingDistribution(gamma=0.5, sigma2=s2)


class TestResamplingMean:
    def test_endpoints_exact(self, rng):
        data = make_instance(rng, 10, 3)
        fit = ols_fit(data)
        np.testing.assert_array_equal(resampling_mean(data, 0.0), data.y)
        np.testing.assert_array_equal(resampling_mean(data, 1.0), data.X @ fit.coefficients)

    def test_midpoint_linearity(self, rng):
        data = make_instance(rng, 10, 3)
        lo = resampling_mean(data, 0.0)
        hi = resampling_mean(data, 1.0)
        np.testing.assert_allclose(resampling_mean(data, 0.5), 0.5 * (lo + hi), atol=1e-14)

    def test_gamma_domain(self, rng):
        data = make_instance(rng, 6, 2)
        for g in (-0.01, 1.01):
            with pytest.raises(ValueError):
                resampling_mean(data, g)

    def test_reads_the_data_own_ols_fit(self, rng):
        # no other fit can be passed in: the mean is always the OLS one
        data = make_instance(rng, 10, 3)
        with pytest.raises(TypeError):
            resampling_mean(data, ols_fit(data), 0.5)

    def test_rank_deficient_design_refused(self):
        data = Dataset(np.arange(4.0), np.column_stack([np.ones(4), np.ones(4)]))
        for _ in range(2):
            with pytest.raises(SingularDesignError, match="ols_fit"):
                resampling_mean(data, 0.5)


class TestDrawReplicates:
    def test_zero_variance_collapses_to_mean(self):
        mean = np.array([1.0, -2.0, 0.5])
        reps = draw_replicates(mean, 0.0, 5, seed=3)
        for b in range(5):
            np.testing.assert_array_equal(reps[b], mean)

    def test_same_seed_bitwise_identical(self):
        mean = np.zeros(4)
        a = draw_replicates(mean, 2.0, 20, seed=11)
        b = draw_replicates(mean, 2.0, 20, seed=11)
        np.testing.assert_array_equal(a, b)

    def test_law_of_large_numbers(self):
        mean = np.array([3.0, -1.0, 0.0, 2.0, 5.0])
        reps = draw_replicates(mean, 4.0, 10000, seed=7)
        np.testing.assert_allclose(reps.mean(axis=0), mean, atol=0.1)
        np.testing.assert_allclose(reps.var(axis=0, ddof=1), 4.0, atol=0.2)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            draw_replicates(np.zeros(3), -1.0, 5, seed=0)
        with pytest.raises(ValueError):
            draw_replicates(np.zeros(3), 1.0, 0, seed=0)

    @pytest.mark.parametrize("sigma2", [np.inf, -np.inf, np.nan])
    def test_non_finite_sigma2_rejected(self, sigma2):
        with pytest.raises(ValueError, match="sigma2 must be finite and >= 0"):
            draw_replicates(np.zeros(3), sigma2, 2, 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_mean_rejected(self, bad):
        with pytest.raises(ValueError, match="mean must be finite"):
            draw_replicates(np.array([0.0, bad, 1.0]), 1.0, 2, 0)

    @pytest.mark.parametrize("B", [2.5, "3", None])
    def test_non_integer_b_rejected(self, B):
        with pytest.raises(ValueError, match="B must be an integer >= 1"):
            draw_replicates(np.zeros(3), 1.0, B, 0)

    @pytest.mark.parametrize("seed", [0, 11, 2**64 - 1, derive_seed(5, 3, 1)])
    @pytest.mark.parametrize("B", [1, 63, 64, 65, 130])
    @pytest.mark.parametrize("sigma2", [0.0, 2.5])
    def test_bytes_match_per_replicate_generators(self, seed, B, sigma2):
        mean = np.linspace(-2.0, 3.0, 7)
        got = draw_replicates(mean, sigma2, B, seed)
        assert got.tobytes() == per_replicate_draws(mean, sigma2, B, seed).tobytes()

    def test_draw_block_is_a_c_contiguous_n_by_chunk_block(self):
        mean = np.linspace(-2.0, 3.0, 7)
        block = smoothing._draw_block(mean, 1.5, replicate_keys(5, 0, 100).tolist()[64:])
        assert block.shape == (7, 36)
        assert block.flags.c_contiguous
        assert block.tobytes() == per_replicate_draws(mean, 2.25, 100, 5)[64:].T.tobytes()

    def test_replicate_streams_do_not_depend_on_b(self):
        # replicate b owns stream (seed, b), so growing B extends the list
        # without disturbing earlier replicates
        mean = np.array([0.5, -1.5])
        small = draw_replicates(mean, 3.0, 64, seed=2)
        large = draw_replicates(mean, 3.0, 65, seed=2)
        np.testing.assert_array_equal(small, large[:64])


class TestPbsFit:
    def test_degenerate_limit_recovers_ols(self, rng):
        data = make_instance(rng, 12, 4)
        cfg = small_selector(4)
        fit = pbs_fit(data, ResamplingDistribution(gamma=1.0, sigma2=0.0), 25, cfg, seed=5)
        ols = ols_fit(data)
        np.testing.assert_allclose(fit.beta_pbs, ols.coefficients, atol=1e-10)
        assert all(m == 2 for m in fit.model_ids)  # candidate 2 is the full model
        assert np.all(fit.lambdas == 0.0)

    def test_single_replicate_mean(self, rng):
        data = make_instance(rng, 10, 3)
        cfg = small_selector(3)
        fit = pbs_fit(data, ResamplingDistribution(gamma=0.5, sigma2=1.0), 1, cfg, seed=9)
        np.testing.assert_array_equal(fit.beta_pbs, fit.coefficients[0])

    def test_mean_of_stored_records(self, rng):
        data = make_instance(rng, 14, 4)
        cfg = small_selector(4)
        fit = pbs_fit(data, ResamplingDistribution(gamma=0.3, sigma2=2.0), 150, cfg, seed=2)
        recomputed = sum(fit.coefficients) / fit.B
        np.testing.assert_allclose(fit.beta_pbs, recomputed, atol=1e-12)
        ybar = sum(redrawn_responses(fit)) / fit.B
        np.testing.assert_allclose(fit.ybar_star, ybar, atol=1e-12)

    def test_replicates_match_draw_replicates(self, rng):
        data = make_instance(rng, 9, 3)
        cfg = small_selector(3)
        dist = ResamplingDistribution(gamma=0.4, sigma2=1.5)
        fit = pbs_fit(data, dist, 40, cfg, seed=13)
        mean = resampling_mean(data, 0.4)
        np.testing.assert_array_equal(fit.mean_vector, mean)
        # the sufficient statistics are those of the redrawn responses
        responses = draw_replicates(mean, 1.5, 40, 13)
        u = responses - mean[None, :]
        c = fit.coefficients - fit.center_coefficients[None, :]
        np.testing.assert_allclose(fit.ybar_star, responses.mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(fit.cross_moment, u.T @ c / 40, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 13, derive_seed(9, 2, 4)])
    @pytest.mark.parametrize("sigma2", [0.0, 1.7])
    def test_draws_match_per_replicate_generators(self, rng, monkeypatch, seed, sigma2):
        blocks = []
        draw_block = smoothing._draw_block

        def recording(*args):
            blocks.append(draw_block(*args))
            return blocks[-1]

        monkeypatch.setattr(smoothing, "_draw_block", recording)
        data = make_instance(rng, 9, 3)
        # two full chunks and a partial one
        chunk = smoothing.REPLICATE_CHUNK
        B = 2 * chunk + 2
        fit = pbs_fit(data, ResamplingDistribution(gamma=0.4, sigma2=sigma2), B, small_selector(3), seed)
        assert [block.shape[1] for block in blocks] == [chunk, chunk, 2]
        drawn = np.concatenate(blocks, axis=1).T
        want = per_replicate_draws(fit.mean_vector, sigma2, B, seed)
        assert drawn.tobytes() == want.tobytes()

    @pytest.mark.parametrize("criterion", ["gcv", "kfold"])
    def test_chunk_width_moves_only_the_running_sums(self, rng, monkeypatch, criterion):
        # B spans 13 chunks of 64 and several of the shipped width; the
        # width may change the summation order of ysum and cross, nothing else
        data = make_instance(rng, 14, 6)
        cfg = small_selector(6, (0.0, 0.1, 1.0, 10.0))
        cfg = SelectorConfig(cfg.candidates, cfg.lambda_grid, criterion=criterion, cv_folds=4)
        dist = ResamplingDistribution(gamma=0.7, sigma2=2.5)
        B = 3 * smoothing.REPLICATE_CHUNK + 5
        fits = []
        for chunk in (64, smoothing.REPLICATE_CHUNK):
            monkeypatch.setattr(smoothing, "REPLICATE_CHUNK", chunk)
            fits.append(pbs_fit(Dataset(data.y, data.X), dist, B, cfg, seed=17))
        narrow, shipped = fits
        assert narrow.model_ids == shipped.model_ids
        assert len(set(shipped.model_ids)) == 2 and len(set(shipped.lambdas.tolist())) >= 2
        np.testing.assert_array_equal(narrow.lambdas, shipped.lambdas)
        for name in ("coefficients", "beta_pbs", "cross_moment", "ybar_star"):
            np.testing.assert_allclose(getattr(narrow, name), getattr(shipped, name), rtol=1e-12, err_msg=name)

    def test_one_stream_set_per_fit(self, rng, monkeypatch):
        built = []

        def counted(*args):
            built.append(args)
            return replicate_keys(*args)

        monkeypatch.setattr(smoothing, "replicate_keys", counted)
        data = make_instance(rng, 9, 3)
        B = 2 * smoothing.REPLICATE_CHUNK + 2
        pbs_fit(data, ResamplingDistribution(gamma=0.4, sigma2=1.7), B, small_selector(3), 6)
        # one key derivation for all three chunks (two full, one of 2)
        assert built == [(6, 0, B)]

    @pytest.mark.parametrize("B", [1, smoothing.REPLICATE_CHUNK, 2 * smoothing.REPLICATE_CHUNK + 2])
    @pytest.mark.parametrize("draw", ["pbs_fit", "draw_replicates"])
    def test_one_generator_call_per_replicate(self, rng, monkeypatch, B, draw):
        # the benchmark counts replicates by the calls through smoothing.generator
        calls = []
        keyed = smoothing.generator

        def counted(key):
            calls.append(key)
            return keyed(key)

        monkeypatch.setattr(smoothing, "generator", counted)
        data = make_instance(rng, 9, 3)
        if draw == "pbs_fit":
            pbs_fit(data, ResamplingDistribution(gamma=0.4, sigma2=1.7), B, small_selector(3), 6)
        else:
            draw_replicates(data.y, 1.7, B, 6)
        assert calls == replicate_keys(6, 0, B).tolist()

    def test_bitwise_reproducible_and_thread_invariant(self, rng):
        data = make_instance(rng, 12, 4)
        cfg = small_selector(4)
        dist = ResamplingDistribution(gamma=0.6, sigma2=3.0)
        # a rerun on the warm Dataset and a run on a fresh one
        fits = [
            pbs_fit(d, dist, 130, cfg, seed=21) for d in (data, data, Dataset(data.y, data.X))
        ]
        for other in fits[1:]:
            np.testing.assert_array_equal(fits[0].beta_pbs, other.beta_pbs)
            np.testing.assert_array_equal(fits[0].coefficients, other.coefficients)
            np.testing.assert_array_equal(fits[0].ybar_star, other.ybar_star)
            np.testing.assert_array_equal(fits[0].cross_moment, other.cross_moment)
            assert fits[0].model_ids == other.model_ids

    def test_sufficient_statistics_path_matches(self, rng):
        # the variance read off the sufficient statistics equals the dense
        # oracle built from the redrawn responses, at gamma 0, 0.5 and 1
        data = make_instance(rng, 12, 4)
        cfg = small_selector(4)
        x = rng.standard_normal(4)
        for gamma in (0.0, 0.5, 1.0):
            dist = ResamplingDistribution(gamma=gamma, sigma2=2.0)
            fit = pbs_fit(data, dist, 90, cfg, seed=3)
            assert smoothed_variance(fit, data, x) == pytest.approx(
                dense_smoothed_variance(fit, data, x), abs=1e-12, rel=1e-9
            ), gamma

    def test_replicate_fits_match_public_ridge_fit(self, rng):
        # each stored row reproduces ridge_fit at the stored (model, lambda)
        data = make_instance(rng, 12, 4)
        cfg = small_selector(4)
        fit = pbs_fit(data, ResamplingDistribution(gamma=0.4, sigma2=2.0), 20, cfg, seed=33)
        by_id = {c.id: c for c in cfg.candidates}
        responses = redrawn_responses(fit)
        for b in range(fit.B):
            single = ridge_fit(
                Dataset(responses[b], data.X),
                by_id[fit.model_ids[b]],
                float(fit.lambdas[b]),
            )
            np.testing.assert_allclose(
                fit.coefficients[b], single.coefficients, rtol=1e-9, atol=1e-12
            )

    def test_kfold_criterion_inside_replicates(self, rng):
        from bootsmooth import select_fit

        data = make_instance(rng, 12, 3)
        cfg = SelectorConfig(
            candidates=(CandidateModel(1, (0,)), CandidateModel(2, (0, 1, 2))),
            lambda_grid=(0.0, 1.0),
            criterion="kfold",
            cv_folds=3,
        )
        fit = pbs_fit(data, ResamplingDistribution(gamma=0.5, sigma2=1.0), 8, cfg, seed=4)
        responses = redrawn_responses(fit)
        for b in range(fit.B):
            single = select_fit(Dataset(responses[b], data.X), cfg)
            assert (fit.model_ids[b], fit.lambdas[b]) == (single.model_id, single.lam)

    def test_selection_failure_names_replicate(self, rng):
        data = Dataset(rng.standard_normal(3), np.eye(3))
        cfg = SelectorConfig(
            candidates=(CandidateModel("sat", (0, 1, 2)),), lambda_grid=(0.0,)
        )
        with pytest.raises(SelectionFailureError, match="replicate 0"):
            pbs_fit(data, ResamplingDistribution(gamma=0.0, sigma2=1.0), 8, cfg, seed=1)


class TestGammaInvariance:
    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        gamma=st.sampled_from((0.0, 0.3, 1.0)),
        lam=st.sampled_from((0.0, 1.0, 100.0)),
        cols=st.sets(st.integers(0, 5), min_size=1),
    )
    def test_ridge_fits_ignore_gamma_in_the_mean(self, seed, gamma, lam, cols):
        # fits from gamma-mixed responses equal fits from y + eps for any submodel
        rng = np.random.default_rng(seed)
        data = make_instance(rng, 12, 6)
        beta_ols = ols_fit(data).coefficients
        eps = rng.standard_normal(12)
        model = CandidateModel("sub", tuple(sorted(cols)))
        y_star = gamma * (data.X @ beta_ols) + (1.0 - gamma) * data.y + eps
        fit_star = ridge_fit(Dataset(y_star, data.X), model, lam)
        fit_plain = ridge_fit(Dataset(data.y + eps, data.X), model, lam)
        denom = max(np.linalg.norm(fit_plain.coefficients), 1e-12)
        assert np.linalg.norm(fit_star.coefficients - fit_plain.coefficients) / denom < 1e-9


class TestPbsPredict:
    def test_basis_vector_and_zero(self, rng):
        data = make_instance(rng, 10, 3)
        fit = pbs_fit(
            data, ResamplingDistribution(gamma=0.5, sigma2=1.0), 30, small_selector(3), seed=4
        )
        e1 = np.zeros(3)
        e1[1] = 1.0
        assert e1 @ fit.beta_pbs == fit.beta_pbs[1]
        assert np.zeros(3) @ fit.beta_pbs == 0.0

    def test_linearity_of_averaging(self, rng):
        data = make_instance(rng, 10, 3)
        fit = pbs_fit(
            data, ResamplingDistribution(gamma=0.2, sigma2=1.0), 60, small_selector(3), seed=6
        )
        x = rng.standard_normal(3)
        assert x @ fit.beta_pbs == pytest.approx(float((fit.coefficients @ x).mean()), abs=1e-12)


class TestSmoothedVariance:
    @pytest.mark.parametrize(
        "variance", [smoothed_variances, smoothed_variance, smoothed_variance_via_gram]
    )
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_target_rows_rejected(self, rng, variance, bad):
        # a NaN entry used to come back as a NaN variance
        data = make_instance(rng, 12, 3)
        fit = pbs_fit(
            data, ResamplingDistribution(gamma=0.7, sigma2=1.0), 20, small_selector(3), seed=8
        )
        x = np.array([1.0, bad, 0.5])
        with pytest.raises(ValueError, match="x_new contains non-finite entries"):
            variance(fit, data, x[None, :] if variance is smoothed_variances else x)

    def test_zero_covariance_gives_zero(self, rng):
        data = make_instance(rng, 10, 3)
        fit = pbs_fit(
            data, ResamplingDistribution(gamma=0.7, sigma2=1.0), 40, small_selector(3), seed=8
        )
        assert smoothed_variance(fit, data, np.zeros(3)) == 0.0

    def test_gamma_one_matches_gram_form(self, rng):
        # hat-matrix idempotence reconciles the two formulas
        for _ in range(10):
            data = make_instance(rng, 12, 4)
            fit = pbs_fit(
                data,
                ResamplingDistribution(gamma=1.0, sigma2=2.0),
                50,
                small_selector(4),
                seed=int(rng.integers(0, 2**31)),
            )
            x = rng.standard_normal(4)
            a = smoothed_variance(fit, data, x)
            b = smoothed_variance_via_gram(fit, data, x)
            assert a == pytest.approx(b, rel=1e-9, abs=1e-12)

    def test_matches_dense_projector_oracle(self, rng):
        data = make_instance(rng, 12, 4)
        fit = pbs_fit(
            data, ResamplingDistribution(gamma=0.3, sigma2=1.7), 70, small_selector(4), seed=15
        )
        x = rng.standard_normal(4)
        assert smoothed_variance(fit, data, x) == pytest.approx(
            dense_smoothed_variance(fit, data, x), rel=1e-10, abs=1e-14
        )

    def test_selection_free_case_recovers_analytic_variance(self, rng):
        # with one candidate and lambda = 0 the smoothed prediction is linear
        # in y*, so its delta-method variance has the closed form
        # sigma2 * x' (X'X)^-1 x for any gamma (projection identity)
        n, p = 25, 4
        X = rng.uniform(-2.0, 2.0, size=(n, p))
        y = X @ rng.normal(0.0, 1.0, size=p) + rng.normal(0.0, 1.3, size=n)
        data = Dataset(y, X)
        sel = SelectorConfig(
            candidates=(CandidateModel("full", tuple(range(p))),), lambda_grid=(0.0,)
        )
        s2 = 1.7
        x_new = rng.standard_normal(p)
        analytic = s2 * float(x_new @ np.linalg.inv(X.T @ X) @ x_new)
        # quadratic-form Monte Carlo estimates carry an O(1/sqrt(B)) error
        # plus a small upward bias, hence the loose relative bound
        for gamma in (1.0, 0.3):
            fit = pbs_fit(
                data,
                ResamplingDistribution(gamma=gamma, sigma2=s2),
                16000,
                sel,
                seed=5,
            )
            assert smoothed_variance(fit, data, x_new) == pytest.approx(
                analytic, rel=0.10
            )

    def test_degenerate_sigma2_rejected(self, rng):
        data = make_instance(rng, 10, 3)
        fit = pbs_fit(
            data, ResamplingDistribution(gamma=1.0, sigma2=0.0), 5, small_selector(3), seed=8
        )
        with pytest.raises(NumericalError, match="degenerate"):
            smoothed_variance(fit, data, np.zeros(3))
        # the interval propagates the component failure
        with pytest.raises(NumericalError, match="degenerate"):
            prediction_interval(fit, data, np.zeros(3), 0.05)

    def test_negative_clamp_contract(self):
        # quadratic forms are analytically >= 0: tiny negatives are rounding,
        # anything larger is a bug and must surface
        from bootsmooth.smoothing import _finalize_variance

        assert _finalize_variance(-1e-13, "test") == 0.0
        assert _finalize_variance(0.0, "test") == 0.0
        with pytest.raises(NumericalError, match="negative"):
            _finalize_variance(-1e-9, "test")


class TestResidualVariance:
    def test_exact_fit_gives_zero(self):
        X = np.array([[1.0], [1.0], [1.0]])
        fit = handmade_fit(
            [[2.0], [2.0]],
            [[2.0, 2.0, 2.0]] * 2,
            np.array([2.0, 2.0, 2.0]),
            ResamplingDistribution(gamma=1.0, sigma2=1.0),
        )
        data = Dataset(np.array([2.0, 2.0, 2.0]), X)
        assert residual_variance_pbs(fit, data) == 0.0

    def test_hand_instance(self):
        # residuals (-1, -1, 2): ss = 6, divisor 2
        data = Dataset(np.array([0.0, 0.0, 3.0]), np.ones((3, 1)))
        fit = handmade_fit(
            [[1.0], [1.0]],
            [[0.0, 0.0, 3.0]] * 2,
            np.array([0.0, 0.0, 3.0]),
            ResamplingDistribution(gamma=1.0, sigma2=1.0),
        )
        assert residual_variance_pbs(fit, data) == pytest.approx(3.0, abs=1e-14)

    def test_square_design_rejected(self, rng):
        data = Dataset(rng.standard_normal(2), np.eye(2))
        fit = handmade_fit(
            [[0.0, 0.0]],
            [list(data.y)],
            data.y,
            ResamplingDistribution(gamma=1.0, sigma2=1.0),
        )
        with pytest.raises(DegreesOfFreedomError):
            residual_variance_pbs(fit, data)


class TestPredictionInterval:
    def test_unit_residual_quantile(self):
        # smoothing = 0 (x_new = 0), residual = ||(-1,0,1)||^2 / 2 = 1
        data = Dataset(np.array([0.0, 2.0, 3.0]), np.array([[1.0], [2.0], [2.0]]))
        fit = handmade_fit(
            [[1.0], [1.0]],
            [[1.0, 2.0, 2.0]] * 2,
            np.array([1.0, 2.0, 2.0]),
            ResamplingDistribution(gamma=1.0, sigma2=1.0),
        )
        rv = residual_variance_pbs(fit, data)
        assert rv == pytest.approx(1.0, abs=1e-14)
        pi = prediction_interval(fit, data, np.zeros(1), 0.05)
        assert pi.half_width == pytest.approx(1.959964, abs=1e-5)
        pi50 = prediction_interval(fit, data, np.zeros(1), 0.5)
        assert pi50.half_width == pytest.approx(0.674490, abs=1e-5)

    @pytest.mark.parametrize("alpha", [0.5, 0.1, 0.05, 0.01, 1e-6])
    def test_z_matches_upper_tail_oracle(self, alpha):
        oracle = z_upper_tail_bisect(alpha)
        assert abs(two_sided_z(alpha) - oracle) <= 1e-14 * oracle

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.1, float("nan")])
    def test_z_refuses_alpha_outside_unit_interval(self, alpha):
        with pytest.raises(ValueError, match="alpha must be in"):
            two_sided_z(alpha)

    def test_quantile_oracle_on_real_fit(self, rng):
        data = make_instance(rng, 12, 4)
        fit = pbs_fit(
            data, ResamplingDistribution(gamma=0.8, sigma2=1.5), 60, small_selector(4), seed=19
        )
        x = rng.standard_normal(4)
        sv = smoothed_variance(fit, data, x)
        rv = residual_variance_pbs(fit, data)
        for alpha in (0.5, 0.1, 0.05, 0.01):
            pi = prediction_interval(fit, data, x, alpha)
            expect = z_quantile_bisect(alpha) * np.sqrt(sv + rv)
            assert pi.half_width == pytest.approx(expect, abs=1e-5 * max(1.0, expect))

    def test_monotone_in_alpha(self, rng):
        data = make_instance(rng, 12, 4)
        fit = pbs_fit(
            data, ResamplingDistribution(gamma=0.8, sigma2=1.5), 30, small_selector(4), seed=19
        )
        x = rng.standard_normal(4)
        widths = [prediction_interval(fit, data, x, a).half_width for a in (0.01, 0.05, 0.1, 0.5)]
        assert widths == sorted(widths, reverse=True)

    def test_monotone_in_variance_components(self):
        # growing the residual component never shrinks the interval
        base = np.array([1.0, 2.0, 2.0])
        X = np.array([[1.0], [2.0], [2.0]])
        fit = handmade_fit(
            [[1.0], [1.0]], [list(base)] * 2, base, ResamplingDistribution(gamma=1.0, sigma2=1.0)
        )
        widths = []
        for scale in (0.5, 1.0, 2.0):
            y = base + scale * np.array([-1.0, 0.0, 1.0])
            widths.append(prediction_interval(fit, Dataset(y, X), np.zeros(1), 0.1).half_width)
        assert widths == sorted(widths)

    def test_non_finite_x_new_rejected(self, rng):
        data = make_instance(rng, 12, 3)
        fit = pbs_fit(
            data, ResamplingDistribution(gamma=0.8, sigma2=1.0), 5, small_selector(3), seed=1
        )
        with pytest.raises(ValueError, match="non-finite"):
            prediction_interval(fit, data, np.array([np.nan, 0.0, 1.0]), 0.1)

    @pytest.mark.parametrize(
        "half_width, components, message",
        [
            (float("nan"), {"smoothing": 1.0, "residual": 1.0}, "half_width must be >= 0"),
            (-1.0, {"smoothing": 1.0, "residual": 1.0}, "half_width must be >= 0"),
            (1.0, {"smoothing": float("nan"), "residual": 1.0}, "'smoothing' must be >= 0"),
            (1.0, {"smoothing": 1.0, "residual": float("nan")}, "'residual' must be >= 0"),
        ],
    )
    def test_nan_or_negative_fields_refused(self, half_width, components, message):
        # NaN used to pass each sign check
        with pytest.raises(ValueError, match=message):
            PredictionInterval(0.0, half_width, 0.9, components)

    def test_alpha_domain(self, rng):
        data = make_instance(rng, 10, 3)
        fit = pbs_fit(
            data, ResamplingDistribution(gamma=0.8, sigma2=1.0), 5, small_selector(3), seed=1
        )
        for alpha in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError):
                prediction_interval(fit, data, np.zeros(3), alpha)
