"""Estimation and selection: OLS, ridge, GCV, joint argmin."""

import re

import numpy as np
import pytest
from conftest import (
    brute_force_select,
    dense_gcv,
    dense_kfold_error,
    make_instance,
    normal_equation_coefficients,
)

from bootsmooth import (
    CandidateModel,
    Dataset,
    DegenerateScoreError,
    DegreesOfFreedomError,
    FitResult,
    SelectionFailureError,
    SelectorConfig,
    SingularDesignError,
    gcv_score,
    kfold_split,
    ols_fit,
    ridge_fit,
    ridge_prediction_variance,
    select_fit,
    unbiased_variance,
)
from bootsmooth.selection import KFOLD_SEED, _DesignScorer, _id_key, _PairSelector
from bootsmooth.smoothing import REPLICATE_CHUNK


class TestDataset:
    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="row count"):
            Dataset(np.zeros(3), np.zeros((4, 2)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            Dataset(np.array([1.0, np.nan]), np.ones((2, 1)))
        with pytest.raises(ValueError, match="non-finite"):
            Dataset(np.ones(2), np.array([[1.0], [np.inf]]))

    def test_arrays_are_read_only_copies(self):
        y, X = np.ones(3), np.eye(3)
        data = Dataset(y, X)
        with pytest.raises(ValueError, match="read-only"):
            data.X[0, 0] = 2.0
        with pytest.raises(ValueError, match="read-only"):
            data.y[0] = 2.0
        X[0, 0] = y[0] = 5.0  # the caller's arrays stay writable
        assert data.X[0, 0] == 1.0 and data.y[0] == 1.0

    def test_candidate_validation(self):
        with pytest.raises(ValueError, match="distinct"):
            CandidateModel("m", (0, 0))
        with pytest.raises(ValueError, match="empty"):
            CandidateModel("m", ())

    @pytest.mark.parametrize("model_id", [1.0, True, None])
    def test_candidate_id_must_be_a_string_or_an_integer(self, model_id):
        with pytest.raises(ValueError, match="model id must be a string or an integer"):
            CandidateModel(model_id, (0,))


class TestOlsFit:
    def test_identity_design(self):
        data = Dataset(np.array([3.0, -1.0]), np.eye(2))
        fit = ols_fit(data)
        np.testing.assert_allclose(fit.coefficients, [3.0, -1.0], atol=1e-12)

    def test_response_in_column_space(self):
        data = Dataset(np.array([0.0, 1.0, 2.0]), np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]]))
        fit = ols_fit(data)
        np.testing.assert_allclose(fit.coefficients, [0.0, 1.0], atol=1e-12)
        assert fit.residual_ss < 1e-24

    def test_matches_normal_equation_oracle(self, rng):
        # oracle: explicit 3x3 inversion of X'X
        data = make_instance(rng, 6, 3)
        fit = ols_fit(data)
        oracle = np.linalg.inv(data.X.T @ data.X) @ (data.X.T @ data.y)
        np.testing.assert_allclose(fit.coefficients, oracle, rtol=1e-10, atol=1e-12)

    def test_underdetermined_raises_with_dimensions(self, rng):
        data = make_instance(rng, 3, 5)
        with pytest.raises(SingularDesignError, match="n=3.*5 columns"):
            ols_fit(data)

    def test_duplicate_column_raises(self, rng):
        X = rng.uniform(-1, 1, (8, 2))
        data = Dataset(rng.standard_normal(8), np.column_stack([X, X[:, 0]]))
        with pytest.raises(SingularDesignError, match="reciprocal condition"):
            ols_fit(data)
        # a failure is not memoised: the second call raises too
        with pytest.raises(SingularDesignError, match="reciprocal condition"):
            ols_fit(data)

    @pytest.mark.parametrize("shape", ["zero_column", "wide"])
    def test_rank_deficient_design_raises_on_every_call(self, rng, shape):
        # the rank check runs inside the memoised build, which a failure never fills
        if shape == "zero_column":
            data = Dataset(rng.standard_normal(6), np.column_stack([np.ones(6), np.zeros(6)]))
            message = "reciprocal condition"
        else:
            data = make_instance(rng, 2, 4)
            message = "n=2 rows cannot identify k=4 columns"
        for _ in range(2):
            with pytest.raises(SingularDesignError, match=message):
                ols_fit(data)
        assert "ols" not in data._memo

    def test_fit_is_memoised_with_read_only_coefficients(self, rng):
        data = make_instance(rng, 10, 3)
        fit = ols_fit(data)
        assert ols_fit(data) is fit
        with pytest.raises(ValueError, match="read-only"):
            fit.coefficients[0] = 0.0


class TestUnbiasedVariance:
    def test_exact_fit_gives_zero(self):
        data = Dataset(np.array([0.0, 1.0, 2.0]), np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]]))
        assert unbiased_variance(data) < 1e-24

    def test_hand_computed_value(self):
        # beta_hat = 1, residuals (-1, -1, 2), ss = 6, divisor n - p = 2
        data = Dataset(np.array([0.0, 0.0, 3.0]), np.ones((3, 1)))
        assert unbiased_variance(data) == pytest.approx(3.0, abs=1e-12)

    def test_zero_degrees_of_freedom(self):
        data = Dataset(np.array([1.0, 2.0]), np.eye(2))
        with pytest.raises(DegreesOfFreedomError):
            unbiased_variance(data)


class TestFitResult:
    @pytest.mark.parametrize(
        "lam, residual_ss, message",
        [
            (float("nan"), 1.0, "lam must be finite and >= 0, got nan"),
            (-1.0, 1.0, "lam must be finite and >= 0, got -1.0"),
            (float("inf"), 1.0, "lam must be finite and >= 0, got inf"),
            (0.5, float("nan"), "residual_ss must be >= 0, got nan"),
            (0.5, -1.0, "residual_ss must be >= 0, got -1.0"),
        ],
    )
    def test_negative_or_nan_fields_rejected(self, lam, residual_ss, message):
        # NaN used to pass both sign checks, and an infinite lam the one on lam
        with pytest.raises(ValueError, match=message):
            FitResult(np.zeros(2), "m", lam, residual_ss)


class TestRidgeFit:
    def test_lambda_zero_equals_ols_on_submatrix(self, rng):
        for _ in range(100):
            n = int(rng.integers(6, 15))
            p = int(rng.integers(2, min(6, n)))
            data = make_instance(rng, n, p)
            k = int(rng.integers(1, p + 1))
            cols = tuple(sorted(rng.choice(p, size=k, replace=False).tolist()))
            model = CandidateModel("sub", cols)
            rf = ridge_fit(data, model, 0.0)
            sub = Dataset(data.y, data.X[:, list(cols)])
            of = ols_fit(sub)
            np.testing.assert_allclose(
                rf.coefficients[list(cols)], of.coefficients, rtol=1e-10, atol=1e-12
            )

    def test_scalar_closed_form(self):
        data = Dataset(np.array([2.0]), np.array([[1.0]]))
        fit = ridge_fit(data, CandidateModel("m", (0,)), 1.0)
        assert fit.coefficients[0] == pytest.approx(1.0, abs=1e-14)

    def test_shrinkage_limit(self, rng):
        data = make_instance(rng, 10, 3)
        full = CandidateModel("m", (0, 1, 2))
        big = ridge_fit(data, full, 1e12)
        ols = ols_fit(data)
        assert np.linalg.norm(big.coefficients) < 1e-6 * np.linalg.norm(ols.coefficients)

    def test_zeros_outside_selected_columns(self, rng):
        data = make_instance(rng, 12, 5)
        fit = ridge_fit(data, CandidateModel("m", (1, 3)), 0.7)
        assert fit.coefficients[0] == 0.0
        assert fit.coefficients[2] == 0.0
        assert fit.coefficients[4] == 0.0

    def test_singular_at_lambda_zero(self, rng):
        X = rng.uniform(-1, 1, (6, 1))
        data = Dataset(rng.standard_normal(6), np.column_stack([X, X]))
        with pytest.raises(SingularDesignError):
            ridge_fit(data, CandidateModel("m", (0, 1)), 0.0)
        # positive lambda is fine on the same columns
        ridge_fit(data, CandidateModel("m", (0, 1)), 0.5)

    def test_negative_lambda_rejected(self, rng):
        data = make_instance(rng, 5, 2)
        with pytest.raises(ValueError):
            ridge_fit(data, CandidateModel("m", (0,)), -0.1)

    def test_nan_lambda_rejected(self, rng):
        # NaN used to fail later, as "coefficients contain non-finite entries"
        data = make_instance(rng, 5, 2)
        with pytest.raises(ValueError, match="lam must be finite and >= 0, got nan"):
            ridge_fit(data, CandidateModel("m", (0,)), float("nan"))

    def test_infinite_lambda_rejected(self, rng):
        # an infinite penalty used to fit every coefficient as 0
        data = make_instance(rng, 5, 2)
        with pytest.raises(ValueError, match="lam must be finite and >= 0, got inf"):
            ridge_fit(data, CandidateModel("m", (0,)), float("inf"))


class TestGcvScore:
    def test_saturated_fit_raises(self):
        data = Dataset(np.array([1.0, 2.0]), np.eye(2))
        with pytest.raises(DegenerateScoreError):
            gcv_score(data, CandidateModel("m", (0, 1)), 0.0)

    def test_orthogonal_response_hand_value(self):
        # X_j spans e1, e2; y lives on e3, e4 => H y = 0, score n ||y||^2 / (n-p)^2
        X = np.zeros((4, 2))
        X[0, 0] = 1.0
        X[1, 1] = 1.0
        y = np.array([0.0, 0.0, 1.0, 1.0])
        score = gcv_score(Dataset(y, X), CandidateModel("m", (0, 1)), 0.0)
        assert score == pytest.approx(4.0 * 2.0 / (4 - 2) ** 2, abs=1e-12)

    @pytest.mark.parametrize("lam", [0.0, 0.3, 7.0])
    def test_matches_dense_hat_oracle(self, rng, lam):
        data = make_instance(rng, 8, 2)
        model = CandidateModel("m", (0, 1))
        assert gcv_score(data, model, lam) == pytest.approx(
            dense_gcv(data, model, lam), rel=1e-10
        )

    @pytest.mark.parametrize("lam", [-1.0, float("nan")])
    def test_negative_or_nan_lambda_rejected(self, rng, lam):
        # NaN used to pass the sign check and score as lambda = 0
        data = make_instance(rng, 10, 4)
        with pytest.raises(ValueError, match=f"lam must be finite and >= 0, got {lam}"):
            gcv_score(data, CandidateModel("m", (0, 1, 2, 3)), lam)

    def test_invariant_under_column_permutation(self, rng):
        for _ in range(20):
            data = make_instance(rng, 9, 4)
            lam = float(rng.uniform(0.0, 2.0))
            a = gcv_score(data, CandidateModel("m", (0, 1, 2)), lam)
            b = gcv_score(data, CandidateModel("m", (2, 0, 1)), lam)
            assert a == pytest.approx(b, rel=1e-12)


class TestSelectFit:
    def test_single_pair_returned(self, rng):
        data = make_instance(rng, 8, 2)
        cfg = SelectorConfig(candidates=(CandidateModel("only", (0, 1)),), lambda_grid=(0.5,))
        fit = select_fit(data, cfg)
        assert fit.model_id == "only"
        assert fit.lam == 0.5

    def test_matches_brute_force_oracle(self, rng):
        for _ in range(25):
            n = int(rng.integers(8, 16))
            data = make_instance(rng, n, 5)
            candidates = (
                CandidateModel(1, (0, 1)),
                CandidateModel(2, (0, 1, 2)),
                CandidateModel(3, (0, 1, 2, 3, 4)),
                CandidateModel(4, (2, 4)),
            )
            cfg = SelectorConfig(candidates=candidates, lambda_grid=(0.0, 0.01, 1.0, 100.0))
            fit = select_fit(data, cfg)
            oracle_id, oracle_lam = brute_force_select(data, cfg)
            assert fit.model_id == oracle_id
            assert fit.lam == oracle_lam

    def test_noiseless_nested_tie_prefers_smaller_model(self):
        # y lies exactly in the span of the smaller model; scores tie at 0
        X = np.zeros((3, 2))
        X[0, 0] = 1.0
        X[1, 1] = 1.0
        y = np.array([1.0, 0.0, 0.0])
        data = Dataset(y, X)
        cfg = SelectorConfig(
            candidates=(CandidateModel(2, (0, 1)), CandidateModel(1, (0,))),
            lambda_grid=(0.0, 1.0),
        )
        fit = select_fit(data, cfg)
        oracle_id, oracle_lam = brute_force_select(data, cfg)
        assert fit.model_id == 1
        assert fit.lam == 0.0
        assert (fit.model_id, fit.lam) == (oracle_id, oracle_lam)

    def test_all_pairs_degenerate_raises(self):
        data = Dataset(np.array([1.0, 2.0]), np.eye(2))
        cfg = SelectorConfig(candidates=(CandidateModel("m", (0, 1)),), lambda_grid=(0.0,))
        with pytest.raises(SelectionFailureError):
            select_fit(data, cfg)

    def test_coefficients_zero_outside_model(self, rng):
        data = make_instance(rng, 10, 4)
        cfg = SelectorConfig(
            candidates=(CandidateModel("a", (0, 2)), CandidateModel("b", (1,))),
            lambda_grid=(0.0, 0.5),
        )
        fit = select_fit(data, cfg)
        cols = {"a": (0, 2), "b": (1,)}[fit.model_id]
        outside = [i for i in range(4) if i not in cols]
        assert all(fit.coefficients[i] == 0.0 for i in outside)

    def test_kfold_criterion_matches_manual_loop(self, rng):
        data = make_instance(rng, 12, 3)
        candidates = (CandidateModel(1, (0,)), CandidateModel(2, (0, 1, 2)))
        cfg = SelectorConfig(
            candidates=candidates,
            lambda_grid=(0.0, 1.0),
            criterion="kfold",
            cv_folds=3,
        )
        fit = select_fit(data, cfg)

        # manual loop with the same fold layout
        from bootsmooth.rng import generator as _gen

        perm = _gen(KFOLD_SEED).permutation(12)
        blocks = [np.sort(perm[0:4]), np.sort(perm[4:8]), np.sort(perm[8:12])]
        best = None
        for model in candidates:
            for lam in cfg.lambda_grid:
                err = 0.0
                for va in blocks:
                    tr = np.setdiff1d(np.arange(12), va)
                    sub = Dataset(data.y[tr], data.X[tr])
                    beta = ridge_fit(sub, model, lam).coefficients
                    r = data.y[va] - data.X[va] @ beta
                    err += float(r @ r)
                key = (err, len(model.columns), lam, model.id)
                if best is None or key < best[0]:
                    best = (key, model.id, lam)
        assert (fit.model_id, fit.lam) == (best[1], best[2])

    def test_lambda_grid_validation(self):
        with pytest.raises(ValueError, match="ascending"):
            SelectorConfig(candidates=(CandidateModel("m", (0,)),), lambda_grid=(1.0, 0.5))
        with pytest.raises(ValueError, match=">= 0"):
            SelectorConfig(candidates=(CandidateModel("m", (0,)),), lambda_grid=(-1.0,))
        with pytest.raises(ValueError, match="finite and >= 0"):
            SelectorConfig(candidates=(CandidateModel("m", (0,)),), lambda_grid=(0.0, float("inf")))
        with pytest.raises(ValueError, match="unique"):
            SelectorConfig(
                candidates=(CandidateModel("m", (0,)), CandidateModel("m", (1,))),
                lambda_grid=(0.0,),
            )


class TestPairScores:
    # A repeated lambda and two candidates with identical columns but
    # different ids: every (candidate, lambda) row needs its own score.
    CANDIDATES = (
        CandidateModel("b", (0, 1)),
        CandidateModel(7, (0, 1, 2, 3)),
        CandidateModel("a", (0, 1)),
    )
    GRID = (0.0, 0.5, 0.5, 3.0)

    def test_every_row_equals_gcv_score(self, rng):
        data = make_instance(rng, 10, 4)
        sel = _PairSelector(data, SelectorConfig(candidates=self.CANDIDATES, lambda_grid=self.GRID))
        scores = sel.scores(np.column_stack([data.y, 2.0 * data.y]))
        rows = sorted(
            (int(si), float(lam)) for si, lam in zip(sel.pair_scorer_index, sel.pair_lambda)
        )
        assert rows == sorted((si, lam) for si in range(3) for lam in self.GRID)
        for row, (si, lam) in enumerate(zip(sel.pair_scorer_index, sel.pair_lambda)):
            expected = gcv_score(data, self.CANDIDATES[si], lam)
            assert scores[row, 0] == pytest.approx(expected, rel=1e-12), row
            assert scores[row, 1] == pytest.approx(4.0 * expected, rel=1e-12), row
        keys = [
            (len(self.CANDIDATES[si].columns), lam, _id_key(self.CANDIDATES[si].id))
            for si, lam in zip(sel.pair_scorer_index, sel.pair_lambda)
        ]
        assert keys == sorted(keys)

    def test_every_kfold_row_equals_the_dense_oracle(self, rng):
        # 8 rows in 4 folds leave 6 training rows.  Column 7 is nonzero on row 0
        # only, so the training block that holds row 0 out has a zero column; the
        # 7-column candidate has more columns than any training block has rows.
        X = np.column_stack([rng.uniform(-3.0, 3.0, size=(8, 7)), np.eye(8)[:, 0]])
        data = Dataset(X[:, :2] @ np.array([1.0, -2.0]) + rng.standard_normal(8), X)
        candidates = self.CANDIDATES[::2] + (
            CandidateModel("spike", (0, 7)),
            CandidateModel("wide", tuple(range(7))),
        )
        cfg = SelectorConfig(candidates, self.GRID, criterion="kfold", cv_folds=4)
        Y = np.column_stack([data.y, rng.standard_normal(8)])
        sel = _PairSelector(data, cfg)
        scores = sel.scores(Y)
        folds = kfold_split(8, 4, seed=KFOLD_SEED)
        for row, (si, lam) in enumerate(zip(sel.pair_scorer_index, sel.pair_lambda)):
            for j in range(2):
                expected = dense_kfold_error(Dataset(Y[:, j], X), candidates[si], lam, folds)
                assert scores[row, j] == pytest.approx(expected, rel=1e-12), (row, j)
        rows = zip(sel.pair_scorer_index, sel.pair_lambda, scores[:, 0])
        at_zero = {candidates[si].id: s for si, lam, s in rows if lam == 0.0}
        assert at_zero["spike"] == at_zero["wide"] == np.inf
        assert np.isfinite(at_zero["a"]) and at_zero["a"] == at_zero["b"]
        assert np.all(np.isfinite(scores[sel.pair_lambda > 0.0]))

    def test_select_fit_follows_the_tie_break(self, rng):
        for _ in range(10):
            data = make_instance(rng, 10, 4)
            cfg = SelectorConfig(candidates=self.CANDIDATES, lambda_grid=self.GRID)
            fit = select_fit(data, cfg)
            assert fit.model_id != "b"  # "a" scores identically and sorts first
            assert (fit.model_id, fit.lam) == brute_force_select(data, cfg)

    def test_unscoreable_rows_are_infinite(self):
        # n = k = 2: lambda = 0 saturates; lambda > 0 leaves a positive trace
        data = Dataset(np.array([1.0, 2.0]), np.eye(2))
        cfg = SelectorConfig(candidates=(CandidateModel("m", (0, 1)),), lambda_grid=(0.0, 1.0))
        scores = _PairSelector(data, cfg).scores(data.y[:, None])[:, 0]
        assert scores[0] == np.inf
        assert scores[1] == pytest.approx(gcv_score(data, cfg.candidates[0], 1.0), rel=1e-12)

    def test_wide_candidate_scores_at_positive_lambda(self, rng):
        # n = 3 rows, k = 5 columns: three singular values, no lambda = 0 fit
        data = make_instance(rng, 3, 5)
        wide, narrow = CandidateModel("w", tuple(range(5))), CandidateModel("n", (0, 1))
        cfg = SelectorConfig(candidates=(wide, narrow), lambda_grid=(0.0, 0.5, 3.0))
        for lam in (0.5, 3.0):
            assert gcv_score(data, wide, lam) == pytest.approx(dense_gcv(data, wide, lam), rel=1e-9)
        with pytest.raises(SingularDesignError):
            gcv_score(data, wide, 0.0)
        sel = _PairSelector(data, cfg)
        scores = sel.scores(data.y[:, None])[:, 0]
        for row, (si, lam) in enumerate(zip(sel.pair_scorer_index, sel.pair_lambda)):
            if si == 0:
                expected = np.inf if lam == 0.0 else gcv_score(data, wide, lam)
                assert scores[row] == pytest.approx(expected, rel=1e-12), row
        fit = select_fit(data, cfg)
        assert (fit.model_id, fit.lam) == brute_force_select(data, cfg)

    @staticmethod
    def stacked_scores(sel, Y):
        """The scores stacked per candidate and then put in tie-break order.

        Per candidate, a +inf block over its whole lambda table with the
        scoreable rows filled in; for kfold, the fold-summed (C, L, B) block.
        The blocks are stacked and gathered through the tie-break order.
        """
        cfg = sel.config
        if cfg.criterion == "gcv":
            blocks = []
            for sc in sel.scorers:
                w, denom, valid = sc.lambda_table(cfg.lambda_grid)
                UtY = sc.U.T @ Y
                sq = UtY * UtY
                perp = np.einsum("ij,ij->j", Y, Y) - sq.sum(axis=0)
                np.maximum(perp, 0.0, out=perp)
                out = np.full((len(denom), Y.shape[1]), np.inf)
                out[valid] = sc.n * (w[valid] @ sq + perp) / (denom * denom)[valid, None]
                blocks.append(out)
        else:
            blocks = sum(
                np.stack([sc.heldout_errors(Y[tr], Y[va], *t) for sc, *t in tables])
                for tr, va, tables in sel.folds
            )
        keys = [(sc.k, lam, _id_key(sc.model.id)) for sc in sel.scorers for lam in cfg.lambda_grid]
        order = np.array(sorted(range(len(keys)), key=keys.__getitem__))
        return np.vstack(blocks)[order]

    @pytest.mark.parametrize("criterion", ["gcv", "kfold"])
    def test_scores_are_bitwise_the_stacked_scores(self, rng, criterion):
        # 6 rows: column 5 repeats column 0, so "dup" is rank deficient at
        # lambda = 0, and "sat" has 6 full-rank columns, a zero trace there.
        X = rng.uniform(-3.0, 3.0, size=(6, 7))
        X[:, 5] = X[:, 0]
        data = Dataset(X[:, :2] @ np.array([1.0, -2.0]) + rng.standard_normal(6), X)
        candidates = self.CANDIDATES[::2] + (
            CandidateModel("dup", (0, 1, 5)),
            CandidateModel("sat", (0, 1, 2, 3, 4, 6)),
        )
        cfg = SelectorConfig(candidates, self.GRID, criterion=criterion, cv_folds=3)
        sel = _PairSelector(data, cfg)
        Y = np.column_stack([data.y, rng.standard_normal((6, 4))])
        scores = sel.scores(Y)
        assert scores.tobytes() == self.stacked_scores(sel, Y).tobytes()
        rows = zip(sel.pair_scorer_index, sel.pair_lambda, scores[:, 0])
        at_zero = {candidates[si].id: s for si, lam, s in rows if lam == 0.0}
        assert at_zero["dup"] == at_zero["sat"] == np.inf
        assert np.isfinite(at_zero["a"]) and at_zero["a"] == at_zero["b"]

    def test_gcv_score_equals_its_row_of_scores(self, rng):
        # one formula; only its weight product has one row instead of the
        # table's, which a BLAS may round differently in the last bit
        data = make_instance(rng, 10, 4)
        sel = _PairSelector(data, SelectorConfig(candidates=self.CANDIDATES, lambda_grid=self.GRID))
        scores = sel.scores(data.y[:, None])[:, 0]
        for row, (si, lam) in enumerate(zip(sel.pair_scorer_index, sel.pair_lambda)):
            expected = pytest.approx(scores[row], rel=4 * np.finfo(float).eps)
            assert gcv_score(data, self.CANDIDATES[si], lam) == expected, row


class TestRidgePredictionVariance:
    def test_matches_dense_sandwich(self, rng):
        data = make_instance(rng, 10, 3)
        model = CandidateModel("m", (0, 1, 2))
        lam, s2 = 0.8, 2.5
        x = rng.standard_normal(3)
        G = data.X.T @ data.X
        inv = np.linalg.inv(G + lam * np.eye(3))
        dense = s2 * float(x @ (inv @ G @ inv) @ x)
        assert ridge_prediction_variance(data, model, lam, x, s2) == pytest.approx(
            dense, rel=1e-10
        )

    @pytest.mark.parametrize("lam", [-1.0, float("nan")])
    def test_negative_or_nan_lambda_rejected(self, rng, lam):
        data = make_instance(rng, 10, 3)
        with pytest.raises(ValueError, match=f"lam must be finite and >= 0, got {lam}"):
            ridge_prediction_variance(data, CandidateModel("m", (0, 1, 2)), lam, np.ones(3), 1.0)

    @pytest.mark.parametrize("sigma2", [-2.0, float("nan"), float("inf")])
    def test_negative_or_non_finite_sigma2_rejected(self, rng, sigma2):
        # sigma2 = -2 used to come back as a negative variance
        data = make_instance(rng, 10, 3)
        with pytest.raises(ValueError, match=f"sigma2 must be finite and >= 0, got {sigma2}"):
            ridge_prediction_variance(data, CandidateModel("m", (0, 1, 2)), 0.5, np.ones(3), sigma2)

    @pytest.mark.parametrize("lam", [0.0, 0.8])
    def test_rows_equal_their_one_row_calls(self, rng, lam):
        data = make_instance(rng, 12, 4)
        model = CandidateModel("m", (0, 2, 3))
        rows = rng.standard_normal((9, 4))
        got = ridge_prediction_variance(data, model, lam, rows, 2.5)
        assert got.shape == (9,)
        want = [ridge_prediction_variance(data, model, lam, x, 2.5) for x in rows]
        assert all(isinstance(v, float) for v in want)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("shape", [(), (4,), (2, 4), (2, 3, 3)])
    def test_rows_of_the_wrong_shape_rejected(self, rng, shape):
        data = make_instance(rng, 10, 3)
        with pytest.raises(ValueError, match=re.escape(f"got {shape}")):
            ridge_prediction_variance(data, CandidateModel("m", (0, 1, 2)), 0.5, np.ones(shape), 1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_row_among_many_rejected(self, rng, bad):
        data = make_instance(rng, 12, 3)
        rows = np.ones((3, 3))
        rows[2, 1] = bad
        with pytest.raises(ValueError, match="x_new contains non-finite entries"):
            ridge_prediction_variance(data, CandidateModel("m", (0, 1, 2)), 0.5, rows, 1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_x_new_rejected(self, rng, bad):
        # a NaN entry used to come back as a NaN variance
        data = make_instance(rng, 12, 3)
        with pytest.raises(ValueError, match="x_new contains non-finite entries"):
            ridge_prediction_variance(
                data, CandidateModel("m", (0, 1, 2)), 0.5, np.array([bad, 1.0, 0.0]), 1.0
            )


class TestLambdaZeroGuard:
    """Every single-lambda function refuses lambda = 0 on a rank-deficient design."""

    CALLS = {
        "ridge_fit": lambda data, model, lam: float(ridge_fit(data, model, lam).residual_ss),
        "gcv_score": gcv_score,
        "ridge_prediction_variance": lambda data, model, lam: ridge_prediction_variance(
            data, model, lam, np.linspace(-1.0, 1.0, data.p), 1.5
        ),
    }

    @staticmethod
    def design(kind: str) -> Dataset:
        rng = np.random.default_rng(11)
        if kind == "n<k":
            return make_instance(rng, 3, 5)
        X = rng.uniform(-1.0, 1.0, (10, 4))
        X[:, 3] = X[:, 0] if kind == "duplicate" else 0.0
        return Dataset(rng.standard_normal(10), X)

    @pytest.mark.parametrize("kind, message", [
        pytest.param("duplicate", "reciprocal condition", id="duplicate"),
        pytest.param("zero", "reciprocal condition 0.000e+00", id="zero"),
        pytest.param("n<k", "n=3 rows cannot identify k=5 columns", id="n<k"),
    ])
    @pytest.mark.parametrize("name", list(CALLS))
    def test_lambda_zero_needs_full_column_rank(self, name, kind, message):
        # ridge_prediction_variance used to return a variance here (0/0 on
        # the zero column) for designs that ridge_fit refuses
        data, call = self.design(kind), self.CALLS[name]
        model = CandidateModel("m", tuple(range(data.p)))
        pattern = f"^{name} at lambda=0: .*{re.escape(message)}"
        with pytest.raises(SingularDesignError, match=pattern):
            call(data, model, 0.0)
        assert np.isfinite(call(data, model, 0.5))

    @pytest.mark.parametrize("kind", ["full rank", "duplicate", "zero"])
    def test_acceptance_does_not_depend_on_column_units(self, kind):
        # the reciprocal condition is taken on unit-norm columns; on the raw
        # columns, scaling one column of the full-rank design by 1e8 gives
        # about 7e-17 and used to be refused
        if kind == "full rank":
            rng = np.random.default_rng(5)
            X = np.column_stack([np.ones(30), rng.uniform(-5.0, 5.0, (30, 20))])
            data = Dataset(X[:, :6].sum(axis=1) + rng.normal(0.0, 2.0, 30), X)
            fitted = data.X @ ols_fit(data).coefficients
        else:
            data = self.design(kind)
        for j in range(data.p):
            for k in range(-8, 9):
                X = data.X.copy()
                X[:, j] *= 10.0**k
                scaled = Dataset(data.y, X)
                if kind != "full rank":
                    with pytest.raises(SingularDesignError, match="on unit-norm columns"):
                        ols_fit(scaled)
                    continue
                # SVD least squares is not exactly scale-invariant: the fitted
                # values drift by up to about 2e-8 of the largest at |k| = 8
                got = X @ ols_fit(scaled).coefficients
                np.testing.assert_allclose(got, fitted, rtol=0, atol=1e-6 * np.abs(fitted).max())


class TestCoefficientsBlock:
    # Nested candidates on a well-conditioned 40 x 6 design.  Responses whose
    # signal scale spans four decades select lambda = 0 on strong columns and
    # every larger penalty on weak ones, mixed within each chunk of 64 or more
    # columns.
    CANDIDATES = (
        CandidateModel("s", (0, 1)),
        CandidateModel("m", (0, 1, 2, 3)),
        CandidateModel("f", (0, 1, 2, 3, 4, 5)),
    )
    GRID = (0.0, 1.0, 10.0, 100.0, 1000.0)

    @staticmethod
    def responses(seed: int, B: int):
        rng = np.random.default_rng(seed)
        X = rng.uniform(-2.0, 2.0, size=(40, 6))
        # at most 130 columns draw the same scales as with exactly 130
        m = max(B, 130)
        scale = np.logspace(-2.0, 2.0, m)[rng.permutation(m)][:B]
        signal = X @ np.array([1.0, -1.5, 0.8, 0.5, 0.3, 0.2])
        Y = signal[:, None] * scale[None, :] + rng.standard_normal((40, B))
        return Dataset(rng.standard_normal(40), X), Y

    @staticmethod
    def separate_solve(sel, idx, Y):
        """Per selected candidate, ``V (F * U'Y)`` added into zeros: ``V`` its
        workspace's V embedded in the full p rows, ``F`` each column's
        ``s / (s^2 + lam)`` (zero for a column that selected another candidate)."""
        out = np.zeros((sel.data.p, Y.shape[1]))
        for si, sc in enumerate(sel.scorers):
            mine = sel.pair_scorer_index[idx] == si
            if mine.any():
                V = np.zeros((sel.data.p, sc.V.shape[1]))
                V[sc.columns] = sc.V
                lam = np.where(mine, sel.pair_lambda[idx], np.inf)
                F = sc.s / (sc.s2 + lam[:, None])
                out += V @ (F.T * (sc.U.T @ Y))
        return out

    @pytest.mark.parametrize("criterion, B, candidates, grid", [
        pytest.param(criterion, B, candidates, grid, id=f"{prefix}{B}-{criterion}")
        for prefix, candidates, grid in (
            ("", CANDIDATES, GRID),
            # identical columns under two ids, and a repeated lambda
            ("pair_scores-", TestPairScores.CANDIDATES, TestPairScores.GRID),
        )
        for B in (1, 63, 64, 65, 130, REPLICATE_CHUNK, REPLICATE_CHUNK + 1)
        for criterion in ("gcv", "kfold")
    ])
    def test_every_column_matches_the_normal_equation_oracle(self, criterion, B, candidates, grid):
        data, Y = self.responses(7, B)
        cfg = SelectorConfig(candidates, grid, criterion=criterion, cv_folds=5)
        sel = _PairSelector(data, cfg)
        idx, C = sel.select(Y)
        assert C.shape == (6, B)
        # the one pass selects what the score matrix does, and solves to the
        # bytes of a separate solve from a fresh U'Y
        np.testing.assert_array_equal(idx, np.argmin(sel.scores(Y), axis=0))
        assert C.tobytes() == self.separate_solve(sel, idx, Y).tobytes()
        assert [sel.pair_model_id[i] for i in idx] == [
            candidates[si].id for si in sel.pair_scorer_index[idx]
        ]
        for b in range(B):
            model = candidates[sel.pair_scorer_index[idx[b]]]
            want = normal_equation_coefficients(data.X, model.columns, sel.pair_lambda[idx[b]], Y[:, b])
            off = np.setdiff1d(np.arange(6), model.columns)
            assert np.all(C[off, b] == 0.0), b
            assert np.max(np.abs(C[:, b] - want)) <= 1e-9 * np.max(np.abs(want)), b

    @pytest.mark.parametrize("criterion", ["gcv", "kfold"])
    def test_one_chunk_mixes_lambda_zero_with_positive_lambdas(self, criterion):
        # guards the instance above: one solve per candidate must serve
        # lambda = 0 and several lambda > 0 columns at once
        data, Y = self.responses(7, 64)
        cfg = SelectorConfig(self.CANDIDATES, self.GRID, criterion=criterion, cv_folds=5)
        sel = _PairSelector(data, cfg)
        idx, _ = sel.select(Y)
        full = sel.pair_scorer_index[idx] == 2
        lams = set(sel.pair_lambda[idx][full].tolist())
        assert 0.0 in lams and len(lams - {0.0}) >= 2


class TestScalarLambdaBytes:
    """Single-response fits keep the bytes of the scalar-lambda solve."""

    @staticmethod
    def scalar_solve(data: Dataset, model: CandidateModel, lam: float) -> np.ndarray:
        # one factor vector s / (s^2 + lam) for the one response column
        sc = _DesignScorer.for_data(data, model)
        f = sc.s / (sc.s2 + lam)
        coef = np.zeros(data.p)
        coef[sc.columns] = (sc.V @ (f[:, None] * (sc.U.T @ data.y[:, None])))[:, 0]
        return coef

    def test_fits_equal_the_scalar_solve(self):
        data = make_instance(np.random.default_rng(2024), 15, 5)
        full = CandidateModel("full", tuple(range(5)))
        sub = CandidateModel("sub", (1, 3, 4))
        for model, lam in ((full, 0.0), (sub, 0.0), (sub, 0.8), (full, 12.5)):
            want = self.scalar_solve(data, model, lam).tobytes()
            assert _DesignScorer.for_data(data, model).fit(data, lam).coefficients.tobytes() == want
            assert ridge_fit(data, model, lam).coefficients.tobytes() == want
        assert ols_fit(data).coefficients.tobytes() == self.scalar_solve(data, full, 0.0).tobytes()
        cfg = SelectorConfig((sub, full), (0.0, 0.1, 3.0, 50.0))
        fit = select_fit(data, cfg)
        model = {"sub": sub, "full": full}[fit.model_id]
        assert fit.coefficients.tobytes() == self.scalar_solve(data, model, fit.lam).tobytes()
