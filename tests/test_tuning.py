"""Cross-validated resampling-distribution selection."""

from dataclasses import replace

import numpy as np
import pytest
from conftest import make_instance, read_float_table
from hypothesis import given, settings
from hypothesis import strategies as st

from bootsmooth import (
    CandidateModel,
    CvGrid,
    CvSurface,
    Dataset,
    NumericalError,
    ResamplingDistribution,
    SelectionFailureError,
    SelectorConfig,
    SingularDesignError,
    cv_cell_error,
    cv_error_surface,
    default_sigma2_candidates,
    derive_seed,
    kfold_split,
    pbs_fit,
    select_distribution,
    write_surface_csv,
)
from bootsmooth import rng as rng_module
from bootsmooth.selection import unbiased_variance
from bootsmooth.tuning import _fold


def selector_for(p):
    candidates = (
        CandidateModel(1, tuple(range(max(1, p // 2)))),
        CandidateModel(2, tuple(range(p))),
    )
    return SelectorConfig(candidates=candidates, lambda_grid=(0.0, 0.5, 5.0))


class TestKfoldSplit:
    def test_balanced_partition(self):
        folds = kfold_split(6, 3, seed=0)
        assert [len(f) for f in folds] == [2, 2, 2]
        union = np.sort(np.concatenate(folds))
        np.testing.assert_array_equal(union, np.arange(6))

    def test_leave_one_out(self):
        folds = kfold_split(5, 5, seed=1)
        assert [len(f) for f in folds] == [1] * 5

    def test_deterministic_per_seed(self):
        a = kfold_split(17, 4, seed=9)
        b = kfold_split(17, 4, seed=9)
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa, fb)

    def test_contiguous_blocks(self):
        folds = kfold_split(7, 3, seed=5, mode="contiguous")
        np.testing.assert_array_equal(folds[0], [0, 1, 2])
        np.testing.assert_array_equal(folds[1], [3, 4])
        np.testing.assert_array_equal(folds[2], [5, 6])

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            kfold_split(5, 1, seed=0)
        with pytest.raises(ValueError):
            kfold_split(5, 6, seed=0)

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(2, 60),
        seed=st.integers(0, 2**32 - 1),
        mode=st.sampled_from(("random", "contiguous")),
        data=st.data(),
    )
    def test_partition_property_random_sizes(self, n, seed, mode, data):
        k = data.draw(st.integers(2, n))
        folds = kfold_split(n, k, seed=seed, mode=mode)
        sizes = [len(f) for f in folds]
        assert len(folds) == k
        assert max(sizes) - min(sizes) <= 1
        # every row is held out exactly once
        np.testing.assert_array_equal(np.sort(np.concatenate(folds)), np.arange(n))


class TestCvSurface:
    def test_single_cell_grid(self, rng):
        data = make_instance(rng, 16, 3)
        grid = CvGrid(
            sigma2_candidates=(2.0,), gamma_candidates=(0.5,), k=4, b_inner=20, seed=3
        )
        surface = cv_error_surface(data, grid, selector_for(3))
        assert surface.errors.shape == (1, 1)
        assert surface.selected == (2.0, 0.5)

    def test_null_signal_small_sigma(self, rng):
        X = rng.uniform(-1.0, 1.0, size=(12, 2))
        data = Dataset(np.zeros(12), X)
        grid = CvGrid(
            sigma2_candidates=(1e-16,), gamma_candidates=(0.0, 1.0), k=3, b_inner=15, seed=4
        )
        surface = cv_error_surface(data, grid, selector_for(2))
        assert np.all(np.isfinite(surface.errors))
        assert surface.errors.max() < 1e-10

    def test_matches_naive_loop_oracle(self, rng):
        data = make_instance(rng, 20, 3)
        selector = selector_for(3)
        grid = CvGrid(
            sigma2_candidates=(0.5, 4.0),
            gamma_candidates=(0.0, 1.0),
            k=4,
            b_inner=50,
            seed=77,
        )
        surface = cv_error_surface(data, grid, selector)

        folds = kfold_split(data.n, 4, seed=77, mode="random")
        oracle = np.zeros((2, 2))
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
                        derive_seed(77, k, i, j),
                    )
                    r = data.y[held] - data.X[held] @ fit.beta_pbs
                    oracle[i, j] += float(r @ r)
        np.testing.assert_allclose(surface.errors, oracle, rtol=1e-9)
        oracle_dist = select_distribution(
            CvSurface(oracle, grid.sigma2_candidates, grid.gamma_candidates)
        )
        assert surface.selected == (oracle_dist.sigma2, oracle_dist.gamma)

    def test_cell_isolation_bitwise(self, rng):
        data = make_instance(rng, 18, 3)
        selector = selector_for(3)
        grid = CvGrid(
            sigma2_candidates=(1.0, 3.0), gamma_candidates=(0.2, 0.8), k=3, b_inner=25, seed=55
        )
        surface = cv_error_surface(data, grid, selector)
        folds = kfold_split(data.n, 3, seed=55, mode="random")
        i, j = 1, 0
        parts = np.array(
            [
                cv_cell_error(
                    data,
                    folds,
                    k,
                    ResamplingDistribution(gamma=0.2, sigma2=3.0),
                    25,
                    selector,
                    derive_seed(55, k, i, j),
                )
                for k in range(3)
            ]
        )
        assert parts.sum(axis=0) == surface.errors[i, j]

    def test_every_cell_recomputed_alone_bitwise(self, rng):
        # a fold's six cells of 100 replicates are smoothed together, the third
        # and the sixth straddling two 256-column blocks; each cell recomputed
        # alone from its derived seed gives the same bytes, and the folds sum
        # to the surface
        data = make_instance(rng, 18, 3)
        selector = selector_for(3)
        grid = CvGrid(
            sigma2_candidates=(1.0, 3.0, 9.0), gamma_candidates=(0.2, 0.8), k=3, b_inner=100, seed=56
        )
        surface = cv_error_surface(data, grid, selector)
        folds = kfold_split(data.n, 3, seed=56, mode="random")
        parts = np.empty((3, 3, 2))
        for k in range(3):
            for i, s2 in enumerate(grid.sigma2_candidates):
                for j, g in enumerate(grid.gamma_candidates):
                    dist = ResamplingDistribution(gamma=g, sigma2=s2)
                    parts[k, i, j] = cv_cell_error(data, folds, k, dist, 100, selector, derive_seed(56, k, i, j))
        assert parts.sum(axis=0).tobytes() == surface.errors.tobytes()

    @staticmethod
    def count_passes(monkeypatch) -> list:
        """The (shape, first cell, end cell) of each key pass from here on."""
        calls, family = [], rng_module._cell_family

        def counted(seed, prefix, shape, B, lo, hi):
            calls.append((shape, lo, hi))
            return family(seed, prefix, shape, B, lo, hi)

        monkeypatch.setattr(rng_module, "_cell_family", counted)
        return calls

    @pytest.mark.parametrize(
        "bound, cells", [(100, [1] * 18), (400, [4, 4, 4, 4, 2]), (2**62, [18])], ids=["one", "four", "all"]
    )
    def test_surface_bytes_do_not_depend_on_the_key_bound(self, rng, monkeypatch, bound, cells):
        # key passes of one cell, of four (straddling the folds of six cells)
        # and of the whole surface give the bytes of the default's one pass
        data = make_instance(rng, 18, 3)
        selector = selector_for(3)
        grid = CvGrid(
            sigma2_candidates=(1.0, 3.0, 9.0), gamma_candidates=(0.2, 0.8), k=3, b_inner=100, seed=56
        )
        default = cv_error_surface(data, grid, selector)
        passes = self.count_passes(monkeypatch)
        monkeypatch.setattr(rng_module, "FAMILY_KEYS", bound)
        surface = cv_error_surface(data, grid, selector)
        assert surface.errors.tobytes() == default.errors.tobytes()
        assert [hi - lo for _, lo, hi in passes] == cells

    def test_a_fit_demand_surface_takes_one_key_pass(self, rng, monkeypatch):
        # 3 folds x 6 sigma2 x 3 gamma cells of 40 replicates: 2,160 keys
        data = make_instance(rng, 14, 3)
        grid = CvGrid(sigma2_count=6, gamma_candidates=(0.0, 0.5, 1.0), k=3, b_inner=40, seed=2)
        passes = self.count_passes(monkeypatch)
        cv_error_surface(data, grid, selector_for(3))
        assert passes == [((3, 6, 3), 0, 54)]

    def test_a_warm_dataset_gives_the_bytes_of_a_fresh_one(self, rng):
        data = make_instance(rng, 15, 3)
        selector = selector_for(3)
        grid = CvGrid(
            sigma2_candidates=(0.5, 2.0), gamma_candidates=(0.0, 1.0), k=3, b_inner=20, seed=6
        )
        # a rerun on the warm Dataset and a run on a fresh one
        a, *others = [
            cv_error_surface(d, grid, selector) for d in (data, data, Dataset(data.y, data.X))
        ]
        for b in others:
            np.testing.assert_array_equal(a.errors, b.errors)
            assert a.selected == b.selected

    def test_cells_cycling_on_one_dataset_reuse_its_fold_workspaces(self, rng):
        # 24 cells cycling through the folds of one Dataset reuse its fold
        # workspaces and equal the same cells on fresh Datasets.
        data = make_instance(rng, 15, 3)
        selector = selector_for(3)
        folds = kfold_split(data.n, 3, seed=4)
        dist = ResamplingDistribution(gamma=0.5, sigma2=2.0)

        def cell(d, c):
            return cv_cell_error(d, folds, c % 3, dist, 20, selector, seed=c % 3)

        serial = [cell(Dataset(data.y, data.X), c) for c in range(3)]
        shared = Dataset(data.y, data.X)
        results = [cell(shared, c) for c in range(24)]
        assert results == [serial[c % 3] for c in range(24)]
        # one memoised training block per fold, each with one selector
        blocks = [v[0] for key, v in shared._memo.items() if key[0] == "fold"]
        assert len(blocks) == 3
        assert all(sum(key[0] == "selector" for key in b._memo) == 1 for b in blocks)

    def test_rank_failure_names_fold(self, rng):
        # 6 rows, 5 columns: dropping a fold of 2 leaves 4 rows < 5 columns
        data = make_instance(rng, 6, 5)
        grid = CvGrid(
            sigma2_candidates=(1.0,), gamma_candidates=(1.0,), k=3, b_inner=5, seed=1
        )
        selector = SelectorConfig(
            candidates=(CandidateModel(1, (0, 1, 2, 3, 4)),), lambda_grid=(0.0, 1.0)
        )
        with pytest.raises(SingularDesignError, match="fold 0"):
            cv_error_surface(data, grid, selector)

    def test_selection_failure_names_the_first_failing_cell_and_its_replicate(self):
        # the cells (7e306, 0.0) and (7e306, 1.0) fill columns 200-299 and
        # 300-399 of fold 0 and first fail at their replicates 19 and 13:
        # column 219 of block 0 and column 57 of block 1.  The message names
        # the first cell, at its replicate within the cell, as its own
        # pbs_fit does.
        data = make_instance(np.random.default_rng(1), 18, 3)
        selector = selector_for(3)
        grid = CvGrid(
            sigma2_candidates=(1.0, 7e306), gamma_candidates=(0.0, 1.0), k=3, b_inner=100, seed=1
        )
        train = _fold(data, kfold_split(data.n, 3, seed=1), 0)[0]
        alone = []
        with np.errstate(all="ignore"):
            for j, gamma in enumerate(grid.gamma_candidates):
                dist = ResamplingDistribution(gamma=gamma, sigma2=7e306)
                with pytest.raises(SelectionFailureError) as err:
                    pbs_fit(train, dist, 100, selector, derive_seed(1, 0, 1, j))
                alone.append(str(err.value))
            assert alone == [f"replicate {r}: no scoreable (model, lambda) pair" for r in (19, 13)]
            with pytest.raises(SelectionFailureError) as err:
                cv_error_surface(data, grid, selector)
        assert str(err.value) == f"fold 0, sigma2=7e+306, gamma=0.0: {alone[0]}"

    def test_training_block_is_memoised_by_its_held_out_fold(self, rng):
        data = make_instance(rng, 20, 3)
        folds = kfold_split(20, 4, seed=3)
        block = _fold(data, folds, 1)[0]
        rows = np.setdiff1d(np.arange(20), folds[1])
        assert block.y.tobytes() == data.y[rows].tobytes()
        assert block.X.tobytes() == data.X[rows].tobytes()
        # a second lookup, with equal folds in new arrays, finds the same object
        assert _fold(data, [f.copy() for f in folds], 1)[0] is block
        assert _fold(data, folds, 2)[0] is not block

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_a_surface_memoises_each_fold_once(self, rng, k):
        # one memo entry per held-out fold: its training block and held-out
        # rows; no other entry holds a second copy of the block
        data = make_instance(rng, 20, 3)
        grid = CvGrid(sigma2_candidates=(1.0, 2.0), gamma_candidates=(0.0, 1.0), k=k, b_inner=10, seed=2)
        cv_error_surface(data, grid, selector_for(3))
        folds = kfold_split(20, k, grid.seed, grid.fold_mode)
        entries = {key: v for key, v in data._memo.items() if key[0] == "fold"}
        assert sorted(entries) == sorted(("fold", f.tobytes()) for f in folds)
        for held, rows in enumerate(folds):
            block, y_held, X_held = entries["fold", rows.tobytes()]
            train = np.setdiff1d(np.arange(20), rows)
            assert block.y.tobytes() == data.y[train].tobytes()
            assert block.X.tobytes() == data.X[train].tobytes()
            assert y_held.tobytes() == data.y[rows].tobytes()
            assert X_held.tobytes() == data.X[rows].tobytes()
            assert _fold(data, folds, held)[0] is block
        assert not any(isinstance(v, Dataset) for v in data._memo.values())


class TestSelectDistribution:
    def test_direct_argmin(self):
        surface = CvSurface(
            errors=np.array([[2.0, 1.0], [3.0, 4.0]]),
            sigma2_candidates=(0.5, 1.5),
            gamma_candidates=(0.0, 1.0),
        )
        dist = select_distribution(surface)
        assert (dist.sigma2, dist.gamma) == (0.5, 1.0)

    def test_all_equal_tie_break(self):
        surface = CvSurface(
            errors=np.ones((3, 2)),
            sigma2_candidates=(2.0, 1.0, 3.0),
            gamma_candidates=(0.7, 0.1),
        )
        dist = select_distribution(surface)
        assert (dist.sigma2, dist.gamma) == (1.0, 0.1)

    def test_nan_cell_is_named(self):
        with pytest.raises(NumericalError, match=r"sigma2=1\.5, gamma=0\.0\) is nan"):
            CvSurface(
                errors=np.array([[2.0, 1.0], [np.nan, 4.0]]),
                sigma2_candidates=(0.5, 1.5),
                gamma_candidates=(0.0, 1.0),
            )

    def test_matches_exhaustive_scan(self, rng):
        for _ in range(25):
            t, s = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            errors = rng.uniform(0.0, 10.0, size=(t, s))
            s2s = tuple(sorted(rng.uniform(0.1, 5.0, size=t).tolist()))
            gs = tuple(sorted(rng.uniform(0.0, 1.0, size=s).tolist()))
            surface = CvSurface(errors, s2s, gs)
            dist = select_distribution(surface)
            best = min(
                ((errors[i, j], s2s[i], gs[j]) for i in range(t) for j in range(s))
            )
            assert (dist.sigma2, dist.gamma) == (best[1], best[2])

    def test_selected_is_built_from_the_errors(self, rng):
        # Unsorted candidates and integer errors, so that ties are common: the
        # surface's own selected pair is the exhaustive scan's, and
        # select_distribution reads that pair.
        for _ in range(25):
            t, s = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            errors = rng.integers(0, 3, size=(t, s)).astype(float)
            s2s = tuple(rng.permutation(np.arange(1, t + 1) / 2.0).tolist())
            gs = tuple(rng.permutation(np.arange(s) / 4.0).tolist())
            surface = CvSurface(errors, s2s, gs)
            best = min((errors[i, j], s2s[i], gs[j]) for i in range(t) for j in range(s))
            assert surface.selected == (best[1], best[2])
            dist = select_distribution(surface)
            assert (dist.sigma2, dist.gamma) == surface.selected


class TestDefaults:
    def test_sigma2_candidates_bracket_residual_variance(self, rng):
        data = make_instance(rng, 30, 3, noise=2.0)
        cands = default_sigma2_candidates(data, count=7, span=10.0)
        assert len(cands) == 7
        assert cands[0] == pytest.approx(cands[3] / 10.0, rel=1e-9)
        assert cands[-1] == pytest.approx(cands[3] * 10.0, rel=1e-9)

    def test_exact_fit_rejected(self):
        data = Dataset(np.array([1.0, 2.0, 3.0]), np.array([[1.0], [2.0], [3.0]]))
        with pytest.raises(ValueError, match="zero"):
            default_sigma2_candidates(data)

    def test_surface_without_sigma2_candidates_uses_the_defaults(self, rng):
        data = make_instance(rng, 16, 3, noise=1.5)
        grid = CvGrid(gamma_candidates=(0.0, 1.0), k=3, b_inner=10, seed=5, sigma2_count=3, sigma2_span=4.0)
        derived = cv_error_surface(data, grid, selector_for(3))
        sigma2s = default_sigma2_candidates(data, 3, 4.0)
        explicit = cv_error_surface(data, replace(grid, sigma2_candidates=sigma2s), selector_for(3))
        assert derived.sigma2_candidates == sigma2s
        assert derived.errors.tobytes() == explicit.errors.tobytes()

    def test_one_candidate_is_the_unbiased_variance(self, rng):
        data = make_instance(rng, 12, 3)
        assert default_sigma2_candidates(data, count=1, span=50.0) == (unbiased_variance(data),)

    @pytest.mark.parametrize(
        "count, span, message",
        [(0, 10.0, "count must be >= 1"), (3, 0.0, "span must be finite and > 0, got 0.0"),
         (3, float("inf"), "span must be finite and > 0, got inf")],
    )
    def test_count_and_span_refusals(self, rng, count, span, message):
        with pytest.raises(ValueError) as err:
            default_sigma2_candidates(make_instance(rng, 12, 3), count, span)
        assert str(err.value) == message

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            CvGrid(sigma2_candidates=(0.0,), gamma_candidates=(0.5,), k=2, b_inner=1, seed=0)
        with pytest.raises(ValueError):
            CvGrid(sigma2_candidates=(1.0,), gamma_candidates=(1.5,), k=2, b_inner=1, seed=0)
        with pytest.raises(ValueError):
            CvGrid(sigma2_candidates=(1.0,), gamma_candidates=(0.5,), k=1, b_inner=1, seed=0)


class TestSurfaceCsv:
    def test_round_trip(self, tmp_path, rng):
        data = make_instance(rng, 15, 3)
        grid = CvGrid(
            sigma2_candidates=(0.7, 2.3), gamma_candidates=(0.0, 0.4, 1.0), k=3, b_inner=10, seed=2
        )
        surface = cv_error_surface(data, grid, selector_for(3))
        path = tmp_path / "surface.csv"
        write_surface_csv(surface, path)
        header, rows = read_float_table(path)
        np.testing.assert_array_equal([r[1:] for r in rows], surface.errors)
        assert tuple(r[0] for r in rows) == surface.sigma2_candidates
        assert tuple(float(g) for g in header[1:]) == surface.gamma_candidates
