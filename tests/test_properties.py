"""Property tests on random small instances."""

import numpy as np
from conftest import make_instance
from hypothesis import given, settings
from hypothesis import strategies as st

from bootsmooth import (
    CandidateModel,
    Dataset,
    ResamplingDistribution,
    SelectorConfig,
    pbs_fit,
    select_fit,
)

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
