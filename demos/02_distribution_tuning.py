"""Choosing the resampling distribution by cross-validation.

The accuracy of bootstrap smoothing hinges on the law the replicates are
drawn from.  Instead of plugging in the unbiased residual variance and the
OLS mean, this demo scans a (sigma2, gamma) grid by K-fold CV, prints the
error surface, and compares held-out accuracy of the tuned distribution
against the plug-in one.
"""

from dataclasses import replace

import numpy as np

import bootsmooth as bs

rng = np.random.default_rng(21)

n, p = 40, 6
X = rng.uniform(-3.0, 3.0, size=(n, p))
beta_true = np.array([2.0, -1.5, 1.0, 0.0, 0.0, 0.0])
y = X @ beta_true + rng.normal(0.0, 2.0, size=n)
train = bs.Dataset(y[:30], X[:30])
X_hold, y_hold = X[30:], y[30:]

selector = bs.SelectorConfig(
    candidates=(
        bs.CandidateModel(1, (0, 1, 2)),
        bs.CandidateModel(2, (0, 1, 2, 3, 4, 5)),
    ),
    lambda_grid=(0.0, 0.1, 1.0, 10.0),
)

# the conventional plug-in: unbiased residual variance, OLS mean (gamma = 1)
s2_ub = bs.unbiased_variance(train)
print(f"unbiased residual variance: {s2_ub:.3f}")

grid = bs.CvGrid(
    sigma2_candidates=tuple(float(v) for v in np.geomspace(s2_ub / 16, s2_ub * 16, 7)),
    gamma_candidates=(0.0, 0.25, 0.5, 0.75, 1.0),
    k=5,
    b_inner=100,
    seed=11,
)
surface = bs.cv_error_surface(train, grid, selector)
tuned = bs.select_distribution(surface)
print("CV error surface (rows sigma2, cols gamma):")
with np.printoptions(precision=1, suppress=True):
    print(surface.errors)
print(f"tuned distribution: sigma2={tuned.sigma2:.3f}, gamma={tuned.gamma}")

bs.write_surface_csv(surface, "cv_surface.csv")
print("surface written to cv_surface.csv")

# the sigma2-only variant pins gamma at 1
sigma_only = bs.select_distribution(
    bs.cv_error_surface(train, replace(grid, gamma_candidates=(1.0,)), selector)
)
print(f"sigma2-only variant picks sigma2={sigma_only.sigma2:.3f} (gamma fixed at 1)")


def holdout_mspe(dist: bs.ResamplingDistribution, seed: int) -> float:
    fit = bs.pbs_fit(train, dist, B=300, selector=selector, seed=seed)
    pred = X_hold @ fit.beta_pbs
    return float(np.mean((y_hold - pred) ** 2))


plug_in = bs.ResamplingDistribution(gamma=1.0, sigma2=s2_ub)
print(f"held-out MSPE, plug-in (s2_ub, gamma=1): {holdout_mspe(plug_in, 3):.3f}")
print(f"held-out MSPE, CV-tuned:                {holdout_mspe(tuned, 3):.3f}")
