"""How the resampling law steers model selection: a desk-scale study.

Sweeps the bootstrap variance and the mean-mixing weight gamma on synthetic
nested-model data, tracking which candidate gets selected inside the
smoother and how the estimation error compares with a single GCV-ridge fit.
Emits the long-format CSVs and an SVG chart.
"""

import numpy as np

import bootsmooth as bs

config = bs.StudyConfig(
    n=30,
    true_model_j=2,
    noise_sd=5.0,
    reps=60,
    b=150,
    sigma2_sweep=tuple(float(v) ** 2 for v in (1.0, 2.0, 3.0, 5.0, 7.0, 10.0)),
    gamma_sweep=(0.0, 0.5, 1.0),
    master_seed=31,
)
print(f"running {config.reps} replications over "
      f"{len(config.sigma2_sweep)}x{len(config.gamma_sweep)} cells ...")
result = bs.run_study(config)

print(f"\nGCV-ridge baseline estimation MSE: {result.ridge_baseline_mse:.3f}")
print("smoothed-estimator MSE by cell (rows sigma2, cols gamma):")
with np.printoptions(precision=3, suppress=True):
    print(result.mse)
best = np.unravel_index(np.argmin(result.mse), result.mse.shape)
print(
    f"best cell: sigma2={config.sigma2_sweep[best[0]]:.0f}, "
    f"gamma={config.gamma_sweep[best[1]]}, MSE {result.mse[best]:.3f}"
)

print("\nfull-model selection share at gamma=1, by sigma2:")
for i, s2 in enumerate(config.sigma2_sweep):
    share = result.freq_at(s2, 1.0)[3]
    print(f"  sigma2 = {s2:5.0f}: {share:5.1%}")

mse_path, freq_path = bs.write_study_csvs(result, ".")
bs.render_mse_svg(result, "study_mse.svg")
print(f"\nwrote {mse_path}, {freq_path}, study_mse.svg")
