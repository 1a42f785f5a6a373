"""Bootstrap-smoothed regression prediction after model selection.

The package fits linear models whose (candidate model, ridge penalty) pair is
chosen by GCV, smooths that selection by averaging fits over parametric
bootstrap replicates, builds delta-method prediction intervals, and tunes the
bootstrap resampling distribution (sigma2, gamma) by K-fold cross-validation.
A simulation harness and B-spline demand-model features round out the
toolkit.
"""

from .errors import (
    BootsmoothError,
    ConfigError,
    DegenerateScoreError,
    DegreesOfFreedomError,
    IngestionError,
    NumericalError,
    SelectionFailureError,
    SingularDesignError,
)
from .forecast import (
    TargetRow,
    accuracy,
    demand_problems,
    evaluate_fixed_distribution,
    load_matrix_csv,
    run_forecasts,
    run_sigma_sweep,
    same_weekday_window,
    structural_candidates,
    write_report_csv,
)
from .rng import derive_seed, generator
from .selection import (
    CandidateModel,
    Dataset,
    FitResult,
    SelectorConfig,
    default_lambda_grid,
    gcv_score,
    ols_fit,
    ridge_fit,
    ridge_prediction_variance,
    select_fit,
    unbiased_variance,
)
from .simulation import (
    StudyConfig,
    StudyResult,
    generate_design,
    generate_response,
    nested_candidates,
    render_mse_svg,
    run_study,
    true_coefficients,
    write_study_csvs,
)
from .smoothing import (
    PbsFit,
    PredictionInterval,
    ResamplingDistribution,
    draw_replicates,
    pbs_fit,
    prediction_interval,
    resampling_mean,
    residual_variance_pbs,
    smoothed_variance,
    smoothed_variance_via_gram,
    smoothed_variances,
)
from .splines import (
    DemandModelSpec,
    DemandTable,
    SplineBasisSpec,
    bspline_basis,
    build_demand_design,
    cyclic_bspline_basis,
    demand_candidate_specs,
    demand_feature_row,
    load_demand_csv,
    load_temperature_csv,
)
from .tuning import (
    CvGrid,
    CvSurface,
    cv_cell_error,
    cv_error_surface,
    default_sigma2_candidates,
    kfold_split,
    select_distribution,
    write_surface_csv,
)

__version__ = "0.1.0"
