"""Subset selection for lp subspace approximation.

Pick a small subset of input points whose span contains a near-optimal
k-dimensional subspace, in two passes over the data for p = 2 (k+1 passes
for p > 2), with multi-pass adaptive sampling and volume sampling as
baselines and an outlier-robust variant.
"""

from .linalg import (
    OrthonormalBasis,
    PointSet,
    best_rank_k_in_span,
    err_p,
    optimal_subspace,
    orthonormal_basis,
    residual_distances,
)
from .outliers import InlierSet, check_lambda, nearest_inliers, robust_select
from .samplers import (
    ChainState,
    DerivedParams,
    DrawBudgetError,
    ExactFitReached,
    RankDeficientError,
    RoundStats,
    SamplingConfig,
    SelectionResult,
    SlotBudgetError,
    adaptive_sample,
    derive_params,
    mcmc_select,
    mh_accept,
    proposal_q,
    select_subset,
    tv_distance_diag,
    volume_sample_mcmc,
)
from .stream import (
    DatasetFormatError,
    DatasetSource,
    PassCountError,
    PassLog,
    generate_synthetic,
    open_source,
    weighted_reservoir_sample,
    write_binary,
    write_csv,
)

__version__ = "0.1.0"

__all__ = [
    "ChainState",
    "DatasetFormatError",
    "DatasetSource",
    "DerivedParams",
    "DrawBudgetError",
    "ExactFitReached",
    "InlierSet",
    "OrthonormalBasis",
    "PassCountError",
    "PassLog",
    "PointSet",
    "RankDeficientError",
    "RoundStats",
    "SamplingConfig",
    "SelectionResult",
    "SlotBudgetError",
    "adaptive_sample",
    "best_rank_k_in_span",
    "check_lambda",
    "derive_params",
    "err_p",
    "generate_synthetic",
    "mcmc_select",
    "mh_accept",
    "nearest_inliers",
    "open_source",
    "optimal_subspace",
    "orthonormal_basis",
    "proposal_q",
    "residual_distances",
    "robust_select",
    "select_subset",
    "tv_distance_diag",
    "volume_sample_mcmc",
    "weighted_reservoir_sample",
    "write_binary",
    "write_csv",
]
