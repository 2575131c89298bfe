"""l2 subspace approximation with outliers.

Nearest-(1-beta)n inlier trimming, verification of the inlier-error fraction
assumption, and the two-pass robust selection pipeline. Sampling itself never
looks at beta: the same single-pass Metropolis selection runs over all
points with constants scaled by 1/lambda, and beta only enters evaluation
and reporting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import OrthonormalBasis, PointSet, _gram_eigh, residual_distances
from .samplers import SelectionResult, derive_params, init_pivot, mcmc_select
from .stream import as_source, inlier_count


@dataclass(frozen=True)
class InlierSet:
    """Indices of the nearest ceil((1-beta) n) points to a subspace and their
    summed squared distances."""

    ids: tuple[int, ...]
    inlier_error: float

    @property
    def count(self) -> int:
        return len(self.ids)


def _trim(residuals: np.ndarray, beta: float) -> InlierSet:
    keep = inlier_count(len(residuals), beta)
    # stable sort: ties at the trim threshold break toward the smaller index
    order = np.argsort(residuals, kind="stable")[:keep]
    ids = np.sort(order)
    return InlierSet(ids=tuple(int(i) for i in ids),
                     inlier_error=float(np.sum(residuals[ids] ** 2)))


def nearest_inliers(points: PointSet, basis: OrthonormalBasis, beta: float) -> InlierSet:
    """The ceil((1-beta) n) points nearest to span(basis), one scan."""
    if not 0.0 <= beta < 1.0:
        raise ValueError("beta must lie in [0, 1)")
    return _trim(residual_distances(points.data, basis), beta)


def check_lambda(points: PointSet, reference_basis: OrthonormalBasis, beta: float,
                 ground_truth_inliers=None) -> float:
    """Inlier share of the total squared error against a reference subspace.

    With ground-truth inlier ids the numerator sums over them (the planted
    instance check); otherwise over the nearest (1-beta)n points. A zero
    total error counts as ratio 1.
    """
    res_sq = residual_distances(points.data, reference_basis) ** 2
    total = float(res_sq.sum())
    # exact fit up to numerical noise (residuals below 1e-12 of data scale)
    if total <= 1e-24 * max(float(np.sum(points.data ** 2)), 1e-300):
        return 1.0
    if ground_truth_inliers is not None:
        ids = [int(i) for i in ground_truth_inliers]
        inlier = float(res_sq[ids].sum())
    else:
        inlier = _trim(np.sqrt(res_sq), beta).inlier_error
    return inlier / total


def fit_trimmed_subspace(points: PointSet, span: OrthonormalBasis, k: int,
                         beta: float) -> OrthonormalBasis:
    """Best k-dimensional subspace inside `span` fitted on the span-trimmed
    points: trim to the nearest (1-beta)n rows, then take the top-k
    eigenvectors of the Gram of their in-span coordinates."""
    if span.r <= k:
        return span
    keep = _trim(residual_distances(points.data, span), beta).ids
    _, _, w = _gram_eigh(points.data[list(keep)] @ span.vectors.T)
    return OrthonormalBasis(span.d, w[:, :k].T @ span.vectors, span.source_ids)


def robust_select(source_or_points, k: int, epsilon: float, beta: float,
                  lam: float, seed: int = 0, *, init_mode: str = "exact-volume",
                  points_per_round: int | None = None, rounds: int | None = None,
                  chain_steps: int | None = None, init_walk_steps: int | None = None,
                  ground_truth_basis: OrthonormalBasis | None = None,
                  ground_truth_inliers=None,
                  ) -> tuple[SelectionResult, InlierSet]:
    """Two-pass robust pipeline: lambda-scaled constants, sampling over all
    points, beta used only for evaluation.

    beta bounds the outlier fraction; lam is the assumed lower bound on the
    inlier share of the total error under the optimal inlier subspace. Both
    are validated before any pass.

    The returned InlierSet is evaluated against the best k-dimensional
    subspace inside the selected span (fitted on the span-trimmed points and
    re-trimmed against the fitted subspace). A violated lambda assumption is
    recorded as a warning on the result, not a failure: the guarantee is
    conditional on it.
    """
    if not 0.0 <= beta < 1.0:
        raise ValueError("beta must lie in [0, 1)")
    if not 0.0 < lam <= 1.0:
        raise ValueError("lambda must lie in (0, 1]")
    source = as_source(source_or_points)
    if k > source.d:
        raise ValueError(f"k={k} exceeds data dimension d={source.d}")
    pivot, alpha = init_pivot(source, k, 2.0, seed, init_mode, init_walk_steps)
    params = derive_params(k, epsilon, alpha, lam=lam,
                           points_per_round=points_per_round, rounds=rounds,
                           chain_steps=chain_steps)
    result = mcmc_select(source, pivot, params, 2.0, seed)

    pts = source.collect("report:outlier-evaluation", reporting=True)
    fitted = fit_trimmed_subspace(pts, result.basis, k, beta)
    inliers = nearest_inliers(pts, fitted, beta)
    if ground_truth_basis is not None:
        ratio = check_lambda(pts, ground_truth_basis, beta, ground_truth_inliers)
        if ratio < lam - 1e-9:
            result.warnings = result.warnings + (
                f"inlier-error assumption violated: measured ratio {ratio:.4f} "
                f"< lambda {lam}",)
    return result, inliers
