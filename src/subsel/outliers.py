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

from .linalg import (
    OrthonormalBasis,
    PointSet,
    _exact_fit,
    _gram,
    _pow2_exponent,
    _top_k_in_span,
    residual_distances,
)
from .samplers import SamplingConfig, SelectionResult, _select
from .stream import _check_beta_lambda, as_source, inlier_count


@dataclass(frozen=True, eq=False)
class InlierSet:
    """Indices of the nearest ceil((1-beta) n) points to a subspace, as an
    increasing read-only int64 array, and their summed squared distances."""

    ids: np.ndarray
    inlier_error: float

    @property
    def count(self) -> int:
        return len(self.ids)


def _trim(residuals: np.ndarray, beta: float) -> InlierSet:
    keep = inlier_count(len(residuals), beta)
    # stable sort: ties at the trim threshold break toward the smaller index
    ids = np.argsort(residuals, kind="stable")[:keep].astype(np.int64, copy=False)
    ids.sort()
    ids.setflags(write=False)
    kept = residuals[ids]
    return InlierSet(ids=ids, inlier_error=float(np.sum(np.square(kept, out=kept))))


def nearest_inliers(points: PointSet, basis: OrthonormalBasis, beta: float) -> InlierSet:
    """The ceil((1-beta) n) points nearest to span(basis), one scan."""
    _check_beta_lambda(beta)
    return _trim(residual_distances(points.data, basis), beta)


def check_lambda(points: PointSet, reference_basis: OrthonormalBasis, beta: float,
                 ground_truth_inliers=None) -> float:
    """Inlier share of the total squared error against a reference subspace.

    With ground-truth inlier ids the numerator sums over them (the planted
    instance check); otherwise over the nearest (1-beta)n points. A zero
    total error counts as ratio 1.
    """
    # residuals and row norms in units of 2**e, so their squares neither
    # overflow nor underflow and the ratio repeats under power-of-two scaling
    x = points.data
    e = _pow2_exponent(x)
    res = np.ldexp(residual_distances(x, reference_basis), -e)
    total = float(np.sum(res ** 2))
    if _exact_fit(x, e, total):
        return 1.0
    if ground_truth_inliers is not None:
        ids = [int(i) for i in ground_truth_inliers]
        inlier = float(np.sum(res[ids] ** 2))
    else:
        inlier = _trim(res, beta).inlier_error
    return inlier / total


def fit_trimmed_subspace(points: PointSet, span: OrthonormalBasis, k: int,
                         beta: float) -> OrthonormalBasis:
    """Best k-dimensional subspace inside `span` fitted on the span-trimmed
    points: trim to the nearest (1-beta)n rows, then take the top-k
    eigenvectors of the in-span form of their d x d Gram."""
    if span.r <= k:
        return span
    keep = _trim(residual_distances(points.data, span), beta).ids
    return _top_k_in_span(_gram(points.data, rows=keep)[1], span, k)


def robust_select(source_or_points, k: int, epsilon: float, beta: float,
                  lam: float, seed: int = 0, *, init_mode: str = "exact-volume",
                  points_per_round: int | None = None, rounds: int | None = None,
                  chain_steps: int | None = None,
                  ground_truth_basis: OrthonormalBasis | None = None,
                  ground_truth_inliers=None,
                  ) -> tuple[SelectionResult, InlierSet]:
    """Two-pass robust pipeline at p = 2 (trimming ranks squared distances):
    lambda-scaled constants, sampling over all points, beta used only for
    evaluation.

    beta bounds the outlier fraction; lam is the assumed lower bound on the
    inlier share of the total error under the optimal inlier subspace. They,
    the sampling options and the closed forms at lam are checked before any
    pass; the selection is select_subset's pipeline with lam. The result's
    passes include the report:outlier-evaluation pass.

    The returned InlierSet is evaluated against the best k-dimensional
    subspace inside the selected span (fitted on the span-trimmed points and
    re-trimmed against the fitted subspace). A violated lambda assumption is
    recorded as a warning on the result, not a failure: the guarantee is
    conditional on it.
    """
    _check_beta_lambda(beta, lam)
    config = SamplingConfig(k=k, epsilon=epsilon, seed=seed, init_mode=init_mode,
                            points_per_round=points_per_round, rounds=rounds,
                            chain_steps=chain_steps)
    source = as_source(source_or_points)
    result = _select(source, config, lam)

    pts = source.collect("report:outlier-evaluation", reporting=True)
    result.passes.entries.append(source.pass_log.entries[-1])
    fitted = fit_trimmed_subspace(pts, result.basis, k, beta)
    inliers = nearest_inliers(pts, fitted, beta)
    if ground_truth_basis is not None:
        ratio = check_lambda(pts, ground_truth_basis, beta, ground_truth_inliers)
        if ratio < lam - 1e-9:
            result.warnings = result.warnings + (
                f"inlier-error assumption violated: measured ratio {ratio:.4f} "
                f"< lambda {lam}",)
    return result, inliers
