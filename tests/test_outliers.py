import itertools
import math
import tracemalloc

import numpy as np
import pytest

from subsel.linalg import OrthonormalBasis, PointSet, orthonormal_basis
from subsel.outliers import (
    _trim,
    check_lambda,
    fit_trimmed_subspace,
    nearest_inliers,
    robust_select,
)
from subsel.stream import generate_synthetic, inlier_count, open_source


def axis_basis(d, axes):
    vecs = np.zeros((len(axes), d))
    for i, a in enumerate(axes):
        vecs[i, a] = 1.0
    return OrthonormalBasis(d, vecs, ())


def points_with_residuals(residuals):
    # first coordinate lives in the span (x-axis), second is the residual
    data = np.column_stack([np.ones(len(residuals)), np.asarray(residuals, float)])
    return PointSet(data), axis_basis(2, [0])


# ---------------------------------------------------------------------------
# nearest_inliers
# ---------------------------------------------------------------------------

def test_nearest_inliers_drops_farthest():
    pts, basis = points_with_residuals([0.0, 1.0, 2.0, 9.0])
    got = nearest_inliers(pts, basis, 0.25)
    assert got.ids.tolist() == [0, 1, 2]
    assert got.inlier_error == pytest.approx(5.0)


def test_trim_holds_an_int64_array():
    # the kept ids are one read-only int64 array: the peak is the sort's
    # index array plus the kept residuals, about 16 B per row, where a tuple
    # of Python ints took about 61
    n = 100_000
    residuals = np.random.default_rng(4).random(n)
    tracemalloc.start()
    try:
        got = _trim(residuals, 0.05)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * n
    assert got.ids.dtype == np.int64 and not got.ids.flags.writeable
    assert np.all(np.diff(got.ids) > 0) and got.count == inlier_count(n, 0.05)


def test_nearest_inliers_beta_zero_keeps_all():
    pts, basis = points_with_residuals([3.0, 1.0, 2.0])
    got = nearest_inliers(pts, basis, 0.0)
    assert got.ids.tolist() == [0, 1, 2]
    assert got.inlier_error == pytest.approx(14.0)


def test_nearest_inliers_tie_break_by_index():
    pts, basis = points_with_residuals([1.0, 1.0, 2.0, 2.0])
    got = nearest_inliers(pts, basis, 0.5)
    assert got.ids.tolist() == [0, 1]


def test_nearest_inliers_count_invariant():
    rng = np.random.default_rng(1)
    for n in (3, 7, 20, 57):
        pts = PointSet(rng.standard_normal((n, 3)))
        basis = orthonormal_basis(pts, [0])
        for beta in (0.0, 0.1, 0.25, 0.5, 0.9):
            got = nearest_inliers(pts, basis, beta)
            assert got.count == inlier_count(n, beta)


def test_nearest_inliers_trim_is_optimal_exhaustively():
    # no swap of an excluded point for an included one can lower the error
    rng = np.random.default_rng(2)
    for n in (5, 8, 12):
        pts = PointSet(rng.standard_normal((n, 4)))
        basis = orthonormal_basis(pts, [0, 1])
        got = nearest_inliers(pts, basis, 0.3)
        from subsel.linalg import residual_distances

        res_sq = residual_distances(pts.data, basis) ** 2
        excluded = sorted(set(range(n)) - set(got.ids))
        for kept, out in itertools.product(got.ids, excluded):
            swapped = got.inlier_error - res_sq[kept] + res_sq[out]
            assert swapped >= got.inlier_error - 1e-12


def test_inlier_error_monotone_in_span():
    rng = np.random.default_rng(3)
    pts = PointSet(rng.standard_normal((30, 6)))
    prev = math.inf
    ids: list[int] = []
    for nxt in (0, 4, 9, 15):
        ids.append(nxt)
        got = nearest_inliers(pts, orthonormal_basis(pts, ids), 0.2)
        assert got.inlier_error <= prev + 1e-9
        prev = got.inlier_error


def test_outlier_config_validation():
    src = open_source(PointSet(np.eye(3)))
    for beta, lam in ((1.0, 1.0), (-0.1, 1.0), (0.1, 0.0)):
        with pytest.raises(ValueError):
            robust_select(src, 1, 0.5, beta, lam)
    assert src.pass_log.entries == []  # rejected before any pass
    with pytest.raises(ValueError):
        nearest_inliers(PointSet(np.eye(2)), axis_basis(2, [0]), 1.0)


@pytest.mark.parametrize("bad", [
    dict(epsilon=1.5), dict(points_per_round=0), dict(chain_steps=0),
    dict(init_mode="mcmc-volume"), dict(lam=1e-303)],
    ids=["epsilon", "points_per_round", "chain_steps", "init_mode", "lam"])
def test_robust_select_checks_sampling_options_before_any_pass(bad):
    src = open_source(PointSet(np.eye(3)))
    with pytest.raises(ValueError):
        robust_select(src, **(dict(k=1, epsilon=0.5, beta=0.1, lam=0.5) | bad))
    assert src.pass_log.entries == []


# ---------------------------------------------------------------------------
# check_lambda
# ---------------------------------------------------------------------------

def test_check_lambda_no_outliers_is_one():
    pts, truth = generate_synthetic(n=60, d=6, rank=2, noise_sigma=0.1, seed=4)
    ratio = check_lambda(pts, truth.planted_basis, 0.0, truth.inlier_ids)
    assert ratio == pytest.approx(1.0)


def test_check_lambda_zero_total_error():
    pts, truth = generate_synthetic(n=20, d=5, rank=2, noise_sigma=0.0, seed=5)
    assert check_lambda(pts, truth.planted_basis, 0.1) == 1.0


def test_check_lambda_extreme_outlier_near_zero():
    data = np.zeros((10, 3))
    data[:, 0] = np.linspace(1, 2, 10)
    data[9] = [0.0, 1000.0, 0.0]
    data[:9, 1] = 0.01  # small inlier residuals
    pts = PointSet(data)
    ratio = check_lambda(pts, axis_basis(3, [0]), 0.1, list(range(9)))
    assert ratio < 1e-4


def test_check_lambda_matches_two_loop_oracle():
    pts, truth = generate_synthetic(n=1000, d=12, rank=3, noise_sigma=0.1,
                                    outlier_frac=0.05, outlier_scale=1.0, seed=6)
    ratio = check_lambda(pts, truth.planted_basis, 0.05, truth.inlier_ids)
    # independent recomputation: explicit per-point projection loops
    vecs = truth.planted_basis.vectors
    num = 0.0
    den = 0.0
    inliers = set(truth.inlier_ids)
    for i in range(pts.n):
        x = pts.data[i]
        proj = np.zeros_like(x)
        for v in vecs:
            proj += (x @ v) * v
        r2 = float(np.sum((x - proj) ** 2))
        den += r2
        if i in inliers:
            num += r2
    assert ratio == pytest.approx(num / den, abs=1e-9)
    # any iterable of ids will do
    assert check_lambda(pts, truth.planted_basis, 0.05, set(truth.inlier_ids)) == ratio
    assert check_lambda(pts, truth.planted_basis, 0.05, iter(truth.inlier_ids)) == ratio


@pytest.mark.parametrize("scale", [600, -600])
def test_check_lambda_repeats_under_power_of_two_scaling(scale):
    # squared residuals and row norms at 2**600 overflow, at 2**-600 they
    # underflow; either way the ratio must not turn into an exact-fit 1.0
    pts, truth = generate_synthetic(n=300, d=20, rank=3, noise_sigma=0.1,
                                    outlier_frac=0.1, outlier_scale=3.0, seed=3)
    scaled = PointSet(pts.data * 2.0 ** scale)
    for inliers in (None, truth.inlier_ids):
        ratio = check_lambda(pts, truth.planted_basis, 0.1, inliers)
        assert ratio < 0.5
        assert check_lambda(scaled, truth.planted_basis, 0.1, inliers) == ratio


# ---------------------------------------------------------------------------
# robust_select
# ---------------------------------------------------------------------------

def test_robust_select_beta_zero_reduces_to_plain():
    pts, _ = generate_synthetic(n=150, d=8, rank=3, noise_sigma=0.1, seed=7)
    result, inliers = robust_select(pts, k=3, epsilon=0.5, beta=0.0, lam=1.0,
                                    seed=8, chain_steps=16)
    assert inliers.count == 150
    result.passes.assert_passes(2)
    from subsel.linalg import best_rank_k_in_span

    _, err_k = best_rank_k_in_span(pts, result.basis, 3)
    assert inliers.inlier_error == pytest.approx(err_k, rel=1e-9)
    # beta=0, lambda=1 scales nothing: same seed gives the exact plain run
    from subsel.samplers import SamplingConfig, select_subset

    plain = select_subset(pts, SamplingConfig(k=3, epsilon=0.5, seed=8,
                                              chain_steps=16))
    assert result.selected_ids == plain.selected_ids
    assert np.array_equal(result.basis.vectors, plain.basis.vectors)
    assert result.params == plain.params


def test_robust_select_exact_inliers_with_far_outliers():
    pts, truth = generate_synthetic(n=100, d=6, rank=2, noise_sigma=0.0,
                                    outlier_frac=0.1, outlier_scale=50.0, seed=9)
    result, inliers = robust_select(
        pts, k=2, epsilon=0.5, beta=0.1, lam=0.5, seed=10, chain_steps=32,
        ground_truth_basis=truth.planted_basis,
        ground_truth_inliers=truth.inlier_ids)
    assert inliers.count == 90
    basis = orthonormal_basis(pts, result.selected_ids)
    from subsel.linalg import err_p

    planted_err_in_span = err_p(PointSet(pts.data[list(truth.inlier_ids)]), basis, 2.0)
    if planted_err_in_span <= 1e-12:
        assert inliers.inlier_error <= 1e-9


def test_robust_select_lambda_violation_warns():
    # a dominating outlier violates the assumption; pipeline warns, not fails
    pts, truth = generate_synthetic(n=80, d=6, rank=2, noise_sigma=0.01,
                                    outlier_frac=0.05, outlier_scale=500.0, seed=11)
    measured = check_lambda(pts, truth.planted_basis, 0.05, truth.inlier_ids)
    assert measured < 0.5
    result, _ = robust_select(
        pts, k=2, epsilon=0.5, beta=0.05, lam=0.5, seed=12, chain_steps=8,
        ground_truth_basis=truth.planted_basis,
        ground_truth_inliers=truth.inlier_ids)
    assert any("assumption violated" in w for w in result.warnings)


def test_robust_select_two_passes_and_size():
    pts, truth = generate_synthetic(n=200, d=10, rank=3, noise_sigma=0.1,
                                    outlier_frac=0.05, outlier_scale=0.4, seed=13)
    result, inliers = robust_select(pts, k=3, epsilon=0.5, beta=0.05, lam=0.5,
                                    seed=14, chain_steps=24)
    result.passes.assert_passes(2)
    assert result.size == 3 + result.params.total_points
    assert inliers.count == inlier_count(200, 0.05)
    # lambda scaling entered the derived parameters
    assert result.params.alpha == pytest.approx(2.0)


def test_fit_trimmed_subspace_small_span_passthrough():
    pts = PointSet(np.random.default_rng(15).standard_normal((20, 5)))
    span = orthonormal_basis(pts, [0, 1])
    assert fit_trimmed_subspace(pts, span, 2, 0.1) is span
    assert fit_trimmed_subspace(pts, span, 3, 0.1) is span


def test_fit_trimmed_subspace_recovers_planted_span():
    pts, truth = generate_synthetic(n=300, d=8, rank=2, noise_sigma=0.0,
                                    outlier_frac=0.1, outlier_scale=30.0, seed=16)
    # span of planted directions plus a junk direction; trimming must pick
    # the planted plane, not chase the outliers
    from subsel.linalg import extend_basis, residual_distances

    junk = np.zeros((1, 8))
    junk[0] = pts.data[truth.outlier_ids[0]]
    span = extend_basis(truth.planted_basis, junk, [truth.outlier_ids[0]])
    assert span.r == 3
    fitted = fit_trimmed_subspace(pts, span, 2, 0.1)
    res = residual_distances(pts.data[list(truth.inlier_ids)], fitted)
    assert float(res.max()) <= 1e-8
