"""The Gram eigen-kernel against the thin SVD as oracle.

`optimal_subspace`, `best_rank_k_in_span`, `outliers.fit_trimmed_subspace`
and the exact-volume pivot (`samplers._volume_pivot`, which tests reach
through the `volume_dpp` fixture) read their subspaces off the d x d Gram of
a power-of-two-rescaled matrix. These tests check their errors against
`np.linalg.svd` on tall planted instances at noise levels from 1e-6 to 1,
check that power-of-two scaling of the data leaves every basis bit for bit
unchanged, check that a PointSet sums the Gram of all its rows once and
keeps it, and guard against a tall SVD coming back into the package.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subsel import SamplingConfig, linalg, robust_select, select_subset, write_binary
from subsel.cli import ExperimentSpec, run_experiment
from subsel.linalg import (
    RESIDUAL_BLOCK_ROWS,
    PointSet,
    _gram,
    _pow2_exponent,
    _scaled_blocks,
    best_rank_k_in_span,
    optimal_subspace,
    orthonormal_basis,
)
from subsel.outliers import fit_trimmed_subspace
from subsel.rng import derive_rng
from subsel.stream import CHUNK_ROWS, inlier_count, length_squared_pass, open_source

REL = 1e-9


def planted(n, d, k, sigma, seed, outlier_rows=0):
    """n rows near a random k-plane with Gaussian noise sigma; the first
    outlier_rows rows are replaced by large isotropic vectors."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((d, k)))
    x = (rng.standard_normal((n, k)) * np.geomspace(2.0, 1.0, k)) @ q.T
    x += sigma * rng.standard_normal((n, d))
    x[:outlier_rows] = 10.0 * rng.standard_normal((outlier_rows, d))
    return x


def sq_err(x, vectors):
    resid = x - (x @ vectors.T) @ vectors
    return float(np.sum(resid * resid))


def svd_tail(x, k):
    """The oracle: squared singular values of x beyond the k-th."""
    return float(np.sum(np.linalg.svd(x, compute_uv=False)[k:] ** 2))


instances = dict(
    n=st.integers(60, 200), d=st.integers(6, 12), k=st.integers(1, 3),
    sigma=st.sampled_from([1e-6, 1e-3, 1.0]), scale=st.sampled_from([-600, 0, 600]),
    seed=st.integers(0, 2 ** 16))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(**instances)
def test_optimal_subspace_matches_svd(n, d, k, sigma, scale, seed):
    x = planted(n, d, k, sigma, seed)
    basis, err = optimal_subspace(PointSet(x), k)
    want = svd_tail(x, k)
    assert err == pytest.approx(want, rel=REL)
    assert sq_err(x, basis.vectors) == pytest.approx(want, rel=REL)
    with np.errstate(over="ignore", under="ignore"):  # the error itself leaves range
        scaled, _ = optimal_subspace(PointSet(x * 2.0 ** scale), k)
    assert np.array_equal(scaled.vectors, basis.vectors)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(**instances)
def test_best_rank_k_in_span_matches_svd(n, d, k, sigma, scale, seed):
    x = planted(n, d, k, sigma, seed)
    pts = PointSet(x)
    span = orthonormal_basis(pts, range(k + 3))
    sub, err = best_rank_k_in_span(pts, span, k)
    # Pythagoras: distance to the span plus the in-span tail
    want = sq_err(x, span.vectors) + svd_tail(x @ span.vectors.T, k)
    assert err == pytest.approx(want, rel=REL)
    assert sub.source_ids == span.source_ids
    scaled_pts = PointSet(x * 2.0 ** scale)
    scaled_span = orthonormal_basis(scaled_pts, range(k + 3))
    assert np.array_equal(scaled_span.vectors, span.vectors)
    with np.errstate(over="ignore", under="ignore"):
        scaled, _ = best_rank_k_in_span(scaled_pts, scaled_span, k)
    assert np.array_equal(scaled.vectors, sub.vectors)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(**instances)
def test_fit_trimmed_subspace_matches_svd(n, d, k, sigma, scale, seed):
    beta = 0.1
    x = planted(n, d, k, sigma, seed, outlier_rows=n // 20)
    pts = PointSet(x)
    span = orthonormal_basis(pts, range(n // 20, n // 20 + k + 3))
    fitted = fit_trimmed_subspace(pts, span, k, beta)
    resid = x - (x @ span.vectors.T) @ span.vectors
    keep = np.sort(np.argsort(np.einsum("ij,ij->i", resid, resid),
                              kind="stable")[:inlier_count(n, beta)])
    want = sq_err(x[keep], span.vectors) + svd_tail(x[keep] @ span.vectors.T, k)
    assert sq_err(x[keep], fitted.vectors) == pytest.approx(want, rel=REL)
    scaled_pts = PointSet(x * 2.0 ** scale)
    with np.errstate(over="ignore", under="ignore"):
        scaled = fit_trimmed_subspace(scaled_pts, orthonormal_basis(
            scaled_pts, range(n // 20, n // 20 + k + 3)), k, beta)
    assert np.array_equal(scaled.vectors, fitted.vectors)


@pytest.mark.parametrize("caller", ["optimal_subspace", "best_rank_k_in_span",
                                    "fit_trimmed_subspace", "volume_sample_dpp",
                                    "volume_sample_dpp_k5"])
def test_kernel_callers_make_no_n_row_copy(caller, volume_dpp):
    # the Gram is summed block by block, and the DPP (k = 3 and the
    # workloads' k = 5) holds one rescaled chunk and the ids of its
    # length-squared draws, reading their rows from the points: no rescaled
    # copy of the data and no n x r product
    n, d, k = 20 * CHUNK_ROWS, 20, 3
    pts = PointSet(planted(n, d, k, 0.1, seed=9, outlier_rows=n // 20))
    span = orthonormal_basis(pts, range(n // 20, n // 20 + k + 5))
    call = {
        "optimal_subspace": lambda: optimal_subspace(pts, k),
        "best_rank_k_in_span": lambda: best_rank_k_in_span(pts, span, k),
        "fit_trimmed_subspace": lambda: fit_trimmed_subspace(pts, span, k, 0.1),
        "volume_sample_dpp": lambda: volume_dpp(pts, k, derive_rng(2, "volume-dpp")),
        "volume_sample_dpp_k5": lambda: volume_dpp(pts, 5, derive_rng(2, "volume-dpp")),
    }[caller]
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.75 * n * d * 8


def test_no_tall_svd(monkeypatch):
    # every p = 2 grading and pivot step goes through the Gram kernel: a thin
    # SVD of a matrix with more rows than columns anywhere on these paths
    # fails here
    real_svd = np.linalg.svd

    def wide_only_svd(a, *args, **kwargs):
        a = np.asarray(a)
        if a.shape[-2] > a.shape[-1]:
            raise AssertionError(f"tall SVD of shape {a.shape}")
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", wide_only_svd)
    x = planted(120, 8, 2, 0.1, seed=5, outlier_rows=6)
    pts = PointSet(x)
    result = select_subset(pts, SamplingConfig(k=2, epsilon=0.5, seed=6,
                                               init_mode="exact-volume",
                                               chain_steps=8))
    robust, _ = robust_select(pts, 2, 0.5, 0.05, 0.5, seed=7, chain_steps=8)
    basis, _ = optimal_subspace(pts, 2)
    sub, _ = best_rank_k_in_span(pts, result.basis, 2)
    assert result.size > 2 and robust.size > 2 and basis.r == sub.r == 2
    with pytest.raises(AssertionError, match="tall SVD"):
        np.linalg.svd(x)


TINY = np.finfo(np.float64).tiny  # the smallest normal double


@pytest.mark.parametrize("e", [-1074, -1023, -1022, 1021, 1022, 1023, 1024])
def test_scaled_blocks_match_ldexp_bitwise(e):
    # mantissas of every sign across the whole exponent range, subnormal
    # inputs included, so outputs land normal, subnormal, zero and infinite,
    # whether rows are rescaled into the block or gathered and rescaled there
    rng = np.random.default_rng(e & 0xFFFF)
    m = rng.uniform(0.5, 1.0, 4096) * rng.choice([-1.0, 1.0], 4096)
    a = np.ldexp(m, rng.integers(-1073, 1025, 4096)).reshape(512, 8)
    a[0] = [0.0, -0.0, 5e-324, -5e-324, TINY, np.finfo(np.float64).max, 1.0, 0.75]
    rows = rng.integers(0, len(a), len(a))
    with np.errstate(over="ignore", under="ignore"):
        for sel in (None, rows):
            want = np.ldexp(a if sel is None else a[sel], -e)
            ((_, got),) = _scaled_blocks(a, e, sel)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
    # scaling down rounds into the subnormal range; scaling up overflows
    if e > 0:
        assert ((want != 0) & (np.abs(want) < TINY)).any()
    else:
        assert np.isinf(want).any()


@pytest.mark.parametrize("n", [RESIDUAL_BLOCK_ROWS - 1, RESIDUAL_BLOCK_ROWS,
                               RESIDUAL_BLOCK_ROWS + 1])
def test_scaled_blocks_rows_match_ldexp_gather(n):
    # a row selection is gathered into the reused block, rescaled there, and
    # equals ldexp of the gathered rows bit for bit, block by block
    rng = np.random.default_rng(n)
    x = rng.standard_normal((n + 7, 5)) * 2.0 ** 40
    rows = rng.integers(0, len(x), n)
    e = _pow2_exponent(x)
    want = np.ldexp(x[rows], -e)
    seen = []
    for lo, block in _scaled_blocks(x, e, rows):
        assert block.shape[0] == min(RESIDUAL_BLOCK_ROWS, n - lo)
        assert np.array_equal(block.view(np.int64),
                              want[lo:lo + RESIDUAL_BLOCK_ROWS].view(np.int64))
        seen.append(lo)
    assert seen == list(range(0, n, RESIDUAL_BLOCK_ROWS))
    for bad in (-1, len(x)):
        with pytest.raises(IndexError):
            next(_scaled_blocks(x, e, np.append(rows, bad)))


def count_full_grams(monkeypatch):
    """Calls of linalg._gram over every row of its input, counted from now."""
    calls = []

    def counting(x, rows=None):
        if rows is None:
            calls.append(x.shape)
        return _gram(x, rows)

    monkeypatch.setattr(linalg, "_gram", counting)
    return calls


def test_point_set_sums_full_gram_once(monkeypatch, volume_dpp):
    # the optimum, best-k-in-span, the exact-fit test and the DPP pivot read
    # one Gram kept on the PointSet; the trimmed fit sums its own over the
    # rows it keeps
    calls = count_full_grams(monkeypatch)
    x = planted(3000, 12, 3, 0.1, seed=11, outlier_rows=30)
    pts = PointSet(x)
    _, opt = optimal_subspace(pts, 3)
    best_rank_k_in_span(pts, orthonormal_basis(pts, range(30, 38)), 3)
    volume_dpp(pts, 3, derive_rng(4, "volume-dpp"))
    linalg.is_exact_fit(pts, opt)
    assert calls == [x.shape]
    fit_trimmed_subspace(pts, orthonormal_basis(pts, range(30, 38)), 3, 0.05)
    assert calls == [x.shape]
    optimal_subspace(PointSet(x), 3)  # a new set sums its own
    assert calls == [x.shape, x.shape]


def test_kept_gram_is_read_only_and_bitwise_fresh():
    x = planted(2 * RESIDUAL_BLOCK_ROWS + 5, 9, 2, 0.1, seed=12) * 2.0 ** 300
    pts = PointSet(x)
    e, g = pts._full_gram()
    assert pts._full_gram()[1] is g
    assert not g.flags.writeable
    with pytest.raises(ValueError):
        g[0, 0] = 0.0
    e_fresh, g_fresh = _gram(pts.data)
    assert e == e_fresh
    assert np.array_equal(g.view(np.int64), g_fresh.view(np.int64))


@pytest.mark.parametrize("scale", [0, 600, -600])
def test_streamed_pass_sums_the_kept_gram_bitwise(tmp_path, scale):
    # the exact-volume init's streamed pass adds each chunk at its own power
    # of two, as the kernel adds its blocks, so its Gram has the bits of the
    # one a PointSet keeps, here with one chunk 2**300 below the others
    x = planted(3 * CHUNK_ROWS + 5, 9, 2, 0.1, seed=16)
    x[CHUNK_ROWS:2 * CHUNK_ROWS] *= 2.0 ** -300
    x *= 2.0 ** scale
    path = tmp_path / "x.bin"
    write_binary(path, x)
    with np.errstate(all="raise"):
        (e, g), _, _ = length_squared_pass(open_source(path, "streaming"), 64,
                                           np.random.default_rng(17), label="gram")
        e_kept, g_kept = PointSet(x)._full_gram()
    assert e == e_kept
    assert np.array_equal(g.view(np.int64), g_kept.view(np.int64))


@pytest.mark.parametrize("warm_with", ["optimal_subspace", "best_rank_k_in_span",
                                       "volume_sample_dpp"])
def test_bases_match_cold_and_warm_gram(warm_with, volume_dpp):
    # each caller returns the same bits whether it sums the Gram (cold, on a
    # fresh set) or reads the one another caller kept (warm), in every order
    n, d, k = 2000, 10, 3
    x = planted(n, d, k, 0.05, seed=13)
    callers = {
        "optimal_subspace": lambda pts: optimal_subspace(pts, k)[0].vectors,
        "best_rank_k_in_span": lambda pts: best_rank_k_in_span(
            pts, orthonormal_basis(pts, range(k + 4)), k)[0].vectors,
        "volume_sample_dpp": lambda pts: np.array(
            volume_dpp(pts, k, derive_rng(8, "volume-dpp"))),
    }
    warm_pts = PointSet(x)
    callers[warm_with](warm_pts)
    for name, call in callers.items():
        cold = call(PointSet(x))
        assert np.array_equal(call(warm_pts).view(np.int64), cold.view(np.int64)), name


def test_run_experiment_sums_full_gram_once(tmp_path, monkeypatch):
    # in memory mode every trial's DPP pivot and grading read the Gram of the
    # one evaluation PointSet, which the optimum summed
    path = tmp_path / "x.bin"
    write_binary(path, planted(1500, 12, 3, 0.1, seed=14))
    calls = count_full_grams(monkeypatch)
    spec = ExperimentSpec(algorithm="mcmc", k=3, trials=3, seed=5, chain_steps=8,
                          timing="zero")
    rows, _ = run_experiment(spec, str(path))
    assert len(rows) == 3 and all(r.ratio is not None for r in rows)
    assert len(calls) == 1
