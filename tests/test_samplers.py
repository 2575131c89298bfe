import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subsel.linalg import (
    OrthonormalBasis,
    PointSet,
    err_p,
    gram_dets,
    orthonormal_basis,
    residual_distances,
)
from subsel.rng import derive_rng
from subsel import samplers
from subsel.outliers import robust_select
from subsel.samplers import (
    DrawBudgetError,
    ExactFitReached,
    RankDeficientError,
    RoundStats,
    SamplingConfig,
    SlotBudgetError,
    _enumerate_volumes,
    adaptive_sample,
    certified_chain_steps,
    derive_params,
    error_ratio_bound,
    greedy_max_volume_init,
    init_pivot,
    mcmc_select,
    mh_accept,
    pivot_draws,
    proposal_q,
    select_subset,
    tv_distance_diag,
    volume_sample_mcmc,
    volume_walk_distribution,
)
from subsel.stream import (
    CHUNK_ROWS,
    DatasetSource,
    generate_synthetic,
    open_source,
    write_binary,
    write_csv,
)


def instance(n, d, seed, scale=None):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((n, d))
    if scale is not None:
        data = data * np.asarray(scale)
    return PointSet(data)


def empirical_tv(samples, probs, n):
    emp = np.bincount(np.asarray(samples, dtype=int), minlength=n) / len(samples)
    return 0.5 * float(np.abs(emp - probs).sum())


def exact_chain_distribution(q, target, m):
    """Oracle: the m-step chain law by powering the explicit transition matrix."""
    n = len(q)
    trans = np.zeros((n, n))
    for x in range(n):
        for y in range(n):
            if target[x] * q[y] > 0.0:
                a = min(1.0, (target[y] * q[x]) / (target[x] * q[y]))
            else:
                a = 1.0 if target[y] > 0.0 else 0.0
            trans[x, y] = q[y] * a
        trans[x, x] += 1.0 - trans[x].sum()
    dist = np.asarray(q, dtype=float).copy()
    for _ in range(m - 1):
        dist = dist @ trans
    return dist


# ---------------------------------------------------------------------------
# derive_params
# ---------------------------------------------------------------------------

def test_derive_params_worked_example():
    # direct evaluation of the closed forms for k=2, eps=0.5, alpha=1
    got = derive_params(2, 0.5, 1.0)
    assert got.points_per_round == 32
    assert got.rounds == 1
    assert got.eps_err == pytest.approx(1.0 / 48)
    assert got.eps_tv == pytest.approx(1.0 / 1536)
    e1, e2 = 1.0 / 48, 1.0 / 1536
    expected_m = math.ceil(1.0 + max((2 / e1) * math.log(1 / e2),
                                     (2 / e2) * math.log(1 / e1)) - 1e-9)
    assert expected_m == 11894
    assert got.chain_steps == 11894


def test_derive_params_alpha_monotonicity():
    base = derive_params(2, 0.5, 1.0)
    doubled = derive_params(2, 0.5, 2.0)
    assert doubled.eps_err == pytest.approx(base.eps_err / 2)
    assert doubled.eps_tv <= base.eps_tv / 2
    assert doubled.chain_steps > base.chain_steps
    assert doubled.points_per_round == base.points_per_round


def test_derive_params_floor_behavior():
    eps = 1.0 - 1e-12
    got = derive_params(1, eps, 1.0)
    assert got.points_per_round == 8
    assert got.rounds >= 1
    assert got.chain_steps >= 1


def test_derive_params_m_dominates_both_published_forms():
    for k, eps, alpha in [(1, 0.9, 1.0), (2, 0.5, 1.0), (5, 0.3, 2.0), (3, 0.1, 6.0)]:
        got = derive_params(k, eps, alpha)
        e1, e2 = got.eps_err, got.eps_tv
        assert got.chain_steps >= 1 + (2 / e1) * math.log(1 / e2) - 1
        assert got.chain_steps >= 1 + (2 / e2) * math.log(1 / e1) - 1


def test_derive_params_outlier_mode_scales_alpha():
    plain = derive_params(3, 0.5, 1.0)
    robust = derive_params(3, 0.5, 1.0, lam=0.5)
    assert robust.alpha == pytest.approx(2.0)
    assert robust.eps_err == pytest.approx(plain.eps_err / 2)
    assert robust.points_per_round == plain.points_per_round


def test_derive_params_lp_mode_folds_init_quality():
    got = derive_params(3, 0.5, 1.0, p=3.0)
    assert got.alpha == pytest.approx(math.factorial(3) * 4.0 ** 2)


def test_derive_params_overrides():
    got = derive_params(2, 0.5, 1.0, points_per_round=7, rounds=2, chain_steps=9)
    assert (got.points_per_round, got.rounds, got.chain_steps) == (7, 2, 9)
    # eps_tv follows the overridden t and l
    assert got.eps_tv == pytest.approx(0.5 / (8 * 7 * 2 * 1 * 3))


def test_derive_params_validation():
    with pytest.raises(ValueError):
        derive_params(0, 0.5)
    with pytest.raises(ValueError):
        derive_params(2, 1.5)
    with pytest.raises(ValueError):
        derive_params(2, 0.5, 0.5)
    with pytest.raises(ValueError):
        derive_params(2, 0.5, lam=0.0)


def test_p_and_closed_forms_that_do_not_fit_are_value_errors():
    # NaN and inf p, and pivot constants k! (k+1)^(p-1) past the largest
    # float, are refused as ValueError, never OverflowError
    for p in (math.nan, math.inf):
        with pytest.raises(ValueError, match="p must be finite"):
            SamplingConfig(k=2, epsilon=0.5, p=p, init_mode="adaptive-k-pass")
    for k, p in ((5, 1e6), (200, 3.0)):
        with pytest.raises(ValueError, match="pivot constant"):
            derive_params(k, 0.5, p=p)
    with pytest.raises(ValueError, match="pivot constant"):
        SamplingConfig(k=171, epsilon=0.5, init_mode="adaptive-k-pass")
    with pytest.raises(ValueError, match="closed-form l"):
        derive_params(2, 0.5, alpha=1e308, lam=1e-10)
    with pytest.raises(ValueError, match="closed-form m"):
        derive_params(2, 0.5, lam=1e-300)
    with pytest.raises(ValueError, match="tolerance e2"):
        derive_params(2, 0.5, lam=1e-303)


@pytest.mark.parametrize("override", ["points_per_round", "rounds", "chain_steps"])
def test_derive_params_refuses_overrides_below_one(override):
    for value in (0, -1):
        with pytest.raises(ValueError, match=f"{override} override must be >= 1"):
            derive_params(5, 0.5, **{override: value})


# ---------------------------------------------------------------------------
# adaptive sampling; squared-length sampling is a round with an empty span
# ---------------------------------------------------------------------------

def one_round(pts, basis, count, p=2.0, seed=0):
    """The single block of a one-round adaptive_sample."""
    (block,) = adaptive_sample(pts, basis, count, 1, p, seed).blocks
    return block


def assert_stops_on_exact_fit(result):
    assert result.blocks == ()
    assert result.warnings == ("exact fit after 0 rounds; stopped early",)
    result.passes.assert_passes(1)


def test_squared_length_zero_weight_excluded():
    pts = PointSet(np.array([[1.0, 0.0], [0.0, 0.0]]))
    result = adaptive_sample(pts, OrthonormalBasis.empty(pts.d), 50, 1, seed=1)
    assert set(result.blocks[0]) == {0}
    assert len(result.blocks[0]) == 50
    assert np.array_equal(result.basis.vectors, [[1.0, 0.0]])


def test_squared_length_frequency():
    pts = PointSet(np.array([[1.0, 0.0], [2.0, 0.0]]))
    draws = one_round(pts, OrthonormalBasis.empty(2), 50_000, p=2.0, seed=2)
    freq1 = np.mean(np.asarray(draws) == 1)
    assert abs(freq1 - 0.8) <= 3 * math.sqrt(0.8 * 0.2 / 50_000)


def test_squared_length_symmetry():
    pts = PointSet(np.array([[1.0, 0.0], [1.0, 0.0]]))
    draws = one_round(pts, OrthonormalBasis.empty(pts.d), 50_000, seed=3)
    freq0 = np.mean(np.asarray(draws) == 0)
    assert abs(freq0 - 0.5) <= 3 * math.sqrt(0.25 / 50_000)


def test_squared_length_all_zero_stops_early():
    assert_stops_on_exact_fit(
        adaptive_sample(PointSet(np.zeros((3, 2))), OrthonormalBasis.empty(2), 1, 1))


def test_adaptive_round_unique_nonzero_residual():
    pts = PointSet(np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 0.0]]))
    draws = one_round(pts, orthonormal_basis(pts, [0]), 20, seed=4)
    assert set(draws) == {1}


def test_adaptive_round_empty_current_is_squared_length():
    pts = instance(5, 3, seed=6)
    a = one_round(pts, OrthonormalBasis.empty(pts.d), 30_000, seed=7)
    w = np.linalg.norm(pts.data, axis=1) ** 2
    probs = w / w.sum()
    assert empirical_tv(a, probs, 5) <= 0.02


def test_adaptive_round_residual_weights():
    pts = PointSet(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 2.0]]))
    draws = one_round(pts, orthonormal_basis(pts, [0]), 50_000, seed=8)
    freq2 = np.mean(np.asarray(draws) == 2)
    assert abs(freq2 - 0.8) <= 3 * math.sqrt(0.8 * 0.2 / 50_000)
    assert 0 not in set(draws)


def test_adaptive_round_exact_fit_signal():
    pts = PointSet(np.array([[1.0, 0.0], [2.0, 0.0]]))
    assert_stops_on_exact_fit(adaptive_sample(pts, orthonormal_basis(pts, [0]), 5, 1, seed=9))


def test_adaptive_round_source_and_points_agree_in_distribution():
    pts = instance(6, 3, seed=10)
    src = open_source(pts)
    basis = orthonormal_basis(pts, [0])
    via_source = one_round(src, basis, 30_000, seed=11)
    w = residual_distances(pts.data, basis) ** 2
    probs = w / w.sum()
    assert empirical_tv(via_source, probs, 6) <= 0.02
    src.pass_log.assert_passes(1)


def test_adaptive_sample_exact_rank_reaches_zero_error():
    rng = np.random.default_rng(12)
    coeff = rng.standard_normal((30, 2))
    dirs = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    pts = PointSet(coeff @ dirs)
    result = adaptive_sample(pts, OrthonormalBasis.empty(pts.d), 4, 3, p=2.0, seed=13)
    assert err_p(pts, result.basis, 2.0) == pytest.approx(0.0, abs=1e-16)


def test_adaptive_sample_zero_rounds_identity():
    pts = instance(6, 3, seed=14)
    result = adaptive_sample(pts, orthonormal_basis(pts, [2, 4]), 5, 0, seed=15)
    assert result.selected_ids == (2, 4)
    assert result.blocks == ()
    assert result.passes.total_passes == 0


def test_adaptive_sample_pass_accounting():
    pts = instance(40, 6, seed=16)
    result = adaptive_sample(pts, OrthonormalBasis.empty(pts.d), 3, 4, seed=17)
    result.passes.assert_passes(4)
    assert all(len(b) == 3 for b in result.blocks)
    assert result.size == 12


def test_adaptive_sample_error_bound_light():
    # small Monte-Carlo version of the multi-round expectation bound
    from subsel.linalg import optimal_subspace

    pts, _ = _planted(n=120, d=10, rank=3, noise=0.1, seed=18)
    _, opt = optimal_subspace(pts, 3)
    err0 = float(np.sum(np.linalg.norm(pts.data, axis=1) ** 2))
    t, l = 16, 2
    errs = []
    for trial in range(12):
        res = adaptive_sample(pts, OrthonormalBasis.empty(pts.d), t, l, seed=trial)
        errs.append(_best_k_err(pts, res, 3))
    bound = (1 + 2 * 3 / t) * opt + (3 / t) ** l * err0
    mean = float(np.mean(errs))
    sem = float(np.std(errs, ddof=1) / math.sqrt(len(errs)))
    assert mean <= bound + 3 * sem


def _planted(n, d, rank, noise, seed, **kw):
    return generate_synthetic(n=n, d=d, rank=rank, noise_sigma=noise, seed=seed, **kw)


def _best_k_err(pts, result, k):
    from subsel.linalg import best_rank_k_in_span

    basis = orthonormal_basis(pts, result.selected_ids)
    return best_rank_k_in_span(pts, basis, k)[1]


# ---------------------------------------------------------------------------
# volume sampling
# ---------------------------------------------------------------------------

def test_volume_exact_k1_matches_squared_length():
    # a 1-subset's squared volume is its squared length
    pts = instance(5, 3, seed=19)
    subsets, _, probs = _enumerate_volumes(pts, 1)
    assert subsets == [(i,) for i in range(5)]
    w = np.linalg.norm(pts.data, axis=1) ** 2
    assert np.allclose(probs, w / w.sum(), rtol=1e-12, atol=1e-15)


def test_volume_exact_three_pair_uniform():
    pts = PointSet(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    subsets, _, probs = _enumerate_volumes(pts, 2)
    assert subsets == [(0, 1), (0, 2), (1, 2)]
    assert np.allclose(probs, 1.0 / 3)


def test_volume_exact_duplicate_pair_never_sampled(volume_dpp):
    pts = PointSet(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    subsets, _, probs = _enumerate_volumes(pts, 2)
    assert probs[subsets.index((0, 1))] == 0.0
    rng = derive_rng(21, "volume-test")
    for _ in range(300):
        assert tuple(sorted(volume_dpp(pts, 2, rng))) != (0, 1)


def test_volume_exact_guard_and_rank_errors():
    pts = instance(40, 4, seed=22)
    with pytest.raises(ValueError, match="guard"):
        _enumerate_volumes(pts, 10, guard=1000)
    flat = PointSet(np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]))
    with pytest.raises(RankDeficientError, match="rank-deficient"):
        _enumerate_volumes(flat, 2)


@pytest.mark.parametrize("rank, noise, k", [(3, 0.3, 4), (2, 0.0, 3)],
                         ids=["noisy-k-above-d", "noiseless-rank-2"])
def test_enumerate_volumes_refuses_rank_below_k(rank, noise, k):
    # every k-subset is dependent, so the dets are rounding noise (up to
    # 1.6e-16 in the first case), not volumes to normalize
    pts, _ = generate_synthetic(n=6, d=3, rank=rank, noise_sigma=noise, seed=0)
    with pytest.raises(RankDeficientError, match="numerical rank"):
        _enumerate_volumes(pts, k)


def test_volume_exact_distribution_p3():
    # the p = 3 law weighs a subset by vol^3 = det(Gram)^(3/2)
    pts = instance(5, 3, seed=23)
    subsets, _, probs = _enumerate_volumes(pts, 2, p=3.0)
    w = np.array([np.linalg.det(pts.data[list(s)] @ pts.data[list(s)].T) ** 1.5
                  for s in subsets])
    assert np.allclose(probs, w / w.sum(), rtol=1e-9, atol=1e-12)


def test_volume_dpp_matches_enumeration(volume_dpp):
    pts = instance(6, 4, seed=25)
    subsets, _, probs = _enumerate_volumes(pts, 2)
    idx = {s: i for i, s in enumerate(subsets)}
    rng = derive_rng(26, "volume-test")
    samples = [idx[tuple(sorted(volume_dpp(pts, 2, rng)))] for _ in range(20_000)]
    assert empirical_tv(samples, probs, len(subsets)) <= 0.05


def test_volume_dpp_k3_matches_enumeration(volume_dpp):
    pts = instance(7, 5, seed=27)
    subsets, _, probs = _enumerate_volumes(pts, 3)
    idx = {s: i for i, s in enumerate(subsets)}
    rng = derive_rng(28, "volume-test")
    samples = [idx[tuple(sorted(volume_dpp(pts, 3, rng)))] for _ in range(20_000)]
    assert empirical_tv(samples, probs, len(subsets)) <= 0.05


def test_volume_dpp_rank_deficient(volume_dpp):
    flat = PointSet(np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]))
    with pytest.raises(ValueError, match="rank-deficient"):
        volume_dpp(flat, 2, derive_rng(0, "volume-dpp"))


def test_volume_dpp_names_the_numerical_rank(volume_dpp):
    # full-rank Gaussian rows beside one row of 1e300: under the 1e-12
    # eigenvalue cut the Gram has rank 1, and many 3-subsets still have
    # nonzero volume, so the error names the rank and the cut
    x = np.vstack([np.random.default_rng(40).standard_normal((299, 20)),
                   np.full((1, 20), 1e300)])
    pts = PointSet(x)
    want = r"rank-deficient dataset: numerical rank 1 < k = 3 .*1e-12"
    with pytest.raises(RankDeficientError, match=want):
        volume_dpp(pts, 3, derive_rng(0, "volume-dpp"))
    with pytest.raises(RankDeficientError, match=want):
        select_subset(pts, SamplingConfig(k=3, epsilon=0.5, seed=41, chain_steps=4))


def test_volume_dpp_extreme_scale_no_overflow(volume_dpp):
    # squared singular values of data near 1e180 would overflow without the
    # power-of-two rescale; the rescale is exact, so the seeded ids are those
    # of the unscaled run
    x = instance(40, 6, seed=30).data
    ids = volume_dpp(PointSet(x), 3, derive_rng(31, "volume-dpp"))
    assert len(set(ids)) == 3 and all(0 <= i < 40 for i in ids)
    assert np.linalg.matrix_rank(x[ids]) == 3
    for scale in (2.0 ** 600, 2.0 ** -600):
        with np.errstate(all="raise"):
            assert volume_dpp(PointSet(x * scale), 3, derive_rng(31, "volume-dpp")) == ids


def spectrum_instance(n, singular_values, seed):
    rng = np.random.default_rng(seed)
    r = len(singular_values)
    u, _ = np.linalg.qr(rng.standard_normal((n, r)))
    v, _ = np.linalg.qr(rng.standard_normal((r + 2, r)))
    return PointSet((u * np.asarray(singular_values)) @ v.T)


def test_volume_dpp_ill_conditioned_samples(volume_dpp):
    # s_k / s_0 = 1e-4 is eigenvalue ratio 1e-8, above the Gram's 1e-12 rank
    # cut: the DPP still samples, with the enumeration's law; an exactly
    # rank-deficient spectrum raises (test_volume_dpp_rank_deficient)
    pts = spectrum_instance(6, [1.0, 1e-2, 1e-4], seed=32)
    subsets, _, probs = _enumerate_volumes(pts, 3)
    idx = {s: i for i, s in enumerate(subsets)}
    rng = derive_rng(33, "volume-test")
    samples = [idx[tuple(sorted(volume_dpp(pts, 3, rng)))] for _ in range(10_000)]
    assert empirical_tv(samples, probs, len(subsets)) <= 0.05
    with pytest.raises(ValueError, match="rank-deficient"):
        volume_dpp(spectrum_instance(6, [1.0, 1e-2, 0.0], seed=32), 3,
                   derive_rng(0, "volume-dpp"))


def test_volume_pivot_draws_run_out_only_streaming_refuses(tmp_path):
    # eigenvalues 1, 0.09, 0.0025 and k = r = 3: ||X||_F^2 / lambda_min(S) is
    # 437, so the picks expect H_3 * 437 = 801 length-squared draws, past the
    # pivot_draws(3, 5) = 764 the init pass keeps. On these 6 rows alone
    # (n <= 764) a streamed pass keeps every row and finishes as memory mode
    # does. 800 zero rows, which no draw and no subset of positive volume
    # holds, put n past 764: a streamed pass then keeps only its drawn rows
    # and refuses when they run out; a memory source picks the same rows
    # whenever streaming succeeds, draws the rest from its rows otherwise,
    # and keeps the enumerated law of the 6 rows
    pts = spectrum_instance(6, [1.0, 0.3, 0.05], seed=34)
    assert pivot_draws(3, 5) == 764
    refused = 0
    for rows in (pts.data, np.vstack([pts.data, np.zeros((800, 5))])):
        path = tmp_path / f"x{len(rows)}.bin"
        write_binary(path, rows)
        mem, strm = open_source(path, "memory"), open_source(path, "streaming")
        for seed in range(40):
            pivot = init_pivot(mem, 3, 2.0, seed, "exact-volume")
            try:
                streamed = init_pivot(strm, 3, 2.0, seed, "exact-volume")
            except DrawBudgetError as exc:
                assert len(rows) > 764
                assert "memory mode" in str(exc) and "764 of its length-squared draws" in str(exc)
                refused += 1
                continue
            assert streamed.source_ids == pivot.source_ids
            assert np.array_equal(streamed.vectors, pivot.vectors)
    assert 0 < refused < 40
    subsets, _, probs = _enumerate_volumes(pts, 3)
    idx = {s: i for i, s in enumerate(subsets)}
    samples = [idx[tuple(sorted(init_pivot(mem, 3, 2.0, seed, "exact-volume").source_ids))]
               for seed in range(100, 3100)]
    assert empirical_tv(samples, probs, len(subsets)) <= 0.05


def test_streamed_pivot_is_scale_free(tmp_path, monkeypatch):
    # the pass weighs each chunk in its own power of two and the DPP reads
    # the stored rows at the Gram's, so a streamed pivot at 2**600 or
    # 2**-600, with one chunk 2**300 below the rest, has the unscaled ids and
    # no rounding to infinity or below the normal range, and never collects
    monkeypatch.setattr(DatasetSource, "collect", None)
    x = instance(3 * CHUNK_ROWS + 5, 6, seed=36).data.copy()
    x[CHUNK_ROWS:2 * CHUNK_ROWS] *= 2.0 ** -300
    ids = None
    for scale in (1.0, 2.0 ** 600, 2.0 ** -600):
        path = tmp_path / f"x{scale!r}.bin"
        write_binary(path, x * scale)
        with np.errstate(all="raise"):
            pivot = init_pivot(open_source(path, "streaming"), 3, 2.0, 37, "exact-volume")
        ids = ids or pivot.source_ids
        assert pivot.source_ids == ids


@pytest.mark.parametrize("n", [300, 1500], ids=["rows-kept", "rows-drawn"])
def test_init_pivot_picks_the_same_ids_in_both_modes(tmp_path, n):
    # pivot_draws(3, 5) = 764 rows are kept whole at n = 300 and only drawn
    # at n = 1500; the pass's draws and the DPP's come from one generator,
    # so memory and streaming mode pick the same rows
    pts = instance(n, 5, seed=39)
    path = tmp_path / "x.bin"
    write_binary(path, pts.data)
    mem, strm = open_source(path, "memory"), open_source(path, "streaming")
    for seed in range(8):
        a, b = (init_pivot(src, 3, 2.0, seed, "exact-volume") for src in (mem, strm))
        assert a.source_ids == b.source_ids and np.array_equal(a.vectors, b.vectors)


def test_streamed_selection_holds_no_n_by_d_array(tmp_path, monkeypatch):
    # the exact-volume init is one pass over the Gram and a store of the rows
    # it drew, and the Metropolis pass writes its banks' rows once into the
    # store that is its pool: a streamed selection never collects its source
    # and traces under half the data's bytes (the pivot stores the rows of
    # pivot_draws(5, 50) = 7817 draws, about 5900 distinct of the 20480)
    n, d = 20 * CHUNK_ROWS, 50
    rng = np.random.default_rng(80)
    q, _ = np.linalg.qr(rng.standard_normal((d, 3)))
    x = (rng.standard_normal((n, 3)) * [3.0, 2.0, 1.5]) @ q.T
    path = tmp_path / "tall.bin"
    write_binary(path, x + 0.1 * rng.standard_normal((n, d)))
    del x

    def no_collect(self, label, **kwargs):
        raise AssertionError(f"a streamed selection collected its source ({label})")

    monkeypatch.setattr(DatasetSource, "collect", no_collect)
    config = SamplingConfig(k=5, epsilon=0.5, seed=81, chain_steps=8)
    select_subset(open_source(path, "streaming"), config)  # imports stay out of the trace
    src = open_source(path, "streaming")
    tracemalloc.start()
    try:
        result = select_subset(src, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    result.passes.assert_passes(2)
    assert peak < 0.5 * n * d * 8


def test_greedy_init_nonzero_volume():
    pts = instance(10, 4, seed=29)
    ids = greedy_max_volume_init(pts, 3)
    assert len(set(ids)) == 3
    assert gram_dets(pts, np.array([ids]), 0)[0] > 0
    flat = PointSet(np.array([[1.0, 0.0], [2.0, 0.0]]))
    with pytest.raises(ValueError, match="full-rank"):
        greedy_max_volume_init(flat, 2)


def test_volume_walk_extreme_scale_no_overflow():
    # the greedy start's tolerance comes from its first residuals (the row
    # norms) and the walk's volumes from gram_dets at the data's power of
    # two, so data at 2**+-600 gives the unscaled run's ids
    x = instance(30, 6, seed=42).data
    greedy = greedy_max_volume_init(PointSet(x), 3)
    ids = volume_sample_mcmc(PointSet(x), 3, 500, derive_rng(43, "volume-walk"))
    for scale in (2.0 ** 600, 2.0 ** -600):
        with np.errstate(all="raise"):
            assert greedy_max_volume_init(PointSet(x * scale), 3) == greedy
            assert volume_sample_mcmc(PointSet(x * scale), 3, 500,
                                      derive_rng(43, "volume-walk")) == ids


def test_volume_walk_stationary_at_k_equals_n():
    pts = instance(4, 4, seed=30)
    assert volume_sample_mcmc(pts, 4, 100, derive_rng(31, "volume-walk")) == [0, 1, 2, 3]


def test_volume_walk_never_accepts_zero_volume():
    # duplicated point: the duplicate pair has volume zero and must never appear
    pts = PointSet(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    for seed in range(8):
        ids = volume_sample_mcmc(pts, 2, 60, derive_rng(seed, "volume-walk"))
        assert tuple(sorted(ids)) != (0, 1)


def test_volume_walk_matches_table_driven_walk():
    pts = instance(6, 3, seed=32)
    for seed in (0, 1, 7):
        ids = volume_sample_mcmc(pts, 2, 97, derive_rng(seed, "volume-walk"))
        diag = volume_walk_distribution(pts, 2, 97, walks=1, seed=seed)
        end = diag.subsets[int(np.argmax(diag.empirical))]
        assert tuple(sorted(ids)) == end


def test_volume_walk_distribution_converges():
    pts = instance(6, 3, seed=33)
    diag = volume_walk_distribution(pts, 2, steps=2000, walks=50_000, seed=34)
    assert diag.tv_distance <= 0.05


def test_volume_walk_exact_transition_matrix_oracle():
    # independent oracle: power the walk's transition matrix and compare the
    # exact chain law with the brute-force volume distribution
    pts = instance(6, 3, seed=35)
    subsets, _, probs = _enumerate_volumes(pts, 2)
    vols = gram_dets(pts, np.array(subsets), 0)
    count, n, k = len(subsets), 6, 2
    index = {s: i for i, s in enumerate(subsets)}
    trans = np.zeros((count, count))
    for si, sub in enumerate(subsets):
        others = [j for j in range(n) if j not in sub]
        stay = 1.0
        for ip in range(k):
            for j in others:
                cand = tuple(sorted([x for x in sub if x != sub[ip]] + [j]))
                move = 0.5 * min(1.0, vols[index[cand]] / vols[si]) / (k * (n - k)) \
                    if vols[si] > 0 else 0.0
                trans[si, index[cand]] += move
                stay -= move
        trans[si, si] += stay
    start = np.zeros(count)
    diag = volume_walk_distribution(pts, 2, steps=400, walks=20_000, seed=36)
    start[diag.start_index] = 1.0
    dist = start.copy()
    for _ in range(400):
        dist = dist @ trans
    assert 0.5 * np.abs(dist - probs).sum() <= 0.01
    assert 0.5 * np.abs(diag.empirical - dist).sum() <= 0.03


def test_adaptive_volume_init_exact_directions():
    pts = PointSet(np.array([[3.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 1.0],
                             [2.0, 0.0, 0.0]]))
    pivot = init_pivot(open_source(pts), 3, 2.0, 37, "adaptive-k-pass")
    ids = pivot.source_ids
    assert np.array_equal(pivot.vectors, orthonormal_basis(pts, ids).vectors)
    basis = orthonormal_basis(pts, ids)
    assert basis.r == 3
    assert err_p(pts, basis, 2.0) == pytest.approx(0.0, abs=1e-18)


def test_adaptive_volume_init_early_stop():
    # rank 1 < k = 2: the first pick fits every point, and the init refuses
    # rather than return a one-row pivot
    pts = PointSet(np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]))
    with pytest.raises(RankDeficientError, match="rank-deficient"):
        init_pivot(open_source(pts), 2, 2.0, 38, "adaptive-k-pass")


RANK_ONE_ROWS = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [-1.0, -2.0, 0.0],
                          [3.0, 6.0, 0.0]])


@pytest.mark.parametrize("init_mode", ["exact-volume", "adaptive-k-pass"])
def test_rank_below_k_is_one_typed_error(init_mode, rank_two_rows):
    with pytest.raises(RankDeficientError, match="rank-deficient"):
        select_subset(PointSet(RANK_ONE_ROWS), SamplingConfig(
            k=2, epsilon=0.5, seed=39, init_mode=init_mode, chain_steps=4))
    # rank 2 with k = 3: after two picks the residuals are rounding error,
    # not zero, so the adaptive init's third pick adds no dimension
    pts = PointSet(rank_two_rows)
    with pytest.raises(RankDeficientError, match="rank-deficient"):
        select_subset(pts, SamplingConfig(k=3, epsilon=0.5, seed=1, init_mode=init_mode,
                                          chain_steps=8))


def test_volume_walk_rank_below_k_is_the_typed_error(rank_two_rows):
    # the lazy walk starts from greedy_max_volume_init, which finds no
    # full-rank start below rank k
    for rows, k in ((RANK_ONE_ROWS, 2), (rank_two_rows, 3)):
        with pytest.raises(RankDeficientError, match="rank-deficient"):
            volume_sample_mcmc(PointSet(rows), k, 10, derive_rng(39, "volume-walk"))


def test_adaptive_k_pass_init_expectation_bound():
    # Monte-Carlo check of the k! (k+1) pivot guarantee at k=2
    from subsel.linalg import optimal_subspace

    pts = instance(50, 8, seed=39)
    _, opt = optimal_subspace(pts, 2)
    errs = np.empty(20_000)
    for trial in range(len(errs)):
        pivot = init_pivot(open_source(pts), 2, 2.0, trial, "adaptive-k-pass")
        errs[trial] = err_p(pts, pivot, 2.0)
    mean = float(errs.mean())
    sem = float(errs.std(ddof=1) / math.sqrt(len(errs)))
    assert mean <= math.factorial(2) * 3 * opt + 3 * sem


# ---------------------------------------------------------------------------
# proposal mixture and acceptance rule
# ---------------------------------------------------------------------------

def test_proposal_q_examples():
    assert proposal_q(0.0, 5.0, 4) == pytest.approx(1.0 / 8)
    qs = proposal_q(np.array([3.0, 1.0]), 4.0, 2)
    assert np.allclose(qs, [0.625, 0.375])
    uniform = proposal_q(np.full(7, 2.0), 14.0, 7)
    assert np.allclose(uniform, 1.0 / 7)


def test_proposal_q_sums_to_one_and_dominates_floor():
    rng = np.random.default_rng(40)
    res_p = rng.random(100) ** 2
    q = proposal_q(res_p, float(res_p.sum()), 100)
    assert float(np.sum(q)) == pytest.approx(1.0, abs=1e-9)
    assert np.all(q >= 1.0 / 200 - 1e-15)


def test_proposal_q_zero_err_raises():
    with pytest.raises(ValueError, match="short-circuit"):
        proposal_q(0.0, 0.0, 3)


def test_mh_accept_rules():
    assert mh_accept(2.0, 1.0, 0.999)   # ratio >= 1
    assert mh_accept(1.0, 1.0, 0.999)
    assert not mh_accept(0.0, 1.0, 1e-12)  # zero-mass proposal
    assert mh_accept(0.5, 0.0, 0.999)   # off a zero-mass state
    assert not mh_accept(0.0, 0.0, 0.5)


def test_mh_accept_frequency_matches_ratio():
    rng = np.random.default_rng(41)
    ratio = 0.3
    hits = sum(mh_accept(ratio, 1.0, float(u)) for u in rng.random(100_000))
    assert abs(hits / 100_000 - ratio) <= 3 * math.sqrt(ratio * (1 - ratio) / 100_000)


# ratios from 0 through subnormals to about 1e300, with the edges drawn often
ratios = st.one_of(st.sampled_from([0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1.0,
                                    1e300]),
                   st.floats(0.0, 1e300))
uniforms = st.floats(0.0, 1.0, exclude_max=True)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(r_y=ratios, r_x=ratios, r_max=ratios, u=uniforms)
def test_mh_accept_from_the_top_ratio_accepts_from_every_state(r_y, r_x, r_max, u):
    # acceptance is monotone in the current ratio: accepting from the
    # largest ratio means accepting from any state of smaller ratio, so
    # chains that take such a step meet there
    r_x, r_max = sorted((r_x, r_max))
    if mh_accept(r_y, r_max, u):
        assert mh_accept(r_y, r_x, u)


# ---------------------------------------------------------------------------
# mcmc_select
# ---------------------------------------------------------------------------

def test_mcmc_select_size_and_pass_contract():
    pts = instance(60, 5, seed=42)
    params = derive_params(2, 0.5, points_per_round=6, rounds=2, chain_steps=16)
    src = open_source(pts)
    result = mcmc_select(src, orthonormal_basis(pts, [0, 1]), params, seed=43)
    assert result.size == 2 + 6 * 2
    assert all(len(b) == 6 for b in result.blocks)
    result.passes.assert_passes(1)
    assert result.passes.reporting_passes == 0


def test_mcmc_select_monotone_error_and_floor():
    pts = instance(60, 5, seed=44)
    params = derive_params(2, 0.5, points_per_round=5, rounds=3, chain_steps=12)
    result = mcmc_select(pts, orthonormal_basis(pts, [3, 9]), params, seed=45)
    errs = [err_p(pts, orthonormal_basis(pts, [3, 9]), 2.0)]
    ids = [3, 9]
    for block in result.blocks:
        ids.extend(block)
        errs.append(err_p(pts, orthonormal_basis(pts, ids), 2.0))
    assert all(errs[i + 1] <= errs[i] + 1e-9 for i in range(len(errs) - 1))
    assert err_p(pts, result.basis, 2.0) == pytest.approx(errs[-1], rel=1e-9, abs=1e-12)
    floor = 1.0 / (2 * pts.n)
    assert all(s.proposal_prob >= floor - 1e-15 for s in result.final_states)


def test_mcmc_select_exact_fit_uniform_floor():
    pts = PointSet(np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [4.0, 0.0]]))
    params = derive_params(1, 0.5, points_per_round=3, rounds=2, chain_steps=8)
    result = mcmc_select(pts, orthonormal_basis(pts, [0]), params, seed=46)
    assert err_p(pts, result.basis, 2.0) == pytest.approx(0.0, abs=1e-18)
    assert err_p(pts, orthonormal_basis(pts, [0]), 2.0) == pytest.approx(0.0, abs=1e-18)
    assert result.size == 1 + 3 * 2
    assert any("uniform floor" in w for w in result.warnings)
    assert all(s.accepted == 0 for s in result.final_states)
    # uniform floor: block points spread over the whole set, seed-dependent
    seen = {i for b in result.blocks for i in b}
    assert seen <= {0, 1, 2, 3}


def test_mcmc_select_deterministic_and_mode_identical(tmp_path):
    pts = instance(300, 6, seed=47)
    path = tmp_path / "data.csv"
    write_csv(path, pts.data)
    params = derive_params(3, 0.5, points_per_round=8, rounds=2, chain_steps=24)
    pivot = orthonormal_basis(pts, [1, 5, 9])
    results = []
    for mode in ("memory", "streaming", "memory"):
        src = open_source(path, mode=mode)
        results.append(mcmc_select(src, pivot, params, seed=48))
    a, b, c = results
    assert a.selected_ids == b.selected_ids == c.selected_ids
    assert np.array_equal(a.basis.vectors, b.basis.vectors)
    assert np.array_equal(a.basis.vectors, c.basis.vectors)
    assert [s.accepted for s in a.final_states] == [s.accepted for s in b.final_states]
    other = mcmc_select(open_source(path), pivot, params, seed=49)
    assert other.selected_ids != a.selected_ids


def test_mcmc_select_mode_identical_across_chunks(tmp_path):
    pts = instance(2 * CHUNK_ROWS + 3, 6, seed=52)
    path = tmp_path / "data.csv"
    write_csv(path, pts.data)
    params = derive_params(3, 0.5, points_per_round=8, rounds=2, chain_steps=200)
    pivot = orthonormal_basis(pts, [1, CHUNK_ROWS + 5, 2 * CHUNK_ROWS + 2])
    mem, strm = (mcmc_select(open_source(path, mode=mode), pivot, params, seed=53)
                 for mode in ("memory", "streaming"))
    assert mem.selected_ids == strm.selected_ids
    assert np.array_equal(mem.basis.vectors, strm.basis.vectors)
    assert [s.accepted for s in mem.final_states] == \
        [s.accepted for s in strm.final_states]
    assert [s.proposal_prob for s in mem.final_states] == \
        [s.proposal_prob for s in strm.final_states]


def _record_deals(monkeypatch):
    """Wrap samplers._deal; returns the list its deals are appended to."""
    deals = []
    real_deal = samplers._deal

    def deal(rng, stock, count):
        ids = real_deal(rng, stock, count)
        deals.append(ids.copy())
        return ids

    monkeypatch.setattr(samplers, "_deal", deal)
    return deals


def _dealt_proposals(monkeypatch, pts, params, seed):
    """q of every proposal mcmc_select deals, shaped (l, t, m). Wrapping
    _deal records each round's deals, which run in step order (the t chain
    starts, then step after step of every chain); wrapping proposal_q
    records the q of each pool entry."""
    deals, q_pool = _record_deals(monkeypatch), []
    real_q = samplers.proposal_q

    def record_q(*args):
        q_pool.append(real_q(*args))
        return q_pool[-1]

    monkeypatch.setattr(samplers, "proposal_q", record_q)
    result = mcmc_select(pts, orthonormal_basis(pts, [0]), params, seed=seed)
    assert not result.warnings    # so no floor-fill deal
    t, l, m = params.points_per_round, params.rounds, params.chain_steps
    dealt = np.concatenate(deals)
    assert len(dealt) == l * m * t and len(q_pool) == 1
    return q_pool[0][dealt.reshape(l, m, t).transpose(0, 2, 1)]


def _sequential_chains(x, steps, u, r):
    """Reference for the chain rounds: chains at pool entries x take the
    proposals steps[j] with uniforms u[j], one chain and one step at a time,
    accepting iff r_y > u r_x."""
    x = [int(i) for i in x]
    accepted = [0] * len(x)
    for y_j, u_j in zip(steps, u):
        for c, (y, v) in enumerate(zip(y_j, u_j)):
            if float(r[y]) > float(v) * float(r[x[c]]):
                x[c] = int(y)
                accepted[c] += 1
    return x, accepted


@pytest.mark.parametrize("m, steps_per_block", [
    (40, 50),    # m - 1 below one block
    (129, 32),   # m - 1 = four whole blocks
    (203, 64),   # three blocks and a 10-step last one
])
def test_mcmc_select_chains_replay_sequentially(monkeypatch, m, steps_per_block):
    # every round's endpoints and acceptances equal a one-step-at-a-time
    # replay of its dealt proposals with derive_rng(seed, "chain", round)
    # drawn in one call: PCG64 doubles do not depend on how draws are split
    t, l, seed = 3, 2, 95
    monkeypatch.setattr(samplers, "BLOCK_PROPOSALS", steps_per_block * t)
    deals, rounds = _record_deals(monkeypatch), []
    real_round = samplers._chain_round

    def chain_round(rng, stock, r, t, m, seed, rnd):
        deals.clear()
        x, accepted = real_round(rng, stock, r, t, m, seed, rnd)
        assert [len(ids) for ids in deals] == [t] + [
            min(steps_per_block, m - 1 - lo) * t for lo in range(0, m - 1, steps_per_block)]
        rounds.append((np.concatenate(deals).reshape(m, t), r.copy(), x))
        return x, accepted

    monkeypatch.setattr(samplers, "_chain_round", chain_round)
    pts = instance(300, 6, seed=94)
    params = derive_params(2, 0.5, points_per_round=t, rounds=l, chain_steps=m)
    result = mcmc_select(pts, orthonormal_basis(pts, [0, 1]), params, seed=seed)
    assert not result.warnings and len(rounds) == l
    for rnd, (dealt, r, x) in enumerate(rounds):
        u = derive_rng(seed, "chain", rnd).random((m - 1, t))
        want_x, want_acc = _sequential_chains(dealt[0], dealt[1:], u, r)
        states = result.final_states[rnd * t:(rnd + 1) * t]
        assert x.tolist() == want_x
        assert [s.accepted for s in states] == want_acc
        assert [s.target_weight / s.proposal_prob for s in states] == \
            [float(r[i]) for i in want_x]
        assert all(s.steps_taken == m - 1 for s in states)


def _pairs_chi2(a, b):
    """Chi-square of the joint law of paired labels against the product of
    its marginals, with its degrees of freedom."""
    groups = int(max(a.max(), b.max())) + 1
    joint = np.zeros((groups, groups))
    np.add.at(joint, (a.ravel(), b.ravel()), 1.0)
    expected = np.outer(joint.sum(axis=1), joint.sum(axis=0)) / a.size
    keep = expected > 0
    chi2 = float(((joint[keep] - expected[keep]) ** 2 / expected[keep]).sum())
    return chi2, (groups - 1) ** 2


def test_mcmc_select_dealt_proposals_follow_q_independently(monkeypatch):
    # four chunks: random rows, a chunk inside the pivot span (zero residual,
    # reachable only through the uniform bank), random rows again and a
    # 7-row last chunk carrying about half of the residual weight. Every
    # proposal dealt, across chains and rounds, must be an independent draw
    # from q. A proposal is identified by its q; the zero-residual rows share
    # one q and form one class.
    n, d = 3 * CHUNK_ROWS + 7, 40
    rng = np.random.default_rng(90)
    data = rng.standard_normal((n, d))
    data[0] = 0.0
    data[0, 0] = 2.0
    data[CHUNK_ROWS:2 * CHUNK_ROWS, 1:] = 0.0
    data[3 * CHUNK_ROWS:] *= 20.0
    pts = PointSet(data)
    t, l, m = 8, 3, 2000
    params = derive_params(1, 0.5, points_per_round=t, rounds=l, chain_steps=m)
    qs = _dealt_proposals(monkeypatch, pts, params, seed=91)

    w = residual_distances(data, orthonormal_basis(pts, [0])) ** 2
    q_rows = proposal_q(w, w.sum(), n)
    values, first, cls = np.unique(q_rows, return_index=True, return_inverse=True)
    pos = np.clip(np.searchsorted(values, qs), 1, len(values) - 1)
    pos -= np.abs(values[pos - 1] - qs) < np.abs(values[pos] - qs)
    assert np.allclose(values[pos], qs, rtol=1e-9, atol=0.0)
    assert len(values) == n - CHUNK_ROWS    # the zero class plus one per row

    slots = t * l * m
    counts = np.bincount(pos.ravel(), minlength=len(values))
    expected = slots * np.bincount(cls, weights=q_rows)
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    dof = len(values) - 1
    assert chi2 <= dof + 5 * math.sqrt(2 * dof)
    last = np.searchsorted(values, q_rows[3 * CHUNK_ROWS:])   # one class per row
    sigma = np.sqrt(expected * (1 - expected / slots))
    assert np.all(np.abs(counts[last] - expected[last]) <= 4 * sigma[last])

    # quarter-chunk group of each proposal's class (the zero class is row 0's)
    group = np.unique(first[pos] // (CHUNK_ROWS // 4), return_inverse=True)[1]
    group = group.reshape(qs.shape)
    for a, b in ((group[:, :, 0::2], group[:, :, 1::2]),    # steps of a chain
                 (group[:, 0::2, :], group[:, 1::2, :]),    # chains of a round
                 (group[0], group[1])):                     # rounds
        chi2, dof = _pairs_chi2(a, b)
        assert chi2 <= dof + 5 * math.sqrt(2 * dof)


def test_mcmc_select_peak_memory_is_one_round():
    # proposals are dealt round by round from per-row counts: with l = 8
    # rounds the traced peak stays below a single int64 array of t*l*m slots
    pts = instance(200, 150, seed=92)
    t, l, m = 16, 8, 5000
    params = derive_params(2, 0.5, points_per_round=t, rounds=l, chain_steps=m)
    tracemalloc.start()
    try:
        result = mcmc_select(pts, orthonormal_basis(pts, [0, 1]), params, seed=93)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.size == 2 + t * l and not result.warnings
    assert peak < t * l * m * 8


def test_mcmc_select_peak_memory_is_one_block():
    # a round deals its 3.2M proposals block by block: the traced peak stays
    # below a single int64 array of one round's t*m pool indices
    pts = instance(200, 20, seed=96)
    t, l, m = 16, 1, 200000
    params = derive_params(2, 0.5, points_per_round=t, rounds=l, chain_steps=m)
    tracemalloc.start()
    try:
        result = mcmc_select(pts, orthonormal_basis(pts, [0, 1]), params, seed=97)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.size == 2 + t and not result.warnings
    assert peak < t * m * 8


def test_mcmc_select_single_point_distribution():
    # t chains in one round are i.i.d., so the histogram of one run with huge
    # t equals the law of the single selected point over that many runs
    pts = instance(8, 3, seed=50, scale=[2.0, 1.0, 0.5])
    t = 30_000
    params = derive_params(1, 0.5, points_per_round=t, rounds=1, chain_steps=32)
    basis = orthonormal_basis(pts, [0])
    result = mcmc_select(pts, basis, params, seed=51)
    w = residual_distances(pts.data, basis) ** 2
    target = w / w.sum()
    assert empirical_tv(list(result.blocks[0]), target, 8) <= 0.05


def test_mcmc_select_literal_repeated_runs():
    # small literal version of the same check: fresh run per sample
    pts = instance(8, 3, seed=50, scale=[2.0, 1.0, 0.5])
    params = derive_params(1, 0.5, points_per_round=1, rounds=1, chain_steps=32)
    basis = orthonormal_basis(pts, [0])
    picks = [mcmc_select(pts, basis, params, seed=s).blocks[0][0] for s in range(3000)]
    w = residual_distances(pts.data, basis) ** 2
    assert empirical_tv(picks, w / w.sum(), 8) <= 0.06


def test_mcmc_select_tracks_adaptive_expectation():
    # the central claim at non-saturating scale: replacing l adaptive rounds
    # with pivot-anchored chains moves the expected error by at most
    # (eps_err + eps_tv * t * l) * err(pivot)
    pts, _ = _planted(n=32, d=12, rank=3, noise=0.15, seed=80)
    pivot = orthonormal_basis(pts, [0, 1])
    err_pivot = err_p(pts, pivot, 2.0)
    params = derive_params(2, 0.5, points_per_round=3, rounds=2, chain_steps=48)
    trials = 1500
    mcmc_errs = np.empty(trials)
    adapt_errs = np.empty(trials)
    for trial in range(trials):
        res = mcmc_select(pts, pivot, params, seed=trial)
        mcmc_errs[trial] = err_p(pts, res.basis, 2.0)
        base = adaptive_sample(pts, pivot, 3, 2, seed=trial + 10 ** 6)
        adapt_errs[trial] = err_p(pts, base.basis, 2.0)
    # 10 points in 12 dimensions: errors are informative, not saturated
    assert np.median(mcmc_errs) > 1e-6
    slack = (params.eps_err + params.eps_tv * 3 * 2) * err_pivot
    diff = float(mcmc_errs.mean() - adapt_errs.mean())
    sigma = math.sqrt(mcmc_errs.var(ddof=1) / trials + adapt_errs.var(ddof=1) / trials)
    assert diff <= slack + 3 * sigma


def test_pipeline_ratio_meaningful_without_saturation():
    # small t and l leave the span well below d: the ratio is earned here
    from subsel.linalg import best_rank_k_in_span, optimal_subspace

    pts, _ = _planted(n=800, d=50, rank=5, noise=0.1, seed=81)
    _, opt = optimal_subspace(pts, 5)
    ratios = []
    for seed in range(10):
        cfg = SamplingConfig(k=5, epsilon=0.5, seed=seed,
                             points_per_round=6, rounds=2, chain_steps=48)
        result = select_subset(pts, cfg)
        assert result.size == 5 + 12
        assert result.basis.r < 50
        _, err_k = best_rank_k_in_span(pts, result.basis, 5)
        ratios.append(err_k / opt)
    assert all(r >= 1.0 - 1e-9 for r in ratios)
    assert float(np.median(ratios)) <= 1.5


# ---------------------------------------------------------------------------
# tv_distance_diag
# ---------------------------------------------------------------------------

def test_tv_diag_m1_measures_q_vs_target():
    pts = instance(8, 3, seed=52)
    diag = tv_distance_diag(pts, [0], [0], 1, trials=100_000, seed=53)
    basis = orthonormal_basis(pts, [0])
    w = residual_distances(pts.data, basis) ** 2
    target = w / w.sum()
    q = 0.5 * target + 0.5 / 8
    expected = 0.5 * float(np.abs(q - target).sum())
    assert diag.tv_distance == pytest.approx(expected, abs=0.01)


def test_tv_diag_gamma_bound_when_current_is_pivot():
    pts = instance(16, 4, seed=54)
    diag = tv_distance_diag(pts, [0, 1], [0, 1], 8, trials=20_000, seed=55)
    assert diag.gamma <= 2.0 + 1e-9


def test_tv_diag_gamma_tracks_error_ratio():
    pts = instance(16, 4, seed=56)
    p0 = orthonormal_basis(pts, [0])
    p1 = orthonormal_basis(pts, [0, 1])
    r = err_p(pts, p1, 2.0) / err_p(pts, p0, 2.0)
    diag = tv_distance_diag(pts, [0], [0, 1], 4, trials=5_000, seed=57)
    assert diag.gamma <= 2.0 / r + 1e-9


def test_tv_diag_decay_matches_transition_matrix_oracle():
    pts = instance(12, 3, seed=58)
    basis = orthonormal_basis(pts, [0])
    w = residual_distances(pts.data, basis) ** 2
    target = w / w.sum()
    q = 0.5 * target + 0.5 / 12
    for m in (1, 3, 8, 24):
        exact = exact_chain_distribution(q, target, m)
        exact_tv = 0.5 * float(np.abs(exact - target).sum())
        gamma = float(np.max(target / q))
        assert exact_tv <= (1 - 1 / gamma) ** (m - 1) + 1e-12
        diag = tv_distance_diag(pts, [0], [0], m, trials=60_000, seed=59 + m)
        assert diag.tv_distance == pytest.approx(exact_tv, abs=0.02)


def test_tv_diag_guards():
    pts = PointSet(np.array([[1.0, 0.0], [2.0, 0.0]]))
    with pytest.raises(ExactFitReached):
        tv_distance_diag(pts, [0], [0], 4, trials=10, seed=60)
    big = PointSet(np.ones((4097, 1)))
    with pytest.raises(ValueError, match="too large"):
        tv_distance_diag(big, [0], [0], 2, trials=10, seed=61)


def test_tv_diag_refuses_a_span_that_fits_up_to_rounding():
    # three rows span R^3: every residual is rounding error, not zero, and
    # a TV measured against it would be noise
    pts = instance(8, 3, seed=62)
    assert residual_distances(pts.data, orthonormal_basis(pts, [0, 1, 2])).max() > 0.0
    with pytest.raises(ExactFitReached, match="pivot span fits every point up to rounding"):
        tv_distance_diag(pts, [0, 1, 2], [0, 1, 2], 4, trials=10, seed=63)
    with pytest.raises(ExactFitReached, match="current span fits every point up to rounding"):
        tv_distance_diag(pts, [0], [0, 1, 2], 4, trials=10, seed=63)


def test_tv_diag_repeats_under_power_of_two_scaling():
    # residuals are weighed at the row norms' power of two: at 2**-600 their
    # squares would underflow to zero
    pts = instance(8, 3, seed=64)
    want = tv_distance_diag(pts, [0], [0, 1], 4, trials=2_000, seed=65)
    for scale in (2.0 ** 600, 2.0 ** -600):
        with np.errstate(all="raise"):
            got = tv_distance_diag(PointSet(pts.data * scale), [0], [0, 1], 4,
                                   trials=2_000, seed=65)
        assert (got.tv_distance, got.gamma) == (want.tv_distance, want.gamma)
        assert np.array_equal(got.exact, want.exact)


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------

def test_pipeline_two_passes_exact_volume():
    pts, _ = _planted(n=200, d=8, rank=3, noise=0.1, seed=62)
    cfg = SamplingConfig(k=3, epsilon=0.5, seed=63, chain_steps=32)
    result = select_subset(pts, cfg)
    result.passes.assert_passes(2)
    assert result.size == 3 + result.params.total_points
    pivot_error = err_p(pts, orthonormal_basis(pts, result.initial_ids), 2.0)
    assert err_p(pts, result.basis, 2.0) <= pivot_error + 1e-9


def test_pipeline_lp_mode_k_plus_one_passes():
    pts, _ = _planted(n=100, d=6, rank=3, noise=0.1, seed=66)
    cfg = SamplingConfig(k=3, epsilon=0.5, p=3.0, seed=67,
                         init_mode="adaptive-k-pass",
                         points_per_round=4, rounds=2, chain_steps=8)
    result = select_subset(pts, cfg)
    result.passes.assert_passes(4)
    assert result.p == 3.0


def test_pipeline_deterministic_across_modes(tmp_path):
    pts, _ = _planted(n=150, d=6, rank=2, noise=0.05, seed=68)
    path = tmp_path / "pipe.csv"
    write_csv(path, pts.data)
    cfg = SamplingConfig(k=2, epsilon=0.5, seed=69, chain_steps=16)
    res_mem = select_subset(open_source(path, "memory"), cfg)
    res_str = select_subset(open_source(path, "streaming"), cfg)
    assert res_mem.selected_ids == res_str.selected_ids
    assert np.array_equal(res_mem.basis.vectors, res_str.basis.vectors)


def test_pipeline_streaming_adaptive_init(tmp_path):
    # the k-pass init must run off reservoir draws alone in streaming mode
    pts, _ = _planted(n=90, d=6, rank=3, noise=0.1, seed=71)
    path = tmp_path / "lp.csv"
    write_csv(path, pts.data)
    cfg = SamplingConfig(k=3, epsilon=0.5, p=3.0, seed=72,
                         init_mode="adaptive-k-pass",
                         points_per_round=4, rounds=2, chain_steps=8)
    res_str = select_subset(open_source(path, "streaming"), cfg)
    res_mem = select_subset(open_source(path, "memory"), cfg)
    res_str.passes.assert_passes(4)
    assert res_str.selected_ids == res_mem.selected_ids
    assert np.array_equal(res_str.basis.vectors, res_mem.basis.vectors)


@settings(derandomize=True, max_examples=16, deadline=None)
@given(n=st.sampled_from([CHUNK_ROWS - 1, CHUNK_ROWS + 1]),
       fmt=st.sampled_from(["csv", "bin"]),
       zero_rows=st.integers(0, CHUNK_ROWS // 2),
       dup_rows=st.integers(0, 64),
       seed=st.integers(0, 2 ** 32 - 1))
def test_selection_mode_identity_property(tmp_path_factory, n, fmt, zero_rows,
                                          dup_rows, seed):
    # select_subset and robust_select give byte-identical ids and bases from
    # a file opened in memory and in streaming mode, across a chunk boundary
    pts, _ = _planted(n=n, d=5, rank=2, noise=0.1, seed=seed % 997, outlier_frac=0.05)
    rng = np.random.default_rng(seed)
    data = pts.data.copy()
    data[rng.choice(n, dup_rows)] = data[rng.choice(n, dup_rows)]
    data[rng.choice(n, zero_rows, replace=False)] = 0.0
    path = tmp_path_factory.mktemp("modes") / f"sel.{fmt}"
    (write_csv if fmt == "csv" else write_binary)(path, data)
    knobs = dict(points_per_round=4, rounds=2, chain_steps=16)
    runs = []
    for mode in ("memory", "streaming"):
        plain = select_subset(open_source(path, mode),
                              SamplingConfig(k=2, epsilon=0.5, seed=seed, **knobs))
        robust, inliers = robust_select(open_source(path, mode), 2, 0.5, 0.05, 1.0,
                                        seed, **knobs)
        runs.append([(r.selected_ids, r.basis.source_ids, r.basis.vectors.tobytes())
                     for r in (plain, robust)] + [inliers.ids.tolist()])
    assert runs[0] == runs[1]


def test_adaptive_sample_continues_a_streamed_selection(tmp_path):
    # a selection hands its span forward as its basis: adaptive rounds grown
    # from it read the rows they draw in the pass that draws them, so a
    # streamed source needs nothing resident and matches memory mode
    pts, _ = _planted(n=CHUNK_ROWS + 200, d=30, rank=3, noise=0.1, seed=86)
    path = tmp_path / "continue.bin"
    write_binary(path, pts.data)
    cfg = SamplingConfig(k=3, epsilon=0.5, seed=87, points_per_round=4, rounds=2,
                         chain_steps=16)
    runs = []
    for mode in ("memory", "streaming"):
        src = open_source(path, mode)
        first = select_subset(src, cfg)
        more = adaptive_sample(src, first.basis, 5, 2, seed=88)
        assert more.initial_ids == first.selected_ids
        assert more.size == first.size + 5 * 2 and not more.warnings
        more.passes.assert_passes(2)  # the result logs its own passes
        src.pass_log.assert_passes(2 + 2)
        runs.append((more.selected_ids, more.basis.source_ids,
                     more.basis.vectors.tobytes()))
    assert runs[0] == runs[1]


def test_selections_make_no_reporting_pass(tmp_path):
    # a selection returns its basis and leaves grading to the caller; only
    # robust_select's trimmed evaluation scans the data after selecting
    pts, _ = _planted(n=120, d=6, rank=2, noise=0.1, seed=90)
    path = tmp_path / "report.csv"
    write_csv(path, pts.data)
    cfg = SamplingConfig(k=2, epsilon=0.5, seed=91, chain_steps=8)
    params = derive_params(2, 0.5, points_per_round=3, rounds=2, chain_steps=8)
    results = [select_subset(open_source(path, mode), cfg)
               for mode in ("memory", "streaming")]
    results.append(mcmc_select(pts, orthonormal_basis(pts, [0, 1]), params, seed=92))
    results.append(adaptive_sample(pts, orthonormal_basis(pts, [0, 1]), 3, 2, seed=93))
    for result in results:
        assert result.passes.reporting_passes == 0
    robust, _ = robust_select(open_source(path, "streaming"), 2, 0.5, 0.1, 0.9,
                              seed=94, chain_steps=8)
    robust.passes.assert_passes(2)
    assert [e.label for e in robust.passes.entries if e.reporting] == \
        ["report:outlier-evaluation"]


def test_each_result_holds_its_own_passes():
    # selections on one source: each result logs the passes its call made,
    # the source logs them all
    pts, _ = _planted(n=120, d=6, rank=2, noise=0.1, seed=95, outlier_frac=0.05)
    src = open_source(pts)
    cfg = SamplingConfig(k=2, epsilon=0.5, seed=96, chain_steps=8)
    first, second = select_subset(src, cfg), select_subset(src, cfg)
    robust, _ = robust_select(src, 2, 0.5, 0.05, 1.0, seed=97, chain_steps=8)
    more = adaptive_sample(src, second.basis, 3, 2, seed=98)
    for result in (first, second, robust, more):
        result.passes.assert_passes(2)
    assert [e.label for e in first.passes.entries] == ["init:exact-volume", "mcmc:select"]
    assert robust.passes.entries[-1].label == "report:outlier-evaluation"
    src.pass_log.assert_passes(8)
    assert src.pass_log.reporting_passes == 1


def test_mcmc_select_refuses_oversized_slot_budget(monkeypatch):
    # a fixed 8 GiB machine, so the outcome does not depend on the host
    monkeypatch.setattr(samplers, "physical_memory_bytes", lambda: 8 * 2 ** 30)
    pts = instance(20, 6, seed=75)
    theory_m = derive_params(3, 0.5, p=3.0).chain_steps  # ~1.5e7
    with pytest.raises(ValueError, match="reaches the limit of 1e9; .* chain_steps override"):
        params = derive_params(3, 0.5, p=3.0, chain_steps=theory_m)
        assert params.total_points * params.chain_steps > 10 ** 8
        mcmc_select(pts, orthonormal_basis(pts, [0, 1, 2]), params, p=3.0, seed=76)


def test_mcmc_select_slot_budget_checks_physical_memory(monkeypatch):
    # one round of 4 x 20000 proposals needs more than the 1 MiB the probe
    # reports: refused before any pass, without allocating the proposals
    pts = instance(20, 6, seed=77)
    params = derive_params(2, 0.5, points_per_round=4, rounds=2, chain_steps=20000)
    monkeypatch.setattr(samplers, "physical_memory_bytes", lambda: 2 ** 20)
    src, pivot = open_source(pts), orthonormal_basis(pts, [0, 1])
    with pytest.raises(SlotBudgetError, match="over the limit of .* physical memory; "
                                              ".* chain_steps override"):
        mcmc_select(src, pivot, params, seed=78)
    assert src.pass_log.entries == []
    # a whole selection checks before its init passes, the adaptive init's k
    # passes included
    selected = open_source(instance(50, 6, seed=79))
    config = SamplingConfig(k=3, epsilon=0.5, init_mode="adaptive-k-pass",
                            points_per_round=4, rounds=2, chain_steps=20000)
    with pytest.raises(SlotBudgetError, match="over the limit of .* physical memory"):
        select_subset(selected, config)
    assert selected.pass_log.entries == []
    # so is the exact-volume pivot's store of min(n, s) rows, 2.5 MB here
    selected = open_source(instance(5000, 60, seed=80))
    with pytest.raises(SlotBudgetError, match="exact-volume pivot's .* the adaptive-k-pass "
                                              "init stores none"):
        select_subset(selected, SamplingConfig(k=3, epsilon=0.5, chain_steps=1))
    assert selected.pass_log.entries == []
    monkeypatch.setattr(samplers, "physical_memory_bytes", lambda: 2 ** 30)
    assert mcmc_select(src, pivot, params, seed=78).size == 2 + 4 * 2


def test_select_subset_tiny_scale():
    # 1e-160 data has subnormal squared norms; the grown basis must still
    # pass the orthonormality check
    x = instance(60, 8, seed=71).data
    res = select_subset(PointSet(x * 1e-160),
                        SamplingConfig(k=3, epsilon=0.5, seed=72, chain_steps=8))
    assert res.size == 3 + res.params.total_points
    assert res.basis.r == min(8, len(set(res.selected_ids)))


def test_pipeline_validates_k_vs_d():
    pts = instance(10, 3, seed=70)
    with pytest.raises(ValueError, match="exceeds"):
        select_subset(pts, SamplingConfig(k=4, epsilon=0.5))


def test_sampling_config_validation():
    with pytest.raises(ValueError):
        SamplingConfig(k=0, epsilon=0.5)
    with pytest.raises(ValueError):
        SamplingConfig(k=2, epsilon=0.0)
    with pytest.raises(ValueError):
        SamplingConfig(k=2, epsilon=0.5, p=1.5)
    for init_mode in ("nope", "mcmc-volume"):
        with pytest.raises(ValueError, match=f"unknown init_mode '{init_mode}'"):
            SamplingConfig(k=2, epsilon=0.5, init_mode=init_mode)
    with pytest.raises(ValueError):
        SamplingConfig(k=2, epsilon=0.5, rounds=0)


# ---------------------------------------------------------------------------
# certified per-round chain lengths (derived m)
# ---------------------------------------------------------------------------

def test_certified_chain_steps_examples():
    params = derive_params(5, 0.5)  # theory m = 140218, e2 = 6.5e-5
    m = params.chain_steps
    # rho = 1, the pivot round: ceil(1 + 2 ln(1/e2))
    assert certified_chain_steps(1.0, params.eps_tv, m) == 21
    assert certified_chain_steps(0.25, params.eps_tv, m) == \
        math.ceil(1 + 8 * math.log(1 / params.eps_tv))
    # at rho = e1 the bound is the first of derive_params' two forms
    assert certified_chain_steps(params.eps_err, params.eps_tv, m) <= m
    assert certified_chain_steps(0.0, params.eps_tv, m) == m
    assert certified_chain_steps(1e-300, params.eps_tv, m) == m


def test_error_ratio_bound_is_empirical_bernstein():
    ratios, counts = np.array([0.0, 0.5, 1.0]), np.array([10, 20, 10])
    mean, bound = error_ratio_bound(ratios, counts, 0.01)
    assert mean == pytest.approx(0.5)
    var = (10 * 0.25 + 10 * 0.25) / 39
    log_term = math.log(2 / 0.01)
    assert bound == pytest.approx(max(0.0, 0.5 - math.sqrt(2 * var * log_term / 40)
                                      - 7 * log_term / (3 * 39)))
    # a near-zero mean over many draws keeps a positive bound, where
    # Hoeffding's sqrt(ln(1/delta) / 2N) would exceed the mean
    n = 24_000_000
    mean, bound = error_ratio_bound(np.array([0.0, 1e-3]), np.array([n - n // 10, n // 10]),
                                    6.5e-5)
    assert mean == pytest.approx(1e-4)
    assert 0.9e-4 < bound < mean
    assert math.sqrt(math.log(1 / 6.5e-5) / (2 * n)) > 4e-4
    assert error_ratio_bound(np.array([0.5]), np.array([1]), 0.01)[1] == 0.0


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_tv_at_certified_chain_steps(p):
    # chains of the certified length reach the one-point adaptive law as
    # closely as an exact i.i.d. sample of the same size does, up to a margin
    # of 0.005 (about five standard deviations of the sample's own TV). The
    # exact error ratio stands in for mcmc_select's lower bound on it, which
    # would only lengthen the chains. Four steps fail the same check.
    pts = PointSet(np.random.default_rng(3).standard_normal((40, 4)) * [2.0, 1.5, 1.0, 0.8])
    pivot, current = [0], [0, 1, 2]
    rho = (err_p(pts, orthonormal_basis(pts, current), p)
           / err_p(pts, orthonormal_basis(pts, pivot), p))
    params = derive_params(1, 0.5, p=p)
    m_r = certified_chain_steps(rho, params.eps_tv, params.chain_steps)
    assert 20 < m_r < params.chain_steps // 10
    trials, margin = 100_000, 0.005

    def tv(m):
        return tv_distance_diag(pts, pivot, current, m, p=p, trials=trials, seed=5)

    diag = tv(m_r)
    assert diag.gamma <= 2.0 / rho
    iid = np.random.default_rng(6).choice(len(diag.exact), size=trials, p=diag.exact)
    floor = empirical_tv(iid, diag.exact, len(diag.exact))
    assert diag.tv_distance <= floor + margin
    assert tv(4).tv_distance > floor + margin


def test_derived_m_select_runs_certified_rounds():
    # the theory-m instance: 2000 x 200 at the derived m = 140218. Each round
    # runs its certified length, the whole selection under 1e5 chain steps
    # (22.4M at the closed-form m), and the error ratio estimate of round 1
    # brackets the exact ratio of the span it ran against
    pts, _ = _planted(n=2000, d=200, rank=5, noise=1.0, seed=41)
    result = select_subset(pts, SamplingConfig(k=5, epsilon=0.5, seed=42))
    params = result.params
    assert not params.explicit_m and params.chain_steps == 140_218
    assert result.size == 5 + params.total_points and not result.warnings
    stats = result.round_stats
    assert len(stats) == params.rounds == 2
    assert stats[0] == RoundStats(21, 1.0, 1.0)
    assert all(s.chain_steps <= params.chain_steps for s in stats)
    assert sum(s.steps_taken for s in result.final_states) < 10 ** 5
    for rnd, stat in enumerate(stats):
        chains = result.final_states[rnd * 80:(rnd + 1) * 80]
        assert all(s.steps_taken == stat.chain_steps - 1 for s in chains)
    span_0 = orthonormal_basis(pts, result.initial_ids + result.blocks[0])
    exact = (err_p(pts, span_0, 2.0)
             / err_p(pts, orthonormal_basis(pts, result.initial_ids), 2.0))
    assert stats[1].rho_bound <= exact
    assert stats[1].rho == pytest.approx(exact, rel=0.01)
    assert stats[1].chain_steps == certified_chain_steps(
        stats[1].rho_bound, params.eps_tv, params.chain_steps)


def test_select_subset_p3_derived_params(tmp_path):
    # p = 3 with the adaptive init on derived parameters: t*l*m = 2.2e9 is
    # over the 1e9 draws a bank can hold, and certified rounds need far
    # fewer. k + 1 passes, byte-identical from memory and streaming opens
    pts, _ = _planted(n=2000, d=200, rank=5, noise=0.5, seed=43)
    path = tmp_path / "p3.bin"
    write_binary(path, pts.data)
    cfg = SamplingConfig(k=3, epsilon=0.5, p=3.0, seed=44, init_mode="adaptive-k-pass")
    runs = []
    for mode in ("memory", "streaming"):
        result = select_subset(open_source(path, mode), cfg)
        result.passes.assert_passes(3 + 1)
        params = result.params
        assert params.total_points * params.chain_steps > 10 ** 9
        assert result.size == 3 + params.total_points and not result.warnings
        assert [s.chain_steps <= params.chain_steps for s in result.round_stats] == \
            [True] * params.rounds
        runs.append((result.selected_ids, result.basis.vectors.tobytes(),
                     result.round_stats))
    assert runs[0] == runs[1]


def _record_chain_rounds(monkeypatch):
    """Wrap samplers._chain_round; returns the list of rounds it ran."""
    dealt = []
    real_round = samplers._chain_round

    def chain_round(rng, stock, r, t, m, seed, rnd):
        dealt.append(rnd)
        return real_round(rng, stock, r, t, m, seed, rnd)

    monkeypatch.setattr(samplers, "_chain_round", chain_round)
    return dealt


def test_saturated_round_fills_from_floor(monkeypatch):
    # in d = 5 the pivot and round 0 span everything: round 1's residuals are
    # rounding noise, so it draws from the uniform floor instead of running
    # capped chains (t*m = 1.7e10 proposals, over the 1e9 - 1 drawn)
    dealt = _record_chain_rounds(monkeypatch)
    pts, _ = _planted(n=300, d=5, rank=5, noise=0.1, seed=3)
    cfg = SamplingConfig(k=4, epsilon=0.5, p=3.0, seed=2, init_mode="adaptive-k-pass")
    result = select_subset(pts, cfg)
    assert dealt == [0]
    assert result.round_stats[1] == RoundStats(0)
    assert result.warnings == ("candidate pool fit up to rounding after 1 rounds; "
                               "remaining blocks drawn from the uniform floor",)


def test_saturated_derived_round_runs_no_chain_steps():
    # 85 rows of round 0 span R^60: round 1 runs no chain steps, where the
    # capped chains would run 140218
    pts = instance(2000, 60, seed=47)
    result = select_subset(pts, SamplingConfig(k=5, epsilon=0.5, seed=48))
    assert result.params.chain_steps == 140_218 and result.params.rounds == 2
    assert result.round_stats[0] == RoundStats(21, 1.0, 1.0)
    assert result.round_stats[1] == RoundStats(0)
    assert all(s.steps_taken == 0 for s in result.final_states[80:])
    assert any("uniform floor" in w for w in result.warnings)


def test_round_over_draws_left_raises_before_dealing(monkeypatch):
    # with 3280 draws, round 0's 80 * 21 leave 1600, fewer than round 1's
    # t*m_r >= 80 * 21 on this unsaturated instance
    monkeypatch.setattr(samplers, "MAX_DERIVED_DRAWS", 3280)
    dealt = _record_chain_rounds(monkeypatch)
    pts, _ = _planted(n=2000, d=200, rank=5, noise=1.0, seed=41)
    with pytest.raises(SlotBudgetError, match=r"round 1: error ratio bound \S+ certifies "
                                              r"\d+ chain steps, .*; 1600 of the 3280 drawn"):
        select_subset(pts, SamplingConfig(k=5, epsilon=0.5, seed=42))
    assert dealt == [0]


def test_explicit_m_runs_exactly():
    # an explicit chain_steps runs that m in every round, with no estimate,
    # even where the certified length would be shorter
    pts = instance(300, 20, seed=45)
    params = derive_params(2, 0.5, points_per_round=4, rounds=3, chain_steps=37)
    assert params.explicit_m
    result = mcmc_select(pts, orthonormal_basis(pts, [0, 1]), params, seed=46)
    assert all(s.steps_taken == 36 for s in result.final_states)
    assert result.round_stats == (RoundStats(37),) * 3
    assert all(s.rho is None and s.rho_bound is None for s in result.round_stats)
