import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from subsel.linalg import (
    OrthonormalBasis,
    PointSet,
    err_p,
    orthonormal_basis,
    residual_distances,
)
from subsel.rng import derive_rng
from subsel import samplers
from subsel.outliers import robust_select
from subsel.samplers import (
    ExactFitReached,
    SamplingConfig,
    SlotBudgetError,
    adaptive_sample,
    adaptive_sample_round,
    derive_params,
    enumerate_volume_distribution,
    greedy_max_volume_init,
    init_pivot,
    mcmc_select,
    mh_accept,
    proposal_q,
    select_subset,
    tv_distance_diag,
    volume_sample_dpp,
    volume_sample_exact,
    volume_sample_mcmc,
    volume_walk_distribution,
)
from subsel.stream import CHUNK_ROWS, open_source, write_binary, write_csv


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
    via_tols = derive_params(2, 0.5, 1.0, eps_err=0.1, eps_tv=0.05)
    expected = math.ceil(1 + max(20 * math.log(1 / 0.05), 40 * math.log(10)) - 1e-9)
    assert via_tols.chain_steps == expected == 94


def test_derive_params_validation():
    with pytest.raises(ValueError):
        derive_params(0, 0.5)
    with pytest.raises(ValueError):
        derive_params(2, 1.5)
    with pytest.raises(ValueError):
        derive_params(2, 0.5, 0.5)
    with pytest.raises(ValueError):
        derive_params(2, 0.5, lam=0.0)


# ---------------------------------------------------------------------------
# adaptive sampling; squared-length sampling is a round with an empty span
# ---------------------------------------------------------------------------

def test_squared_length_zero_weight_excluded():
    pts = PointSet(np.array([[1.0, 0.0], [0.0, 0.0]]))
    ids, coords = adaptive_sample_round(pts, OrthonormalBasis.empty(pts.d), 50, seed=1)
    assert set(ids) == {0}
    assert np.array_equal(coords, np.tile([1.0, 0.0], (50, 1)))


def test_squared_length_frequency():
    pts = PointSet(np.array([[1.0, 0.0], [2.0, 0.0]]))
    draws, _ = adaptive_sample_round(pts, OrthonormalBasis.empty(2), 50_000, p=2.0, seed=2)
    freq1 = np.mean(np.asarray(draws) == 1)
    assert abs(freq1 - 0.8) <= 3 * math.sqrt(0.8 * 0.2 / 50_000)


def test_squared_length_symmetry():
    pts = PointSet(np.array([[1.0, 0.0], [1.0, 0.0]]))
    draws, _ = adaptive_sample_round(pts, OrthonormalBasis.empty(pts.d), 50_000, seed=3)
    freq0 = np.mean(np.asarray(draws) == 0)
    assert abs(freq0 - 0.5) <= 3 * math.sqrt(0.25 / 50_000)


def test_squared_length_all_zero_errors():
    with pytest.raises(ExactFitReached):
        adaptive_sample_round(PointSet(np.zeros((3, 2))), OrthonormalBasis.empty(2), 1)


def test_adaptive_round_unique_nonzero_residual():
    pts = PointSet(np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 0.0]]))
    draws, _ = adaptive_sample_round(pts, orthonormal_basis(pts, [0]), 20, seed=4)
    assert set(draws) == {1}


def test_adaptive_round_empty_current_is_squared_length():
    pts = instance(5, 3, seed=6)
    a, _ = adaptive_sample_round(pts, OrthonormalBasis.empty(pts.d), 30_000, seed=7)
    w = np.linalg.norm(pts.data, axis=1) ** 2
    probs = w / w.sum()
    assert empirical_tv(a, probs, 5) <= 0.02


def test_adaptive_round_residual_weights():
    pts = PointSet(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 2.0]]))
    draws, _ = adaptive_sample_round(pts, orthonormal_basis(pts, [0]), 50_000, seed=8)
    freq2 = np.mean(np.asarray(draws) == 2)
    assert abs(freq2 - 0.8) <= 3 * math.sqrt(0.8 * 0.2 / 50_000)
    assert 0 not in set(draws)


def test_adaptive_round_exact_fit_signal():
    pts = PointSet(np.array([[1.0, 0.0], [2.0, 0.0]]))
    with pytest.raises(ExactFitReached):
        adaptive_sample_round(pts, orthonormal_basis(pts, [0]), 5, seed=9)


def test_adaptive_round_source_and_points_agree_in_distribution():
    pts = instance(6, 3, seed=10)
    src = open_source(pts)
    basis = orthonormal_basis(pts, [0])
    via_source, _ = adaptive_sample_round(src, basis, 30_000, seed=11)
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
    from subsel.stream import generate_synthetic

    return generate_synthetic(n=n, d=d, rank=rank, noise_sigma=noise, seed=seed, **kw)


def _best_k_err(pts, result, k):
    from subsel.linalg import best_rank_k_in_span

    basis = orthonormal_basis(pts, result.selected_ids)
    return best_rank_k_in_span(pts, basis, k)[1]


# ---------------------------------------------------------------------------
# volume sampling
# ---------------------------------------------------------------------------

def test_volume_exact_k1_matches_squared_length():
    pts = instance(5, 3, seed=19)
    rng = derive_rng(20, "volume-test")
    draws = [volume_sample_exact(pts, 1, rng=rng)[0] for _ in range(20_000)]
    w = np.linalg.norm(pts.data, axis=1) ** 2
    assert empirical_tv(draws, w / w.sum(), 5) <= 0.02


def test_volume_exact_three_pair_uniform():
    pts = PointSet(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    subsets, probs = enumerate_volume_distribution(pts, 2)
    assert subsets == [(0, 1), (0, 2), (1, 2)]
    assert np.allclose(probs, 1.0 / 3)


def test_volume_exact_duplicate_pair_never_sampled():
    pts = PointSet(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    subsets, probs = enumerate_volume_distribution(pts, 2)
    assert probs[subsets.index((0, 1))] == 0.0
    rng = derive_rng(21, "volume-test")
    for _ in range(300):
        assert tuple(sorted(volume_sample_exact(pts, 2, rng=rng))) != (0, 1)


def test_volume_exact_guard_and_rank_errors():
    pts = instance(40, 4, seed=22)
    with pytest.raises(ValueError, match="guard"):
        enumerate_volume_distribution(pts, 10, guard=1000)
    flat = PointSet(np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]))
    with pytest.raises(ValueError, match="rank-deficient"):
        volume_sample_exact(flat, 2)


def test_volume_exact_distribution_p3():
    pts = instance(5, 3, seed=23)
    subsets, probs = enumerate_volume_distribution(pts, 2, p=3.0)
    rng = derive_rng(24, "volume-test")
    draws = [tuple(sorted(volume_sample_exact(pts, 2, p=3.0, rng=rng))) for _ in range(20_000)]
    idx = {s: i for i, s in enumerate(subsets)}
    samples = [idx[d] for d in draws]
    assert empirical_tv(samples, probs, len(subsets)) <= 0.03


def test_volume_dpp_matches_enumeration():
    pts = instance(6, 4, seed=25)
    subsets, probs = enumerate_volume_distribution(pts, 2)
    idx = {s: i for i, s in enumerate(subsets)}
    rng = derive_rng(26, "volume-test")
    samples = [idx[tuple(sorted(volume_sample_dpp(pts, 2, rng=rng)))] for _ in range(20_000)]
    assert empirical_tv(samples, probs, len(subsets)) <= 0.05


def test_volume_dpp_k3_matches_enumeration():
    pts = instance(7, 5, seed=27)
    subsets, probs = enumerate_volume_distribution(pts, 3)
    idx = {s: i for i, s in enumerate(subsets)}
    rng = derive_rng(28, "volume-test")
    samples = [idx[tuple(sorted(volume_sample_dpp(pts, 3, rng=rng)))] for _ in range(20_000)]
    assert empirical_tv(samples, probs, len(subsets)) <= 0.05


def test_volume_dpp_rank_deficient():
    flat = PointSet(np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]))
    with pytest.raises(ValueError, match="rank-deficient"):
        volume_sample_dpp(flat, 2)


def test_volume_dpp_extreme_scale_no_overflow():
    # squared singular values of data near 1e180 would overflow without the
    # power-of-two rescale; the rescale is exact, so the seeded ids are those
    # of the unscaled run
    x = instance(40, 6, seed=30).data
    ids = volume_sample_dpp(PointSet(x), 3, seed=31)
    assert len(set(ids)) == 3 and all(0 <= i < 40 for i in ids)
    assert np.linalg.matrix_rank(x[ids]) == 3
    for scale in (2.0 ** 600, 2.0 ** -600):
        with np.errstate(all="raise"):
            assert volume_sample_dpp(PointSet(x * scale), 3, seed=31) == ids


def spectrum_instance(n, singular_values, seed):
    rng = np.random.default_rng(seed)
    r = len(singular_values)
    u, _ = np.linalg.qr(rng.standard_normal((n, r)))
    v, _ = np.linalg.qr(rng.standard_normal((r + 2, r)))
    return PointSet((u * np.asarray(singular_values)) @ v.T)


def test_volume_dpp_ill_conditioned_samples():
    # s_k / s_0 = 1e-4 is eigenvalue ratio 1e-8, above the Gram's 1e-12 rank
    # cut: the DPP still samples, with the enumeration's law; an exactly
    # rank-deficient spectrum raises (test_volume_dpp_rank_deficient)
    pts = spectrum_instance(6, [1.0, 1e-2, 1e-4], seed=32)
    subsets, probs = enumerate_volume_distribution(pts, 3)
    idx = {s: i for i, s in enumerate(subsets)}
    rng = derive_rng(33, "volume-test")
    samples = [idx[tuple(sorted(volume_sample_dpp(pts, 3, rng=rng)))] for _ in range(10_000)]
    assert empirical_tv(samples, probs, len(subsets)) <= 0.05
    with pytest.raises(ValueError, match="rank-deficient"):
        volume_sample_dpp(spectrum_instance(6, [1.0, 1e-2, 0.0], seed=32), 3)


def test_greedy_init_nonzero_volume():
    pts = instance(10, 4, seed=29)
    ids = greedy_max_volume_init(pts, 3)
    assert len(set(ids)) == 3
    from subsel.linalg import simplex_volume_sq

    assert simplex_volume_sq(pts, ids) > 0
    flat = PointSet(np.array([[1.0, 0.0], [2.0, 0.0]]))
    with pytest.raises(ValueError, match="full-rank"):
        greedy_max_volume_init(flat, 2)


def test_volume_walk_stationary_at_k_equals_n():
    pts = instance(4, 4, seed=30)
    assert volume_sample_mcmc(pts, 4, 100, seed=31) == [0, 1, 2, 3]


def test_volume_walk_never_accepts_zero_volume():
    # duplicated point: the duplicate pair has volume zero and must never appear
    pts = PointSet(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    for seed in range(8):
        ids = volume_sample_mcmc(pts, 2, 60, seed=seed)
        assert tuple(sorted(ids)) != (0, 1)


def test_volume_walk_matches_table_driven_walk():
    pts = instance(6, 3, seed=32)
    for seed in (0, 1, 7):
        ids = volume_sample_mcmc(pts, 2, 97, seed=seed)
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
    subsets, probs = enumerate_volume_distribution(pts, 2)
    from subsel.linalg import simplex_volume_sq

    vols = np.array([simplex_volume_sq(pts, list(s)) for s in subsets])
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
    pivot, _ = init_pivot(open_source(pts), 3, 2.0, 37, "adaptive-k-pass")
    ids = pivot.source_ids
    assert np.array_equal(pivot.vectors, orthonormal_basis(pts, ids).vectors)
    basis = orthonormal_basis(pts, ids)
    assert basis.r == 3
    assert err_p(pts, basis, 2.0) == pytest.approx(0.0, abs=1e-18)


def test_adaptive_volume_init_early_stop():
    pts = PointSet(np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]))
    pivot, _ = init_pivot(open_source(pts), 2, 2.0, 38, "adaptive-k-pass")
    assert len(pivot.source_ids) == 1


def test_adaptive_volume_init_expectation_bound():
    # Monte-Carlo check of the k! (k+1) pivot guarantee at k=2
    from subsel.linalg import optimal_subspace

    pts = instance(50, 8, seed=39)
    _, opt = optimal_subspace(pts, 2)
    errs = np.empty(20_000)
    for trial in range(len(errs)):
        pivot, _ = init_pivot(open_source(pts), 2, 2.0, trial, "adaptive-k-pass")
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
    # the coupling test of the chain rounds: accepting from the largest
    # ratio means accepting from any state of smaller ratio
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


@st.composite
def lane_blocks(draw):
    """(x, y, u, r) for _lane_block: zero-mass and subnormal ratios, repeated
    pool indices (few entries, many proposals), and pools whose largest
    ratio dwarfs the rest, so that lanes often never couple."""
    pool = draw(st.integers(1, 6))
    r = np.array(draw(st.lists(ratios, min_size=pool, max_size=pool)))
    if draw(st.booleans()):
        r[0] = 1e300 * draw(st.floats(0.5, 1.0))
    g, b, t = draw(st.integers(1, 4)), draw(st.integers(1, 9)), draw(st.integers(1, 4))
    y = draw(hnp.arrays(np.int64, (g, b, t), elements=st.integers(0, pool - 1)))
    u = draw(hnp.arrays(np.float64, (g, b, t), elements=uniforms))
    x = draw(hnp.arrays(np.int64, t, elements=st.integers(0, pool - 1)))
    return x, y, u, r


def test_lane_block_matches_sequential_reference(monkeypatch):
    fallbacks = []
    real_walk = samplers._walk

    def walk(*args):
        fallbacks.append(len(args[0]))
        return real_walk(*args)

    monkeypatch.setattr(samplers, "_walk", walk)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(block=lane_blocks())
    def check(block):
        x, y, u, r = block
        g, b, t = y.shape
        got_x, got_acc = samplers._lane_block(x, y, u, r)
        want_x, want_acc = _sequential_chains(x, y.reshape(g * b, t),
                                              u.reshape(g * b, t), r)
        assert got_x.tolist() == want_x
        assert got_acc.tolist() == want_acc

    check()
    # lanes without a coupling step were walked from their entry states
    assert len(fallbacks) > 30


@pytest.mark.parametrize("m, segments_per_block", [
    (129, None),    # m - 1 = 2 * LANE_STEPS, one block
    (203, 1),       # three one-segment blocks and a 10-step tail
    (40, None),     # m - 1 < LANE_STEPS: the tail alone
])
def test_mcmc_select_chains_replay_sequentially(monkeypatch, m, segments_per_block):
    # every round's endpoints and acceptances equal a one-step-at-a-time
    # replay of its dealt proposals with derive_rng(seed, "chain", round)
    # drawn in one call: PCG64 doubles do not depend on how draws are split
    t, l, seed = 3, 2, 95
    if segments_per_block is not None:
        monkeypatch.setattr(samplers, "BLOCK_PROPOSALS",
                            segments_per_block * samplers.LANE_STEPS * t)
    deals, rounds = _record_deals(monkeypatch), []
    real_round = samplers._chain_round

    def chain_round(rng, stock, r, t, m, seed, rnd):
        deals.clear()
        x, accepted = real_round(rng, stock, r, t, m, seed, rnd)
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


def test_pipeline_two_passes_mcmc_volume():
    pts, _ = _planted(n=100, d=6, rank=2, noise=0.1, seed=64)
    cfg = SamplingConfig(k=2, epsilon=0.5, seed=65, init_mode="mcmc-volume",
                         chain_steps=16, init_walk_steps=200)
    result = select_subset(pts, cfg)
    result.passes.assert_passes(2)


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
                     for r in (plain, robust)] + [inliers.ids])
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
        more.passes.assert_passes(2 + 2)
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


def test_mcmc_select_refuses_oversized_slot_budget(monkeypatch):
    # a fixed 8 GiB machine, so the outcome does not depend on the host
    monkeypatch.setattr(samplers, "physical_memory_bytes", lambda: 8 * 2 ** 30)
    pts = instance(20, 6, seed=75)
    params = derive_params(3, 0.5, p=3.0)  # theory m is ~1.5e7
    assert params.total_points * params.chain_steps > 10 ** 8
    with pytest.raises(ValueError, match="reaches the limit of 1e9; .* chain_steps override"):
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
    with pytest.raises(ValueError):
        SamplingConfig(k=2, epsilon=0.5, init_mode="nope")
    with pytest.raises(ValueError):
        SamplingConfig(k=2, epsilon=0.5, rounds=0)
