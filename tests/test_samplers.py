import math

import numpy as np
import pytest

from subsel.linalg import PointSet, err_p, orthonormal_basis, residual_distances
from subsel.rng import derive_rng
from subsel.samplers import (
    ExactFitReached,
    SamplingConfig,
    adaptive_sample,
    adaptive_sample_round,
    adaptive_volume_init,
    derive_params,
    enumerate_volume_distribution,
    greedy_max_volume_init,
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
from subsel.stream import open_source, write_csv


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
    robust = derive_params(3, 0.5, 1.0, mode="l2-outlier", lam=0.5)
    assert robust.alpha == pytest.approx(2.0)
    assert robust.eps_err == pytest.approx(plain.eps_err / 2)
    assert robust.points_per_round == plain.points_per_round


def test_derive_params_lp_mode_folds_init_quality():
    got = derive_params(3, 0.5, 1.0, mode="lp", p=3.0)
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
        derive_params(2, 0.5, mode="l2-outlier", lam=0.0)


# ---------------------------------------------------------------------------
# adaptive sampling; squared-length sampling is a round with an empty span
# ---------------------------------------------------------------------------

def test_squared_length_zero_weight_excluded():
    pts = PointSet(np.array([[1.0, 0.0], [0.0, 0.0]]))
    ids, coords = adaptive_sample_round(pts, [], 50, seed=1)
    assert set(ids) == {0}
    assert np.array_equal(coords, np.tile([1.0, 0.0], (50, 1)))


def test_squared_length_frequency():
    pts = PointSet(np.array([[1.0, 0.0], [2.0, 0.0]]))
    draws, _ = adaptive_sample_round(pts, [], 50_000, p=2.0, seed=2)
    freq1 = np.mean(np.asarray(draws) == 1)
    assert abs(freq1 - 0.8) <= 3 * math.sqrt(0.8 * 0.2 / 50_000)


def test_squared_length_symmetry():
    pts = PointSet(np.array([[1.0, 0.0], [1.0, 0.0]]))
    draws, _ = adaptive_sample_round(pts, [], 50_000, seed=3)
    freq0 = np.mean(np.asarray(draws) == 0)
    assert abs(freq0 - 0.5) <= 3 * math.sqrt(0.25 / 50_000)


def test_squared_length_all_zero_errors():
    with pytest.raises(ExactFitReached):
        adaptive_sample_round(PointSet(np.zeros((3, 2))), [], 1)


def test_adaptive_round_unique_nonzero_residual():
    pts = PointSet(np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 0.0]]))
    draws, _ = adaptive_sample_round(pts, [0], 20, seed=4)
    assert set(draws) == {1}


def test_adaptive_round_empty_current_is_squared_length():
    pts = instance(5, 3, seed=6)
    a, _ = adaptive_sample_round(pts, [], 30_000, seed=7)
    w = np.linalg.norm(pts.data, axis=1) ** 2
    probs = w / w.sum()
    assert empirical_tv(a, probs, 5) <= 0.02


def test_adaptive_round_residual_weights():
    pts = PointSet(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 2.0]]))
    draws, _ = adaptive_sample_round(pts, [0], 50_000, seed=8)
    freq2 = np.mean(np.asarray(draws) == 2)
    assert abs(freq2 - 0.8) <= 3 * math.sqrt(0.8 * 0.2 / 50_000)
    assert 0 not in set(draws)


def test_adaptive_round_exact_fit_signal():
    pts = PointSet(np.array([[1.0, 0.0], [2.0, 0.0]]))
    with pytest.raises(ExactFitReached):
        adaptive_sample_round(pts, [0], 5, seed=9)


def test_adaptive_round_source_and_points_agree_in_distribution():
    pts = instance(6, 3, seed=10)
    src = open_source(pts)
    basis = orthonormal_basis(pts, [0])
    via_source, _ = adaptive_sample_round(src, [0], 30_000, seed=11, basis=basis)
    w = residual_distances(pts.data, basis) ** 2
    probs = w / w.sum()
    assert empirical_tv(via_source, probs, 6) <= 0.02
    src.pass_log.assert_passes(1)


def test_adaptive_sample_exact_rank_reaches_zero_error():
    rng = np.random.default_rng(12)
    coeff = rng.standard_normal((30, 2))
    dirs = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    pts = PointSet(coeff @ dirs)
    result = adaptive_sample(pts, [], 4, 3, p=2.0, seed=13)
    assert result.total_error == pytest.approx(0.0, abs=1e-16)


def test_adaptive_sample_zero_rounds_identity():
    pts = instance(6, 3, seed=14)
    result = adaptive_sample(pts, [2, 4], 5, 0, seed=15)
    assert result.selected_ids == (2, 4)
    assert result.blocks == ()
    assert result.passes.total_passes == 0


def test_adaptive_sample_pass_accounting():
    pts = instance(40, 6, seed=16)
    result = adaptive_sample(pts, [], 3, 4, seed=17)
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
        res = adaptive_sample(pts, [], t, l, seed=trial)
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
    # power-of-two rescale; SVD is not exactly scale-equivariant, so only the
    # contract is checked, not the ids of the unscaled run
    x = instance(40, 6, seed=30).data
    with np.errstate(all="raise"):
        ids = volume_sample_dpp(PointSet(x * 2.0 ** 600), 3, seed=31)
    assert len(set(ids)) == 3 and all(0 <= i < 40 for i in ids)
    assert np.linalg.matrix_rank(x[ids]) == 3


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
    ids, coords = adaptive_volume_init(pts, 3, seed=37)
    assert np.array_equal(coords, pts.data[ids])
    basis = orthonormal_basis(pts, ids)
    assert basis.r == 3
    assert err_p(pts, basis, 2.0) == pytest.approx(0.0, abs=1e-18)


def test_adaptive_volume_init_early_stop():
    pts = PointSet(np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]))
    ids, _ = adaptive_volume_init(pts, 2, seed=38)
    assert len(ids) == 1


def test_adaptive_volume_init_expectation_bound():
    # Monte-Carlo check of the k! (k+1) pivot guarantee at k=2
    from subsel.linalg import optimal_subspace

    pts = instance(50, 8, seed=39)
    _, opt = optimal_subspace(pts, 2)
    errs = np.empty(20_000)
    for trial in range(len(errs)):
        ids, _ = adaptive_volume_init(pts, 2, seed=trial)
        errs[trial] = err_p(pts, orthonormal_basis(pts, ids), 2.0)
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
    assert mh_accept(2.0, 1.0, 1.0, 1.0, 0.999)   # ratio >= 1
    assert mh_accept(1.0, 1.0, 1.0, 1.0, 0.999)
    assert not mh_accept(0.0, 1.0, 1.0, 1.0, 1e-12)  # zero-mass proposal
    assert mh_accept(0.5, 1.0, 0.0, 1.0, 0.999)   # off a zero-mass state
    assert not mh_accept(0.0, 1.0, 0.0, 1.0, 0.5)


def test_mh_accept_frequency_matches_ratio():
    rng = np.random.default_rng(41)
    ratio = 0.3
    hits = sum(mh_accept(ratio, 1.0, 1.0, 1.0, float(u)) for u in rng.random(100_000))
    assert abs(hits / 100_000 - ratio) <= 3 * math.sqrt(ratio * (1 - ratio) / 100_000)


# ---------------------------------------------------------------------------
# mcmc_select
# ---------------------------------------------------------------------------

def test_mcmc_select_size_and_pass_contract():
    pts = instance(60, 5, seed=42)
    params = derive_params(2, 0.5, points_per_round=6, rounds=2, chain_steps=16)
    src = open_source(pts)
    result = mcmc_select(src, [0, 1], params, seed=43)
    assert result.size == 2 + 6 * 2
    assert all(len(b) == 6 for b in result.blocks)
    result.passes.assert_passes(1)
    assert result.passes.reporting_passes == 1


def test_mcmc_select_monotone_error_and_floor():
    pts = instance(60, 5, seed=44)
    params = derive_params(2, 0.5, points_per_round=5, rounds=3, chain_steps=12)
    result = mcmc_select(pts, [3, 9], params, seed=45)
    errs = [result.initial_error]
    ids = [3, 9]
    for block in result.blocks:
        ids.extend(block)
        errs.append(err_p(pts, orthonormal_basis(pts, ids), 2.0))
    assert all(errs[i + 1] <= errs[i] + 1e-9 for i in range(len(errs) - 1))
    assert result.total_error == pytest.approx(errs[-1], rel=1e-9, abs=1e-12)
    floor = 1.0 / (2 * pts.n)
    assert all(s.proposal_prob >= floor - 1e-15 for s in result.final_states)


def test_mcmc_select_exact_fit_uniform_floor():
    pts = PointSet(np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [4.0, 0.0]]))
    params = derive_params(1, 0.5, points_per_round=3, rounds=2, chain_steps=8)
    result = mcmc_select(pts, [0], params, seed=46)
    assert result.total_error == pytest.approx(0.0, abs=1e-18)
    assert result.initial_error == pytest.approx(0.0, abs=1e-18)
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
    pivot = [1, 5, 9]
    coords = pts.data[pivot]
    results = []
    for mode in ("memory", "streaming", "memory"):
        src = open_source(path, mode=mode)
        results.append(mcmc_select(src, pivot, params, seed=48, pivot_coords=coords))
    a, b, c = results
    assert a.selected_ids == b.selected_ids == c.selected_ids
    assert a.total_error == b.total_error == c.total_error
    assert a.accept_counts == b.accept_counts
    other = mcmc_select(open_source(path), pivot, params, seed=49, pivot_coords=coords)
    assert other.selected_ids != a.selected_ids


def test_mcmc_select_single_point_distribution():
    # t chains in one round are i.i.d., so the histogram of one run with huge
    # t equals the law of the single selected point over that many runs
    pts = instance(8, 3, seed=50, scale=[2.0, 1.0, 0.5])
    t = 30_000
    params = derive_params(1, 0.5, points_per_round=t, rounds=1, chain_steps=32)
    result = mcmc_select(pts, [0], params, seed=51)
    basis = orthonormal_basis(pts, [0])
    w = residual_distances(pts.data, basis) ** 2
    target = w / w.sum()
    assert empirical_tv(list(result.blocks[0]), target, 8) <= 0.05


def test_mcmc_select_literal_repeated_runs():
    # small literal version of the same check: fresh run per sample
    pts = instance(8, 3, seed=50, scale=[2.0, 1.0, 0.5])
    params = derive_params(1, 0.5, points_per_round=1, rounds=1, chain_steps=32)
    picks = [mcmc_select(pts, [0], params, seed=s).blocks[0][0] for s in range(3000)]
    basis = orthonormal_basis(pts, [0])
    w = residual_distances(pts.data, basis) ** 2
    assert empirical_tv(picks, w / w.sum(), 8) <= 0.06


def test_mcmc_select_tracks_adaptive_expectation():
    # the central claim at non-saturating scale: replacing l adaptive rounds
    # with pivot-anchored chains moves the expected error by at most
    # (eps_err + eps_tv * t * l) * err(pivot)
    pts, _ = _planted(n=32, d=12, rank=3, noise=0.15, seed=80)
    pivot = [0, 1]
    coords = pts.data[pivot]
    err_pivot = err_p(pts, orthonormal_basis(pts, pivot), 2.0)
    params = derive_params(2, 0.5, points_per_round=3, rounds=2, chain_steps=48)
    trials = 1500
    mcmc_errs = np.empty(trials)
    adapt_errs = np.empty(trials)
    for trial in range(trials):
        res = mcmc_select(pts, pivot, params, seed=trial, pivot_coords=coords)
        mcmc_errs[trial] = res.total_error
        base = adaptive_sample(pts, pivot, 3, 2, seed=trial + 10 ** 6,
                               initial_coords=coords)
        adapt_errs[trial] = base.total_error
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
    assert result.total_error <= result.initial_error + 1e-9


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
    assert res_mem.total_error == res_str.total_error


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
    assert res_str.total_error == res_mem.total_error


def test_mcmc_select_refuses_oversized_slot_budget():
    pts = instance(20, 6, seed=75)
    params = derive_params(3, 0.5, mode="lp", p=3.0)  # theory m is ~1.5e7
    assert params.total_points * params.chain_steps > 10 ** 8
    with pytest.raises(ValueError, match="chain_steps override"):
        mcmc_select(pts, [0, 1, 2], params, p=3.0, seed=76)


def test_mcmc_select_streaming_needs_pivot_coords(tmp_path):
    pts = instance(20, 4, seed=73)
    path = tmp_path / "coords.csv"
    write_csv(path, pts.data)
    params = derive_params(2, 0.5, points_per_round=2, rounds=1, chain_steps=4)
    with pytest.raises(ValueError, match="pivot coordinates"):
        mcmc_select(open_source(path, "streaming"), [0, 1], params, seed=74)


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
