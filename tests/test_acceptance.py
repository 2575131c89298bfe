"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a PASS/FAIL line with the measured values (visible with
pytest -s or on failure). Chain-step overrides, where used, are printed;
everything else runs at derived parameters.
"""

import math
import time

import numpy as np

from subsel.cli import main, parse_report
from subsel.linalg import (
    OrthonormalBasis,
    PointSet,
    best_rank_k_in_span,
    err_p,
    extend_basis,
    optimal_subspace,
    orthonormal_basis,
)
from subsel.outliers import check_lambda, robust_select
from subsel.rng import derive_rng
from subsel.samplers import (
    SamplingConfig,
    _enumerate_volumes,
    adaptive_sample,
    select_subset,
    tv_distance_diag,
    volume_walk_distribution,
)
from subsel.stream import generate_synthetic, inlier_count


def report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def empirical_tv(samples, probs, n):
    emp = np.bincount(np.asarray(samples, dtype=int), minlength=n) / len(samples)
    return 0.5 * float(np.abs(emp - probs).sum())


# ---------------------------------------------------------------------------
# 1. approximation guarantee, two-pass pipeline
# ---------------------------------------------------------------------------

def test_criterion_1_approximation_guarantee():
    start = time.perf_counter()
    pts, _ = generate_synthetic(n=2000, d=50, rank=5, noise_sigma=0.1, seed=0)
    _, opt = optimal_subspace(pts, 5)
    chain_steps = 64  # recorded override; derived m here would be 140218
    ratios = []
    for seed in range(20):
        cfg = SamplingConfig(k=5, epsilon=0.5, seed=seed, chain_steps=chain_steps)
        result = select_subset(pts, cfg)
        result.passes.assert_passes(2)
        _, err_k = best_rank_k_in_span(pts, result.basis, 5)
        ratios.append(err_k / opt)
    elapsed = time.perf_counter() - start
    median = float(np.median(ratios))
    report("criterion-1 median", median <= 1.5 and elapsed <= 60.0,
           f"median ratio {median:.6f} <= 1.5 over 20 seeds, {elapsed:.1f}s <= 60s "
           f"(t=80 l=2 m={chain_steps} override)")
    # strict form: mean over >= 100 seeds within 1.5 + 3 sigma
    for seed in range(20, 100):
        cfg = SamplingConfig(k=5, epsilon=0.5, seed=seed, chain_steps=chain_steps)
        result = select_subset(pts, cfg)
        _, err_k = best_rank_k_in_span(pts, result.basis, 5)
        ratios.append(err_k / opt)
    mean = float(np.mean(ratios))
    sem = float(np.std(ratios, ddof=1) / math.sqrt(len(ratios)))
    report("criterion-1 strict", mean <= 1.5 + 3 * sem,
           f"mean ratio {mean:.6f} <= 1.5 + 3*sem ({1.5 + 3 * sem:.6f}) over 100 seeds")


# ---------------------------------------------------------------------------
# 2. pass complexity, exact integers
# ---------------------------------------------------------------------------

def test_criterion_2_pass_complexity():
    pts, _ = generate_synthetic(n=400, d=12, rank=4, noise_sigma=0.1, seed=2)
    l2 = select_subset(pts, SamplingConfig(k=4, epsilon=0.5, seed=3, chain_steps=16))
    l2.passes.assert_passes(2)

    lp = select_subset(pts, SamplingConfig(
        k=3, epsilon=0.5, p=3.0, seed=4, init_mode="adaptive-k-pass",
        points_per_round=6, rounds=2, chain_steps=8))
    lp.passes.assert_passes(3 + 1)

    rounds = 3
    adapt = adaptive_sample(pts, OrthonormalBasis.empty(pts.d), 10, rounds, seed=5)
    adapt.passes.assert_passes(rounds)

    # with a one-pass length-squared init the total is l + 1 exactly
    from subsel.stream import open_source, weighted_reservoir_sample

    src = open_source(pts)
    bank = weighted_reservoir_sample(src, lambda c: np.linalg.norm(c, axis=1) ** 2, 4,
                                     derive_rng(6, "reservoir", "init:fkv"), label="init:fkv")
    init = extend_basis(OrthonormalBasis.empty(pts.d), bank.points_for(bank.ids), bank.ids)
    seeded = adaptive_sample(src, init, 10, rounds, seed=7)
    seeded.passes.assert_passes(rounds)  # the result logs its own passes
    src.pass_log.assert_passes(rounds + 1)

    report("criterion-2", True,
           f"l2 pipeline passes=2, lp (p=3, k=3) passes=4, adaptive l={rounds} "
           f"passes={rounds} (+0 init), seeded adaptive passes={rounds}+1; "
           "exact integer assertions")


# ---------------------------------------------------------------------------
# 3. chain-vs-adaptive total variation (Lemma-level check)
# ---------------------------------------------------------------------------

def test_criterion_3_chain_tv():
    start = time.perf_counter()
    rng = np.random.default_rng(314)
    pts = PointSet(rng.standard_normal((8, 3)) * np.array([2.0, 1.2, 0.6]))
    # the TV branch applies when the current/pivot error ratio exceeds eps_err
    e_pivot = err_p(pts, orthonormal_basis(pts, [0]), 2.0)
    e_cur = err_p(pts, orthonormal_basis(pts, [0, 1]), 2.0)
    assert e_cur / e_pivot >= 0.1
    # derive_params' m at e1 = 0.1, e2 = 0.05
    m = math.ceil(1 + max(20 * math.log(1 / 0.05), 40 * math.log(10)) - 1e-9)
    assert m == 94
    diag = tv_distance_diag(pts, [0], [0, 1], m, trials=100_000, seed=77)
    elapsed = time.perf_counter() - start
    bound = 0.05 + 0.01
    report("criterion-3", diag.tv_distance <= bound and elapsed <= 30.0,
           f"tv {diag.tv_distance:.5f} <= {bound} over 100k chains (m=94, "
           f"gamma={diag.gamma:.3f}), {elapsed:.1f}s <= 30s")


# ---------------------------------------------------------------------------
# 4. volume sampling expectation + walk convergence
# ---------------------------------------------------------------------------

def test_criterion_4_volume_sampling(volume_dpp):
    pts, _ = generate_synthetic(n=50, d=8, rank=8, noise_sigma=0.5, seed=4)
    _, opt = optimal_subspace(pts, 2)
    subsets, _, probs = _enumerate_volumes(pts, 2)
    errs = np.array([err_p(pts, orthonormal_basis(pts, list(s)), 2.0)
                     for s in subsets])
    exact_mean = float(probs @ errs)
    assert exact_mean <= 3 * opt  # (k+1) * opt, exact enumeration
    idx = {s: i for i, s in enumerate(subsets)}
    rng = derive_rng(5, "criterion-4")
    samples = np.array([errs[idx[tuple(sorted(volume_dpp(pts, 2, rng)))]]
                        for _ in range(20_000)])
    mean = float(samples.mean())
    sem = float(samples.std(ddof=1) / math.sqrt(len(samples)))
    ok_mean = mean <= 3 * opt + 3 * sem
    report("criterion-4 expectation", ok_mean,
           f"mean pivot err {mean:.3f} <= (k+1)*opt + 3*sem = {3 * opt + 3 * sem:.3f} "
           f"(exact E = {exact_mean:.3f}) over 20k trials")

    walk_pts, _ = generate_synthetic(n=6, d=3, rank=3, noise_sigma=0.4, seed=6)
    diag = volume_walk_distribution(walk_pts, 2, steps=2000, walks=50_000, seed=8)
    report("criterion-4 walk", diag.tv_distance <= 0.05,
           f"walk tv {diag.tv_distance:.4f} <= 0.05 after 2000 steps (n=6, k=2)")


# ---------------------------------------------------------------------------
# 5. adaptive decay
# ---------------------------------------------------------------------------

def test_criterion_5_adaptive_decay():
    pts, _ = generate_synthetic(n=300, d=20, rank=3, noise_sigma=0.1, seed=1)
    k, t, trials = 3, 48, 50
    _, opt = optimal_subspace(pts, k)
    err0 = float(np.sum(np.linalg.norm(pts.data, axis=1) ** 2))
    bounds = {l: (1 + 2 * k / t) * opt + (k / t) ** l * err0 for l in (1, 2, 3)}
    span_errs = {1: [], 2: [], 3: []}
    k_errs = {1: [], 2: [], 3: []}
    for trial in range(trials):
        # rounds are seeded by (seed, round), so the three l values of one
        # trial are prefix-coupled runs of the same sampler
        result = adaptive_sample(pts, OrthonormalBasis.empty(pts.d), t, 3, seed=trial)
        ids = []
        for l, block in enumerate(result.blocks, start=1):
            ids.extend(block)
            basis = orthonormal_basis(pts, ids)
            span_errs[l].append(err_p(pts, basis, 2.0))
            k_errs[l].append(best_rank_k_in_span(pts, basis, k)[1])
    details = []
    for l in (1, 2, 3):
        for errs in (span_errs, k_errs):
            mean = float(np.mean(errs[l]))
            sem = float(np.std(errs[l], ddof=1) / math.sqrt(trials))
            assert mean <= bounds[l] + 3 * sem
        details.append(f"l={l}: mean={np.mean(k_errs[l]):.4f} <= bound {bounds[l]:.3f}")
    # the bound sequence strictly decreases; at t=48 >= d the measured error
    # saturates (span = R^d for every l), so the decay itself is shown at t=5
    assert bounds[1] > bounds[2] > bounds[3]
    small = {1: [], 2: [], 3: []}
    for trial in range(trials):
        result = adaptive_sample(pts, OrthonormalBasis.empty(pts.d), 5, 3, seed=trial)
        ids = []
        for l, block in enumerate(result.blocks, start=1):
            ids.extend(block)
            small[l].append(best_rank_k_in_span(pts, orthonormal_basis(pts, ids), k)[1])
    m1, m2, m3 = (float(np.mean(small[l])) for l in (1, 2, 3))
    report("criterion-5", m1 > m2 > m3,
           "; ".join(details) + f"; bounds strictly decreasing; "
           f"non-saturating t=5 means strictly decreasing ({m1:.3f} > {m2:.3f} > {m3:.3f})")


# ---------------------------------------------------------------------------
# 6. outlier guarantee
# ---------------------------------------------------------------------------

def test_criterion_6_outlier_guarantee():
    pts, truth = generate_synthetic(n=2000, d=50, rank=5, noise_sigma=0.1,
                                    outlier_frac=0.05, outlier_scale=0.3, seed=100)
    lam = check_lambda(pts, truth.planted_basis, 0.05, truth.inlier_ids)
    assert lam >= 0.5, f"instance violates the lambda assumption: {lam:.3f}"
    inlier_rows = PointSet(pts.data[list(truth.inlier_ids)])
    _, opt_inliers = optimal_subspace(inlier_rows, 5)
    chain_steps = 64  # recorded override, as in criterion 1
    ratios = []
    for seed in range(20):
        result, inliers = robust_select(
            pts, k=5, epsilon=0.5, beta=0.05, lam=0.5, seed=seed,
            chain_steps=chain_steps,
            ground_truth_basis=truth.planted_basis,
            ground_truth_inliers=truth.inlier_ids)
        result.passes.assert_passes(2)
        assert inliers.count == inlier_count(2000, 0.05) == 1900
        assert not any("assumption violated" in w for w in result.warnings)
        ratios.append(inliers.inlier_error / opt_inliers)
    median = float(np.median(ratios))
    report("criterion-6", median <= 1.5,
           f"median inlier-error ratio {median:.6f} <= 1.5 over 20 seeds "
           f"(lambda={lam:.3f}, |N_beta|=1900 exactly, m={chain_steps} override)")


# ---------------------------------------------------------------------------
# 7. distributional oracles
# ---------------------------------------------------------------------------

def test_criterion_7_distributional_oracles(volume_dpp):
    rng_data = np.random.default_rng(700)
    pts = PointSet(rng_data.standard_normal((5, 3)) * np.array([2.0, 1.0, 0.5]))
    trials = 50_000
    details = []

    w = np.linalg.norm(pts.data, axis=1) ** 2
    tv_sl = empirical_tv(adaptive_sample(pts, OrthonormalBasis.empty(3), trials, 1,
                                         seed=701).blocks[0], w / w.sum(), 5)
    assert tv_sl <= 0.05
    details.append(f"squared-length tv={tv_sl:.4f}")

    basis = orthonormal_basis(pts, [0])
    from subsel.linalg import residual_distances

    res = residual_distances(pts.data, basis) ** 2
    tv_ad = empirical_tv(adaptive_sample(pts, basis, trials, 1, seed=702).blocks[0],
                         res / res.sum(), 5)
    assert tv_ad <= 0.05
    details.append(f"adaptive-round tv={tv_ad:.4f}")

    subsets, _, probs = _enumerate_volumes(pts, 2)
    idx = {s: i for i, s in enumerate(subsets)}
    rng = derive_rng(703, "criterion-7")
    samples = [idx[tuple(sorted(volume_dpp(pts, 2, rng)))]
               for _ in range(trials)]
    tv_vol = empirical_tv(samples, probs, len(subsets))
    assert tv_vol <= 0.05
    details.append(f"exact-volume tv={tv_vol:.4f}")

    report("criterion-7", True,
           "; ".join(details) + f" (all <= 0.05 over {trials} trials)")


# ---------------------------------------------------------------------------
# 8. determinism across modes
# ---------------------------------------------------------------------------

def test_criterion_8_determinism(tmp_path):
    data_path = tmp_path / "det.csv"
    assert main(["gen", "--n", "300", "--d", "10", "--rank", "3", "--noise",
                 "0.1", "--seed", "11", "--out", str(data_path)]) == 0
    reports = []
    for mode in ("memory", "streaming"):
        out = tmp_path / f"report-{mode}.csv"
        code = main(["run", "--input", str(data_path), "--alg", "mcmc",
                     "--k", "3", "--epsilon", "0.5", "--trials", "5",
                     "--m", "24", "--seed", "12", "--mode", mode,
                     "--timing", "zero", "--out", str(out)])
        assert code == 0
        reports.append(out.read_bytes())
    identical = reports[0] == reports[1]
    rows = parse_report(reports[0].decode())
    report("criterion-8", identical and len(rows) == 5,
           f"report CSVs byte-identical across memory/streaming modes "
           f"({len(reports[0])} bytes, {len(rows)} trials)")
