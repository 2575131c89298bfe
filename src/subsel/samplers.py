"""Sampling algorithms for subset selection.

Adaptive sampling (squared-length sampling is its round with an empty
span), volume sampling (enumeration, determinantal, lazy random walk), the
pivot-proposal Metropolis selection that compresses the adaptive rounds into
a single pass, closed-form parameter derivation, and distributional
diagnostics.

The source-driven operations (adaptive sampling, mcmc_select,
select_subset) do all data access through pass-counted sequential scans and
consume their random streams identically for in-memory and streaming
sources; a PointSet argument is wrapped in an in-memory source.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import (
    RANK_TOL,
    OrthonormalBasis,
    PointSet,
    check_subset_ids,
    extend_basis,
    gram_dets,
    orthonormal_basis,
    residual_distances,
    simplex_volume_sq,
)
from .rng import derive_rng
from .stream import (
    DatasetSource,
    PassLog,
    as_source,
    proposal_prefetch_pass,
    weighted_reservoir_sample,
)

ENUMERATION_GUARD = 10 ** 6
TV_DIAG_MAX_POINTS = 4096


class ExactFitReached(RuntimeError):
    """The selected span already fits every point; residual weights vanish."""


# ---------------------------------------------------------------------------
# configuration and derived parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SamplingConfig:
    """User-facing knobs for the selection pipeline.

    init_mode picks how the pivot subset is drawn: exact-volume (one
    materializing pass), mcmc-volume (one pass plus an in-memory lazy walk),
    or adaptive-k-pass (k single-point passes, the p > 2 route). Overrides
    replace the derived t / l / m.
    """

    k: int
    epsilon: float
    p: float = 2.0
    seed: int = 0
    init_mode: str = "exact-volume"
    points_per_round: int | None = None
    rounds: int | None = None
    chain_steps: int | None = None
    init_walk_steps: int | None = None

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if self.p < 2.0:
            raise ValueError("p must be >= 2")
        if self.init_mode not in ("exact-volume", "mcmc-volume", "adaptive-k-pass"):
            raise ValueError(f"unknown init_mode {self.init_mode!r}")
        for name in ("points_per_round", "rounds", "chain_steps", "init_walk_steps"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} override must be >= 1")


@dataclass(frozen=True)
class DerivedParams:
    """Closed-form sampling parameters: t points per round, l rounds, m-step
    walks, and the error-ratio / total-variation tolerance split."""

    points_per_round: int
    rounds: int
    chain_steps: int
    eps_err: float
    eps_tv: float
    alpha: float

    def __post_init__(self):
        if min(self.points_per_round, self.rounds, self.chain_steps) < 1:
            raise ValueError("t, l, m must all be >= 1")
        if not (0.0 < self.eps_err < 1.0 and 0.0 < self.eps_tv < 1.0):
            raise ValueError("tolerances must lie in (0, 1)")

    @property
    def total_points(self) -> int:
        return self.points_per_round * self.rounds


def _ceil_at_least_1(x: float) -> int:
    # 1e-9 slack so exact integers never round up from float noise
    return max(1, math.ceil(x - 1e-9))


def derive_params(k: int, epsilon: float, alpha: float = 1.0, mode: str = "l2", *,
                  p: float = 2.0, lam: float = 1.0,
                  points_per_round: int | None = None, rounds: int | None = None,
                  chain_steps: int | None = None,
                  eps_err: float | None = None, eps_tv: float | None = None,
                  ) -> DerivedParams:
    """Parameter settings for a pivot of quality alpha:

        t  = ceil(8 k / eps)
        l  = ceil( ln(2 a (k+1) / eps) / ln(8 / eps) )
        e1 = eps / (8 a (k+1))
        e2 = eps / (8 t l a (k+1))
        m  = ceil(1 + max((2/e1) ln(1/e2), (2/e2) ln(1/e1)))

    where a = alpha for mode "l2", a = alpha / lam for mode "l2-outlier"
    (the inlier-error fraction assumption scales every constant by 1/lam),
    and a = alpha * k! * (k+1)^(p-1) for mode "lp" (the k-pass adaptive
    pivot guarantee folded in). m takes the larger of the two published
    forms, which dominates both. Explicit overrides replace individual
    outputs; eps_err / eps_tv overrides feed the m formula.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if alpha < 1.0:
        raise ValueError("alpha must be >= 1")
    if mode == "l2":
        a = alpha
    elif mode == "l2-outlier":
        if not 0.0 < lam <= 1.0:
            raise ValueError("lambda must lie in (0, 1]")
        a = alpha / lam
    elif mode == "lp":
        if p < 2.0:
            raise ValueError("lp mode requires p >= 2")
        a = alpha * math.factorial(k) * (k + 1.0) ** (p - 1.0)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    t = points_per_round if points_per_round is not None else _ceil_at_least_1(8.0 * k / epsilon)
    l = rounds if rounds is not None else _ceil_at_least_1(
        math.log(2.0 * a * (k + 1) / epsilon) / math.log(8.0 / epsilon))
    e1 = eps_err if eps_err is not None else epsilon / (8.0 * a * (k + 1))
    e2 = eps_tv if eps_tv is not None else epsilon / (8.0 * t * l * a * (k + 1))
    if not (0.0 < e1 < 1.0 and 0.0 < e2 < 1.0):
        raise ValueError("tolerance overrides must lie in (0, 1)")
    m = chain_steps if chain_steps is not None else _ceil_at_least_1(
        1.0 + max((2.0 / e1) * math.log(1.0 / e2), (2.0 / e2) * math.log(1.0 / e1)))
    return DerivedParams(points_per_round=int(t), rounds=int(l), chain_steps=int(m),
                         eps_err=float(e1), eps_tv=float(e2), alpha=float(a))


# ---------------------------------------------------------------------------
# chain bookkeeping and results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChainState:
    """Final state of one Metropolis chain: the point it settled on, its
    unnormalized target weight, its proposal probability, and step counts."""

    point: np.ndarray
    source_id: int
    target_weight: float
    proposal_prob: float
    steps_taken: int
    accepted: int


@dataclass
class SelectionResult:
    """Pivot subset plus the per-round blocks, with audit data.

    total_error is err_p of the raw selected span; benchmark ratios grade
    the best k-dimensional subspace inside the span separately. Selection
    size = len(initial_ids) + t*l except on exact-fit early stops, which
    are recorded in warnings.
    """

    initial_ids: tuple[int, ...]
    blocks: tuple[tuple[int, ...], ...]
    total_error: float
    initial_error: float
    p: float
    passes: PassLog
    accept_counts: tuple[tuple[int, ...], ...] = ()
    final_states: tuple[ChainState, ...] = ()
    params: DerivedParams | None = None
    warnings: tuple[str, ...] = ()
    basis: OrthonormalBasis | None = None

    @property
    def selected_ids(self) -> tuple[int, ...]:
        out = list(self.initial_ids)
        for block in self.blocks:
            out.extend(block)
        return tuple(out)

    @property
    def size(self) -> int:
        return len(self.selected_ids)

    @property
    def acceptance_rate(self) -> float | None:
        steps = sum(s.steps_taken for s in self.final_states)
        if steps == 0:
            return None
        return sum(s.accepted for s in self.final_states) / steps


# ---------------------------------------------------------------------------
# adaptive sampling
# ---------------------------------------------------------------------------

def adaptive_sample_round(source_or_points, current: Sequence[int], count: int,
                          p: float = 2.0, seed: int = 0, *,
                          basis: OrthonormalBasis | None = None,
                          rng: np.random.Generator | None = None,
                          label: str = "adaptive-round",
                          ) -> tuple[list[int], np.ndarray]:
    """count i.i.d. draws with probability proportional to the residual
    distance (to the span of `current`, or to `basis` when given) raised to
    p, in one reservoir pass; returns (ids, coordinates).

    With an empty span this is squared-length sampling. A streaming source
    with a nonempty `current` needs `basis`. Raises ExactFitReached when
    every residual is zero.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    source = as_source(source_or_points)
    rng = rng if rng is not None else derive_rng(seed, "adaptive-round", label)
    if basis is None:
        basis = _pivot_basis(source, tuple(check_subset_ids(current, source.n)), None)
    try:
        bank = weighted_reservoir_sample(
            source, lambda chunk: residual_distances(chunk, basis) ** p,
            count, seed=0, rng=rng, label=label)
    except ValueError as exc:
        if "degenerate weights" in str(exc):
            raise ExactFitReached("span of the current subset fits every point") from None
        raise
    return [int(i) for i in bank.ids], bank.points_for(bank.ids)


def adaptive_sample(source_or_points, initial_ids: Sequence[int], count: int,
                    rounds: int, p: float = 2.0, seed: int = 0, *,
                    initial_coords: np.ndarray | None = None) -> SelectionResult:
    """Multi-pass adaptive sampling baseline: `rounds` sequential rounds of
    `count` draws, each conditioned on everything selected so far.

    Consumes exactly one pass per completed round (plus whatever the caller
    spent building initial_ids). Exact fit stops early with error zero.
    """
    source = as_source(source_or_points)
    initial = tuple(check_subset_ids(initial_ids, source.n))
    basis = _pivot_basis(source, initial, initial_coords)
    initial_error = _err_report_pass(source, basis, p, "report:initial-error")
    blocks: list[tuple[int, ...]] = []
    warnings: list[str] = []
    for i in range(rounds):
        rng = derive_rng(seed, "adaptive-round", i)
        try:
            ids, coords = adaptive_sample_round(source, (), count, p, basis=basis,
                                                rng=rng, label=f"adaptive:{i + 1}")
        except ExactFitReached:
            warnings.append(f"exact fit after {i} rounds; stopped early")
            break
        blocks.append(tuple(ids))
        basis = extend_basis(basis, coords, ids)
    total_error = _err_report_pass(source, basis, p, "report:total-error")
    return SelectionResult(
        initial_ids=initial, blocks=tuple(blocks), total_error=total_error,
        initial_error=initial_error, p=p, passes=source.pass_log,
        warnings=tuple(warnings), basis=basis)


# ---------------------------------------------------------------------------
# volume sampling
# ---------------------------------------------------------------------------

def enumerate_volume_distribution(points: PointSet, k: int, p: float = 2.0,
                                  guard: int = ENUMERATION_GUARD,
                                  ) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """All k-subsets with their normalized vol^p probabilities (brute force)."""
    n = points.n
    if not 1 <= k <= n:
        raise ValueError("k must satisfy 1 <= k <= n")
    count = math.comb(n, k)
    if count > guard:
        raise ValueError(f"C({n},{k}) = {count} exceeds the enumeration guard {guard}")
    subsets = list(itertools.combinations(range(n), k))
    dets = np.empty(count)
    batch = 8192
    arr = np.array(subsets, dtype=np.int64)
    for lo in range(0, count, batch):
        dets[lo:lo + batch] = gram_dets(points, arr[lo:lo + batch])
    weights = dets ** (p / 2.0)
    total = float(weights.sum())
    if total <= 0.0:
        raise ValueError("rank-deficient dataset: every k-subset has zero volume")
    return subsets, weights / total


def volume_sample_exact(points: PointSet, k: int, p: float = 2.0, seed: int = 0, *,
                        rng: np.random.Generator | None = None) -> list[int]:
    """One k-subset with probability vol^p / sum vol^p by full enumeration.

    Guarded at C(n,k) <= 10^6; use volume_sample_dpp for large p=2 instances.
    """
    subsets, probs = enumerate_volume_distribution(points, k, p)
    rng = rng if rng is not None else derive_rng(seed, "volume-exact")
    idx = int(rng.choice(len(subsets), p=probs))
    return list(subsets[idx])


def volume_sample_dpp(points: PointSet, k: int, seed: int = 0, *,
                      rng: np.random.Generator | None = None) -> list[int]:
    """Exact squared-volume sampling without enumeration (p = 2 only).

    P(S) ~ det(Gram_S) is a fixed-size determinantal point process with
    kernel X X^T, whose nonzero eigenpairs come from the SVD of X. Samples
    an eigenvector subset through the elementary-symmetric-polynomial
    recursion, then points through the standard projection chain.
    """
    rng = rng if rng is not None else derive_rng(seed, "volume-dpp")
    n = points.n
    if not 1 <= k <= n:
        raise ValueError("k must satisfy 1 <= k <= n")
    u, s, _ = np.linalg.svd(points.data, full_matrices=False)
    # exact power-of-two rescale so s ** 2 cannot overflow at extreme scales
    s = np.ldexp(s, -np.frexp(s[0])[1])
    lam = s ** 2
    lam[s <= s[0] * 1e-12] = 0.0
    r = int(np.count_nonzero(lam))
    if r < k:
        raise ValueError("rank-deficient dataset: every k-subset has zero volume")
    lam = lam[:r] / lam[0]
    u = u[:, :r]

    # e[j, i] = elementary symmetric polynomial of degree j over lam[:i]
    e = np.zeros((k + 1, r + 1))
    e[0, :] = 1.0
    for j in range(1, k + 1):
        for i in range(1, r + 1):
            e[j, i] = e[j, i - 1] + lam[i - 1] * e[j - 1, i - 1]

    chosen = []
    j = k
    for i in range(r, 0, -1):
        if j == 0:
            break
        if rng.random() < lam[i - 1] * e[j - 1, i - 1] / e[j, i]:
            chosen.append(i - 1)
            j -= 1
    v = u[:, chosen]

    ids: list[int] = []
    for rem in range(k, 0, -1):
        row_sq = np.maximum(np.einsum("ij,ij->i", v, v), 0.0)
        probs = row_sq / row_sq.sum()
        i = int(rng.choice(n, p=probs))
        ids.append(i)
        if rem == 1:
            break
        c = int(np.argmax(np.abs(v[i])))
        v = v - np.outer(v[:, c] / v[i, c], v[i])
        v = np.delete(v, c, axis=1)
        v, _ = np.linalg.qr(v)
    return ids


def greedy_max_volume_init(points: PointSet, k: int) -> list[int]:
    """Deterministic farthest-residual picks; guarantees nonzero volume when
    the data has rank >= k. Ties break toward the smaller index."""
    ids: list[int] = []
    basis = orthonormal_basis(points, [])
    scale = float(np.max(np.linalg.norm(points.data, axis=1)))
    for _ in range(k):
        res = residual_distances(points.data, basis)
        i = int(np.argmax(res))
        if res[i] <= RANK_TOL * scale:
            raise ValueError("cannot find full-rank initial subset: data rank < k")
        ids.append(i)
        basis = extend_basis(basis, points.data[i], [i])
    return ids


def volume_sample_mcmc(points: PointSet, k: int, walk_steps: int, seed: int = 0, *,
                       initial: Sequence[int] | None = None,
                       rng: np.random.Generator | None = None) -> list[int]:
    """Lazy Metropolis walk over k-subsets targeting squared volumes.

    Each step proposes swapping a uniform member for a uniform outsider and
    moves with probability (1/2) min(1, vol_new^2 / vol_old^2); the walk
    distribution converges to exact volume sampling (p = 2) as steps grow.
    The current subset is kept sorted so step randomness matches the
    table-driven diagnostic walk exactly.
    """
    rng = rng if rng is not None else derive_rng(seed, "volume-walk")
    n = points.n
    if not 1 <= k <= n:
        raise ValueError("k must satisfy 1 <= k <= n")
    if k == n:
        return list(range(n))
    if initial is not None:
        cur = sorted(check_subset_ids(initial, n))
    else:
        cur = sorted(greedy_max_volume_init(points, k))
    vol_cur = simplex_volume_sq(points, cur)
    if vol_cur <= 0.0:
        raise ValueError("cannot start the walk from a zero-volume subset")
    mask = np.zeros(n, dtype=bool)
    mask[cur] = True
    for _ in range(walk_steps):
        u = float(rng.random())
        i_pos = int(rng.integers(0, k))
        j_out = int(rng.integers(0, n - k))
        j = int(np.flatnonzero(~mask)[j_out])
        cand = sorted([c for pos, c in enumerate(cur) if pos != i_pos] + [j])
        vol_new = simplex_volume_sq(points, cand)
        ratio = vol_new / vol_cur
        if u < 0.5 * min(1.0, ratio):
            mask[cur[i_pos]] = False
            mask[j] = True
            cur = cand
            vol_cur = vol_new
    return list(cur)


@dataclass(frozen=True)
class VolumeWalkDiagnostic:
    tv_distance: float
    empirical: np.ndarray
    exact: np.ndarray
    subsets: tuple[tuple[int, ...], ...]
    start_index: int


def volume_walk_distribution(points: PointSet, k: int, steps: int, walks: int,
                             seed: int = 0, guard: int = 20000) -> VolumeWalkDiagnostic:
    """Empirical end-state distribution of `walks` independent lazy volume
    walks versus the brute-force target (small instances only).

    Table-driven over enumerated subsets; with walks=1 it consumes random
    draws exactly like volume_sample_mcmc, which the tests exploit.
    """
    subsets, probs = enumerate_volume_distribution(points, k, 2.0, guard=guard)
    n = points.n
    count = len(subsets)
    index = {s: i for i, s in enumerate(subsets)}
    dets = np.empty(count)
    arr = np.array(subsets, dtype=np.int64)
    dets[:] = gram_dets(points, arr)

    trans = np.empty((count, k, n - k), dtype=np.int64)
    for si, sub in enumerate(subsets):
        others = [j for j in range(n) if j not in sub]
        for ip in range(k):
            for jo, j in enumerate(others):
                cand = tuple(sorted([x for x in sub if x != sub[ip]] + [j]))
                trans[si, ip, jo] = index[cand]

    start = index[tuple(sorted(greedy_max_volume_init(points, k)))]
    rng = derive_rng(seed, "volume-walk")
    state = np.full(walks, start, dtype=np.int64)
    for _ in range(steps):
        u = rng.random(walks)
        ip = rng.integers(0, k, size=walks)
        jo = rng.integers(0, n - k, size=walks)
        nxt = trans[state, ip, jo]
        with np.errstate(invalid="ignore"):
            ratio = dets[nxt] / dets[state]
        acc = u < 0.5 * np.minimum(1.0, ratio)
        state[acc] = nxt[acc]
    emp = np.bincount(state, minlength=count) / walks
    tv = 0.5 * float(np.abs(emp - probs).sum())
    return VolumeWalkDiagnostic(tv_distance=tv, empirical=emp, exact=probs,
                                subsets=tuple(subsets), start_index=start)


def adaptive_volume_init(source_or_points, k: int, p: float = 2.0,
                         seed: int = 0) -> tuple[list[int], np.ndarray]:
    """k rounds of single-point adaptive sampling (k passes on a source);
    an approximate volume sampler suitable as the pivot for p >= 2. Returns
    (ids, coordinates); stops early once the picks fit every point."""
    source = as_source(source_or_points)
    ids: list[int] = []
    coords = np.zeros((0, source.d))
    basis = OrthonormalBasis(source.d, np.zeros((0, source.d)), ())
    for i in range(k):
        rng = derive_rng(seed, "adaptive-init", i)
        try:
            pick, row = adaptive_sample_round(source, (), 1, p, basis=basis, rng=rng,
                                              label=f"init:adaptive:{i + 1}")
        except ExactFitReached:
            break
        ids.extend(pick)
        coords = np.vstack([coords, row])
        basis = extend_basis(basis, row, pick)
    return ids, coords


# ---------------------------------------------------------------------------
# Metropolis acceptance and proposal mixture
# ---------------------------------------------------------------------------

def proposal_q(x_residual_p, err_p_pivot: float, n: int):
    """Proposal mixture value: half residual^p / err plus a 1/(2n) floor.

    Works elementwise on arrays. The floor keeps every q at least 1/(2n),
    which bounds the walk's mixing time.
    """
    if err_p_pivot <= 0.0:
        raise ValueError("err_p of the pivot span is zero; caller must short-circuit")
    if n < 1:
        raise ValueError("n must be >= 1")
    return 0.5 * np.asarray(x_residual_p, dtype=np.float64) / err_p_pivot + 0.5 / n


def mh_accept(p_y, q_x, p_x, q_y, u):
    """Accept the move iff p_y q_x > u p_x q_y; elementwise on arrays.

    Cross-multiplied so a zero-mass current state (p_x = 0) never divides:
    any positive-mass proposal is then accepted, and a zero-mass proposal is
    never accepted.
    """
    return p_y * q_x > u * p_x * q_y


# ---------------------------------------------------------------------------
# single-pass Metropolis selection
# ---------------------------------------------------------------------------

def _pivot_basis(source: DatasetSource, ids: tuple[int, ...],
                 coords: np.ndarray | None) -> OrthonormalBasis:
    if coords is not None:
        coords = np.atleast_2d(np.asarray(coords, dtype=np.float64))
        if coords.shape[0] != len(ids):
            raise ValueError("pivot coordinates do not match pivot ids")
        base = OrthonormalBasis(source.d, np.zeros((0, source.d)), ())
        return extend_basis(base, coords, ids) if len(ids) else base
    if not ids:
        return OrthonormalBasis(source.d, np.zeros((0, source.d)), ())
    resident = source.in_memory_points()
    if resident is None:
        raise ValueError("streaming sources need explicit pivot coordinates")
    return orthonormal_basis(resident, ids)


def _err_report_pass(source: DatasetSource, basis: OrthonormalBasis, p: float,
                     label: str) -> float:
    acc = 0.0

    def visit(start, chunk):
        nonlocal acc
        acc += float((residual_distances(chunk, basis) ** p).sum())

    source.stream_pass_chunks(label, visit, reporting=True)
    return acc


def mcmc_select(source_or_points, pivot_ids: Sequence[int], params: DerivedParams,
                p: float = 2.0, seed: int = 0, *,
                pivot_coords: np.ndarray | None = None) -> SelectionResult:
    """Algorithm core: l rounds of t points, each point the endpoint of an
    (m-1)-step Metropolis chain over prefetched proposal draws, all fed by a
    single sequential pass.

    The pass accumulates err_p against the pivot span and fills the residual
    and uniform reservoir banks; a fair coin then assigns each chain slot to
    a bank, realizing i.i.d. draws from the mixture q. Chains within a round
    are independent (fresh q-draw starts, per-chain derived seeds) and their
    target is the span of everything selected before the round. When every
    prefetched candidate already fits the current span, the remaining blocks
    fall back to the uniform floor, as the zero-residual case requires.
    """
    source = as_source(source_or_points)
    n = source.n
    pivot = tuple(check_subset_ids(pivot_ids, n))
    t, l, m = params.points_per_round, params.rounds, params.chain_steps
    pivot_basis = _pivot_basis(source, pivot, pivot_coords)

    slots = t * l * m
    if slots > 10 ** 8:
        raise ValueError(
            f"t*l*m = {slots} proposal slots exceed the in-memory budget; "
            "derived chain lengths at this size need a chain_steps override")
    err_pivot, bank_w, bank_u = proposal_prefetch_pass(
        source, pivot_basis, p, slots, seed, label="mcmc:select")
    coins = derive_rng(seed, "mixture-coins").random(slots) < 0.5

    if err_pivot > 0.0:
        cand_ids = np.where(coins, bank_w.ids, bank_u.ids)
        coord_map = {**bank_u.coord_map(), **bank_w.coord_map()}
    else:
        cand_ids = bank_u.ids
        coord_map = bank_u.coord_map()

    pool_ids, slot_pool = np.unique(cand_ids, return_inverse=True)
    pool_coords = np.array([coord_map[int(i)] for i in pool_ids])
    w_pivot_pool = residual_distances(pool_coords, pivot_basis) ** p
    if err_pivot > 0.0:
        q_pool = proposal_q(w_pivot_pool, err_pivot, n)
    else:
        q_pool = np.full(len(pool_ids), 1.0 / n)

    basis = pivot_basis
    blocks: list[tuple[int, ...]] = []
    accept_counts: list[tuple[int, ...]] = []
    states: list[ChainState] = []
    warnings: list[str] = []
    floor_fill = err_pivot <= 0.0
    if floor_fill:
        warnings.append("pivot span fits every point; blocks drawn from the uniform floor")

    for rnd in range(l):
        base = (rnd * t + np.arange(t)) * m
        if not floor_fill:
            w_pool = residual_distances(pool_coords, basis) ** p
            if float(w_pool.max(initial=0.0)) <= 0.0:
                floor_fill = True
                warnings.append(
                    f"candidate pool exactly fit after {rnd} rounds; "
                    "remaining blocks drawn from the uniform floor")
        if floor_fill:
            ids = tuple(int(i) for i in bank_u.ids[base])
            coords = bank_u.points_for(bank_u.ids[base])
            res_p = residual_distances(coords, pivot_basis) ** p
            qs = (proposal_q(res_p, err_pivot, n) if err_pivot > 0.0
                  else np.full(t, 1.0 / n))
            accept_counts.append(tuple(0 for _ in range(t)))
            for c in range(t):
                states.append(ChainState(point=coords[c], source_id=ids[c],
                                         target_weight=0.0, proposal_prob=float(qs[c]),
                                         steps_taken=0, accepted=0))
        else:
            us = np.empty((t, m - 1)) if m > 1 else np.zeros((t, 0))
            for c in range(t):
                if m > 1:
                    us[c] = derive_rng(seed, "chain", rnd, c).random(m - 1)
            x = slot_pool[base]
            p_x = w_pool[x]
            q_x = q_pool[x]
            acc_count = np.zeros(t, dtype=np.int64)
            for j in range(1, m):
                y = slot_pool[base + j]
                p_y = w_pool[y]
                q_y = q_pool[y]
                acc = mh_accept(p_y, q_x, p_x, q_y, us[:, j - 1])
                x[acc] = y[acc]
                p_x[acc] = p_y[acc]
                q_x[acc] = q_y[acc]
                acc_count += acc
            ids = tuple(int(i) for i in pool_ids[x])
            coords = pool_coords[x]
            accept_counts.append(tuple(int(a) for a in acc_count))
            for c in range(t):
                states.append(ChainState(point=coords[c], source_id=ids[c],
                                         target_weight=float(p_x[c]),
                                         proposal_prob=float(q_x[c]),
                                         steps_taken=m - 1, accepted=int(acc_count[c])))
        blocks.append(ids)
        basis = extend_basis(basis, coords, ids)

    total_error = _err_report_pass(source, basis, p, "report:total-error")
    return SelectionResult(
        initial_ids=pivot, blocks=tuple(blocks), total_error=total_error,
        initial_error=err_pivot, p=p, passes=source.pass_log,
        accept_counts=tuple(accept_counts), final_states=tuple(states),
        params=params, warnings=tuple(warnings), basis=basis)


# ---------------------------------------------------------------------------
# full pipelines
# ---------------------------------------------------------------------------

def _default_walk_steps(points: PointSet, k: int) -> int:
    """Condition-number-driven walk length for the volume init (heuristic)."""
    s = np.linalg.svd(points.data, compute_uv=False)
    if s[0] <= 0.0:
        return points.n * k
    smin = float(s[s > s[0] * 1e-12][-1])
    kappa = float(s[0]) / smin
    return int(math.ceil(points.n * k * (k * math.log(max(kappa, math.e))
                                         + math.log(points.n))))


def init_pivot(source: DatasetSource, k: int, p: float, seed: int, init_mode: str,
               init_walk_steps: int | None = None,
               ) -> tuple[list[int], np.ndarray, float]:
    """Draw the pivot subset per init_mode; returns (ids, coords, alpha).

    alpha is the approximate-volume-sampling quality factor the parameter
    derivation should assume for this pivot. Volume inits take one
    materializing pass; the adaptive init takes k single-point passes.
    """
    if init_mode in ("exact-volume", "mcmc-volume"):
        pts = source.collect(f"init:{init_mode}")
        rng = derive_rng(seed, "init", init_mode)
        if init_mode == "exact-volume":
            if p == 2.0:
                ids = volume_sample_dpp(pts, k, rng=rng)
            else:
                ids = volume_sample_exact(pts, k, p, rng=rng)
            alpha = 1.0
        else:
            steps = init_walk_steps or _default_walk_steps(pts, k)
            ids = volume_sample_mcmc(pts, k, steps, rng=rng)
            alpha = (k + 2.0) / (k + 1.0)
        return ids, pts.data[ids], alpha
    if init_mode != "adaptive-k-pass":
        raise ValueError(f"unknown init_mode {init_mode!r}")
    ids, coords = adaptive_volume_init(source, k, p, seed)
    return ids, coords, (float(math.factorial(k)) if p == 2.0 else 1.0)


def select_subset(source_or_points, config: SamplingConfig) -> SelectionResult:
    """The full pipeline: pivot initialization plus the Metropolis pass.

    p = 2 with a volume init runs in 2 passes; p > 2 (or an adaptive init)
    runs in k+1. All pass counts are auditable from the result's PassLog.
    """
    source = as_source(source_or_points)
    if config.k > source.d:
        raise ValueError(f"k={config.k} exceeds data dimension d={source.d}")
    k, p, seed = config.k, config.p, config.seed
    ids, coords, alpha = init_pivot(source, k, p, seed, config.init_mode,
                                    config.init_walk_steps)
    params = derive_params(
        k, config.epsilon, alpha, mode=("l2" if p == 2.0 else "lp"), p=p,
        points_per_round=config.points_per_round, rounds=config.rounds,
        chain_steps=config.chain_steps)
    return mcmc_select(source, ids, params, p, seed, pivot_coords=coords)


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TVDiagnostic:
    tv_distance: float
    gamma: float
    empirical: np.ndarray
    exact: np.ndarray
    chain_steps: int
    trials: int


def tv_distance_diag(points: PointSet, pivot_ids: Sequence[int],
                     current_ids: Sequence[int], chain_steps: int, p: float = 2.0,
                     trials: int = 100_000, seed: int = 0) -> TVDiagnostic:
    """Empirical total-variation distance between m-step chain endpoints and
    the exact one-point adaptive distribution conditioned on `current_ids`.

    chain_steps = m means one q-draw plus m-1 proposal steps; m = 1 measures
    TV between q itself and the target. Also reports gamma, the worst-case
    target/proposal ratio that controls the (1 - 1/gamma)^(m-1) decay.
    Enumeration-based: n must be at most 4096.
    """
    n = points.n
    if n > TV_DIAG_MAX_POINTS:
        raise ValueError(f"n={n} too large to enumerate the exact distribution "
                         f"(limit {TV_DIAG_MAX_POINTS})")
    if chain_steps < 1:
        raise ValueError("chain_steps must be >= 1")
    pivot_basis = orthonormal_basis(points, pivot_ids)
    current_basis = orthonormal_basis(points, current_ids)
    w0 = residual_distances(points.data, pivot_basis) ** p
    err0 = float(w0.sum())
    if err0 <= 0.0:
        raise ExactFitReached("pivot span fits every point")
    w = residual_distances(points.data, current_basis) ** p
    err_cur = float(w.sum())
    if err_cur <= 0.0:
        raise ExactFitReached("current span fits every point")
    q = np.asarray(proposal_q(w0, err0, n))
    target = w / err_cur
    gamma = float(np.max(target / q))

    rng = derive_rng(seed, "tv-diag")
    state = rng.choice(n, size=trials, p=q)
    for _ in range(chain_steps - 1):
        y = rng.choice(n, size=trials, p=q)
        u = rng.random(trials)
        acc = mh_accept(target[y], q[state], target[state], q[y], u)
        state[acc] = y[acc]
    emp = np.bincount(state, minlength=n) / trials
    tv = 0.5 * float(np.abs(emp - target).sum())
    return TVDiagnostic(tv_distance=tv, gamma=gamma, empirical=emp, exact=target,
                        chain_steps=chain_steps, trials=trials)
