"""Sampling algorithms for subset selection.

Adaptive sampling (squared-length sampling is its round with an empty
span), volume sampling (enumeration, determinantal, lazy random walk), the
pivot-proposal Metropolis selection that compresses the adaptive rounds into
a single pass, closed-form parameter derivation, and distributional
diagnostics.

The source-driven operations (adaptive sampling, mcmc_select,
select_subset) do all data access through pass-counted sequential scans and
consume their random streams identically for in-memory and streaming
sources; a PointSet argument is wrapped in an in-memory source. A span is
one OrthonormalBasis, whose source ids are the rows that made it: init_pivot
returns one, and mcmc_select and adaptive_sample grow one into result.basis.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import (
    RANK_TOL,
    OrthonormalBasis,
    PointSet,
    _gram_eigh,
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
    DegenerateWeightsError,
    PassLog,
    as_source,
    proposal_prefetch_pass,
    weighted_reservoir_sample,
)

ENUMERATION_GUARD = 10 ** 6
TV_DIAG_MAX_POINTS = 4096


# A chain round deals its proposals in blocks of about BLOCK_PROPOSALS, each
# LANE_STEPS-step segment of a chain being one lane of the block. A block of
# 2**18 stays in cache while it is shuffled; at a coupling rate of 0.5 per
# step, a 64-step segment that never couples has probability 2**-64.
LANE_STEPS = 64
BLOCK_PROPOSALS = 2 ** 18

# Bytes per proposal of one block in mcmc_select: an int64 pool index, a
# float64 chain uniform, its float64 ratio and the product it is compared
# with. numpy's hypergeometric deal takes under 1e9 draws.
SLOT_BYTES = 32


class ExactFitReached(RuntimeError):
    """The selected span already fits every point; residual weights vanish."""


class SlotBudgetError(ValueError):
    """The captured rows and one block of proposals would not fit in memory,
    or t*l*m reaches 1e9."""


def physical_memory_bytes() -> int:
    """Physical memory of this machine, which bounds the proposal slots."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


# ---------------------------------------------------------------------------
# configuration and derived parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SamplingConfig:
    """User-facing knobs for the selection pipeline.

    init_mode picks how the pivot subset is drawn: exact-volume (one
    materializing pass), mcmc-volume (one pass plus an in-memory lazy walk),
    or adaptive-k-pass (k single-point passes, the one init for p != 2).
    Overrides replace the derived t / l / m.
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


def derive_params(k: int, epsilon: float, alpha: float = 1.0, *,
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

    where a = alpha / lam (the inlier-error fraction assumption scales every
    constant by 1/lam; lam = 1 without outliers), times k! * (k+1)^(p-1)
    when p != 2 (the k-pass adaptive pivot guarantee folded in). m takes the
    larger of the two published forms, which dominates both. Explicit
    overrides replace individual outputs; eps_err / eps_tv overrides feed
    the m formula.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if alpha < 1.0:
        raise ValueError("alpha must be >= 1")
    if not 0.0 < lam <= 1.0:
        raise ValueError("lambda must lie in (0, 1]")
    if p < 2.0:
        raise ValueError("p must be >= 2")
    a = alpha / lam
    if p != 2.0:
        a = a * math.factorial(k) * (k + 1.0) ** (p - 1.0)

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
    """Final state of one Metropolis chain: the row it settled on, its
    unnormalized target weight, its proposal probability, and step counts."""

    source_id: int
    target_weight: float
    proposal_prob: float
    steps_taken: int
    accepted: int


@dataclass
class SelectionResult:
    """Pivot subset plus the per-round blocks, with audit data.

    basis spans the selected rows. A selection makes no grading scan: the
    caller grades basis on its own points (err_p, best_rank_k_in_span).
    Selection size = len(initial_ids) + t*l except on exact-fit early stops,
    which are recorded in warnings.
    """

    initial_ids: tuple[int, ...]
    blocks: tuple[tuple[int, ...], ...]
    p: float
    passes: PassLog
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

def adaptive_sample_round(source_or_points, basis: OrthonormalBasis, count: int,
                          p: float = 2.0, seed: int = 0, *,
                          rng: np.random.Generator | None = None,
                          label: str = "adaptive-round",
                          ) -> tuple[list[int], np.ndarray]:
    """count i.i.d. draws with probability proportional to the residual
    distance to span(basis) raised to p, in one reservoir pass; returns
    (ids, coordinates).

    With the empty span this is squared-length sampling. Raises
    ExactFitReached when every residual is zero.
    """
    source = as_source(source_or_points)
    rng = rng if rng is not None else derive_rng(seed, "adaptive-round", label)
    try:
        bank = weighted_reservoir_sample(
            source, lambda chunk: residual_distances(chunk, basis) ** p,
            count, seed=0, rng=rng, label=label)
    except DegenerateWeightsError:
        raise ExactFitReached("the span fits every point") from None
    return [int(i) for i in bank.ids], bank.points_for(bank.ids)


def adaptive_sample(source_or_points, initial: OrthonormalBasis, count: int,
                    rounds: int, p: float = 2.0, seed: int = 0) -> SelectionResult:
    """Multi-pass adaptive sampling: `rounds` sequential rounds of `count`
    draws, each conditioned on span(initial) and everything selected so far.

    initial is any span, such as a selection's basis or
    OrthonormalBasis.empty(d); its source ids head the selection. Consumes
    exactly one pass per completed round and no reporting pass. Exact fit
    stops early, with a warning.
    """
    source = as_source(source_or_points)
    basis = initial
    blocks: list[tuple[int, ...]] = []
    warnings: list[str] = []
    for i in range(rounds):
        rng = derive_rng(seed, "adaptive-round", i)
        try:
            ids, coords = adaptive_sample_round(source, basis, count, p, rng=rng,
                                                label=f"adaptive:{i + 1}")
        except ExactFitReached:
            warnings.append(f"exact fit after {i} rounds; stopped early")
            break
        blocks.append(tuple(ids))
        basis = extend_basis(basis, coords, ids)
    return SelectionResult(
        initial_ids=initial.source_ids, blocks=tuple(blocks), p=p,
        passes=source.pass_log, warnings=tuple(warnings), basis=basis)


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

    P(S) ~ det(Gram_S) is a fixed-size DPP with kernel X X^T, sampled in
    dual form (Kulesza & Taskar 2012, 3.3): eigenpairs of the power-of-two-
    rescaled Gram X^T X, an eigenvector subset S by the elementary-symmetric
    recursion, then the projection chain on X V_S Lambda_S^(-1/2) made
    orthonormal by QR. Eigenvalues <= 1e-12 of the largest (singular values
    1e-6) are zero: the Gram resolves about d * 2**-52. Seeded ids are the
    same for data scaled by a power of two.
    """
    rng = rng if rng is not None else derive_rng(seed, "volume-dpp")
    n = points.n
    if not 1 <= k <= n:
        raise ValueError("k must satisfy 1 <= k <= n")
    xs, lam, vecs = _gram_eigh(points.data)
    r = int(np.count_nonzero(lam > lam[0] * 1e-12))
    if r < k:
        raise ValueError("rank-deficient dataset: every k-subset has zero volume")
    lam = lam[:r] / lam[0]

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
    v, _ = np.linalg.qr(xs @ (vecs[:, chosen] / np.sqrt(lam[chosen])))

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
    basis = OrthonormalBasis.empty(points.d)
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
    for _ in range(walk_steps):
        u = float(rng.random())
        i_pos = int(rng.integers(0, k))
        j = int(rng.integers(0, n - k))
        for c in cur:  # the j-th outsider: skip every member at or below it
            j += c <= j
        cand = sorted([c for pos, c in enumerate(cur) if pos != i_pos] + [j])
        vol_new = simplex_volume_sq(points, cand)
        ratio = vol_new / vol_cur
        if u < 0.5 * min(1.0, ratio):
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


def mh_accept(r_y, r_x, u):
    """Accept the move from x to y iff r_y > u r_x; elementwise on arrays.

    r = target / q is the importance ratio of an independence Metropolis
    chain with proposal q, finite as q >= 1/(2n). Off a zero-mass state
    (r_x = 0) any positive-mass proposal is accepted, and a zero-mass
    proposal (r_y = 0) is never accepted. fl(u r) is nondecreasing in r, so
    r_y > u r_max, r_max the largest ratio a chain can be at, accepts from
    every state: all chains meet there (Corcoran & Tweedie 2002).
    """
    return r_y > u * r_x


# ---------------------------------------------------------------------------
# single-pass Metropolis selection
# ---------------------------------------------------------------------------

def _deal(rng: np.random.Generator, stock: np.ndarray, count: int) -> np.ndarray:
    """`count` of the draws counted in `stock`, taken out of it as a uniform
    subset, as pool indices in random order."""
    dealt = rng.multivariate_hypergeometric(stock, count)
    stock -= dealt
    ids = np.repeat(np.arange(len(stock)), dealt)
    rng.shuffle(ids)
    return ids


def _walk(x: np.ndarray, y: np.ndarray, u: np.ndarray,
          r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Chains at pool entries x take step j to proposals y[j] with uniforms
    u[j], one step after another; returns their states and acceptances."""
    accepted = np.zeros(len(x), dtype=np.int64)
    for y_j, u_j in zip(y, u):
        acc = mh_accept(r[y_j], r[x], u_j)
        x = np.where(acc, y_j, x)
        accepted += acc
    return x, accepted


def _lane_block(x: np.ndarray, y: np.ndarray, u: np.ndarray,
                r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Chains at pool entries x (t,) walk a (g, b, t) block: y[s, j, c] is
    the proposal of step s*b + j of chain c and u[s, j, c] its uniform.
    Returns the states the block leaves and the acceptances in it, equal to
    those of walking the steps one after another.

    Every (segment s, chain c) is a lane. Its first step that accepts from
    every state (r_y > u r_max) forgets where the lane entered, so all lanes
    run at once from there. Segment ends are then stitched chain by chain,
    walking lanes without such a step from their entry, and a second lane
    pass counts the acceptances before each lane's first coupling step.
    """
    g, b, t = y.shape
    top = len(r)
    rs = np.append(r, r.max())  # entry `top` stands for any state of a lane
    ry = rs[y]
    couple = mh_accept(ry, rs[top], u)
    coupled = couple.any(axis=1)
    first = np.where(coupled, couple.argmax(axis=1), b)
    z = np.full((g, t), top)
    accepted = np.zeros((g, t), dtype=np.int64)
    for j in range(int(first.min()), b):
        acc = mh_accept(ry[:, j], rs[z], u[:, j])
        z = np.where(acc, y[:, j], z)
        accepted += acc

    entry = np.empty_like(z)
    for s in range(g):
        entry[s] = x
        loose = ~coupled[s]  # accepted nothing above
        if loose.any():
            z[s, loose], accepted[s, loose] = _walk(x[loose], y[s][:, loose],
                                                   u[s][:, loose], r)
        x = z[s]

    stop = np.where(coupled, first, 0)
    for j in range(int(stop.max())):
        acc = mh_accept(ry[:, j], rs[entry], u[:, j]) & (j < stop)
        entry = np.where(acc, y[:, j], entry)
        accepted += acc
    return x, accepted.sum(axis=0)


def _chain_round(rng: np.random.Generator, stock: np.ndarray, r: np.ndarray,
                 t: int, m: int, seed: int, rnd: int) -> tuple[np.ndarray, np.ndarray]:
    """t chains of m - 1 steps over proposals dealt out of `stock`, r being
    the ratio of each pool entry; returns the endpoints and acceptances.

    The deal runs in step order: the t starts, then blocks of whole
    LANE_STEPS segments, then the steps left over. The uniforms are one
    stream drawn in the same order.
    """
    urng = derive_rng(seed, "chain", rnd)
    x = _deal(rng, stock, t)
    accepted = np.zeros(t, dtype=np.int64)
    segments, tail = divmod(m - 1, LANE_STEPS)
    per_block = max(1, BLOCK_PROPOSALS // (LANE_STEPS * t))
    for lo in range(0, segments, per_block):
        shape = (min(per_block, segments - lo), LANE_STEPS, t)
        y = _deal(rng, stock, math.prod(shape)).reshape(shape)
        u = urng.random((shape[0] * LANE_STEPS, t)).reshape(shape)
        x, acc = _lane_block(x, y, u, r)
        accepted += acc
    if tail:
        x, acc = _walk(x, _deal(rng, stock, tail * t).reshape(tail, t),
                       urng.random((tail, t)), r)
        accepted += acc
    return x, accepted


def mcmc_select(source_or_points, pivot: OrthonormalBasis, params: DerivedParams,
                p: float = 2.0, seed: int = 0) -> SelectionResult:
    """Algorithm core: l rounds of t points, each point the endpoint of an
    (m-1)-step Metropolis chain over prefetched proposal draws, all fed by a
    single sequential pass and no reporting pass.

    pivot is the span the proposals are anchored at, usually init_pivot's
    basis; its source ids head the selection. The pass accumulates err_p
    against it, q's normaliser, and
    fills a residual and a uniform bank of t*l*m draws each, kept as per-row
    counts. Binomial(t*l*m, 1/2) residual draws and the rest uniform ones,
    each a uniform subset of its bank, are i.i.d. draws from the mixture q.
    Chains within a round are independent and their target is the span of
    everything selected before the round.

    A round deals t*m of those draws in step order: the t chain starts,
    then blocks of g*LANE_STEPS*t proposals laid out (g, LANE_STEPS, t), row
    j of a block being step j of every chain, then a (m-1) mod LANE_STEPS
    step tail. Each block is a hypergeometric split of the stock shuffled in
    itself, which has the law of one shuffle of the whole round, so a round
    keeps one block in memory. The chain uniforms are one stream per round,
    derive_rng(seed, "chain", round), drawn in the same step order. The
    chains are independence Metropolis samplers on r = target / q, computed
    once per round for the pool entries that still hold proposals. A step
    with r_y > u r_max accepts from every state, so from there a segment's
    path does not depend on where it entered: a block runs all its segments
    as vector lanes (_lane_block), with the same endpoints and acceptance
    counts as walking the steps one after another.

    SlotBudgetError is raised before the pass when the captured rows plus
    one dealt block would not fit in physical memory, or t*l*m reaches 1e9.
    Once every proposal left fits the span, each later round selects t
    uniform draws that no chain was dealt. The result's basis spans the
    selection; grading it is the caller's scan.
    """
    source = as_source(source_or_points)
    n = source.n
    t, l, m = params.points_per_round, params.rounds, params.chain_steps

    slots = t * l * m
    per_deal = min(t * m, max(BLOCK_PROPOSALS, LANE_STEPS * t))
    need = per_deal * SLOT_BYTES + 2 * min(n, slots) * (source.d + 2) * 8
    have = physical_memory_bytes()
    if slots >= 10 ** 9 or need > have:
        raise SlotBudgetError((
            f"t*l*m = {slots} proposal slots reaches the limit of 1e9" if slots >= 10 ** 9
            else f"the captured rows and a deal of {per_deal} proposals need about "
            f"{need / 2**30:.3g} GiB, over the limit of {have / 2**30:.3g} GiB of physical "
            "memory") + "; derived chain lengths at this size need a chain_steps override")
    err_pivot, bank_w, bank_u = proposal_prefetch_pass(
        source, pivot, p, slots, seed, label="mcmc:select")

    rng = derive_rng(seed, "deal")
    if bank_w is None:
        pool_ids, pool_coords, stock = bank_u.rows, bank_u.coords, bank_u.counts.copy()
    else:
        # the pool: residual rows in the mixture, then all uniform rows (a row may repeat)
        s_w = int(rng.binomial(slots, 0.5))
        mixed = rng.multivariate_hypergeometric(bank_w.counts, s_w)
        picks = np.flatnonzero(mixed)
        pool_ids = np.concatenate([bank_w.rows[picks], bank_u.rows])
        pool_coords = np.concatenate([bank_w.coords[picks], bank_u.coords])
        stock = np.concatenate([mixed[picks], rng.multivariate_hypergeometric(
            bank_u.counts, slots - s_w)])
    u_at = len(stock) - len(bank_u.rows)
    spare = bank_u.counts - stock[u_at:]
    del bank_w, bank_u  # free their coordinates; the pool holds those it needs
    w_pool = residual_distances(pool_coords, pivot) ** p
    q_pool = (proposal_q(w_pool, err_pivot, n) if err_pivot > 0.0
              else np.full(len(pool_ids), 1.0 / n))
    basis = pivot
    blocks: list[tuple[int, ...]] = []
    states: list[ChainState] = []
    warnings: list[str] = []
    floor_fill = err_pivot <= 0.0
    if floor_fill:
        warnings.append("pivot span fits every point; blocks drawn from the uniform floor")

    for rnd in range(l):
        if not floor_fill:
            # only entries that still hold proposals are dealt or reached
            live = stock > 0
            if rnd > 0:
                w_pool[live] = residual_distances(pool_coords[live], basis) ** p
            if float(w_pool[live].max(initial=0.0)) <= 0.0:
                floor_fill = True
                warnings.append(
                    f"candidate pool exactly fit after {rnd} rounds; "
                    "remaining blocks drawn from the uniform floor")
        if floor_fill:
            # t i.i.d. uniform rows, taken from the uniform draws no chain was dealt
            spare += stock[u_at:]
            stock[u_at:] = 0
            x = u_at + _deal(rng, spare, t)
            p_x, accepted, steps = np.zeros(t), np.zeros(t, dtype=int), 0
        else:
            r = np.divide(w_pool, q_pool, out=np.zeros(len(stock)), where=live)
            x, accepted = _chain_round(rng, stock, r, t, m, seed, rnd)
            p_x, steps = w_pool[x], m - 1
        block = tuple(int(i) for i in pool_ids[x])
        states.extend(ChainState(i, float(w), float(q), steps, int(a))
                      for i, w, q, a in zip(block, p_x, q_pool[x], accepted))
        blocks.append(block)
        basis = extend_basis(basis, pool_coords[x], block)

    return SelectionResult(
        initial_ids=pivot.source_ids, blocks=tuple(blocks), p=p,
        passes=source.pass_log, final_states=tuple(states), params=params,
        warnings=tuple(warnings), basis=basis)


# ---------------------------------------------------------------------------
# full pipelines
# ---------------------------------------------------------------------------

def _default_walk_steps(points: PointSet, k: int) -> int:
    """Condition-number-driven walk length for the volume init (heuristic);
    a values-only SVD, as kappa needs singular values down to 1e-12 of the
    largest, below the Gram kernel's reach (no benchmark workload runs it)."""
    s = np.linalg.svd(points.data, compute_uv=False)
    if s[0] <= 0.0:
        return points.n * k
    smin = float(s[s > s[0] * 1e-12][-1])
    kappa = float(s[0]) / smin
    return int(math.ceil(points.n * k * (k * math.log(max(kappa, math.e))
                                         + math.log(points.n))))


def init_pivot(source: DatasetSource, k: int, p: float, seed: int, init_mode: str,
               init_walk_steps: int | None = None,
               ) -> tuple[OrthonormalBasis, float]:
    """Draw the pivot span per init_mode; returns (basis, alpha), the basis's
    source ids being the pivot subset.

    alpha is the approximate-volume-sampling quality factor the parameter
    derivation should assume for this pivot. Volume inits (p = 2 only) take
    one materializing pass. The adaptive init is adaptive_sample with k
    single-point rounds from the empty span, k passes that stop early once
    the picks fit every point.
    """
    if p != 2.0 and init_mode != "adaptive-k-pass":
        raise ValueError(f"p = {p:g} needs init_mode 'adaptive-k-pass'; "
                         f"{init_mode} samples p = 2 volumes")
    if init_mode == "adaptive-k-pass":
        pivot = adaptive_sample(source, OrthonormalBasis.empty(source.d), 1, k, p, seed)
        return pivot.basis, (float(math.factorial(k)) if p == 2.0 else 1.0)
    if init_mode not in ("exact-volume", "mcmc-volume"):
        raise ValueError(f"unknown init_mode {init_mode!r}")
    pts = source.collect(f"init:{init_mode}")
    rng = derive_rng(seed, "init", init_mode)
    if init_mode == "exact-volume":
        ids = volume_sample_dpp(pts, k, rng=rng)
        alpha = 1.0
    else:
        steps = init_walk_steps or _default_walk_steps(pts, k)
        ids = volume_sample_mcmc(pts, k, steps, rng=rng)
        alpha = (k + 2.0) / (k + 1.0)
    return orthonormal_basis(pts, ids), alpha


def select_subset(source_or_points, config: SamplingConfig) -> SelectionResult:
    """The full pipeline: pivot initialization plus the Metropolis pass.

    A volume init (p = 2 only) runs in 2 passes, the adaptive init in k+1.
    All pass counts are auditable from the result's PassLog.
    """
    source = as_source(source_or_points)
    if config.k > source.d:
        raise ValueError(f"k={config.k} exceeds data dimension d={source.d}")
    k, p, seed = config.k, config.p, config.seed
    pivot, alpha = init_pivot(source, k, p, seed, config.init_mode,
                              config.init_walk_steps)
    params = derive_params(k, config.epsilon, alpha, p=p,
                           points_per_round=config.points_per_round,
                           rounds=config.rounds, chain_steps=config.chain_steps)
    return mcmc_select(source, pivot, params, p, seed)


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
    TV between q itself and the target. The steps use mcmc_select's kernel,
    mh_accept on r = target / q. Also reports gamma, the worst-case
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
    r = target / q
    gamma = float(np.max(r))

    rng = derive_rng(seed, "tv-diag")
    state = rng.choice(n, size=trials, p=q)
    for _ in range(chain_steps - 1):
        y = rng.choice(n, size=trials, p=q)
        u = rng.random(trials)
        acc = mh_accept(r[y], r[state], u)
        state[acc] = y[acc]
    emp = np.bincount(state, minlength=n) / trials
    tv = 0.5 * float(np.abs(emp - target).sum())
    return TVDiagnostic(tv_distance=tv, gamma=gamma, empirical=emp, exact=target,
                        chain_steps=chain_steps, trials=trials)
