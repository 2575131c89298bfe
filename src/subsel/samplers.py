"""Sampling algorithms for subset selection.

Adaptive sampling (squared-length sampling is its round with an empty
span), volume sampling (determinantal, lazy random walk, and the enumerated
law the diagnostics and tests compare them with), the
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
    _cgs2_extend,
    _check_p,
    _eigh_desc,
    _pow2_exponent,
    _row_norms,
    _scaled_blocks,
    extend_basis,
    gram_dets,
    orthonormal_basis,
    residual_distances,
)
from .rng import derive_rng
from .stream import (
    DatasetSource,
    DegenerateWeightsError,
    PassLog,
    RowStore,
    _check_beta_lambda,
    as_source,
    length_squared_pass,
    proposal_prefetch_pass,
    weighted_reservoir_sample,
)

ENUMERATION_GUARD = 10 ** 6
# the diagnostics' limits: tv_distance_diag's rows, volume_walk_distribution's k-subsets
TV_DIAG_MAX_POINTS = 4096
WALK_DIAG_MAX_SUBSETS = 20000


# A chain round deals its proposals in blocks of whole steps, at most
# BLOCK_PROPOSALS each (one step when t exceeds it). A block of 2**18 stays
# in cache while it is shuffled.
BLOCK_PROPOSALS = 2 ** 18

# Bytes per proposal of one block in mcmc_select: its int64 pool index, its
# float64 ratio and its float64 chain uniform, 24 B, rounded up for headroom.
# numpy's hypergeometric deal takes under 1e9 draws, so a selection draws
# at most MAX_DERIVED_DRAWS, and an explicit m must keep t*l*m below 1e9.
SLOT_BYTES = 32
MAX_DERIVED_DRAWS = 10 ** 9 - 1

# The exact-volume pivot sizes its length-squared draws (pivot_draws) so that
# they run out with probability at most PIVOT_MISS on a spectrum whose k
# eigenvalues in S are each at least a seventh of the mean; it tests them
# PIVOT_WINDOW at a time at most, a chunk's worth of rows.
PIVOT_MISS = 1e-9
PIVOT_WINDOW = 1024


class ExactFitReached(RuntimeError):
    """The selected span already fits every point; residual weights vanish."""


class RankDeficientError(ValueError):
    """The data has rank below k, so no k rows span a k-dimensional pivot."""


class DrawBudgetError(ValueError):
    """The exact-volume pivot's length-squared draws ran out before it
    accepted k rows, on a streaming source, which has no rows in memory to
    draw more from."""


class SlotBudgetError(ValueError):
    """The proposals a selection needs do not fit: the stored rows and one
    block of proposals (or the exact-volume pivot's stored draws) would not
    fit in memory, an explicit m makes t*l*m reach 1e9, or a derived-m round
    certifies more steps than its bank has draws left."""


def physical_memory_bytes() -> int:
    """Physical memory of this machine, which bounds the proposal slots."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


# ---------------------------------------------------------------------------
# configuration and derived parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SamplingConfig:
    """User-facing knobs for the selection pipeline.

    init_mode picks how the pivot subset is drawn: exact-volume (one pass
    that sums the Gram and keeps length-squared draws, then a DPP draw,
    p = 2 only) or adaptive-k-pass (k single-point passes, the one init for
    p != 2). Overrides replace the derived t / l / m. Construction checks
    every option before any pass, through the init_mode rules and the
    closed forms _params derives.
    """

    k: int
    epsilon: float
    p: float = 2.0
    seed: int = 0
    init_mode: str = "exact-volume"
    points_per_round: int | None = None
    rounds: int | None = None
    chain_steps: int | None = None

    def __post_init__(self):
        self._params()
        _check_init(self.init_mode, self.p)

    def _params(self, lam: float = 1.0) -> DerivedParams:
        """derive_params at the init's alpha: k! for the adaptive init at p = 2,
        else 1. A k below 1 takes no factorial; derive_params refuses it."""
        adaptive_p2 = self.init_mode == "adaptive-k-pass" and self.p == 2.0 and self.k >= 1
        return derive_params(self.k, self.epsilon,
                             _pivot_constant(self.k, 2.0) if adaptive_p2 else 1.0,
                             p=self.p, lam=lam, points_per_round=self.points_per_round,
                             rounds=self.rounds, chain_steps=self.chain_steps)


def _check_init(init_mode: str, p: float) -> None:
    """init_mode names a pivot init, the adaptive one when p != 2."""
    if init_mode not in ("exact-volume", "adaptive-k-pass"):
        raise ValueError(f"unknown init_mode {init_mode!r}")
    if p != 2.0 and init_mode != "adaptive-k-pass":
        raise ValueError(f"p = {p:g} needs init_mode 'adaptive-k-pass'; "
                         f"{init_mode} samples p = 2 volumes")


@dataclass(frozen=True)
class DerivedParams:
    """Closed-form sampling parameters: t points per round, l rounds, m-step
    walks, and the error-ratio / total-variation tolerance split.

    explicit_m says whether chain_steps was given. An explicit m is run as
    is, with t*l*m below 1e9; a derived m is the closed form, which
    mcmc_select uses as the cap of each round's certified chain length.
    """

    points_per_round: int
    rounds: int
    chain_steps: int
    eps_err: float
    eps_tv: float
    alpha: float
    explicit_m: bool = True

    def __post_init__(self):
        if min(self.points_per_round, self.rounds, self.chain_steps) < 1:
            raise ValueError("t, l, m must all be >= 1")
        if not (0.0 < self.eps_err < 1.0 and 0.0 < self.eps_tv < 1.0):
            raise ValueError("tolerances must lie in (0, 1)")
        slots = self.total_points * self.chain_steps
        if self.explicit_m and slots >= 10 ** 9:
            raise SlotBudgetError(
                f"t*l*m = {slots} proposal slots reaches the limit of 1e9; an explicit m "
                "must keep t*l*m below it, so lower the chain_steps override or leave m derived")

    @property
    def total_points(self) -> int:
        return self.points_per_round * self.rounds


def _pivot_constant(k: int, p: float, a: float = 1.0) -> float:
    """a times the adaptive init's pivot constant, k! at p = 2 and
    k! (k+1)^(p-1) otherwise. It is checked in logs (709.78 ~ ln of the
    largest float), as math.factorial is slow for a large k."""
    power = 0.0 if p == 2.0 else p - 1.0
    if math.lgamma(k + 1.0) + power * math.log(k + 1.0) >= 709.78:
        raise ValueError(f"the pivot constant {'k!' if p == 2.0 else 'k! (k+1)^(p-1)'} at "
                         f"k = {k}, p = {p:g} does not fit in a float")
    return a * math.factorial(k) * (k + 1.0) ** power


def _ceil_at_least_1(x: float, name: str) -> int:
    # 1e-9 slack so exact integers never round up from float noise
    if not math.isfinite(x):
        raise ValueError(f"the closed-form {name} does not fit in a float")
    return max(1, math.ceil(x - 1e-9))


def derive_params(k: int, epsilon: float, alpha: float = 1.0, *,
                  p: float = 2.0, lam: float = 1.0,
                  points_per_round: int | None = None, rounds: int | None = None,
                  chain_steps: int | None = None) -> DerivedParams:
    """Parameter settings for a pivot of quality alpha:

        t  = ceil(8 k / eps)
        l  = ceil( ln(2 a (k+1) / eps) / ln(8 / eps) )
        e1 = eps / (8 a (k+1))
        e2 = eps / (8 t l a (k+1))
        m  = ceil(1 + max((2/e1) ln(1/e2), (2/e2) ln(1/e1)))

    where a = alpha / lam (the inlier-error fraction assumption scales every
    constant by 1/lam; lam = 1 without outliers), times k! * (k+1)^(p-1)
    when p != 2 (the k-pass adaptive pivot guarantee folded in). m takes the
    larger of the two published forms, which dominates both; it is a worst
    case over all inputs, and mcmc_select runs each round only the
    certified_chain_steps its error ratio needs, at most m. The t, l and m
    overrides replace individual outputs (e2 follows the t and l used) and
    must be >= 1; an explicit chain_steps is run exactly (explicit_m) and
    needs t*l*m < 1e9. It is the one check of these options (p finite); a
    pivot constant or closed form past the largest float raises ValueError.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if not alpha >= 1.0:
        raise ValueError("alpha must be >= 1")
    _check_beta_lambda(0.0, lam)
    _check_p(p, 2.0)
    for name, value in (("points_per_round", points_per_round), ("rounds", rounds),
                        ("chain_steps", chain_steps)):
        if value is not None and value < 1:
            raise ValueError(f"{name} override must be >= 1")
    a = alpha / lam
    if p != 2.0:
        a = _pivot_constant(k, p, a)

    t = (points_per_round if points_per_round is not None
         else _ceil_at_least_1(8.0 * k / epsilon, "t"))
    l = rounds if rounds is not None else _ceil_at_least_1(
        math.log(2.0 * a * (k + 1) / epsilon) / math.log(8.0 / epsilon), "l")
    e1 = epsilon / (8.0 * a * (k + 1))
    e2 = epsilon / (8.0 * t * l * a * (k + 1))
    if not e2 > 0.0:
        raise ValueError("the closed-form tolerance e2 underflows to 0")
    m = chain_steps if chain_steps is not None else _ceil_at_least_1(
        1.0 + max((2.0 / e1) * math.log(1.0 / e2), (2.0 / e2) * math.log(1.0 / e1)), "m")
    return DerivedParams(points_per_round=int(t), rounds=int(l), chain_steps=int(m),
                         eps_err=float(e1), eps_tv=float(e2), alpha=float(a),
                         explicit_m=chain_steps is not None)


def certified_chain_steps(rho: float, eps_tv: float, cap: int) -> int:
    """Chain length m_r = ceil(1 + (2 / rho) ln(1 / eps_tv)), at most cap.

    A round's chains are independence samplers whose target/proposal ratio
    is at most gamma = 2 / rho, rho = E_cur / E_piv being the round's error
    ratio (the span only grows, so rho <= 1). Their endpoints are within
    (1 - 1/gamma)^(m-1) <= eps_tv of the target in total variation after m
    steps (Liu 1996, Metropolized independent sampling). rho is a lower
    bound on the ratio; rho = 1 for a round whose span is the pivot's.
    """
    steps = 1.0 + (2.0 / rho) * math.log(1.0 / eps_tv) if rho > 0.0 else math.inf
    return cap if steps >= cap else _ceil_at_least_1(steps, "m_r")


def error_ratio_bound(ratios: np.ndarray, counts: np.ndarray,
                      delta: float) -> tuple[float, float]:
    """(rho_hat, lower bound) for the mean of values in [0, 1] from i.i.d.
    draws, `counts[i]` of them at `ratios[i]`: the count-weighted mean and
    its empirical-Bernstein lower confidence bound at level 1 - delta
    (Maurer & Pontil 2009, Theorem 4),

        rho_hat - sqrt(2 V ln(2/delta) / N) - 7 ln(2/delta) / (3 (N - 1)),

    V being the sample variance of the N draws. It is 0 for N < 2.
    """
    n = float(counts.sum())
    mean = float(ratios @ counts) / max(n, 1.0)
    if n < 2.0:
        return mean, 0.0
    var = float(((ratios - mean) ** 2) @ counts) / (n - 1.0)
    log_term = math.log(2.0 / delta)
    bound = mean - math.sqrt(2.0 * var * log_term / n) - 7.0 * log_term / (3.0 * (n - 1.0))
    return mean, max(0.0, bound)


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


@dataclass(frozen=True)
class RoundStats:
    """One round of mcmc_select: the chain length m_r it ran (0 for a round
    filled from the uniform floor), and under a derived m the estimated
    error ratio rho = E_cur / E_piv with the lower bound that certified m_r
    (both None under an explicit m or on the floor)."""

    chain_steps: int
    rho: float | None = None
    rho_bound: float | None = None


@dataclass
class SelectionResult:
    """Pivot subset plus the per-round blocks, with audit data.

    basis spans the selected rows. A selection makes no grading scan: the
    caller grades basis on its own points (err_p, best_rank_k_in_span).
    passes holds only the passes of the call that returned the result; the
    source's pass_log keeps every pass.
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
    round_stats: tuple[RoundStats, ...] = ()

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

def adaptive_sample(source_or_points, initial: OrthonormalBasis, count: int,
                    rounds: int, p: float = 2.0, seed: int = 0) -> SelectionResult:
    """Multi-pass adaptive sampling: `rounds` sequential rounds of `count`
    i.i.d. draws, each with probability proportional to the residual^p
    distance to span(initial) and everything selected before the round, in
    one reservoir pass. With the empty span a round is squared-length
    sampling.

    initial is any span, such as a selection's basis or
    OrthonormalBasis.empty(d); its source ids head the selection. Consumes
    one pass per completed round, plus the pass of a round that finds every
    residual zero, and no reporting pass. Exact fit stops early, with a
    warning.
    """
    _check_p(p)
    source = as_source(source_or_points)
    start = len(source.pass_log.entries)
    basis = initial
    blocks: list[tuple[int, ...]] = []
    warnings: list[str] = []
    for i in range(rounds):
        try:
            bank = weighted_reservoir_sample(
                source, lambda chunk: residual_distances(chunk, basis) ** p, count,
                derive_rng(seed, "adaptive-round", i), label=f"adaptive:{i + 1}")
        except DegenerateWeightsError:
            warnings.append(f"exact fit after {i} rounds; stopped early")
            break
        blocks.append(tuple(int(j) for j in bank.ids))
        basis = extend_basis(basis, bank.points_for(bank.ids), blocks[-1])
    return SelectionResult(
        initial_ids=initial.source_ids, blocks=tuple(blocks), p=p,
        passes=PassLog(source.pass_log.entries[start:]), warnings=tuple(warnings), basis=basis)


# ---------------------------------------------------------------------------
# volume sampling
# ---------------------------------------------------------------------------

def _gram_spectrum(gram: np.ndarray, k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The eigenvalues of the Gram of n rows above 1e-12 of the largest,
    descending, and all its eigenvectors; RankDeficientError when fewer than
    k remain."""
    if not 1 <= k <= n:
        raise ValueError("k must satisfy 1 <= k <= n")
    lam, vecs = _eigh_desc(gram)
    r = int(np.count_nonzero(lam > lam[0] * 1e-12))
    if r < k:
        raise RankDeficientError(f"rank-deficient dataset: numerical rank {r} < k = {k} "
                                 "(Gram eigenvalues <= 1e-12 of the largest are zero)")
    return lam[:r], vecs


def _enumerate_volumes(points: PointSet, k: int, p: float = 2.0,
                       guard: int = ENUMERATION_GUARD,
                       ) -> tuple[list[tuple[int, ...]], np.ndarray, np.ndarray]:
    """All k-subsets (brute force, at most `guard` of them), their
    `gram_dets` at the data's power of two and their normalized vol^p
    probabilities. Data of numerical rank below k raises
    RankDeficientError: its dets would be rounding noise."""
    n = points.n
    count = math.comb(n, k)
    if count > guard:
        raise ValueError(f"C({n},{k}) = {count} exceeds the enumeration guard {guard}")
    _gram_spectrum(points._full_gram()[1], k, n)
    subsets = list(itertools.combinations(range(n), k))
    dets = np.empty(count)
    batch = 8192
    arr = np.array(subsets, dtype=np.int64)
    e = _pow2_exponent(points.data)
    for lo in range(0, count, batch):
        dets[lo:lo + batch] = gram_dets(points, arr[lo:lo + batch], e)
    weights = dets ** (p / 2.0)
    total = float(weights.sum())
    if total <= 0.0:
        raise RankDeficientError("rank-deficient dataset: every k-subset has zero volume")
    return subsets, dets, weights / total


def pivot_draws(k: int, d: int) -> int:
    """s = ceil(7 d ln(k / PIVOT_MISS)), the exact-volume pivot's number of
    length-squared draws.

    The k picks use N draws, a sum of geometric counts with success
    probabilities (k - j) a, a = lambda_min(S) / ||X||_F^2, so
    P(N > s) <= k (1 - a)^s <= k exp(-a s), which is at most PIVOT_MISS
    whenever a >= 1/(7 d): when each eigenvalue in S is at least a seventh
    of the mean eigenvalue ||X||_F^2 / d. It depends on k and d only.
    """
    return math.ceil(7.0 * d * math.log(k / PIVOT_MISS))


def _inverse_cdf(cdf: np.ndarray, u):
    """The rows a cumulative weight array assigns to uniforms u: u * total
    can round up to the total, and then takes the last row of weight."""
    return np.minimum(np.searchsorted(cdf, u * cdf[-1], side="right"),
                      np.searchsorted(cdf, cdf[-1]))


def _volume_pivot(source: DatasetSource, k: int, rng: np.random.Generator, *,
                  label: str) -> tuple[list[int], np.ndarray]:
    """Exact squared-volume sampling without enumeration (p = 2 only): the
    ids of k rows of `source` and the rows.

    P(S) ~ det(Gram_S) is a fixed-size DPP with kernel X X^T, sampled in
    dual form (Kulesza & Taskar 2012, 3.3) after one length_squared_pass:
    eigenpairs of the power-of-two-rescaled Gram X^T X, an eigenvector
    subset S by the elementary-symmetric recursion, then the k projection-
    DPP rows by rejection from the pass's pivot_draws(k, d) i.i.d. length-
    squared draws (as in Derezinski, Calandriello & Valko 2019). With
    v_i = x_i V_S Lambda_S^(-1/2) and P_j the span of the v of the picks so
    far, draw i, taken in order with its own uniform u_i, is accepted at
    step j iff u_i ||x_i||^2 < lambda_min(S) ||(I - P_j) v_i||^2. The
    envelope ||v_i||^2 <= ||x_i||^2 / lambda_min(S) makes each accepted draw
    exact, and the draws needed, N, have E[N | S] = H_k ||X||_F^2 /
    lambda_min(S). Draws are tested a window of at most PIVOT_WINDOW at a
    time, with fresh uniforms; a pick ends its window, and the next starts
    at the draw after it, so each draw is tested once, against the span of
    the picks before it. The span grows in R^k by _cgs2_extend, so no n-row
    array is formed.

    When the draws run out before k picks and the pass returned every row
    (a memory source, or n <= pivot_draws(k, d)), the draw finishes
    exactly: the row that further draws would accept at step j has law
    ~ ||(I - P_j) v_i||^2, which it samples from those rows, one residual
    pass per pick. A streamed source of more rows raises DrawBudgetError
    instead. Eigenvalues <= 1e-12 of the largest (singular values 1e-6) are
    zero: the Gram resolves about d * 2**-52. Seeded ids are the same for
    data scaled by a power of two.
    """
    (e_x, gram), bank, points = length_squared_pass(source, pivot_draws(k, source.d),
                                                    rng, label=label)

    def rows_of(ids: np.ndarray) -> np.ndarray:
        return points.data[ids] if points is not None else bank.points_for(ids)

    lam, vecs = _gram_spectrum(gram, k, source.n)
    r, top, lam = len(lam), lam[0], lam / lam[0]

    # e[j, i] = elementary symmetric polynomial of degree j over lam[:i]
    e = np.zeros((k + 1, r + 1))
    e[0, :] = 1.0
    for j in range(1, k + 1):
        e[j, 1:] = np.cumsum(lam * e[j - 1, :-1])

    chosen = []
    j = k
    for i in range(r, 0, -1):
        if j == 0:
            break
        if rng.random() < lam[i - 1] * e[j - 1, i - 1] / e[j, i]:
            chosen.append(i - 1)
            j -= 1
    right = vecs[:, chosen] / np.sqrt(lam[chosen])
    floor = float(lam[chosen].min())
    # ||X||_F^2 / lambda_min(S): the draws a pick needs, over k - j
    spread = float(np.trace(gram)) / (floor * top)
    span = np.empty((0, k))
    picks: list[int] = []
    at = 0
    while len(picks) < k and at < len(bank.ids):
        # a window of twice the draws the next pick expects to need
        size = max(16, math.ceil(2.0 * spread / (k - len(picks))))
        stop = min(len(bank.ids), at + min(PIVOT_WINDOW, size))
        ids = bank.ids[at:stop]
        y = np.ldexp(rows_of(ids), -e_x)
        v = y @ right
        mass = np.einsum("ij,ij->i", v, v) - np.square(v @ span.T).sum(axis=1)
        # u_i ||x_i||^2 / lambda_min(S), the mass draw i needs to be accepted
        bar = rng.random(len(ids)) * np.einsum("ij,ij->i", y, y) / floor
        hit = np.flatnonzero(bar < mass)
        if len(hit):
            i = int(hit[0])
            picks.append(int(ids[i]))
            if len(picks) < k:
                span = _cgs2_extend(span, v[i:i + 1])
            stop = at + i + 1
        at = stop
    if len(picks) < k and points is None:
        harmonic = sum(1.0 / i for i in range(1, k + 1))
        raise DrawBudgetError(
            f"the exact-volume pivot used all {len(bank.ids)} of its length-squared draws "
            f"with {len(picks)} of k = {k} rows accepted; this spectrum expects about "
            f"{harmonic * spread:.4g} draws (H_k ||X||_F^2 / lambda_min(S)); run it in "
            "memory mode, which draws the rest from the loaded rows")
    while len(picks) < k:
        mass = np.empty(source.n)
        for lo, y in _scaled_blocks(points.data, e_x):
            v = y @ right
            mass[lo:lo + len(y)] = (np.einsum("ij,ij->i", v, v)
                                    - np.square(v @ span.T).sum(axis=1))
        np.maximum(mass, 0.0, out=mass)
        i = int(_inverse_cdf(np.cumsum(mass, out=mass), rng.random()))
        picks.append(i)
        if len(picks) < k:
            span = _cgs2_extend(span, np.ldexp(points.data[i:i + 1], -e_x) @ right)
    return picks, rows_of(np.array(picks))


def greedy_max_volume_init(points: PointSet, k: int) -> list[int]:
    """Deterministic farthest-residual picks; guarantees nonzero volume when
    the data has rank >= k. Ties break toward the smaller index. A residual
    at most RANK_TOL times the largest row norm counts as dependent."""
    ids: list[int] = []
    basis = OrthonormalBasis.empty(points.d)
    for _ in range(k):
        res = residual_distances(points.data, basis)
        i = int(np.argmax(res))
        if not ids:  # residuals off the empty span: the scale-safe row norms
            scale = float(res[i])
        if res[i] <= RANK_TOL * scale:
            raise RankDeficientError(
                "rank-deficient dataset: cannot find a full-rank initial subset, data rank < k")
        ids.append(i)
        basis = extend_basis(basis, points.data[i], [i])
    return ids


def volume_sample_mcmc(points: PointSet, k: int, walk_steps: int,
                       rng: np.random.Generator) -> list[int]:
    """Lazy Metropolis walk over k-subsets targeting squared volumes, from
    greedy_max_volume_init's subset.

    Each step proposes swapping a uniform member for a uniform outsider and
    moves iff its uniform u < 1/2 and mh_accept(vol_new^2, vol_old^2, 2u);
    the walk distribution converges to exact volume sampling (p = 2) as
    steps grow (Anari, Oveis Gharan & Rezaei 2016). Squared volumes are
    gram_dets at the data's power of two, read once per walk, so ids repeat
    under power-of-two scaling. The current subset is kept sorted so step
    randomness matches the table-driven diagnostic walk exactly.
    """
    n = points.n
    if not 1 <= k <= n:
        raise ValueError("k must satisfy 1 <= k <= n")
    if k == n:
        return list(range(n))
    cur = sorted(greedy_max_volume_init(points, k))
    e = _pow2_exponent(points.data)
    vol_cur = gram_dets(points, [cur], e)[0]
    if vol_cur <= 0.0:
        raise ValueError("cannot start the walk from a zero-volume subset")
    for _ in range(walk_steps):
        u = float(rng.random())
        i_pos = int(rng.integers(0, k))
        j = int(rng.integers(0, n - k))
        for c in cur:  # the j-th outsider: skip every member at or below it
            j += c <= j
        cand = sorted([c for pos, c in enumerate(cur) if pos != i_pos] + [j])
        vol_new = gram_dets(points, [cand], e)[0]
        if u < 0.5 and mh_accept(vol_new, vol_cur, 2.0 * u):
            cur, vol_cur = cand, vol_new
    return list(cur)


@dataclass(frozen=True)
class VolumeWalkDiagnostic:
    tv_distance: float
    empirical: np.ndarray
    exact: np.ndarray
    subsets: tuple[tuple[int, ...], ...]
    start_index: int


def volume_walk_distribution(points: PointSet, k: int, steps: int, walks: int,
                             seed: int = 0, guard: int = WALK_DIAG_MAX_SUBSETS,
                             ) -> VolumeWalkDiagnostic:
    """Empirical end-state distribution of `walks` independent lazy volume
    walks versus the brute-force target (small instances only).

    Table-driven over enumerated subsets, with volume_sample_mcmc's
    gram_dets volumes and acceptance; with walks=1 it consumes random draws
    exactly like volume_sample_mcmc on derive_rng(seed, "volume-walk"). It
    needs walks >= 1 and steps >= 0.
    """
    if walks < 1 or steps < 0:
        raise ValueError("walks must be >= 1 and steps >= 0")
    subsets, dets, probs = _enumerate_volumes(points, k, 2.0, guard)
    n = points.n
    count = len(subsets)
    index = {s: i for i, s in enumerate(subsets)}

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
        acc = (u < 0.5) & mh_accept(dets[nxt], dets[state], 2.0 * u)
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
    chain with proposal q, finite as q >= 1/(2n). The lazy volume walks pass
    squared volumes and accept iff u < 1/2 and mh_accept at 2u, with
    probability (1/2) min(1, r_y / r_x). Off a zero-mass state
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


def _walk(x: np.ndarray, r_x: np.ndarray, accepted: np.ndarray, y: np.ndarray,
          u: np.ndarray, r: np.ndarray) -> None:
    """Chains at pool entries x, with ratios r_x, take step j to proposals
    y[j] with uniforms u[j], one step after another; x, r_x and the
    acceptance counts are updated in place."""
    r_y = r[y]
    for y_j, r_j, u_j in zip(y, r_y, u):
        acc = mh_accept(r_j, r_x, u_j)
        np.copyto(x, y_j, where=acc)
        np.copyto(r_x, r_j, where=acc)
        accepted += acc


def _chain_round(rng: np.random.Generator, stock: np.ndarray, r: np.ndarray,
                 t: int, m: int, seed: int, rnd: int) -> tuple[np.ndarray, np.ndarray]:
    """t chains of m - 1 steps over proposals dealt out of `stock`, r being
    the ratio of each pool entry; returns the endpoints and acceptances.

    The deal runs in step order: the t starts, then blocks of whole steps,
    at most BLOCK_PROPOSALS proposals each. The uniforms are one stream
    drawn in the same order.
    """
    urng = derive_rng(seed, "chain", rnd)
    x = _deal(rng, stock, t)
    r_x = r[x]
    accepted = np.zeros(t, dtype=np.int64)
    per_block = max(1, BLOCK_PROPOSALS // t)
    for lo in range(0, m - 1, per_block):
        g = min(per_block, m - 1 - lo)
        _walk(x, r_x, accepted, _deal(rng, stock, g * t).reshape(g, t),
              urng.random((g, t)), r)
    return x, accepted


def mcmc_select(source_or_points, pivot: OrthonormalBasis, params: DerivedParams,
                p: float = 2.0, seed: int = 0) -> SelectionResult:
    """Algorithm core: l rounds of t points, each point the endpoint of a
    Metropolis chain over prefetched proposal draws, all fed by a single
    sequential pass and no reporting pass.

    pivot is the span the proposals are anchored at, usually init_pivot's
    basis; its source ids head the selection. The pass accumulates err_p
    against it, q's normaliser, and fills a residual and a uniform bank of
    min(t*l*m, MAX_DERIVED_DRAWS) draws each, kept as per-row counts.
    Binomial(draws, 1/2) residual draws and the rest uniform ones, each a
    uniform subset of its bank, are i.i.d. draws from the mixture q. Chains
    within a round are independent and their target is the span of
    everything selected before the round.

    Round r runs m_r - 1 steps per chain. Under an explicit m (see
    DerivedParams.explicit_m), m_r = m. Under a derived m, m_r is
    certified_chain_steps of a lower bound on the round's error ratio
    rho_r = E_cur / E_piv, capped at m: rho_0 = 1 exactly, and a later
    round bounds it by error_ratio_bound at delta = eps_tv from the residual
    draws the mixture did not take. Those are i.i.d. draws of w_piv / E_piv,
    independent of every chain, and (d_cur / d_piv)^p has mean rho_r. In a
    round that is not saturated (below), a bound at most eps_err runs the
    cap, with a warning. SlotBudgetError is raised before a round's deal
    when t*m_r exceeds the draws left. result.round_stats records m_r, rho
    and its bound per round.

    A round deals t*m_r draws in step order: the t chain starts, then
    blocks of whole steps, at most BLOCK_PROPOSALS proposals each and laid
    out (steps, t), row j of a block being one step of every chain. Each
    block is a hypergeometric split of the stock shuffled in itself, which
    has the law of one shuffle of the whole round, so a round keeps one
    block in memory. The chain uniforms are one stream per round,
    derive_rng(seed, "chain", round), drawn in the same step order. The
    chains are independence Metropolis samplers on r = target / q, computed
    once per round for the pool entries that still hold proposals; _walk
    steps all t chains at once, one step after another.

    The pass writes each drawn row's coordinates once, into the banks'
    RowStore of at most 2 min(n, slots) rows, and that store is the pool:
    no row is copied again. The pool's pivot residuals d_piv, and so its
    weights and q, are the ones the pass computed for the rows it stored:
    no pool row is measured against the pivot again, and the weights are
    exactly those the residual bank was offered. A later round measures the
    entries that still hold draws against the span so far. SlotBudgetError
    is also raised before the pass when that store plus one dealt block
    would not fit in physical memory (_check_memory). A round in which every
    pool row that still holds proposals has a residual at most RANK_TOL
    times its norm (the rows extend_basis would drop as dependent) is
    saturated: it and every later round select t uniform draws that no
    chain was dealt, with a warning. The test (_pool_fits) reads one row's
    norm first, that of the entry with the largest residual, and the
    others' only when that row does not refute saturation. The result's
    basis spans the selection; grading it is the caller's scan.
    """
    _check_p(p)
    source = as_source(source_or_points)
    start = len(source.pass_log.entries)
    n = source.n
    t, l, m = params.points_per_round, params.rounds, params.chain_steps
    certify = not params.explicit_m
    slots = _check_memory(n, source.d, params)
    err_pivot, bank_w, bank_u, d_piv = proposal_prefetch_pass(
        source, pivot, p, slots, seed, label="mcmc:select")

    # the pool is the banks' store: entry c is the row in cell c, a row in
    # both banks has a cell in each, and a cell a residual row left holds
    # no draws
    rng = derive_rng(seed, "deal")
    store = bank_u.store
    pool_ids = np.full(store.top, -1, dtype=np.int64)
    stock = np.zeros(store.top, dtype=np.int64)
    # the residual draws no chain can be dealt: rho's sample
    held = np.zeros(store.top, dtype=np.int64)
    uni = bank_u.cells
    pool_ids[uni] = bank_u.rows
    if bank_w is None:
        stock[uni] = bank_u.counts
    else:
        # Binomial(slots, 1/2) residual draws in the mixture, the rest uniform
        s_w = int(rng.binomial(slots, 0.5))
        mixed = rng.multivariate_hypergeometric(bank_w.counts, s_w)
        pool_ids[bank_w.cells] = bank_w.rows
        stock[bank_w.cells] = mixed
        stock[uni] = rng.multivariate_hypergeometric(bank_u.counts, slots - s_w)
        if certify:
            held[bank_w.cells] = bank_w.counts - mixed
    spare = bank_u.counts - stock[uni]
    del bank_w, bank_u  # the pool keeps the store

    # the pass's own pivot residuals, so the pool's weights are the bank's
    d_cur = d_piv.copy()
    w_pool = d_piv ** p
    q_pool = (proposal_q(w_pool, err_pivot, n) if err_pivot > 0.0
              else np.full(len(pool_ids), 1.0 / n))
    basis = pivot
    blocks: list[tuple[int, ...]] = []
    states: list[ChainState] = []
    stats: list[RoundStats] = []
    warnings: list[str] = []
    floor_fill = err_pivot <= 0.0
    if floor_fill:
        warnings.append("pivot span fits every point; blocks drawn from the uniform floor")

    for rnd in range(l):
        if not floor_fill:
            # only entries that still hold proposals are dealt or reached
            live = stock > 0
            if rnd > 0:
                seen = live | (held > 0)
                d_cur[seen] = residual_distances(store.take(np.flatnonzero(seen)), basis)
                w_pool[seen] = d_cur[seen] ** p
            if _pool_fits(store, d_cur, live):
                floor_fill = True
                warnings.append(
                    f"candidate pool fit up to rounding after {rnd} rounds; "
                    "remaining blocks drawn from the uniform floor")
        if floor_fill:
            # t i.i.d. uniform rows, taken from the uniform draws no chain was dealt
            spare += stock[uni]
            stock[uni] = 0
            x = uni[_deal(rng, spare, t)]
            p_x, accepted, steps = np.zeros(t), np.zeros(t, dtype=int), 0
            stats.append(RoundStats(0))
        else:
            stat = RoundStats(m)
            if certify:
                stat = _certify_round(rnd, d_cur, d_piv, held, p, params)
                left = int(stock.sum())
                if stat.rho_bound <= params.eps_err:
                    warnings.append(
                        f"round {rnd}: error ratio bound {stat.rho_bound:.3g} is at most "
                        f"eps_err = {params.eps_err:.3g}; ran the cap of {m} chain steps")
                if t * stat.chain_steps > left:
                    raise SlotBudgetError(
                        f"round {rnd}: error ratio bound {stat.rho_bound:.3g} certifies "
                        f"{stat.chain_steps} chain steps, which need t*m_r = "
                        f"{t * stat.chain_steps} proposals; {left} of the {slots} drawn "
                        "are left")
            stats.append(stat)
            r = np.divide(w_pool, q_pool, out=np.zeros(len(stock)), where=live)
            x, accepted = _chain_round(rng, stock, r, t, stat.chain_steps, seed, rnd)
            p_x, steps = w_pool[x], stat.chain_steps - 1
        block = tuple(int(i) for i in pool_ids[x])
        states.extend(ChainState(i, float(w), float(q), steps, int(a))
                      for i, w, q, a in zip(block, p_x, q_pool[x], accepted))
        blocks.append(block)
        basis = extend_basis(basis, store.take(x), block)

    return SelectionResult(
        initial_ids=pivot.source_ids, blocks=tuple(blocks), p=p, params=params,
        passes=PassLog(source.pass_log.entries[start:]), final_states=tuple(states),
        warnings=tuple(warnings), basis=basis, round_stats=tuple(stats))


def _pool_fits(store: RowStore, d_cur: np.ndarray, live: np.ndarray) -> bool:
    """Whether every live pool entry's residual d_cur is at most RANK_TOL
    times its row's norm (_row_norms). The entry with the largest residual
    is tried first; the other rows' norms are read only when it does not
    already refute the fit, which is rare before saturation."""
    ids = np.flatnonzero(live)
    if not len(ids):
        return True
    top = ids[np.argmax(d_cur[ids])]
    if d_cur[top] > RANK_TOL * _row_norms(store.take(top[None]))[0]:
        return False
    return bool(np.all(d_cur[ids] <= RANK_TOL * _row_norms(store.take(ids))))


def _check_memory(n: int, d: int, params: DerivedParams, pivot_store: int = 0) -> int:
    """A selection's proposal slots, min(t*l*m, MAX_DERIVED_DRAWS), once its
    largest holding is known to fit in physical memory: the Metropolis
    pass's store of 2 min(n, slots) rows, with its per-entry arrays, plus
    one dealt block, or the min(n, pivot_store) rows a streamed exact-volume
    pivot pass holds (pivot_store its draws, 0 for another init), which it
    frees before the Metropolis pass. Raises SlotBudgetError otherwise, from
    n, d and the options alone, so before any pass."""
    t, m = params.points_per_round, params.chain_steps
    slots = min(params.total_points * m, MAX_DERIVED_DRAWS)
    per_deal = min(t * m, max(BLOCK_PROPOSALS, t))
    row_bytes = (d + 2) * 8
    need = per_deal * SLOT_BYTES + 2 * min(n, slots) * row_bytes
    have = physical_memory_bytes()
    if need > have:
        raise SlotBudgetError(
            f"the stored rows and a deal of {per_deal} proposals need about "
            f"{need / 2**30:.3g} GiB, over the limit of {have / 2**30:.3g} GiB of physical "
            "memory; derived chain lengths at this size need a chain_steps override")
    need = min(n, pivot_store) * row_bytes
    if need > have:
        raise SlotBudgetError(
            f"the exact-volume pivot's {pivot_store} length-squared draws store up to "
            f"{min(n, pivot_store)} rows, about {need / 2**30:.3g} GiB, over the limit of "
            f"{have / 2**30:.3g} GiB of physical memory; the adaptive-k-pass init stores none")
    return slots


def _certify_round(rnd: int, d_cur: np.ndarray, d_piv: np.ndarray, held: np.ndarray,
                   p: float, params: DerivedParams) -> RoundStats:
    """A derived-m round's certified chain length: rho = 1 in round 0, whose
    span is the pivot's; later, the error_ratio_bound of (d_cur / d_piv)^p
    over the `held` residual draws. A bound at most eps_err runs the cap."""
    if rnd == 0:
        rho = bound = 1.0
    else:
        h = np.flatnonzero(held)
        ratio = np.divide(d_cur[h], d_piv[h], out=np.zeros(len(h)), where=d_piv[h] > 0.0)
        rho, bound = error_ratio_bound(np.minimum(ratio, 1.0) ** p, held[h], params.eps_tv)
    m_r = (certified_chain_steps(bound, params.eps_tv, params.chain_steps)
           if bound > params.eps_err else params.chain_steps)
    return RoundStats(m_r, rho, bound)


# ---------------------------------------------------------------------------
# full pipelines
# ---------------------------------------------------------------------------

def init_pivot(source: DatasetSource, k: int, p: float, seed: int,
               init_mode: str) -> OrthonormalBasis:
    """Draw the pivot span per init_mode; its source ids are the pivot
    subset, and SamplingConfig fixes the alpha it is derived for.

    The exact-volume init (p = 2 only) is one pass, init:exact-volume
    (length_squared_pass): it sums the d x d Gram and keeps a bank of
    s = pivot_draws(k, d) length-squared draws and min(n, s) rows: every
    row when n <= s, else the drawn ones. It is _volume_pivot run with one
    generator, derive_rng(seed, "init", init_mode), for the pass's draws
    and the DPP's. When the draws run
    out, a source whose rows were all kept (memory mode, or n <= s) draws
    the rest from them, and a streamed source of more than s rows raises
    DrawBudgetError, so the two modes pick the same rows whenever streaming
    succeeds. The adaptive init is adaptive_sample with k single-point
    rounds from the empty span, in k passes. Both inits raise
    RankDeficientError when the data has rank below k; the adaptive init
    finds that when its picks span fewer than k dimensions (extend_basis
    drops a pick whose residual is rounding error).
    """
    _check_init(init_mode, p)
    if init_mode == "adaptive-k-pass":
        pivot = adaptive_sample(source, OrthonormalBasis.empty(source.d), 1, k, p, seed)
        if pivot.basis.r < k:
            raise RankDeficientError(
                f"rank-deficient dataset: the adaptive init rows span rank {pivot.basis.r} "
                f"< k = {k}")
        return pivot.basis
    ids, rows = _volume_pivot(source, k, derive_rng(seed, "init", init_mode),
                              label=f"init:{init_mode}")
    return extend_basis(OrthonormalBasis.empty(source.d), rows, ids)


def select_subset(source_or_points, config: SamplingConfig) -> SelectionResult:
    """The full pipeline: pivot initialization plus the Metropolis pass.

    The exact-volume init (p = 2 only) runs in 2 passes, the adaptive init
    in k+1.
    All pass counts are auditable from the result's PassLog.
    """
    return _select(as_source(source_or_points), config)


def _select(source: DatasetSource, config: SamplingConfig,
            lam: float = 1.0) -> SelectionResult:
    """select_subset's pipeline with constants scaled by 1/lam, which
    robust_select shares; its closed forms are derived before any pass."""
    if config.k > source.d:
        raise ValueError(f"k={config.k} exceeds data dimension d={source.d}")
    params = config._params(lam)
    _check_memory(source.n, source.d, params, pivot_draws(config.k, source.d)
                  if config.init_mode == "exact-volume" else 0)
    start = len(source.pass_log.entries)
    pivot = init_pivot(source, config.k, config.p, config.seed, config.init_mode)
    result = mcmc_select(source, pivot, params, config.p, config.seed)
    result.passes = PassLog(source.pass_log.entries[start:])
    return result


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
    TV between q itself and the target. The steps use mcmc_select's
    stepper, _walk on r = target / q, with each step's proposals and then
    uniforms drawn as (1, trials) arrays. Also reports gamma, the worst-case
    target/proposal ratio that controls the (1 - 1/gamma)^(m-1) decay.
    Enumeration-based: n <= TV_DIAG_MAX_POINTS, trials >= 1, p finite and >= 1. Raises
    ExactFitReached when either span fits every point up to rounding, each
    residual at most RANK_TOL times its row norm (mcmc_select's saturation
    test): the target would be rounding noise. Residuals are weighed at the
    row norms' power of two, so extreme scales neither underflow nor
    overflow.
    """
    _check_p(p)
    n = points.n
    if n > TV_DIAG_MAX_POINTS:
        raise ValueError(f"n={n} too large to enumerate the exact distribution "
                         f"(limit {TV_DIAG_MAX_POINTS})")
    if chain_steps < 1:
        raise ValueError("chain_steps must be >= 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    norms = _row_norms(points.data)
    d0 = residual_distances(points.data, orthonormal_basis(points, pivot_ids))
    d_cur = residual_distances(points.data, orthonormal_basis(points, current_ids))
    for name, dist in (("pivot", d0), ("current", d_cur)):
        if np.all(dist <= RANK_TOL * norms):
            raise ExactFitReached(f"{name} span fits every point up to rounding")
    e = _pow2_exponent(norms)
    w0, w = np.ldexp(d0, -e) ** p, np.ldexp(d_cur, -e) ** p
    err0, err_cur = float(w0.sum()), float(w.sum())
    q = np.asarray(proposal_q(w0, err0, n))
    target = w / err_cur
    r = target / q
    gamma = float(np.max(r))

    rng = derive_rng(seed, "tv-diag")
    state = rng.choice(n, size=trials, p=q)
    r_state, accepted = r[state], np.zeros(trials, dtype=np.int64)
    for _ in range(chain_steps - 1):
        y = rng.choice(n, size=(1, trials), p=q)
        _walk(state, r_state, accepted, y, rng.random((1, trials)), r)
    emp = np.bincount(state, minlength=n) / trials
    tv = 0.5 * float(np.abs(emp - target).sum())
    return TVDiagnostic(tv_distance=tv, gamma=gamma, empirical=emp, exact=target,
                        chain_steps=chain_steps, trials=trials)
