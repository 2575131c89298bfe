"""Independent checks of one job's outputs.

Every expected number is computed here with numpy from the benchmark's own
copy of the input, or is a property the method must have; nothing is
compared with a stored copy of earlier output.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from workloads import Input, Workload, closed_form

REL_TOL = 1e-9


class CheckError(AssertionError):
    """A job's output disagrees with the benchmark's own computation."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _close(got: float, want: float, what: str) -> None:
    _require(abs(got - want) <= REL_TOL * abs(want),
             f"{what}: program {got!r}, benchmark {want!r}")


def inlier_count(n: int, beta: float) -> int:
    """The expected size of the InlierSet, ceil((1 - beta) n), computed on
    the exact decimal value of beta."""
    return math.ceil((1 - Fraction(str(beta))) * n)


def _rank_k_error(total: float, gram: np.ndarray, k: int) -> float:
    """Squared error left by the best rank-k fit: the total squared norm less
    the k largest singular values of the (coordinate) Gram matrix."""
    return float(total - np.linalg.svd(gram, compute_uv=False)[:k].sum())


class Reference:
    """The benchmark's own optimum, closed-form sizes and Gram matrices for
    one input; built once per run, outside every timed region."""

    def __init__(self, w: Workload, inp: Input):
        self.w = w
        self.data = inp.data
        self.gram = inp.data.T @ inp.data
        if w.robust:
            inliers = inp.data[inp.inlier_ids]
            gram = inliers.T @ inliers
            self.optimum = _rank_k_error(np.trace(gram), gram, w.k)
            self.keep = inlier_count(w.n, w.beta)
        else:
            self.optimum = _rank_k_error(np.trace(self.gram), self.gram, w.k)
        form = closed_form(w.k, w.epsilon, 1.0 / w.lam)
        if w.expected_m is not None:
            _require(form.m == w.expected_m,
                     f"closed-form m = {form.m}, expected {w.expected_m}")
        self.form = form

    def check(self, result, inliers, optimum: float, err: float,
              chain_steps: int | None) -> None:
        """Raise CheckError unless the job's outputs hold up; chain_steps is
        the m override the job ran with, None for the derived m."""
        w = self.w
        algorithm = [e for e in result.passes.entries if not e.reporting]
        _require(len(algorithm) == 2, f"{len(algorithm)} algorithm passes, expected 2")
        for e in result.passes.entries:
            _require(e.rows_visited == e.expected_rows == w.n,
                     f"pass {e.label}: {e.rows_visited}/{e.expected_rows} rows of {w.n}")

        ids = np.asarray(result.selected_ids, dtype=np.int64)
        _require(len(ids) == w.k + self.form.t * self.form.l,
                 f"{len(ids)} rows selected, closed form gives "
                 f"{w.k + self.form.t * self.form.l}")
        _require(bool(np.all((ids >= 0) & (ids < w.n))), "selected id outside [0, n)")
        params = result.params
        _require((params.points_per_round, params.rounds, params.chain_steps)
                 == (self.form.t, self.form.l, chain_steps or self.form.m),
                 f"program t, l, m = {params.points_per_round}, {params.rounds}, "
                 f"{params.chain_steps}; benchmark {self.form.t}, {self.form.l}, "
                 f"{chain_steps or self.form.m}")

        # distinct random rows in d > 165 dimensions are independent
        distinct = np.unique(ids)
        q, r = np.linalg.qr(self.data[distinct].T)
        diag = np.abs(np.diag(r))
        _require(diag.min() > 1e-9 * diag.max(), "selected rows are linearly dependent")
        vectors = result.basis.vectors
        _require(vectors.shape[0] == len(distinct),
                 f"basis rank {vectors.shape[0]}, {len(distinct)} distinct rows")
        _require(float(np.abs(vectors - (vectors @ q) @ q.T).max()) <= 1e-8,
                 "basis leaves the span of the selected rows")

        # best k-subspace inside span(q): the top-k singular values of X q
        best_k = _rank_k_error(np.trace(self.gram), q.T @ self.gram @ q, w.k)
        _close(err, best_k, "best-k-in-span error")
        _close(optimum, self.optimum, "optimum")
        if w.robust:
            _require(not result.warnings, f"warnings: {result.warnings}")
            _require(len(set(inliers.ids)) == len(inliers.ids) == self.keep,
                     f"{len(set(inliers.ids))} distinct inliers, expected {self.keep}")
            resid = self.data - (self.data @ q) @ q.T
            dist_sq = np.sort(np.einsum("ij,ij->i", resid, resid))
            floor = float(dist_sq[:self.keep].sum())
            _require(inliers.inlier_error >= floor * (1.0 - REL_TOL),
                     f"inlier error {inliers.inlier_error!r} below the trimmed "
                     f"span distance {floor!r}")
            ratio = inliers.inlier_error / self.optimum
        else:
            ratio = err / self.optimum
            _require(ratio >= 1.0 - 1e-9, f"ratio {ratio!r} below 1")
        _require(ratio <= 1.0 + w.epsilon, f"ratio {ratio!r} above 1 + epsilon")
