"""Dense linear-algebra kernels.

Point sets, orthonormal spans of point subsets, residual distances, lp
errors, simplex volumes, and the exact SVD optimum used as the evaluation
oracle. All operations are pure functions of immutable inputs and safe to
call from many threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Candidate basis vectors whose residual norm falls below this fraction of
# the largest input row norm are treated as linearly dependent.
RANK_TOL = 1e-9

SubsetIds = Sequence[int]


@dataclass(frozen=True)
class PointSet:
    """n points in d dimensions, one row per point, immutable once built."""

    data: np.ndarray

    def __post_init__(self):
        data = np.array(self.data, dtype=np.float64, copy=True)
        if data.ndim != 2:
            raise ValueError("point data must be a 2-D array (one row per point)")
        if data.shape[0] < 1 or data.shape[1] < 1:
            raise ValueError("need at least one point and one dimension")
        if not np.all(np.isfinite(data)):
            raise ValueError("point data contains NaN or Inf")
        data.setflags(write=False)
        object.__setattr__(self, "data", data)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def d(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class OrthonormalBasis:
    """Orthonormal rows spanning the linear span of a point subset.

    r = 0 is the empty span. source_ids records which subset generated the
    span (empty for oracle bases); rank deficiency means r < len(source_ids).
    """

    d: int
    vectors: np.ndarray
    source_ids: tuple[int, ...] = ()

    def __post_init__(self):
        vectors = np.array(self.vectors, dtype=np.float64, copy=True)
        if vectors.ndim != 2 or vectors.shape[1] != self.d:
            raise ValueError("basis vectors must be an (r, d) array")
        if vectors.shape[0] > 0:
            gram = vectors @ vectors.T
            if not np.allclose(gram, np.eye(vectors.shape[0]), atol=1e-9):
                raise ValueError("basis rows are not orthonormal within 1e-9")
        vectors.setflags(write=False)
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "source_ids", tuple(int(i) for i in self.source_ids))

    @property
    def r(self) -> int:
        return self.vectors.shape[0]


def check_subset_ids(ids: SubsetIds, n: int) -> list[int]:
    """Validate indices against a point count; duplicates are permitted."""
    out = []
    for i in ids:
        j = int(i)
        if not 0 <= j < n:
            raise IndexError(f"subset id {j} outside [0, {n})")
        out.append(j)
    return out


def _mgs_extend(base: np.ndarray, rows: np.ndarray, tol_scale: float) -> np.ndarray:
    """Modified Gram-Schmidt append with one re-orthogonalization sweep.

    Rows whose residual norm is <= RANK_TOL * tol_scale are dropped.
    """
    d = rows.shape[1] if rows.size else base.shape[1]
    vecs = [v for v in base]
    tol = RANK_TOL * tol_scale
    for row in rows:
        v = row.astype(np.float64).copy()
        for _ in range(2):
            for b in vecs:
                v -= (v @ b) * b
        norm = float(np.linalg.norm(v))
        if norm > tol:
            vecs.append(v / norm)
    if not vecs:
        return np.zeros((0, d))
    return np.array(vecs)


def orthonormal_basis(points: PointSet, subset: SubsetIds) -> OrthonormalBasis:
    """Orthonormal spanning set of the subset's points.

    Degenerate subsets simply yield lower rank; the empty subset gives r = 0.
    """
    ids = check_subset_ids(subset, points.n)
    if not ids:
        return OrthonormalBasis(points.d, np.zeros((0, points.d)), ())
    rows = points.data[ids]
    scale = float(np.max(np.linalg.norm(rows, axis=1)))
    vecs = _mgs_extend(np.zeros((0, points.d)), rows, scale)
    return OrthonormalBasis(points.d, vecs, tuple(ids))


def extend_basis(basis: OrthonormalBasis, new_rows: np.ndarray,
                 new_ids: Sequence[int]) -> OrthonormalBasis:
    """Grow a span with additional points without revisiting the old ones."""
    new_rows = np.atleast_2d(np.asarray(new_rows, dtype=np.float64))
    if new_rows.shape[1] != basis.d:
        raise ValueError(f"point dimension {new_rows.shape[1]} != basis dimension {basis.d}")
    scale = float(np.max(np.linalg.norm(new_rows, axis=1))) if new_rows.size else 0.0
    vecs = _mgs_extend(np.asarray(basis.vectors), new_rows, max(scale, 1e-300))
    return OrthonormalBasis(basis.d, vecs, basis.source_ids + tuple(int(i) for i in new_ids))


def residual_distances(rows: np.ndarray, basis: OrthonormalBasis) -> np.ndarray:
    """Euclidean distances of each row to span(basis), vectorized."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    if rows.shape[1] != basis.d:
        raise ValueError(f"point dimension {rows.shape[1]} != basis dimension {basis.d}")
    if basis.r == 0:
        return np.linalg.norm(rows, axis=1)
    resid = rows - (rows @ basis.vectors.T) @ basis.vectors
    return np.linalg.norm(resid, axis=1)


def err_p(points: PointSet, basis: OrthonormalBasis, p: float) -> float:
    """Sum of p-th powers of residual distances, in one sequential scan."""
    if not np.isfinite(p) or p < 1:
        raise ValueError("p must be finite and >= 1")
    res = residual_distances(points.data, basis)
    return float(np.sum(res ** p))


def simplex_volume_sq(points: PointSet, subset: SubsetIds) -> float:
    """Squared volume of the simplex spanned by the subset and the origin.

    det(G) / (k!)^2 with G the k x k Gram matrix; 0 for dependent subsets.
    """
    ids = check_subset_ids(subset, points.n)
    if not ids:
        raise ValueError("subset must be nonempty")
    rows = points.data[ids]
    gram = rows @ rows.T
    det = float(np.linalg.det(gram))
    if det < 0:
        det = 0.0
    return det / float(math.factorial(len(ids))) ** 2


def gram_dets(points: PointSet, subsets: np.ndarray) -> np.ndarray:
    """det of the Gram matrix for a batch of equal-size subsets (b, k)."""
    rows = points.data[subsets]
    grams = rows @ np.swapaxes(rows, 1, 2)
    dets = np.linalg.det(grams)
    return np.maximum(dets, 0.0)


def optimal_subspace(points: PointSet, k: int, p: float = 2.0) -> tuple[OrthonormalBasis, float]:
    """Best k-dimensional subspace and its error, exact for p = 2 via SVD."""
    if p != 2:
        raise ValueError("exact optimum is only available for p = 2")
    if not 1 <= k <= points.d:
        raise ValueError(f"k must satisfy 1 <= k <= d, got k={k}, d={points.d}")
    _, s, vt = np.linalg.svd(points.data, full_matrices=False)
    basis = OrthonormalBasis(points.d, vt[:k], ())
    opt = float(np.sum(s[k:] ** 2))
    return basis, opt


def best_rank_k_in_span(points: PointSet, basis: OrthonormalBasis,
                        k: int) -> tuple[OrthonormalBasis, float]:
    """Best k-dimensional subspace inside span(basis) for squared error.

    This is the quantity subset selection is graded on: the selected span
    must contain a k-dimensional subspace whose err_2 is near the optimum.
    For V inside the span, d(x, V)^2 = d(x, span)^2 + d(proj x, V)^2, so the
    top-k right singular subspace of the in-span coordinates is optimal.
    """
    if basis.r <= k:
        return basis, err_p(points, basis, 2.0)
    coords = points.data @ basis.vectors.T
    _, _, wt = np.linalg.svd(coords, full_matrices=False)
    sub = OrthonormalBasis(basis.d, wt[:k] @ basis.vectors, basis.source_ids)
    return sub, err_p(points, sub, 2.0)
