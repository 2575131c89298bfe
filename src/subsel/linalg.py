"""Dense linear-algebra kernels.

Point sets, orthonormal spans of point subsets, residual distances, lp
errors, simplex volumes, and the best k-subspace (globally and inside a
span) used for grading. All operations are pure functions of immutable
inputs and safe to call from many threads.

Every spectral step uses one Gram eigen-kernel, `_gram_eigh` (X^T X in
O(n d^2), summed over blocks of rows each rescaled by one exact power of
two, then `eigh`), never a thin SVD of an n-row matrix. The kernel forms no
rescaled copy of X and no n-row product: a row selection and a right factor
are applied block by block. Subspaces come from the Gram; their errors from
a direct residual pass, never trace minus eigenvalues. The Gram squares
condition numbers, so rank is cut at eigenvalues <= 1e-12 of the largest
(singular values 1e-6). Results repeat bit for bit under power-of-two data
scaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

# Candidate basis vectors whose residual norm falls below this fraction of
# the largest input row norm are treated as linearly dependent.
RANK_TOL = 1e-9

# Rows per block of the residual and Gram passes: 1024 rows of d = 200 are
# 1.6 MB.
RESIDUAL_BLOCK_ROWS = 1024

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

    @classmethod
    def _adopt(cls, data: np.ndarray) -> PointSet:
        """Wrap a 2-D float64 array of finite entries, at least one row and
        one column, that the caller built and hands over: no copy and no
        second check. The array becomes read-only."""
        data.setflags(write=False)
        pts = object.__new__(cls)
        object.__setattr__(pts, "data", data)
        return pts

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def d(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class OrthonormalBasis:
    """Orthonormal rows spanning the linear span of a point subset.

    r = 0 is the empty span, OrthonormalBasis.empty(d). source_ids records
    which subset generated the span (empty for oracle bases); rank
    deficiency means r < len(source_ids).
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

    @classmethod
    def empty(cls, d: int) -> OrthonormalBasis:
        """The r = 0 span in d dimensions."""
        return cls(d, np.zeros((0, d)))

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


def _pow2_exponent(a: np.ndarray) -> int:
    """e with the largest magnitude of a * 2**-e in [0.5, 1), read off
    a.max() and a.min(), which allocate nothing; it moves by exactly k when
    a is scaled by 2**k."""
    top = max(float(a.max(initial=0.0)), -float(a.min(initial=0.0)))
    return int(np.frexp(top)[1])


def _pow2_scale(a: np.ndarray) -> tuple[np.ndarray, int]:
    """(a * 2**-e, e) with the largest magnitude in [0.5, 1); exact, so its
    results repeat bit for bit under power-of-two scaling of a."""
    e = _pow2_exponent(a)
    return np.ldexp(a, -e), e


def _scaled_blocks(x: np.ndarray, e: int, rows: np.ndarray | None = None,
                   ) -> Iterator[tuple[int, np.ndarray]]:
    """(lo, x[rows][lo:lo + RESIDUAL_BLOCK_ROWS] * 2**-e) for each block of
    rows, every row when rows is None; only one block exists at a time."""
    n = len(x) if rows is None else len(rows)
    for lo in range(0, n, RESIDUAL_BLOCK_ROWS):
        hi = lo + RESIDUAL_BLOCK_ROWS
        yield lo, np.ldexp(x[lo:hi] if rows is None else x[rows[lo:hi]], -e)


def _gram_eigh(x: np.ndarray, rows: np.ndarray | None = None,
               right: np.ndarray | None = None) -> tuple[int, np.ndarray, np.ndarray]:
    """The Gram eigen-kernel: (e, lam, v) for y = (x[rows] * 2**-e) @ right,
    with the eigenvalues of y^T y descending and their eigenvectors as
    columns. rows defaults to every row and right to the identity.

    One exponent e, from x, rescales every block of RESIDUAL_BLOCK_ROWS rows;
    the Gram is summed block by block, so neither the rescaled x nor the
    n-row product y is ever formed.
    """
    e = _pow2_exponent(x)
    width = x.shape[1] if right is None else right.shape[1]
    gram = np.zeros((width, width))
    for _, y in _scaled_blocks(x, e, rows):
        if right is not None:
            y = y @ right
        gram += y.T @ y
    lam, v = np.linalg.eigh(gram)
    return e, lam[::-1], v[:, ::-1]


def _cgs2_extend(base: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Classical Gram-Schmidt append, twice per row (CGS2): each row loses
    its projection on the basis so far, v -= (B v) B, in two matrix sweeps.

    The batch is rescaled by one power of two first, so tiny or huge rows
    normalize exactly. Rows whose residual norm is <= RANK_TOL times the
    batch's largest row norm are dropped.
    """
    rows, _ = _pow2_scale(np.asarray(rows, dtype=np.float64))
    tol = RANK_TOL * np.linalg.norm(rows, axis=1).max(initial=0.0)
    out = np.concatenate([base, rows])  # room for every row; r of them kept
    r = len(base)
    for v in rows:
        for _ in range(2):
            v = v - (out[:r] @ v) @ out[:r]
        norm = float(np.linalg.norm(v))
        if norm > tol:
            out[r] = v / norm
            r += 1
    return out[:r]


def orthonormal_basis(points: PointSet, subset: SubsetIds) -> OrthonormalBasis:
    """Orthonormal spanning set of the subset's points.

    Degenerate subsets simply yield lower rank; the empty subset gives r = 0.
    """
    ids = check_subset_ids(subset, points.n)
    return extend_basis(OrthonormalBasis.empty(points.d), points.data[ids], ids)


def extend_basis(basis: OrthonormalBasis, new_rows: np.ndarray,
                 new_ids: Sequence[int]) -> OrthonormalBasis:
    """Grow a span with additional points without revisiting the old ones."""
    new_rows = np.atleast_2d(np.asarray(new_rows, dtype=np.float64))
    if new_rows.shape[1] != basis.d:
        raise ValueError(f"point dimension {new_rows.shape[1]} != basis dimension {basis.d}")
    vecs = _cgs2_extend(np.asarray(basis.vectors), new_rows)
    return OrthonormalBasis(basis.d, vecs, basis.source_ids + tuple(int(i) for i in new_ids))


def residual_distances(rows: np.ndarray, basis: OrthonormalBasis) -> np.ndarray:
    """Euclidean distances of each row to span(basis), vectorized.

    Rows go RESIDUAL_BLOCK_ROWS at a time, so the temporaries (projection,
    residual, rescaled residual) are a few blocks whatever the row count.
    Each block's residuals are rescaled by their own power of two, so extreme
    scales cannot overflow.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    if rows.shape[1] != basis.d:
        raise ValueError(f"point dimension {rows.shape[1]} != basis dimension {basis.d}")
    out = np.empty(len(rows))
    v = basis.vectors
    for lo in range(0, len(rows), RESIDUAL_BLOCK_ROWS):
        block = rows[lo:lo + RESIDUAL_BLOCK_ROWS]
        resid, e = _pow2_scale(block - (block @ v.T) @ v if basis.r else block)
        out[lo:lo + RESIDUAL_BLOCK_ROWS] = np.ldexp(np.linalg.norm(resid, axis=1), e)
    return out


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
    """Best k-dimensional subspace for p = 2: the Gram's top-k eigenvectors,
    with the error measured by a direct residual pass."""
    if p != 2:
        raise ValueError("exact optimum is only available for p = 2")
    if not 1 <= k <= points.d:
        raise ValueError(f"k must satisfy 1 <= k <= d, got k={k}, d={points.d}")
    _, _, v = _gram_eigh(points.data)
    basis = OrthonormalBasis(points.d, v[:, :k].T, ())
    return basis, err_p(points, basis, 2.0)


def best_rank_k_in_span(points: PointSet, basis: OrthonormalBasis,
                        k: int) -> tuple[OrthonormalBasis, float]:
    """Best k-dimensional subspace inside span(basis) for squared error.

    This is the quantity subset selection is graded on: the selected span
    must contain a k-dimensional subspace whose err_2 is near the optimum.
    For V inside the span, d(x, V)^2 = d(x, span)^2 + d(proj x, V)^2, so the
    top-k eigenvectors of the r x r Gram of the in-span coordinates give
    the optimum; its error is measured by a direct residual pass.
    """
    if basis.r <= k:
        return basis, err_p(points, basis, 2.0)
    _, _, w = _gram_eigh(points.data, right=basis.vectors.T)
    sub = OrthonormalBasis(basis.d, w[:, :k].T @ basis.vectors, basis.source_ids)
    return sub, err_p(points, sub, 2.0)
