"""Dense linear-algebra kernels.

Point sets, orthonormal spans of point subsets, residual distances, lp
errors, subset Gram determinants (the volume samplers' weights), and the
best k-subspace (globally and inside a span) used for grading. All
operations are pure functions of immutable inputs and safe to call from
many threads.

Every spectral step starts from one d x d Gram, `_gram` (X^T X in O(n d^2),
summed by `_Pow2Sum` over blocks of rows, each rescaled by its own exact
power of two, so a streamed pass sums the same bits), and takes `eigh` of
it or of its in-span form B G B^T; no thin SVD of an n-row matrix is run. A
PointSet sums the Gram of all its rows once, on first use, and keeps it:
the optimum, best-k-in-span, the exact-fit test and the DPP pivot all read
that one Gram, while the trimmed fit sums its own over the
rows it keeps, which change with every span. The block kernels
(`_scaled_blocks`, `residual_distances`) work in one reused scratch block
per call: they form no rescaled copy of X, no n-row product and no
per-block temporary. The Gram's blocks are RESIDUAL_BLOCK_ROWS rows, the
rows of a source's chunk; `residual_distances` walks cache-sized tiles
instead, at most 2**17 floats each (512 rows at d = 200), so a tile and its
residual stay in a 2 MB L2 cache. Tile rows are a power of two that divides
the chunk's, so a streamed chunk splits into the same tiles as the whole
array. A Gram block whose entries all lie in [2**-UNSCALED_EXP,
2**UNSCALED_EXP) in magnitude, or a residual tile whose rows' entries are
at least 2**-UNSCALED_EXP and whose squared distances stay below
4**UNSCALED_EXP, skips the rescale (`_unscaled_ok`): its sums come out of
the unscaled rows with the bits of the rescaled ones, and only the d x d
Gram, the n squared norms or the distances are rescaled, if anything.
Subspaces come from the Gram;
their errors from a direct residual pass, never trace minus eigenvalues.
The Gram squares condition numbers, so rank is cut at eigenvalues <= 1e-12
of the largest (singular values 1e-6). Results repeat bit for bit under
power-of-two data scaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

# Candidate basis vectors whose residual norm falls below this fraction of
# the largest input row norm are treated as linearly dependent.
RANK_TOL = 1e-9

# Rows per block of the Gram pass (_scaled_blocks), and per chunk of a
# source's pass (stream.CHUNK_ROWS), so a streamed Gram sums the kernel's
# blocks: 1024 rows of d = 200 are 1.6 MB.
RESIDUAL_BLOCK_ROWS = 1024

# Floats per tile of residual_distances: a tile and its residual, 1 MB each,
# fit a 2 MB L2 cache. With one BLAS thread on a 2 MB-L2 x86 core, at d = 200
# and a rank-5 span, 1024-row tiles ran about 29% slower than 512-row ones,
# and 256-row ones no faster.
RESIDUAL_TILE_FLOATS = 1 << 17

# Blocks whose entries all have magnitude in [2**-UNSCALED_EXP,
# 2**UNSCALED_EXP) take the kernels' unscaled fast paths (`_unscaled_ok`).
# The proof in `_block_gram` needs 4 * UNSCALED_EXP + 104 <= 1074: such an
# entry is a multiple of 2**(-UNSCALED_EXP - 52), so a product of two, even
# rescaled by 4**-UNSCALED_EXP, lies on a grid no finer than 2**-1074, the
# spacing of the subnormals. The one in `residual_distances` needs
# 4 * UNSCALED_EXP + 106 <= 1022: a nonzero residual square, rescaled, is
# then at least 2**-1022, the smallest normal double.
UNSCALED_EXP = 200
# bits of 2**-UNSCALED_EXP read as uint64 and of -2**-UNSCALED_EXP read as
# int64: a positive double's bits order as uint64 below any negative's, a
# negative double's as int64 below any positive's, each by magnitude
_TINY_POS = np.float64(2.0 ** -UNSCALED_EXP).view(np.uint64)
_TINY_NEG = np.float64(-2.0 ** -UNSCALED_EXP).view(np.int64)
# the bound on a tile's squared distances in residual_distances' fast path
_UNSCALED_SQ = 4.0 ** UNSCALED_EXP

# A p = 2 error at or below this fraction of ||X||_F^2 is rounding noise (an
# exact fit): residuals below 1e-12 of the data's scale.
EXACT_FIT_REL = 1e-24

SubsetIds = Sequence[int]


@dataclass(frozen=True)
class PointSet:
    """n points in d dimensions, one row per point, immutable once built.

    The Gram of all rows is summed on first use and kept for the life of
    the set (`_full_gram`): d x d floats, as much as one call's transient
    Gram.
    """

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

    def _full_gram(self) -> tuple[int, np.ndarray]:
        """`_gram(self.data)`, summed on first use and kept, g read-only.
        A plain memo in the instance dict, taken without a lock: threads that
        race on the first call sum the same bits."""
        memo = self.__dict__.get("_gram_memo")
        if memo is None:
            e, g = _gram(self.data)
            g.setflags(write=False)
            memo = self.__dict__["_gram_memo"] = (e, g)
        return memo

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
            if not np.allclose(gram, np.eye(vectors.shape[0]), rtol=0.0, atol=1e-9):
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


def _unscaled_ok(a: np.ndarray) -> bool:
    """Whether a block may take a kernel's unscaled fast path as far as its
    small entries go: every entry has magnitude at least 2**-UNSCALED_EXP (a
    zero fails too), and the block is laid out like the kernels' scratch
    blocks, C-contiguous and aligned, so einsum and BLAS run the same loop on
    it. The caller bounds the entries from above. Two integer min sweeps of
    the entries' bits, which allocate nothing."""
    return bool(a.flags.c_contiguous and a.flags.aligned
                and a.view(np.uint64).min() >= _TINY_POS
                and a.view(np.int64).min() >= _TINY_NEG)


def _scaled_blocks(x: np.ndarray, e: int, rows: np.ndarray | None = None,
                   ) -> Iterator[tuple[int, np.ndarray]]:
    """(lo, x[rows][lo:lo + RESIDUAL_BLOCK_ROWS] * 2**-e) for each block of
    rows, every row when rows is None.

    Every block is a view of one scratch buffer that the next block
    overwrites: it is valid only until the generator resumes, so copy what
    must outlive it. Selected rows are gathered straight into that buffer.
    """
    n = len(x) if rows is None else len(rows)
    # ids are checked once here, so the gathers can skip numpy's bounds
    # check, which would buffer every block through a fresh copy
    if rows is not None and n and not 0 <= rows.min() <= rows.max() < len(x):
        raise IndexError(f"row id outside [0, {len(x)})")
    buf = np.empty((min(n, RESIDUAL_BLOCK_ROWS), x.shape[1]))
    for lo in range(0, n, RESIDUAL_BLOCK_ROWS):
        hi = min(lo + RESIDUAL_BLOCK_ROWS, n)
        block = buf[:hi - lo]
        if rows is None:
            np.ldexp(x[lo:hi], -e, out=block)
        else:
            np.take(x, rows[lo:hi], axis=0, out=block, mode="clip")
            if e:
                np.ldexp(block, -e, out=block)
        yield lo, block


def _exact_fit(x: np.ndarray, e: int, err_sq: float) -> bool:
    """Whether a squared error, in units of 4**e, is an exact fit of x: at
    most EXACT_FIT_REL of ||x * 2**-e||_F^2."""
    data_sq = sum(float(np.vdot(b, b)) for _, b in _scaled_blocks(x, e))
    return err_sq <= EXACT_FIT_REL * max(data_sq, 1e-300)


def is_exact_fit(points: PointSet, err: float) -> bool:
    """Whether a p = 2 error of the points, in data units, is an exact fit:
    rounding noise, at most EXACT_FIT_REL of ||X||_F^2, read as the trace
    of the points' kept Gram. Both sides are compared in units of 4**e, so
    the answer repeats under power-of-two scaling and ||X||_F^2 cannot
    overflow or underflow."""
    e, gram = points._full_gram()
    return math.ldexp(err, -2 * e) <= EXACT_FIT_REL * max(float(np.trace(gram)), 1e-300)


class _Pow2Sum:
    """A running sum m * 2**e of parts handed in at their own powers of two;
    the mantissa m is a 0-d or d x d array.

    add(e, part) adds part * 2**e, so no scale need be known before the
    first part. e is the largest exponent of a nonzero part so far, None
    before the first: a part at a larger e shifts m down, one at a smaller e
    is shifted down itself, each in place by ldexp. The shifts are exact, so
    the sum is that at one global exponent unless a term falls below the
    normal range, and scaling every part by 2**k moves e by k and leaves m
    bit for bit the same. An all-zero part sets no exponent.
    """

    def __init__(self, shape: tuple[int, ...] = ()):
        self.e: int | None = None
        self.m = np.zeros(shape)

    def add(self, e: int, part) -> np.ndarray:
        """Add part * 2**e; returns the part in units of 2**self.e."""
        part = np.asarray(part, dtype=np.float64)
        if self.e is None or e > self.e:
            if not np.count_nonzero(part):  # zeros set no exponent
                return part
            if self.e is not None:
                np.ldexp(self.m, self.e - e, out=self.m)
            self.e = e
        elif e < self.e:
            np.ldexp(part, e - self.e, out=part)
        self.m += part
        return part


def _block_gram(block: np.ndarray, out: np.ndarray, *, gram: bool = True,
                norms: bool = False) -> tuple[int, np.ndarray | None, np.ndarray | None]:
    """(e, g, sq) for one block of rows: its Gram g, when `gram`, and its
    rows' squared norms sq, when `norms` (else None), both in units of 4**e,
    e = _pow2_exponent(block). They are the products of the block rescaled
    by 2**-e, formed in `out`, an array of the block's shape that may be the
    block itself.

    Unscaled fast path: when e <= UNSCALED_EXP and `_unscaled_ok(block)`, the
    products come from the block as it is, and only they are rescaled, by
    4**-e: the d x d Gram and the n norms, not the n x d block, so `out` is
    not written. The bits are those of the rescaled block. Proof: each entry
    lies in [2**-UNSCALED_EXP, 2**UNSCALED_EXP), so it is a multiple of
    2**(-UNSCALED_EXP - 52), and 2**-e leaves it normal, so the rescale is
    exact. Every value a kernel forms from the entries (a product, a sum, a
    fused multiply-add, in any order) is then, unscaled or rescaled, a
    multiple of a grid no finer than 2**-1074 (see UNSCALED_EXP) and at most
    rows * 4**UNSCALED_EXP in magnitude. Such a value is exact where it is
    subnormal, and rounding to nearest commutes with a power of two where it
    is normal, so each value formed unscaled is 4**e times the one formed
    rescaled by the same loop, and the last 4**-e is exact. Both callers,
    `_gram` and `stream.length_squared_pass`, run it on the same blocks, so a
    memory source's Gram and a streamed one share their bits by construction.
    """
    e = _pow2_exponent(block)
    fast = e <= UNSCALED_EXP and _unscaled_ok(block)
    y = block if fast else np.ldexp(block, -e, out=out)
    g = y.T @ y if gram else None
    sq = np.einsum("ij,ij->i", y, y) if norms else None
    if fast:
        for part in (g, sq):
            if part is not None:
                np.ldexp(part, -2 * e, out=part)
    return e, g, sq


def _gram(x: np.ndarray, rows: np.ndarray | None = None) -> tuple[int, np.ndarray]:
    """The Gram kernel: (e, g) with the Gram of x[rows] equal to g * 4**e,
    rows defaulting to every row; e = 0 when every row is zero.

    Each block of RESIDUAL_BLOCK_ROWS rows has its Gram formed at its own
    power of two 4**e by `_block_gram` and added to a _Pow2Sum at 4**e, so
    a pass that meets the blocks one at a time sums the same bits. With
    rows None the blocks are views of x, and only a block outside the
    unscaled window is copied, rescaled, into one scratch block; selected
    rows are gathered into a scratch block, rescaled there if they must be.
    """
    acc = _Pow2Sum((x.shape[1], x.shape[1]))
    if rows is None:
        buf = np.empty((min(len(x), RESIDUAL_BLOCK_ROWS), x.shape[1]))
        blocks = (x[lo:lo + RESIDUAL_BLOCK_ROWS] for lo in range(0, len(x), RESIDUAL_BLOCK_ROWS))
    else:
        buf = None
        blocks = (block for _, block in _scaled_blocks(x, 0, rows))
    for block in blocks:
        e, g, _ = _block_gram(block, block if buf is None else buf[:len(block)])
        acc.add(2 * e, g)
    return (acc.e or 0) // 2, acc.m


def _eigh_desc(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of a symmetric matrix, descending, and their eigenvectors
    as columns."""
    lam, v = np.linalg.eigh(a)
    return lam[::-1], v[:, ::-1]


def _top_k_in_span(gram: np.ndarray, span: OrthonormalBasis,
                   k: int) -> OrthonormalBasis:
    """The top-k eigenvectors of the in-span Gram B g B^T, mapped back to R^d.

    For V inside span(B), d(x, V)^2 = d(x, span)^2 + d(x B^T, W)^2, so these
    give the best k-subspace inside the span for the rows g was summed over.
    """
    b = span.vectors
    _, w = _eigh_desc(b @ gram @ b.T)
    return OrthonormalBasis(span.d, w[:, :k].T @ b, span.source_ids)


def _cgs2_extend(base: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Classical Gram-Schmidt append, twice per row (CGS2): each row loses
    its projection on the basis so far, v -= (B v) B, in two matrix sweeps.

    The batch is rescaled by one power of two first, so tiny or huge rows
    normalize exactly. Rows whose residual norm is <= RANK_TOL times the
    batch's largest row norm are dropped.
    """
    rows = np.asarray(rows, dtype=np.float64)
    rows = np.ldexp(rows, -_pow2_exponent(rows))
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


def _tile_rows(d: int) -> int:
    """Rows per tile of residual_distances at dimension d: the largest power
    of two with rows * d <= RESIDUAL_TILE_FLOATS, at most RESIDUAL_BLOCK_ROWS
    (which it therefore divides) and at least 1."""
    return min(RESIDUAL_BLOCK_ROWS, 1 << (max(1, RESIDUAL_TILE_FLOATS // d).bit_length() - 1))


def residual_distances(rows: np.ndarray, basis: OrthonormalBasis) -> np.ndarray:
    """Euclidean distances of each row to span(basis), vectorized.

    Rows go `_tile_rows(d)` at a time (512 at d = 200, 1024 at d <= 128)
    through one scratch tile that holds the projection and then the
    residual, so the temporaries are one tile whatever the row count, and a
    tile and its residual stay in cache. Tiles divide a source's chunk, so a
    chunk's rows get the bits they get in the whole array.

    Each tile's squared distances are the residual's rows rescaled by the
    tile's power of two 2**e, so extreme scales cannot overflow, and the
    distances are scaled back by 2**e. Unscaled fast path: when
    `_unscaled_ok(tile)` holds for the tile's own rows (swept before the
    products, which then read the tile from cache), the squares are summed
    from the residual as it is, and kept when the tile's largest sum S is
    below 4**U, U = UNSCALED_EXP (anything else, inf or NaN included,
    rescales). The bits are the rescaled ones. Proof: a residual entry is
    fl(x - p) for a row entry |x| >= 2**-U and a float p. If |p| <= |x|/2
    it is at least 2**(-U-1) in magnitude; else x and p are both multiples
    of 2**(-U-53), so it is 0 or at least that. S < 4**U puts every entry
    below 2**U, so e <= U and a nonzero entry rescaled is at least
    2**(-2U-53): the rescale is exact, and each nonzero square and partial
    sum of the non-negative terms is at least 4**(-2U-53) rescaled and
    4**(-U-53) unscaled, normal both ways (see UNSCALED_EXP), where rounding
    to nearest commutes with a power of two. So each unscaled sum, formed
    by the same einsum loop, is 4**e times the rescaled one, and its square
    root 2**e times. A tile of huge entries can overflow its sums before the
    window rejects it, so the attempt runs under np.errstate.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    if rows.shape[1] != basis.d:
        raise ValueError(f"point dimension {rows.shape[1]} != basis dimension {basis.d}")
    n = len(rows)
    out = np.empty(n)
    v = basis.vectors
    tile = _tile_rows(basis.d)
    buf = np.empty((min(n, tile), basis.d))
    coef = np.empty((len(buf), basis.r))
    for lo in range(0, n, tile):
        block = rows[lo:lo + tile]
        resid, dist = buf[:len(block)], out[lo:lo + len(block)]
        fast = _unscaled_ok(block)
        if basis.r:
            np.matmul(np.matmul(block, v.T, out=coef[:len(block)]), v, out=resid)
            block = np.subtract(block, resid, out=resid)
        if fast:
            with np.errstate(over="ignore", invalid="ignore"):
                np.einsum("ij,ij->i", block, block, out=dist)
                fast = dist.max() < _UNSCALED_SQ
            if fast:
                np.sqrt(dist, out=dist)
                continue
        e = _pow2_exponent(block)
        np.ldexp(block, -e, out=resid)
        np.sqrt(np.einsum("ij,ij->i", resid, resid, out=dist), out=dist)
        np.ldexp(dist, e, out=dist)
    return out


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Each row's Euclidean norm, the row rescaled by its own power of two,
    so no norm overflows or underflows and none depends on the rows it
    comes with."""
    e = np.frexp(np.abs(rows).max(axis=1, initial=0.0))[1]
    y = np.ldexp(rows, -e[:, None])
    return np.ldexp(np.sqrt(np.einsum("ij,ij->i", y, y)), e)


def _check_p(p: float, least: float = 1.0) -> None:
    """p is finite and at least `least`: 1 for errors and sampling, 2 for the closed forms."""
    if not (math.isfinite(p) and p >= least):
        raise ValueError(f"p must be finite and >= {least:g}")


def err_p(points: PointSet, basis: OrthonormalBasis, p: float) -> float:
    """Sum of p-th powers of residual distances, in one sequential scan."""
    _check_p(p)
    res = residual_distances(points.data, basis)
    return float(np.sum(res ** p))


def gram_dets(points: PointSet, subsets: np.ndarray, e: int) -> np.ndarray:
    """Gram dets of a batch of equal-size subsets (b, k), their rows scaled
    by 2**-e: the dets times 4**(-k e), 0 for dependent subsets. At the
    data's exponent (`_pow2_exponent`) no scale overflows; e = 0 gives the
    dets themselves."""
    rows = np.ldexp(points.data[np.asarray(subsets)], -e)
    return np.maximum(np.linalg.det(rows @ np.swapaxes(rows, 1, 2)), 0.0)


def optimal_subspace(points: PointSet, k: int, p: float = 2.0) -> tuple[OrthonormalBasis, float]:
    """Best k-dimensional subspace for p = 2: the Gram's top-k eigenvectors,
    with the error measured by a direct residual pass."""
    if p != 2:
        raise ValueError("exact optimum is only available for p = 2")
    if not 1 <= k <= points.d:
        raise ValueError(f"k must satisfy 1 <= k <= d, got k={k}, d={points.d}")
    _, v = _eigh_desc(points._full_gram()[1])
    basis = OrthonormalBasis(points.d, v[:, :k].T, ())
    return basis, err_p(points, basis, 2.0)


def best_rank_k_in_span(points: PointSet, basis: OrthonormalBasis,
                        k: int) -> tuple[OrthonormalBasis, float]:
    """Best k-dimensional subspace inside span(basis) for squared error.

    This is the quantity subset selection is graded on: the selected span
    must contain a k-dimensional subspace whose err_2 is near the optimum.
    It is read off the one d x d Gram of the data (`_top_k_in_span`); its
    error is measured by a direct residual pass.
    """
    if basis.r <= k:
        return basis, err_p(points, basis, 2.0)
    sub = _top_k_in_span(points._full_gram()[1], basis, k)
    return sub, err_p(points, sub, 2.0)
