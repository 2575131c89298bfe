import itertools
import math

import numpy as np
import pytest

from subsel.linalg import (
    OrthonormalBasis,
    PointSet,
    best_rank_k_in_span,
    err_p,
    extend_basis,
    orthonormal_basis,
    optimal_subspace,
    residual_distances,
    simplex_volume_sq,
)


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def jacobi_eigenvalues(sym, sweeps=100, tol=1e-13):
    """Cyclic Jacobi eigensolver for symmetric matrices.

    Deliberately does not touch numpy.linalg so it can cross-check the SVD
    oracle.
    """
    a = np.array(sym, dtype=float, copy=True)
    n = a.shape[0]
    scale = max(1.0, float(np.max(np.abs(a))))
    for _ in range(sweeps):
        off = 0.0
        for i in range(n - 1):
            for j in range(i + 1, n):
                off = max(off, abs(a[i, j]))
        if off <= tol * scale:
            break
        for i in range(n - 1):
            for j in range(i + 1, n):
                if abs(a[i, j]) <= tol * scale * 1e-3:
                    continue
                theta = 0.5 * math.atan2(2.0 * a[i, j], a[j, j] - a[i, i])
                c, s = math.cos(theta), math.sin(theta)
                rot = np.eye(n)
                rot[i, i] = c
                rot[j, j] = c
                rot[i, j] = s
                rot[j, i] = -s
                a = rot.T @ a @ rot
    return np.sort(np.diag(a))[::-1]


def gram_volume_sq_oracle(rows):
    """vol^2 via an explicit cofactor determinant of the Gram matrix."""
    k = len(rows)
    gram = [[float(np.dot(rows[i], rows[j])) for j in range(k)] for i in range(k)]

    def det(m):
        if len(m) == 1:
            return m[0][0]
        total = 0.0
        for j in range(len(m)):
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            total += (-1) ** j * m[0][j] * det(minor)
        return total

    return det(gram) / math.factorial(k) ** 2


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

def test_pointset_rejects_nonfinite():
    with pytest.raises(ValueError, match="NaN or Inf"):
        PointSet(np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError):
        PointSet(np.array([[np.inf, 0.0]]))


def test_pointset_is_immutable():
    ps = PointSet(np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError):
        ps.data[0, 0] = 5.0


def test_pointset_shape_validation():
    with pytest.raises(ValueError):
        PointSet(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        PointSet(np.zeros(4))


def test_basis_rejects_non_orthonormal_rows():
    with pytest.raises(ValueError, match="orthonormal"):
        OrthonormalBasis(2, np.array([[1.0, 1.0]]))


# ---------------------------------------------------------------------------
# orthonormal_basis
# ---------------------------------------------------------------------------

def test_basis_single_unit_vector():
    ps = PointSet(np.array([[1.0, 0.0], [0.0, 1.0]]))
    b = orthonormal_basis(ps, [0])
    assert b.r == 1
    assert np.allclose(b.vectors, [[1.0, 0.0]])


def test_basis_empty_subset():
    ps = PointSet(np.array([[1.0, 0.0]]))
    b = orthonormal_basis(ps, [])
    assert b.r == 0
    assert b.source_ids == ()


def test_basis_collinear_rank_deficiency():
    ps = PointSet(np.array([[1.0, 0.0], [2.0, 0.0]]))
    b = orthonormal_basis(ps, [0, 1])
    assert b.r == 1
    assert b.source_ids == (0, 1)


def test_basis_rank_le_subset_size_random():
    rng = np.random.default_rng(5)
    ps = PointSet(rng.standard_normal((12, 6)))
    for size in (1, 3, 6, 9):
        ids = list(rng.integers(0, 12, size=size))
        b = orthonormal_basis(ps, ids)
        assert b.r <= len(ids)
        assert b.r <= 6
        gram = b.vectors @ b.vectors.T
        assert np.allclose(gram, np.eye(b.r), atol=1e-9)


def test_basis_extreme_scale():
    # squared norms of 1e-160 rows are subnormal: each batch is rescaled by
    # a power of two before Gram-Schmidt, so the rows normalize exactly and
    # power-of-two scaled data gives the same basis bit for bit
    x = np.random.default_rng(6).standard_normal((8, 6))
    b = orthonormal_basis(PointSet(x * 1e-160), [0, 1, 2, 3])
    assert b.r == 4
    assert np.allclose(b.vectors @ b.vectors.T, np.eye(4), atol=1e-12)
    plain = orthonormal_basis(PointSet(x), [0, 1, 2, 3])
    grown = extend_basis(orthonormal_basis(PointSet(x), [0, 1]), x[[2, 3]], [2, 3])
    for scale in (2.0 ** -600, 2.0 ** 600):
        assert np.array_equal(
            orthonormal_basis(PointSet(x * scale), [0, 1, 2, 3]).vectors, plain.vectors)
        scaled = extend_basis(orthonormal_basis(PointSet(x * scale), [0, 1]),
                              x[[2, 3]] * scale, [2, 3])
        assert np.array_equal(scaled.vectors, grown.vectors)


def test_residual_distances_extreme_scale():
    # residual norms at 2**+-600 would overflow or underflow if squared
    # directly; they are computed on a power-of-two-rescaled copy instead
    x = np.random.default_rng(7).standard_normal((20, 6))
    basis = orthonormal_basis(PointSet(x), [0, 1])
    plain = residual_distances(x, basis)
    for e in (-600, 600):
        assert np.array_equal(residual_distances(np.ldexp(x, e), basis),
                              np.ldexp(plain, e))


def test_extend_basis_matches_recompute():
    rng = np.random.default_rng(11)
    ps = PointSet(rng.standard_normal((10, 5)))
    base = orthonormal_basis(ps, [0, 1])
    ext = extend_basis(base, ps.data[[4, 7]], [4, 7])
    full = orthonormal_basis(ps, [0, 1, 4, 7])
    # same span: identical residuals everywhere
    assert np.allclose(residual_distances(ps.data, ext),
                       residual_distances(ps.data, full), atol=1e-9)
    assert ext.source_ids == (0, 1, 4, 7)


def _mgs_reference(rows, tol):
    """Row-by-row modified Gram-Schmidt with one re-orthogonalization sweep,
    one basis vector at a time: the loop the CGS2 block sweep replaced."""
    vecs = []
    for v in np.array(rows, dtype=float):
        for _ in range(2):
            for b in vecs:
                v -= (v @ b) * b
        if np.linalg.norm(v) > tol:
            vecs.append(v / np.linalg.norm(v))
    return np.array(vecs)


def test_basis_growth_matches_mgs_reference():
    # CGS2 subtracts whole projections where MGS subtracts one direction at
    # a time; the rows kept and the vectors agree to rounding
    rng = np.random.default_rng(12)
    x = rng.standard_normal((40, 60))
    x[20] = x[3] - 2.0 * x[7]              # dependent: dropped by both
    x[30] = x[4] + 1e-12 * x[30]           # residual below RANK_TOL: dropped
    x[35] = x[5] + 1e-6 * x[35]            # above it: kept
    xs = np.ldexp(x, -int(np.frexp(np.abs(x).max())[1]))  # the batch rescale
    want = _mgs_reference(xs, 1e-9 * np.linalg.norm(xs, axis=1).max())
    got = orthonormal_basis(PointSet(x), range(40))
    assert got.r == len(want) == 38
    # x[35] is 1e-6 off the span before it, so its direction, and those
    # after it, carry rounding amplified by 1e6
    err = np.abs(got.vectors - want).max(axis=1)
    eps = np.finfo(float).eps
    assert err[:33].max() <= 16 * eps and err[33:].max() <= 16 * eps / 1e-6


def test_subset_id_validation():
    ps = PointSet(np.eye(3))
    with pytest.raises(IndexError):
        orthonormal_basis(ps, [3])
    with pytest.raises(IndexError):
        orthonormal_basis(ps, [-1])


# ---------------------------------------------------------------------------
# residual distances
# ---------------------------------------------------------------------------

def residual_distance(x, basis):
    return float(residual_distances(x[None, :], basis)[0])


def test_residual_axis_projection():
    ps = PointSet(np.array([[1.0, 0.0]]))
    b = orthonormal_basis(ps, [0])
    assert residual_distance(np.array([3.0, 4.0]), b) == pytest.approx(4.0)


def test_residual_membership_zero():
    rng = np.random.default_rng(0)
    ps = PointSet(rng.standard_normal((4, 5)))
    b = orthonormal_basis(ps, [0, 1])
    x = 0.3 * ps.data[0] - 1.7 * ps.data[1]
    assert residual_distance(x, b) <= 1e-9 * np.linalg.norm(x)


def test_residual_empty_basis_is_norm():
    ps = PointSet(np.array([[1.0, 0.0]]))
    b = orthonormal_basis(ps, [])
    assert residual_distance(np.array([3.0, 4.0]), b) == pytest.approx(5.0)


def test_residual_dimension_mismatch():
    ps = PointSet(np.array([[1.0, 0.0]]))
    b = orthonormal_basis(ps, [0])
    with pytest.raises(ValueError, match="dimension"):
        residual_distances(np.array([[1.0, 2.0, 3.0]]), b)


def test_projection_contraction_and_pythagoras():
    rng = np.random.default_rng(42)
    ps = PointSet(rng.standard_normal((20, 8)))
    b = orthonormal_basis(ps, [0, 3, 5])
    for x in rng.standard_normal((50, 8)):
        res = residual_distance(x, b)
        norm = np.linalg.norm(x)
        assert res <= norm + 1e-12
        proj_sq = norm ** 2 - res ** 2
        recomputed = np.linalg.norm(b.vectors @ x) ** 2
        assert proj_sq == pytest.approx(recomputed, rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# err_p
# ---------------------------------------------------------------------------

def test_err_p_examples():
    ps = PointSet(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    b = orthonormal_basis(ps, [0])
    assert err_p(ps, b, 2.0) == pytest.approx(2.0)
    assert err_p(ps, b, 3.0) == pytest.approx(2.0)
    full = orthonormal_basis(ps, [0, 1])
    assert err_p(ps, full, 2.0) == pytest.approx(0.0, abs=1e-18)


def test_err_p_rejects_bad_p():
    ps = PointSet(np.eye(2))
    b = orthonormal_basis(ps, [0])
    with pytest.raises(ValueError):
        err_p(ps, b, 0.5)
    with pytest.raises(ValueError):
        err_p(ps, b, float("inf"))


def test_err_monotone_under_subset_growth():
    rng = np.random.default_rng(7)
    ps = PointSet(rng.standard_normal((15, 6)))
    for p in (1.0, 2.0, 3.0):
        small = orthonormal_basis(ps, [1, 4])
        big = orthonormal_basis(ps, [1, 4, 9, 12])
        assert err_p(ps, big, p) <= err_p(ps, small, p) + 1e-9


# ---------------------------------------------------------------------------
# simplex_volume_sq
# ---------------------------------------------------------------------------

def test_volume_unit_right_simplex():
    ps = PointSet(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert simplex_volume_sq(ps, [0, 1]) == pytest.approx(0.25)


def test_volume_collinear_zero():
    ps = PointSet(np.array([[1.0, 0.0], [2.0, 0.0]]))
    assert simplex_volume_sq(ps, [0, 1]) == pytest.approx(0.0, abs=1e-12)


def test_volume_scaled_square():
    # oracle: cofactor expansion of the Gram determinant
    rows = [np.array([2.0, 0.0]), np.array([0.0, 2.0])]
    expected = gram_volume_sq_oracle(rows)
    assert expected == pytest.approx(4.0)
    ps = PointSet(np.array(rows))
    assert simplex_volume_sq(ps, [0, 1]) == pytest.approx(expected)


def test_volume_permutation_and_scaling():
    rng = np.random.default_rng(3)
    data = rng.standard_normal((6, 4))
    ps = PointSet(data)
    ids = [0, 2, 5]
    v = simplex_volume_sq(ps, ids)
    assert simplex_volume_sq(ps, [5, 0, 2]) == pytest.approx(v, rel=1e-9)
    scaled = data.copy()
    scaled[2] *= 3.0
    assert simplex_volume_sq(PointSet(scaled), ids) == pytest.approx(9.0 * v, rel=1e-9)
    # matches the cofactor oracle on random subsets
    for _ in range(5):
        sub = list(rng.choice(6, size=3, replace=False))
        assert simplex_volume_sq(ps, sub) == pytest.approx(
            gram_volume_sq_oracle([data[i] for i in sub]), rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# optimal_subspace
# ---------------------------------------------------------------------------

def test_optimal_dominant_axis():
    ps = PointSet(np.array([[2.0, 0.0], [0.0, 1.0]]))
    basis, opt = optimal_subspace(ps, 1)
    assert opt == pytest.approx(1.0)
    assert abs(basis.vectors[0, 0]) == pytest.approx(1.0, abs=1e-9)


def test_optimal_tied_spectrum():
    ps = PointSet(np.eye(2))
    _, opt = optimal_subspace(ps, 1)
    assert opt == pytest.approx(1.0)


def test_optimal_rejects_p_ne_2_and_bad_k():
    ps = PointSet(np.eye(3))
    with pytest.raises(ValueError, match="p = 2"):
        optimal_subspace(ps, 1, p=3.0)
    with pytest.raises(ValueError):
        optimal_subspace(ps, 0)
    with pytest.raises(ValueError):
        optimal_subspace(ps, 4)


def test_optimal_matches_jacobi_oracle():
    rng = np.random.default_rng(123)
    data = rng.standard_normal((6, 4))
    ps = PointSet(data)
    eigs = jacobi_eigenvalues(data.T @ data)
    for k in (1, 2, 3):
        _, opt = optimal_subspace(ps, k)
        expected = float(np.sum(eigs[k:]))
        assert opt == pytest.approx(expected, rel=1e-6)


def test_optimal_beats_every_subset_exhaustively():
    rng = np.random.default_rng(9)
    data = rng.standard_normal((8, 4))
    ps = PointSet(data)
    for k in (1, 2):
        _, opt = optimal_subspace(ps, k)
        for sub in itertools.combinations(range(8), k):
            b = orthonormal_basis(ps, list(sub))
            assert opt <= err_p(ps, b, 2.0) + 1e-9


def test_kernels_thread_safe():
    # pure functions over immutable inputs: concurrent calls agree with serial
    from concurrent.futures import ThreadPoolExecutor

    rng = np.random.default_rng(99)
    ps = PointSet(rng.standard_normal((200, 10)))
    basis = orthonormal_basis(ps, [0, 3, 7, 11])
    serial = [err_p(ps, basis, p) for p in (1.0, 2.0, 3.0)] * 8
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(lambda p: err_p(ps, basis, p),
                                 [1.0, 2.0, 3.0] * 8))
    assert parallel == serial


def test_best_rank_k_in_span():
    rng = np.random.default_rng(77)
    data = rng.standard_normal((30, 6))
    ps = PointSet(data)
    span = orthonormal_basis(ps, [0, 1, 2, 3, 4])
    sub, err = best_rank_k_in_span(ps, span, 2)
    assert sub.r == 2
    assert err == pytest.approx(err_p(ps, sub, 2.0), rel=1e-12)
    _, opt = optimal_subspace(ps, 2)
    assert err >= opt - 1e-9
    # exhaustive check: no 2-dim subspace spanned by pairs of basis directions does better
    for i, j in itertools.combinations(range(span.r), 2):
        cand = OrthonormalBasis(6, span.vectors[[i, j]], ())
        assert err <= err_p(ps, cand, 2.0) + 1e-9
    # when the span is already at most k-dimensional it is returned unchanged
    small = orthonormal_basis(ps, [0])
    same, err_small = best_rank_k_in_span(ps, small, 2)
    assert same.r == 1
    assert err_small == pytest.approx(err_p(ps, small, 2.0))
