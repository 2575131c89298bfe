"""The kernels' unscaled fast paths against always-rescaled references.

`_block_gram` (the step of `_gram` and of `stream.length_squared_pass`)
skips the power-of-two rescale of a block whose entries all lie in
[2**-UNSCALED_EXP, 2**UNSCALED_EXP) in magnitude, and `residual_distances`
that of a tile whose rows' entries are at least 2**-UNSCALED_EXP and whose
squared distances are below 4**UNSCALED_EXP; only the sums are rescaled.
These tests hold them to the bits of the rescaled kernels, kept here as
references: on tiles at scales 2**k with k across the whole exponent range,
on tiles just inside and just outside each window bound, on tiles whose
largest entry is in the window while smaller ones square below the normal
range, where unscaled sums do round differently, and on rows in the span,
whose residual entries fall far below the window. They check only bits
against bits, so they run under any BLAS kernel.
"""

import numpy as np
import pytest

from subsel import linalg
from subsel.linalg import (
    RESIDUAL_BLOCK_ROWS,
    UNSCALED_EXP,
    OrthonormalBasis,
    _block_gram,
    _gram,
    _pow2_exponent,
    _tile_rows,
    _unscaled_ok,
    residual_distances,
)
from subsel.stream import length_squared_pass, open_source, write_binary

TOP = 2.0 ** UNSCALED_EXP
TINY = 2.0 ** -UNSCALED_EXP


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


def _rescaled_distances(x, basis):
    """The residual kernel with every tile rescaled by its own power of two."""
    out = np.empty(len(x))
    t = _tile_rows(basis.d)
    v = basis.vectors
    for lo in range(0, len(x), t):
        resid = x[lo:lo + t] - (x[lo:lo + t] @ v.T) @ v if basis.r else x[lo:lo + t].copy()
        e = _pow2_exponent(resid)
        y = np.ldexp(resid, -e)
        out[lo:lo + t] = np.ldexp(np.sqrt(np.einsum("ij,ij->i", y, y)), e)
    return out


def _rescaled_block_gram(block):
    """(e, g, sq) of one block from its copy rescaled by 2**-e."""
    e = _pow2_exponent(block)
    y = np.ldexp(block, -e)
    return e, y.T @ y, np.einsum("ij,ij->i", y, y)


def _rescaled_gram(x):
    """(e, g) summed over RESIDUAL_BLOCK_ROWS blocks, each rescaled."""
    acc = linalg._Pow2Sum((x.shape[1], x.shape[1]))
    for lo in range(0, len(x), RESIDUAL_BLOCK_ROWS):
        e, g, _ = _rescaled_block_gram(x[lo:lo + RESIDUAL_BLOCK_ROWS])
        acc.add(2 * e, g)
    return (acc.e or 0) // 2, acc.m


def _tile(n, d, seed):
    """Entries of random sign with magnitudes in [2**-5, 2**-4)."""
    rng = np.random.default_rng(seed)
    return rng.choice([-1.0, 1.0], size=(n, d)) * rng.uniform(0.5, 1.0, (n, d)) / 16


def _basis(d, r, seed):
    q = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))[0]
    return OrthonormalBasis(d, q[:, :r].T)


def _block_gram_was_fast(x):
    """Assert that _block_gram gives the rescaled reference's bits, and say
    whether it took the fast path, which leaves its scratch block unwritten."""
    out = np.full(x.shape, np.nan)
    e, g, sq = _block_gram(x, out, norms=True)
    e_ref, g_ref, sq_ref = _rescaled_block_gram(x)
    assert e == e_ref
    assert np.array_equal(_bits(g), _bits(g_ref))
    assert np.array_equal(_bits(sq), _bits(sq_ref))
    return bool(np.isnan(out).all())


def _rescaled_tiles(monkeypatch):
    """Count the tiles residual_distances rescales: only they take the
    tile's exponent."""
    calls = []

    def counted(a):
        calls.append(len(a))
        return _pow2_exponent(a)

    monkeypatch.setattr(linalg, "_pow2_exponent", counted)
    return calls


SCALES = sorted(set(range(-1074, 1024, 37)) | {
    -UNSCALED_EXP + 3, -UNSCALED_EXP + 4, -UNSCALED_EXP + 5,
    UNSCALED_EXP + 3, UNSCALED_EXP + 4, UNSCALED_EXP + 5, 1023})


@pytest.mark.parametrize("k", SCALES)
def test_kernels_match_the_rescaled_references_at_every_scale(k):
    # a tile at 2**k, its entries in [2**(k - 5), 2**(k - 4)): inside the
    # window for k in [5 - UNSCALED_EXP, UNSCALED_EXP + 4], outside it
    # elsewhere, and at the ends of the range subnormal or near overflow
    x = np.ldexp(_tile(600, 8, seed=k % 97), k)
    for r in (0, 3):
        basis = _basis(8, r, seed=r)
        with np.errstate(under="ignore"):
            got = residual_distances(x, basis)
            want = _rescaled_distances(x, basis)
        assert np.array_equal(_bits(got), _bits(want))
    fast = _block_gram_was_fast(x)
    assert fast == (-UNSCALED_EXP + 5 <= k <= UNSCALED_EXP + 4)
    e, g = _gram(x)
    e_ref, g_ref = _rescaled_gram(x)
    assert e == e_ref and np.array_equal(_bits(g), _bits(g_ref))


@pytest.mark.parametrize("inside", [True, False])
def test_smallest_entry_at_the_window_bound(inside, monkeypatch):
    # one entry exactly 2**-UNSCALED_EXP keeps the tile inside; the double
    # just below it sends the tile, and only that tile, to the rescale
    n = _tile_rows(8) + 5
    x = _tile(n, 8, seed=3)
    x[7, 2] = TINY if inside else np.nextafter(TINY, 0.0)
    assert _unscaled_ok(x[:_tile_rows(8)]) == inside
    assert _block_gram_was_fast(x) == inside
    want = _rescaled_distances(x, OrthonormalBasis.empty(8))
    calls = _rescaled_tiles(monkeypatch)
    got = residual_distances(x, OrthonormalBasis.empty(8))
    assert np.array_equal(_bits(got), _bits(want))
    assert calls == ([] if inside else [_tile_rows(8)])


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_zero_and_tiny_entries_of_either_sign_are_outside(sign):
    # the bit test reads both signs: +-0 and a subnormal of each sign fail it
    x = _tile(16, 4, seed=5)
    assert _unscaled_ok(x)
    for bad in (0.0, sign * 0.0, sign * 5e-324, sign * np.nextafter(TINY, 0.0)):
        y = x.copy()
        y[9, 1] = bad
        assert not _unscaled_ok(y)
    y = x.copy()
    y[9, 1] = sign * TINY
    assert _unscaled_ok(y)
    assert not _unscaled_ok(np.asfortranarray(np.vstack([x, x]))[:, :3])


@pytest.mark.parametrize("inside", [True, False])
def test_largest_entry_at_the_gram_window_bound(inside):
    # the Gram's block is inside while its exponent is at most UNSCALED_EXP,
    # so its largest entry is below 2**UNSCALED_EXP
    x = _tile(40, 6, seed=7)
    x[11, 4] = np.nextafter(TOP, 0.0) if inside else TOP
    assert (_pow2_exponent(x) <= UNSCALED_EXP) == inside
    assert _block_gram_was_fast(x) == inside
    e, g = _gram(x)
    e_ref, g_ref = _rescaled_gram(x)
    assert e == e_ref and np.array_equal(_bits(g), _bits(g_ref))


@pytest.mark.parametrize("inside", [True, False])
def test_largest_squared_distance_at_the_residual_window_bound(inside, monkeypatch):
    # four entries of 2**(UNSCALED_EXP - 1) square-sum to 4**UNSCALED_EXP,
    # just outside; the double below 2**(UNSCALED_EXP - 1) keeps the sum
    # below it
    half = TOP / 2
    x = _tile(30, 4, seed=9)
    x[17] = np.nextafter(half, 0.0) if inside else half
    want = _rescaled_distances(x, OrthonormalBasis.empty(4))
    calls = _rescaled_tiles(monkeypatch)
    got = residual_distances(x, OrthonormalBasis.empty(4))
    assert np.array_equal(_bits(got), _bits(want))
    assert calls == ([] if inside else [30])


def test_small_entries_beside_an_in_window_maximum_are_rescaled(monkeypatch):
    # the largest entry (e = 1) and the largest squared distance are well
    # inside the window, but every other entry squares below the normal
    # range: summed unscaled, distances and Gram entries of those take other
    # bits than summed rescaled, so the tile must not take the fast path
    x = np.random.default_rng(11).standard_normal((64, 8)) * 2.0 ** -515
    x[0, 0] = 1.5
    with np.errstate(under="ignore"):
        unscaled = np.sqrt(np.einsum("ij,ij->i", x, x))
        unscaled_gram = x.T @ x
    want = _rescaled_distances(x, OrthonormalBasis.empty(8))
    e, g_ref, _ = _rescaled_block_gram(x)
    assert e == 1
    assert np.count_nonzero(unscaled != want) > 0
    assert np.count_nonzero(np.ldexp(unscaled_gram, -2 * e) != g_ref) > 0
    calls = _rescaled_tiles(monkeypatch)
    assert np.array_equal(_bits(residual_distances(x, OrthonormalBasis.empty(8))), _bits(want))
    assert calls == [64]
    monkeypatch.undo()
    assert not _block_gram_was_fast(x)


@pytest.mark.parametrize("k", [-UNSCALED_EXP + 6, 0, UNSCALED_EXP - 60])
def test_residual_entries_below_the_window_keep_the_fast_path(k, monkeypatch):
    # rows inside a 3-dim span, each entry within a factor 8 of the row's
    # largest, at 2**k: their residual entries are rounding noise, zeros
    # among them, far below the rows' own entries (below 2**-UNSCALED_EXP
    # at the bottom of the window). A nonzero one is still at least
    # 2**(-UNSCALED_EXP - 53), so every tile stays unscaled with the
    # rescaled bits
    basis = _basis(8, 3, seed=19)
    cand = np.random.default_rng(19).standard_normal((20000, 3)) @ basis.vectors
    mags = np.abs(cand)
    rows = cand[mags.min(axis=1) >= mags.max(axis=1) / 8][:2 * _tile_rows(8) + 7]
    x = np.ldexp(rows, k - _pow2_exponent(rows) + 4)
    assert _unscaled_ok(x)
    resid = x - (x @ basis.vectors.T) @ basis.vectors
    assert np.count_nonzero(resid == 0.0) > 0
    assert 0.0 < np.abs(resid[resid != 0.0]).min() < 2.0 ** (k - 40)
    want = _rescaled_distances(x, basis)
    calls = _rescaled_tiles(monkeypatch)
    got = residual_distances(x, basis)
    assert np.array_equal(_bits(got), _bits(want))
    assert calls == []


def test_non_contiguous_rows_are_rescaled(monkeypatch):
    # the fast path runs einsum on the rows themselves only when they are
    # laid out like the scratch tile, which a strided view is not
    x = _tile(50, 12, seed=13)
    view = x[:, ::2]
    want = _rescaled_distances(np.ascontiguousarray(view), OrthonormalBasis.empty(6))
    calls = _rescaled_tiles(monkeypatch)
    got = residual_distances(view, OrthonormalBasis.empty(6))
    assert np.array_equal(_bits(got), _bits(want))
    assert calls == [50]


@pytest.mark.parametrize("mode", ["memory", "streaming"])
def test_length_squared_pass_matches_the_rescaled_blocks(tmp_path, mode):
    # chunks inside the window and outside it (at 2**400, and with a zero)
    # in one pass: the Gram carries the bits of the rescaled blocks
    n = 3 * RESIDUAL_BLOCK_ROWS + 11
    x = _tile(n, 5, seed=17)
    x[RESIDUAL_BLOCK_ROWS:2 * RESIDUAL_BLOCK_ROWS] *= 2.0 ** 400
    x[2 * RESIDUAL_BLOCK_ROWS + 3, 1] = 0.0
    path = tmp_path / "x.bin"
    write_binary(path, x)
    src = open_source(path, mode)
    (e, g), _, _ = length_squared_pass(src, 32, np.random.default_rng(1), label="ls")
    e_ref, g_ref = _rescaled_gram(x)
    assert e == e_ref and np.array_equal(_bits(g), _bits(g_ref))
