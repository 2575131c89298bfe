import math

import numpy as np
import pytest

from subsel.linalg import PointSet, err_p, optimal_subspace, orthonormal_basis, residual_distances
from subsel.rng import derive_rng
from subsel.stream import (
    CHUNK_ROWS,
    DatasetFormatError,
    PassCountError,
    generate_synthetic,
    inlier_count,
    open_source,
    proposal_prefetch_pass,
    weighted_reservoir_sample,
    write_binary,
    write_csv,
)


def sq_norms(chunk):
    return np.linalg.norm(chunk, axis=1) ** 2


# ---------------------------------------------------------------------------
# open_source and file formats
# ---------------------------------------------------------------------------

def test_open_csv(tmp_path):
    path = tmp_path / "a.csv"
    write_csv(path, np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]), header="demo")
    src = open_source(path)
    assert (src.n, src.d) == (3, 2)
    assert src.pass_log.total_passes == 0
    pts = src.collect("load")
    assert np.array_equal(pts.data, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])


def test_ragged_csv_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(DatasetFormatError, match="line 2"):
        open_source(path)


def test_csv_non_numeric_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# header\n1.0,2.0\n1.0,zap\n")
    with pytest.raises(DatasetFormatError, match="line 3"):
        open_source(path)


def test_csv_non_finite_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,inf\n")
    with pytest.raises(DatasetFormatError, match="non-finite"):
        open_source(path)


def test_binary_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    data = rng.standard_normal((7, 3))
    path = tmp_path / "a.bin"
    write_binary(path, data)
    src = open_source(path)
    assert (src.n, src.d) == (7, 3)
    assert np.array_equal(src.collect("load").data, data)


def test_binary_byte_layout(tmp_path):
    import struct

    data = np.array([[1.0, -2.5], [0.0, 3.25], [1e-300, 7.0]])
    path = tmp_path / "layout.bin"
    write_binary(path, data)
    raw = path.read_bytes()
    assert raw[:6] == b"SSEL1\x00"
    assert struct.unpack("<QQ", raw[6:22]) == (3, 2)
    assert raw[22:] == struct.pack("<6d", 1.0, -2.5, 0.0, 3.25, 1e-300, 7.0)


def test_binary_magic_mismatch(tmp_path):
    path = tmp_path / "a.bin"
    path.write_bytes(b"SSEL9\x00" + b"\x00" * 32)
    with pytest.raises(DatasetFormatError, match="magic"):
        open_source(path)


def test_binary_truncated_payload(tmp_path):
    import struct

    path = tmp_path / "a.bin"
    path.write_bytes(b"SSEL1\x00" + struct.pack("<QQ", 4, 2) + b"\x00" * 16)
    with pytest.raises(DatasetFormatError, match="payload"):
        open_source(path)


def test_csv_round_trips_exact_floats(tmp_path):
    rng = np.random.default_rng(1)
    data = rng.standard_normal((5, 4)) * 1e3
    path = tmp_path / "b.csv"
    write_csv(path, data)
    assert np.array_equal(open_source(path).collect("load").data, data)


def test_csv_skips_blanks_and_comments(tmp_path):
    path = tmp_path / "messy.csv"
    path.write_text("# generated\n\n1.0,2.0\n# midway note\n3.0,4.0\n\n")
    src = open_source(path, mode="streaming")
    assert (src.n, src.d) == (2, 2)
    assert np.array_equal(src.collect("load").data, [[1.0, 2.0], [3.0, 4.0]])


def test_reservoir_rejects_negative_weights():
    src = open_source(PointSet(np.array([[1.0], [2.0]])))
    with pytest.raises(ValueError, match="nonnegative"):
        weighted_reservoir_sample(src, lambda c: np.array([1.0, -0.5]), 2, seed=0)


def test_streaming_requires_path():
    with pytest.raises(ValueError, match="streaming"):
        open_source(PointSet(np.eye(2)), mode="streaming")
    with pytest.raises(ValueError, match="mode"):
        open_source(PointSet(np.eye(2)), mode="bogus")


# ---------------------------------------------------------------------------
# pass accounting
# ---------------------------------------------------------------------------

def test_stream_pass_visits_rows_in_order():
    pts = PointSet(np.array([[1.0, 0.0], [0.0, 2.0], [2.0, 1.0]]))
    src = open_source(pts)
    seen = []
    acc = [0.0]

    def visit(start, chunk):
        seen.extend(range(start, start + len(chunk)))
        acc[0] += float(np.sum(chunk * chunk))

    entry = src.stream_pass_chunks("sumsq", visit)
    assert seen == [0, 1, 2]
    assert entry.rows_visited == 3 and entry.complete
    assert acc[0] == pytest.approx(1 + 4 + 5)
    assert src.pass_log.total_passes == 1


def test_two_passes_counted():
    src = open_source(PointSet(np.eye(3)))
    src.stream_pass_chunks("first", lambda start, chunk: None)
    src.stream_pass_chunks("second", lambda start, chunk: None)
    assert src.pass_log.total_passes == 2
    src.pass_log.assert_passes(2)


def test_aborted_pass_is_incomplete():
    src = open_source(PointSet(np.ones((CHUNK_ROWS + 5, 2))))

    def visit(start, chunk):
        if start > 0:
            raise RuntimeError("abort")

    with pytest.raises(RuntimeError, match="abort"):
        src.stream_pass_chunks("doomed", visit)
    assert src.pass_log.entries[-1].rows_visited == CHUNK_ROWS
    assert not src.pass_log.entries[-1].complete
    with pytest.raises(PassCountError, match="incomplete"):
        src.pass_log.assert_passes(1)


def test_reporting_passes_tallied_separately():
    src = open_source(PointSet(np.eye(3)))
    src.stream_pass_chunks("algo", lambda start, chunk: None)
    src.stream_pass_chunks("report:err", lambda start, chunk: None, reporting=True)
    assert src.pass_log.total_passes == 1
    assert src.pass_log.reporting_passes == 1
    src.pass_log.assert_passes(1)


def test_wrong_pass_count_raises():
    src = open_source(PointSet(np.eye(3)))
    src.stream_pass_chunks("only", lambda start, chunk: None)
    with pytest.raises(PassCountError, match="expected 2"):
        src.pass_log.assert_passes(2)


def test_chunked_pass_spans_chunk_boundary(tmp_path):
    n = CHUNK_ROWS + 7
    rng = np.random.default_rng(2)
    data = rng.standard_normal((n, 2))
    path = tmp_path / "big.csv"
    write_csv(path, data)
    src = open_source(path, mode="streaming")
    got = []
    src.stream_pass_chunks("scan", lambda start, chunk: got.append((start, chunk.copy())))
    assert [g[0] for g in got] == [0, CHUNK_ROWS]
    assert np.allclose(np.vstack([g[1] for g in got]), data)
    assert src.pass_log.total_passes == 1


# ---------------------------------------------------------------------------
# weighted reservoir sampling
# ---------------------------------------------------------------------------

def test_reservoir_single_support():
    pts = PointSet(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]))
    for seed in range(10):
        src = open_source(pts)
        bank = weighted_reservoir_sample(src, sq_norms, 5, seed=seed)
        assert np.all(bank.ids == 0)
        assert np.array_equal(bank.points_for(bank.ids), np.tile([1.0, 0.0], (5, 1)))


def test_reservoir_uniform_counts():
    pts = PointSet(np.ones((4, 2)))
    src = open_source(pts)
    bank = weighted_reservoir_sample(src, lambda c: np.ones(len(c)), 10000, seed=99)
    counts = np.bincount(bank.ids, minlength=4)
    sigma = math.sqrt(10000 * 0.25 * 0.75)
    assert np.all(np.abs(counts - 2500) <= 3 * sigma)
    assert src.pass_log.total_passes == 1


def test_reservoir_weighted_counts():
    pts = PointSet(np.array([[math.sqrt(3.0), 0.0], [1.0, 0.0]]))
    src = open_source(pts)
    bank = weighted_reservoir_sample(src, sq_norms, 40000, seed=7)
    freq0 = np.mean(bank.ids == 0)
    sigma = math.sqrt(0.75 * 0.25 / 40000)
    assert abs(freq0 - 0.75) <= 3 * sigma


def test_reservoir_degenerate_weights():
    src = open_source(PointSet(np.zeros((3, 2)) + 0.0))
    with pytest.raises(ValueError, match="degenerate weights"):
        weighted_reservoir_sample(src, sq_norms, 2, seed=0)


def test_reservoir_one_pass_regardless_of_slots():
    for slots in (1, 17, 400):
        src = open_source(PointSet(np.eye(5)))
        weighted_reservoir_sample(src, lambda c: np.ones(len(c)), slots, seed=3)
        src.pass_log.assert_passes(1)


def test_reservoir_single_slot_matches_enumeration():
    # rational weights 1:4:9:2 over n=4; 100k independent single-slot draws
    pts = PointSet(np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [0.0, math.sqrt(2.0)]]))
    weights = np.array([1.0, 4.0, 9.0, 2.0])
    probs = weights / weights.sum()
    trials = 100_000
    counts = np.zeros(4)
    for trial in range(trials):
        src = open_source(pts)
        bank = weighted_reservoir_sample(src, sq_norms, 1, seed=trial)
        counts[bank.ids[0]] += 1
    sigma = np.sqrt(trials * probs * (1 - probs))
    assert np.all(np.abs(counts - trials * probs) <= 3 * sigma)


def test_reservoir_matches_inverse_cdf_in_distribution():
    # the exact in-memory path (inverse CDF) and the streaming reservoir path
    # must agree in distribution
    weights = np.array([5.0, 1.0, 3.0, 0.5, 2.5])
    pts = PointSet(np.diag(np.sqrt(weights)))
    src = open_source(pts)
    slots = 60000
    bank = weighted_reservoir_sample(src, sq_norms, slots, seed=11)
    emp_res = np.bincount(bank.ids, minlength=5) / slots
    rng = derive_rng(11, "inverse-cdf")
    emp_cdf = np.bincount(rng.choice(5, size=slots, p=weights / weights.sum()),
                          minlength=5) / slots
    tv = 0.5 * np.abs(emp_res - emp_cdf).sum()
    assert tv <= 0.02


@pytest.mark.parametrize("n", [CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1])
def test_reservoir_bit_identical_across_modes(tmp_path, n):
    rng = np.random.default_rng(5)
    data = rng.standard_normal((n, 3))
    path = tmp_path / "c.csv"
    write_csv(path, data)
    mem = open_source(path, mode="memory")
    strm = open_source(path, mode="streaming")
    b_mem = weighted_reservoir_sample(mem, sq_norms, 64, seed=42)
    b_strm = weighted_reservoir_sample(strm, sq_norms, 64, seed=42)
    assert np.array_equal(b_mem.ids, b_strm.ids)
    assert np.array_equal(b_mem.keys, b_strm.keys)
    assert np.array_equal(b_mem.points_for(b_mem.ids), b_strm.points_for(b_strm.ids))


def test_reservoir_weight_fn_frequency():
    pts = PointSet(np.array([[1.0, 0.0], [0.0, 2.0]]))
    src = open_source(pts)
    bank = weighted_reservoir_sample(src, lambda c: np.einsum("ij,ij->i", c, c), 2000, seed=1)
    freq1 = np.mean(bank.ids == 1)
    assert abs(freq1 - 0.8) <= 3 * math.sqrt(0.8 * 0.2 / 2000)


def test_reservoir_rejects_misshaped_weights():
    src = open_source(PointSet(np.eye(3)))
    with pytest.raises(ValueError, match="shape"):
        weighted_reservoir_sample(src, lambda c: sq_norms(c)[:, None], 4, seed=0)
    assert not src.pass_log.entries[-1].complete


# ---------------------------------------------------------------------------
# proposal prefetch pass
# ---------------------------------------------------------------------------

def test_prefetch_accumulates_err_and_fills_banks():
    rng = np.random.default_rng(8)
    pts = PointSet(rng.standard_normal((40, 5)))
    src = open_source(pts)
    basis = orthonormal_basis(pts, [0, 1])
    err, bank_w, bank_u = proposal_prefetch_pass(src, basis, 2.0, 5000, seed=13)
    assert err == pytest.approx(err_p(pts, basis, 2.0), rel=1e-12)
    src.pass_log.assert_passes(1)
    # weighted bank follows residual^2, uniform bank is flat
    res2 = residual_distances(pts.data, basis) ** 2
    probs = res2 / res2.sum()
    freq_w = np.bincount(bank_w.ids, minlength=40) / 5000
    freq_u = np.bincount(bank_u.ids, minlength=40) / 5000
    assert 0.5 * np.abs(freq_w - probs).sum() <= 0.05
    assert 0.5 * np.abs(freq_u - 1.0 / 40).sum() <= 0.05


def test_prefetch_exact_fit_pivot():
    pts = PointSet(np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]))
    src = open_source(pts)
    basis = orthonormal_basis(pts, [0])
    err, bank_w, bank_u = proposal_prefetch_pass(src, basis, 2.0, 4, seed=0)
    assert err == 0.0
    assert bank_w is None
    assert len(bank_u.ids) == 4
    assert all(i >= 0 for i in bank_u.ids)


# ---------------------------------------------------------------------------
# synthetic instances
# ---------------------------------------------------------------------------

def test_synthetic_noiseless_planted_error_zero():
    pts, truth = generate_synthetic(n=50, d=10, rank=3, noise_sigma=0.0, seed=4)
    assert err_p(pts, truth.planted_basis, 2.0) == pytest.approx(0.0, abs=1e-18)
    assert len(truth.inlier_ids) == 50


def test_synthetic_outlier_counts():
    pts, truth = generate_synthetic(n=100, d=8, rank=2, noise_sigma=0.05,
                                    outlier_frac=0.1, outlier_scale=5.0, seed=5)
    assert len(truth.inlier_ids) == 90
    assert len(truth.outlier_ids) == 10
    assert sorted(truth.inlier_ids + truth.outlier_ids) == list(range(100))
    # outliers are perpendicular to the planted span: residual equals norm
    out = pts.data[list(truth.outlier_ids)]
    res = residual_distances(out, truth.planted_basis)
    assert np.allclose(res, np.linalg.norm(out, axis=1), atol=1e-9)


def test_synthetic_noise_calibration():
    # median over 10 seeds of the optimal error vs n sigma^2 (d - k) / d
    n, d, rank, sigma = 2000, 50, 5, 0.1
    target = n * sigma ** 2 * (d - rank) / d
    opts = []
    for seed in range(10):
        pts, _ = generate_synthetic(n=n, d=d, rank=rank, noise_sigma=sigma, seed=seed)
        _, opt = optimal_subspace(pts, rank)
        opts.append(opt)
    med = float(np.median(opts))
    assert abs(med - target) <= 0.2 * target


def test_inlier_count_rounding():
    assert inlier_count(4, 0.25) == 3
    assert inlier_count(2000, 0.05) == 1900
    assert inlier_count(3, 0.5) == 2
    assert inlier_count(10, 0.0) == 10


def test_synthetic_validates_inputs():
    with pytest.raises(ValueError):
        generate_synthetic(10, 4, 5, 0.1)
    with pytest.raises(ValueError):
        generate_synthetic(10, 4, 2, 0.1, outlier_frac=1.0)
