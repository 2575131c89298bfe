import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subsel.linalg import PointSet, err_p, optimal_subspace, orthonormal_basis, residual_distances
from subsel.rng import derive_rng
from subsel.stream import (
    CHUNK_ROWS,
    DatasetFormatError,
    PassCountError,
    ReservoirBank,
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


def _rewrite(path, fmt, data):
    (write_csv if fmt == "csv" else write_binary)(path, data)


@pytest.mark.parametrize("fmt", ["csv", "bin"])
@pytest.mark.parametrize("change", ["grow", "shrink", "nan", "truncate"])
def test_changed_file_fails_next_pass(tmp_path, fmt, change):
    # every pass re-runs the reader that opened the file, so a file that no
    # longer holds n rows of d finite entries fails the next pass by name,
    # and no row past the n-th reaches a visitor
    n, d = 2 * CHUNK_ROWS + 900, 5
    data = np.random.default_rng(3).standard_normal((n, d))
    path = tmp_path / f"changing.{fmt}"
    _rewrite(path, fmt, data)
    src = open_source(path, "streaming")
    src.stream_pass_chunks("before", lambda s, c: None)
    if change == "grow":
        _rewrite(path, fmt, np.vstack([data, data[:5]]))
    elif change == "shrink":
        _rewrite(path, fmt, data[:-5])
    elif change == "nan":
        bad = data.copy()
        bad[n - 7, 2] = np.nan
        _rewrite(path, fmt, bad)
    else:
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) - len(raw) // 7])
    seen = []
    with pytest.raises(DatasetFormatError, match="changing"):
        src.stream_pass_chunks("after", lambda s, c: seen.append(s + len(c)))
    assert max(seen, default=0) <= n
    assert not src.pass_log.entries[-1].complete


@pytest.mark.parametrize("mode, payloads", [("streaming", 0.25), ("memory", 2.5),
                                           ("streaming-collect", 2.5)])
def test_open_binary_peak_memory(tmp_path, mode, payloads):
    # a streamed open reads one chunk at a time, so the payload is never
    # resident; a memory open, or a streamed open and its collect, holds the
    # rows at most twice (chunks, then the stacked rows beside PointSet's copy)
    n, d = 20 * CHUNK_ROWS, 20
    path = tmp_path / "big.bin"
    write_binary(path, np.random.default_rng(4).standard_normal((n, d)))
    tracemalloc.start()
    try:
        src = open_source(path, mode.removesuffix("-collect"))
        if mode.endswith("-collect"):
            src.collect("load")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (src.n, src.d) == (n, d)
    assert peak < payloads * n * d * 8


@pytest.mark.parametrize("fmt", ["csv", "bin"])
def test_memory_open_reads_file_once(tmp_path, monkeypatch, fmt):
    # after the format sniff, memory mode parses the file in one pass and
    # keeps the chunks it read
    import builtins

    data = np.random.default_rng(5).standard_normal((CHUNK_ROWS + 3, 4))
    path = tmp_path / f"once.{fmt}"
    _rewrite(path, fmt, data)
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        if str(file) == str(path):
            opened.append(args[0] if args else kwargs.get("mode", "r"))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    src = open_source(path, "memory")
    assert len(opened) == 2  # the sniff, then the one read
    assert np.array_equal(src.collect("load").data, data)
    assert len(opened) == 2


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
    assert b_mem.total_weight == b_strm.total_weight
    assert np.array_equal(b_mem.points_for(b_mem.ids), b_strm.points_for(b_strm.ids))


def first_column(chunk):
    return chunk[:, 0].copy()


def test_reservoir_cross_chunk_row_frequencies():
    # four chunks: graded weights, an all-zero chunk, graded weights again and
    # a 7-row last chunk carrying half of the total weight
    n = 3 * CHUNK_ROWS + 7
    w = 1.0 + np.arange(n) % 4
    w[CHUNK_ROWS:2 * CHUNK_ROWS] = 0.0
    w[3 * CHUNK_ROWS:] = w[:3 * CHUNK_ROWS].sum() / 7
    probs = w / w.sum()
    slots = 200_000
    src = open_source(PointSet(np.column_stack([w, np.zeros(n)])))
    bank = weighted_reservoir_sample(src, first_column, slots, seed=17)
    src.pass_log.assert_passes(1)
    counts = np.bincount(bank.ids, minlength=n)
    assert not counts[w == 0.0].any()
    live = w > 0.0
    expected = slots * probs[live]
    chi2 = float(((counts[live] - expected) ** 2 / expected).sum())
    dof = int(live.sum()) - 1
    assert chi2 <= dof + 5 * math.sqrt(2 * dof)
    sigma = np.sqrt(slots * probs * (1 - probs))
    last = slice(3 * CHUNK_ROWS, n)
    assert np.all(np.abs(counts[last] - slots * probs[last]) <= 4 * sigma[last])


def test_reservoir_slots_independent():
    # adjacent slot pairs must be independent: the group of rows (a quarter
    # chunk) each member came from has a joint law equal to the product of
    # its marginals. The replaced positions are independent per slot, so
    # chunk labels alone would not see slots left in the order offer() fills
    # them; quarter-chunk groups do.
    n = 2 * CHUNK_ROWS + 3
    w = 1.0 + np.arange(n) % 3
    slots = 100_000
    src = open_source(PointSet(np.column_stack([w, np.ones(n)])))
    bank = weighted_reservoir_sample(src, first_column, slots, seed=23)
    group = bank.ids // (CHUNK_ROWS // 4)
    groups = int(group.max()) + 1
    joint = np.zeros((groups, groups))
    np.add.at(joint, (group[0::2], group[1::2]), 1.0)
    pairs = slots // 2
    expected = np.outer(joint.sum(axis=1), joint.sum(axis=0)) / pairs
    keep = expected > 0
    chi2 = float(((joint[keep] - expected[keep]) ** 2 / expected[keep]).sum())
    dof = (groups - 1) ** 2
    assert chi2 <= dof + 5 * math.sqrt(2 * dof)


@settings(derandomize=True, max_examples=24, deadline=None)
@given(n=st.sampled_from([CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 1]),
       zero_chunks=st.sets(st.integers(0, 2)),
       slots=st.integers(1, 5000),
       seed=st.integers(0, 2 ** 32 - 1))
def test_reservoir_mode_identity_property(tmp_path_factory, n, zero_chunks, slots, seed):
    data = np.random.default_rng(seed).standard_normal((n, 3))
    for c in zero_chunks:
        data[c * CHUNK_ROWS:(c + 1) * CHUNK_ROWS] = 0.0
    path = tmp_path_factory.mktemp("prop") / "p.bin"
    write_binary(path, data)
    banks = []
    for mode in ("memory", "streaming"):
        src = open_source(path, mode=mode)
        if not data.any():
            with pytest.raises(ValueError, match="degenerate weights"):
                weighted_reservoir_sample(src, sq_norms, slots, seed=seed)
            continue
        banks.append(weighted_reservoir_sample(src, sq_norms, slots, seed=seed))
    if banks:
        b_mem, b_strm = banks
        assert np.array_equal(b_mem.ids, b_strm.ids)
        assert b_mem.total_weight == b_strm.total_weight
        assert np.array_equal(b_mem.points_for(b_mem.ids), b_strm.points_for(b_strm.ids))


@settings(derandomize=True, max_examples=24, deadline=None)
@given(n=st.sampled_from([CHUNK_ROWS - 1, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 1]),
       zero_chunks=st.sets(st.integers(0, 2)),
       slots=st.integers(1, 5000),
       seed=st.integers(0, 2 ** 32 - 1))
def test_reservoir_counts_invariants_property(tmp_path_factory, n, zero_chunks, slots, seed):
    # after every offer the bank holds exactly `slots` draws as positive
    # counts on increasing rows of positive weight already visited. Memory
    # mode reads the coordinates after every offer, streaming mode only at
    # the end, so both the eager and the amortised compaction are checked.
    data = np.random.default_rng(seed).standard_normal((n, 3))
    for c in zero_chunks:
        data[c * CHUNK_ROWS:(c + 1) * CHUNK_ROWS] = 0.0
    path = tmp_path_factory.mktemp("counts") / "c.bin"
    write_binary(path, data)
    runs = []
    for mode in ("memory", "streaming"):
        bank = ReservoirBank(slots, derive_rng(seed, "counts"))
        states = []

        def visit(start, chunk):
            bank.offer(start, chunk, sq_norms(chunk))
            assert bank.counts.sum() == (slots if bank.total_weight > 0.0 else 0)
            assert np.all(bank.counts > 0)
            assert np.all(np.diff(bank.rows) > 0)
            assert bank.rows.max(initial=-1) < start + len(chunk)
            assert np.all(sq_norms(data[bank.rows]) > 0.0)
            if mode == "memory" and bank.total_weight > 0.0:
                assert np.array_equal(bank.coords, data[bank.rows])
            states.append((bank.rows.copy(), bank.counts.copy()))

        open_source(path, mode=mode).stream_pass_chunks("counts", visit)
        if bank.total_weight > 0.0:
            assert np.array_equal(bank.coords, data[bank.rows])
        runs.append(states)
    mem, strm = runs
    assert len(mem) == len(strm)
    for (rows_m, counts_m), (rows_s, counts_s) in zip(mem, strm):
        assert np.array_equal(rows_m, rows_s)
        assert np.array_equal(counts_m, counts_s)


def test_reservoir_weight_fn_frequency():
    pts = PointSet(np.array([[1.0, 0.0], [0.0, 2.0]]))
    src = open_source(pts)
    bank = weighted_reservoir_sample(src, lambda c: np.einsum("ij,ij->i", c, c), 2000, seed=1)
    freq1 = np.mean(bank.ids == 1)
    assert abs(freq1 - 0.8) <= 3 * math.sqrt(0.8 * 0.2 / 2000)


def test_reservoir_rejects_overflowing_weight_sum():
    # every weight is finite (2e306) but a chunk of 200 sums past the float range
    src = open_source(PointSet(np.full((200, 2), 1e153)))
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="overflow"):
        weighted_reservoir_sample(src, sq_norms, 5, seed=0)


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
    freq_w, freq_u = np.zeros(40), np.zeros(40)
    freq_w[bank_w.rows] = bank_w.counts / 5000
    freq_u[bank_u.rows] = bank_u.counts / 5000
    assert 0.5 * np.abs(freq_w - probs).sum() <= 0.05
    assert 0.5 * np.abs(freq_u - 1.0 / 40).sum() <= 0.05


def test_prefetch_exact_fit_pivot():
    pts = PointSet(np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]))
    src = open_source(pts)
    basis = orthonormal_basis(pts, [0])
    err, bank_w, bank_u = proposal_prefetch_pass(src, basis, 2.0, 4, seed=0)
    assert err == 0.0
    assert bank_w is None
    assert bank_u.counts.sum() == 4
    assert all(i >= 0 for i in bank_u.rows)
    assert np.array_equal(bank_u.coords, pts.data[bank_u.rows])


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
