import itertools
import math
import os
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
    RowStore,
    _uniform_counts,
    generate_synthetic,
    inlier_count,
    length_squared_pass,
    open_source,
    proposal_prefetch_pass,
    weighted_reservoir_sample,
    write_binary,
    write_csv,
)


def sq_norms(chunk):
    return np.linalg.norm(chunk, axis=1) ** 2


def reservoir_rng(seed):
    return derive_rng(seed, "reservoir", "reservoir")


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


def test_write_binary_writes_the_buffer_without_a_copy(tmp_path):
    # the payload goes out from the array's own buffer: no bytes copy of it,
    # and the same bytes from Fortran-ordered, float32 or empty input
    data = np.random.default_rng(3).standard_normal((20480, 50))
    path = tmp_path / "big.bin"
    tracemalloc.start()
    try:
        write_binary(path, data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * data.nbytes
    raw = path.read_bytes()
    assert raw[22:] == data.astype("<f8").tobytes()
    for other in (np.asfortranarray(data), data[::2].astype(np.float32),
                  np.empty((0, 50))):
        write_binary(path, other)
        assert path.read_bytes()[22:] == np.asarray(other, "<f8").tobytes(order="C")


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


def _finite_bit_patterns(rng, shape):
    """Random float64 bit patterns, the non-finite ones replaced by zero, and
    a first row of +-0, subnormals and +-max."""
    x = rng.integers(0, 2 ** 64, size=shape, dtype=np.uint64).view(np.float64)
    x = np.where(np.isfinite(x), x, 0.0)
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
               np.finfo(np.float64).max, -np.finfo(np.float64).max]
    x[0, :] = np.resize(special, shape[1])
    return x


@pytest.mark.parametrize("mode", ["memory", "streaming"])
def test_csv_reads_random_bit_patterns_exactly(tmp_path, mode):
    # write_csv's repr strings parse back to the same bits, sign of zero
    # and subnormals included
    data = _finite_bit_patterns(np.random.default_rng(11), (2 * CHUNK_ROWS + 5, 9))
    path = tmp_path / "bits.csv"
    write_csv(path, data)
    got = open_source(path, mode).collect("load").data
    assert np.array_equal(got.view(np.uint64), data.view(np.uint64))


@pytest.mark.parametrize("fmt", ["%.17g", "%.6e", "%.3f"])
def test_csv_parses_as_python_float(tmp_path, fmt):
    # other spellings than repr's give the bits Python's float() gives
    data = _finite_bit_patterns(np.random.default_rng(15), (CHUNK_ROWS + 5, 7))
    text = "\n".join(",".join(fmt % v for v in row) for row in data) + "\n"
    path = tmp_path / "spelled.csv"
    path.write_text(text, encoding="utf-8")
    expected = np.array([[float(v) for v in line.split(",")] for line in text.splitlines()])
    got = open_source(path).collect("load").data
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("n", [CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 1])
def test_csv_with_comments_between_chunks_equals_binary(tmp_path, n):
    # comment and blank lines, some of them indented, fall inside and between
    # chunks; the CSV's rows and chunks are the binary file's
    data = np.random.default_rng(n).standard_normal((n, 6))
    write_binary(tmp_path / "a.bin", data)
    with open(tmp_path / "a.csv", "w", encoding="utf-8") as fh:
        fh.write("# header\n\n")
        for i, row in enumerate(data):
            if i % 300 == 299 or i == CHUNK_ROWS:
                fh.write("  # note\n\n   \n")
            fh.write(" , ".join(repr(float(v)) for v in row) + "\n")
        fh.write("\n# trailer\n")
    for mode in ("memory", "streaming"):
        chunks = {}
        for name in ("a.csv", "a.bin"):
            src = open_source(tmp_path / name, mode)
            assert (src.n, src.d) == (n, 6)
            got = []
            src.stream_pass_chunks("load", lambda s, c: got.append((s, c.copy())))
            chunks[name] = got
        assert [s for s, _ in chunks["a.csv"]] == [s for s, _ in chunks["a.bin"]]
        assert np.array_equal(np.vstack([c for _, c in chunks["a.csv"]]).view(np.uint64),
                              data.view(np.uint64))


def test_csv_crlf_line_endings(tmp_path):
    data = np.random.default_rng(12).standard_normal((CHUNK_ROWS + 3, 4))
    path = tmp_path / "crlf.csv"
    write_csv(path, data, header="windows")
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    for mode in ("memory", "streaming"):
        assert np.array_equal(open_source(path, mode).collect("load").data, data)


@pytest.mark.parametrize("n", [1, CHUNK_ROWS + 3])
def test_one_column_csv(tmp_path, n):
    data = np.random.default_rng(13).standard_normal((n, 1))
    path = tmp_path / "column.csv"
    write_csv(path, data)
    for mode in ("memory", "streaming"):
        src = open_source(path, mode)
        assert (src.n, src.d) == (n, 1)
        got = src.collect("load").data
        assert got.shape == (n, 1)
        assert np.array_equal(got, data)


@pytest.mark.parametrize("mode", ["memory", "streaming"])
@pytest.mark.parametrize("bad, message", [
    pytest.param("zap,{rest}", "could not convert string 'zap'", id="non-numeric"),
    pytest.param("{rest}", "expected 5 columns, found 4", id="short"),
    pytest.param("{row},1.0", "expected 5 columns, found 6", id="long"),
    pytest.param("inf,{rest}", "non-finite entry", id="inf"),
    pytest.param("{row} # note", "could not convert string", id="trailing-comment"),
    pytest.param(",{rest}", "could not convert string ''", id="empty-field"),
    pytest.param("1_0,{rest}", "could not convert string '1_0'", id="digit-separator"),
    pytest.param("\u0661,{rest}", "could not convert string", id="non-ascii-digit"),
])
def test_csv_error_past_first_chunk_names_line(tmp_path, mode, bad, message):
    # a bad line in the second chunk fails the open, naming that line: the
    # file's line 1 is a comment, so data row r sits on line r + 2
    n, r = 2 * CHUNK_ROWS + 10, CHUNK_ROWS + 37
    data = np.random.default_rng(14).standard_normal((n, 5))
    path = tmp_path / "bad.csv"
    write_csv(path, data, header="five columns")
    lines = path.read_text(encoding="utf-8").split("\n")
    row = lines[r + 1]
    lines[r + 1] = bad.format(row=row, rest=row.split(",", 1)[1])
    path.write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(DatasetFormatError, match=f"bad.csv: line {r + 2}: {message}"):
        open_source(path, mode)


def test_csv_chunk_of_another_width_names_its_first_line(tmp_path):
    # every line of the second chunk agrees with the others but not with the
    # file's first data line
    path = tmp_path / "narrow.csv"
    rows = ["1.0,2.0,3.0"] * CHUNK_ROWS + ["4.0,5.0"] * 10
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    with pytest.raises(DatasetFormatError,
                       match=f"narrow.csv: line {CHUNK_ROWS + 1}: expected 3 columns, found 2"):
        open_source(path)


@pytest.mark.parametrize("mode", ["memory", "streaming"])
@pytest.mark.parametrize("where", ["data", "comment", "past-first-chunk"])
def test_csv_non_utf8_bytes_name_line(tmp_path, mode, where):
    path = tmp_path / "latin.csv"
    if where == "past-first-chunk":
        n = 2 * CHUNK_ROWS
        write_csv(path, np.ones((n, 3)))
        path.write_bytes(path.read_bytes() + b"1.0,2.0,3\xff\n")
        line = n + 1
    else:
        body = (b"# caf\xe9\n1.0,2.0\n" if where == "comment"
                else b"# header\n1.0,2.0\n3.0,4\xff.0\n")
        path.write_bytes(body)
        line = 1 if where == "comment" else 3
    with pytest.raises(DatasetFormatError, match=f"latin.csv: line {line}: not UTF-8 text"):
        open_source(path, mode)


def test_csv_accepts_utf8_comments(tmp_path):
    path = tmp_path / "utf8.csv"
    path.write_text("# café, naïve\n1.0,2.0\n", encoding="utf-8")
    assert np.array_equal(open_source(path).collect("load").data, [[1.0, 2.0]])


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


def test_same_size_csv_edit_fails_next_pass(tmp_path):
    # a streamed CSV pass checks the file's sha256 against the bytes parsed
    # at open, so one digit changed in the last chunk fails the next pass
    # before any row reaches the visitor
    n, d = 2 * CHUNK_ROWS + 900, 5
    path = tmp_path / "edited.csv"
    data = np.random.default_rng(6).standard_normal((n, d))
    write_csv(path, data)
    src = open_source(path, "streaming")
    src.stream_pass_chunks("before", lambda s, c: None)
    raw = bytearray(path.read_bytes())
    at = raw.index(b".", raw.rindex(b"\n", 0, len(raw) - 1)) + 1  # last row, first value
    raw[at] = ord("8") if raw[at] == ord("9") else raw[at] + 1
    path.write_bytes(bytes(raw))
    assert open_source(path).collect("load").data[n - 1, 0] != data[n - 1, 0]
    seen = []
    with pytest.raises(DatasetFormatError, match="edited.csv: changed since it was opened"):
        src.stream_pass_chunks("after", lambda s, c: seen.append(s))
    assert seen == []
    assert not src.pass_log.entries[-1].complete


@pytest.mark.parametrize("edit", ["finite", "nan"])
def test_same_shape_binary_edit_fails_next_pass(tmp_path, edit):
    # a streamed binary pass checks the file's size and mtime against those
    # taken at open: an entry rewritten in place under a new mtime fails the
    # next pass before any row is visited; with the mtime put back, a
    # non-finite entry is still caught by the reader, naming its row
    n, d = 2 * CHUNK_ROWS + 900, 5
    path = tmp_path / "edited.bin"
    data = np.random.default_rng(9).standard_normal((n, d))
    write_binary(path, data)
    opened = os.stat(path).st_mtime_ns
    src = open_source(path, "streaming")
    src.stream_pass_chunks("before", lambda s, c: None)
    edited = data.copy()
    edited[n - 1, 0] = edited[n - 1, 0] + 1.0 if edit == "finite" else np.nan
    write_binary(path, edited)
    mtime = opened + 10 ** 9 if edit == "finite" else opened
    os.utime(path, ns=(mtime, mtime))
    seen = []
    message = ("changed since it was opened" if edit == "finite"
               else f"row {n - 1}: non-finite entry")
    with pytest.raises(DatasetFormatError, match=f"edited.bin: {message}"):
        src.stream_pass_chunks("after", lambda s, c: seen.append(s))
    assert seen == ([] if edit == "finite" else [0, CHUNK_ROWS])
    assert not src.pass_log.entries[-1].complete


def test_streamed_csv_passes_may_nest(tmp_path):
    # passes of one streamed CSV read the same spill, each at its own offsets
    n, d = 3 * CHUNK_ROWS + 5, 4
    data = np.random.default_rng(8).standard_normal((n, d))
    path = tmp_path / "nest.csv"
    write_csv(path, data)
    src = open_source(path, "streaming")
    inner, outer = [], []

    def visit(start, chunk):
        if start == CHUNK_ROWS:
            inner.append(src.collect("inner").data)
        outer.append(chunk)

    src.stream_pass_chunks("outer", visit)
    assert np.array_equal(inner[0], data)
    assert np.array_equal(np.vstack(outer), data)


def test_streamed_csv_pass_memory_and_spill_lifetime(tmp_path):
    # a pass reads the parsed rows back from the spill one chunk at a time
    # and hashes the file in small blocks, so no payload-sized buffer is
    # resident; dropping the source closes the spill
    import gc
    import warnings

    n, d = 20 * CHUNK_ROWS, 20
    data = np.random.default_rng(7).standard_normal((n, d))
    path = tmp_path / "big.csv"
    write_csv(path, data)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        src = open_source(path, "streaming")
        tracemalloc.start()
        try:
            src.stream_pass_chunks("pass", lambda s, c: None)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        rows = src.collect("load").data
        spill = src._spill
        del src
        gc.collect()
    assert peak < 0.25 * n * d * 8
    assert np.array_equal(rows, data)
    assert spill.closed
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


@pytest.mark.parametrize("mode, payloads", [("streaming", 0.25), ("memory", 2.5),
                                           ("streaming-collect", 1.25)])
def test_open_binary_peak_memory(tmp_path, mode, payloads):
    # a streamed open reads one chunk at a time, so the payload is never
    # resident; a memory open and a streamed collect fill one array chunk by
    # chunk (the memory open's tight bound is checked below)
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


def test_memory_open_of_binary_holds_one_copy(tmp_path):
    # the header gives n and d before any payload is read, so the rows go
    # into one preallocated array: one payload plus one chunk in flight
    n, d = 20 * CHUNK_ROWS, 20
    data = np.random.default_rng(4).standard_normal((n, d))
    path = tmp_path / "big.bin"
    write_binary(path, data)
    tracemalloc.start()
    try:
        src = open_source(path, "memory")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * n * d * 8 + CHUNK_ROWS * d * 8
    assert np.array_equal(src.collect("load").data, data)


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
        weighted_reservoir_sample(src, lambda c: np.array([1.0, -0.5]), 2, reservoir_rng(0))


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
        bank = weighted_reservoir_sample(src, sq_norms, 5, reservoir_rng(seed))
        assert np.all(bank.ids == 0)
        assert np.array_equal(bank.points_for(bank.ids), np.tile([1.0, 0.0], (5, 1)))


def test_reservoir_uniform_counts():
    pts = PointSet(np.ones((4, 2)))
    src = open_source(pts)
    bank = weighted_reservoir_sample(src, lambda c: np.ones(len(c)), 10000, reservoir_rng(99))
    counts = np.bincount(bank.ids, minlength=4)
    sigma = math.sqrt(10000 * 0.25 * 0.75)
    assert np.all(np.abs(counts - 2500) <= 3 * sigma)
    assert src.pass_log.total_passes == 1


def test_reservoir_weighted_counts():
    pts = PointSet(np.array([[math.sqrt(3.0), 0.0], [1.0, 0.0]]))
    src = open_source(pts)
    bank = weighted_reservoir_sample(src, sq_norms, 40000, reservoir_rng(7))
    freq0 = np.mean(bank.ids == 0)
    sigma = math.sqrt(0.75 * 0.25 / 40000)
    assert abs(freq0 - 0.75) <= 3 * sigma


def test_reservoir_degenerate_weights():
    src = open_source(PointSet(np.zeros((3, 2)) + 0.0))
    with pytest.raises(ValueError, match="degenerate weights"):
        weighted_reservoir_sample(src, sq_norms, 2, reservoir_rng(0))


def test_reservoir_one_pass_regardless_of_slots():
    for slots in (1, 17, 400):
        src = open_source(PointSet(np.eye(5)))
        weighted_reservoir_sample(src, lambda c: np.ones(len(c)), slots, reservoir_rng(3))
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
        bank = weighted_reservoir_sample(src, sq_norms, 1, reservoir_rng(trial))
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
    bank = weighted_reservoir_sample(src, sq_norms, slots, reservoir_rng(11))
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
    b_mem = weighted_reservoir_sample(mem, sq_norms, 64, reservoir_rng(42))
    b_strm = weighted_reservoir_sample(strm, sq_norms, 64, reservoir_rng(42))
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
    bank = weighted_reservoir_sample(src, first_column, slots, reservoir_rng(17))
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
    bank = weighted_reservoir_sample(src, first_column, slots, reservoir_rng(23))
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
                weighted_reservoir_sample(src, sq_norms, slots, reservoir_rng(seed))
            continue
        banks.append(weighted_reservoir_sample(src, sq_norms, slots, reservoir_rng(seed)))
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
    # counts on increasing rows of positive weight already visited, in at
    # most min(n, slots) store rows. Memory mode reads the coordinates after
    # every offer, streaming mode only at the end.
    data = np.random.default_rng(seed).standard_normal((n, 3))
    for c in zero_chunks:
        data[c * CHUNK_ROWS:(c + 1) * CHUNK_ROWS] = 0.0
    path = tmp_path_factory.mktemp("counts") / "c.bin"
    write_binary(path, data)
    runs = []
    for mode in ("memory", "streaming"):
        bank = ReservoirBank(slots, derive_rng(seed, "counts"), RowStore(min(n, slots), 3))
        states = []

        def visit(start, chunk):
            bank.offer(start, chunk, sq_norms(chunk))
            assert bank.counts.sum() == (slots if bank.total_weight > 0.0 else 0)
            assert np.all(bank.counts > 0)
            assert np.all(np.diff(bank.rows) > 0)
            assert bank.rows.max(initial=-1) < start + len(chunk)
            assert np.all(sq_norms(data[bank.rows]) > 0.0)
            if mode == "memory" and bank.total_weight > 0.0:
                assert np.array_equal(bank.points_for(bank.rows), data[bank.rows])
            states.append((bank.rows.copy(), bank.counts.copy()))

        open_source(path, mode=mode).stream_pass_chunks("counts", visit)
        if bank.total_weight > 0.0:
            assert np.array_equal(bank.points_for(bank.rows), data[bank.rows])
        runs.append(states)
    mem, strm = runs
    assert len(mem) == len(strm)
    for (rows_m, counts_m), (rows_s, counts_s) in zip(mem, strm):
        assert np.array_equal(rows_m, rows_s)
        assert np.array_equal(counts_m, counts_s)


def test_reservoir_weight_fn_frequency():
    pts = PointSet(np.array([[1.0, 0.0], [0.0, 2.0]]))
    src = open_source(pts)
    bank = weighted_reservoir_sample(src, lambda c: np.einsum("ij,ij->i", c, c), 2000,
                                     reservoir_rng(1))
    freq1 = np.mean(bank.ids == 1)
    assert abs(freq1 - 0.8) <= 3 * math.sqrt(0.8 * 0.2 / 2000)


def test_reservoir_rejects_overflowing_weight_sum():
    # every weight is finite (2e306) but a chunk of 200 sums past the float range
    src = open_source(PointSet(np.full((200, 2), 1e153)))
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="overflow"):
        weighted_reservoir_sample(src, sq_norms, 5, reservoir_rng(0))


def test_total_weight_saturates_past_the_largest_float(tmp_path):
    # W_cum is summed in each chunk's power of two, so a streamed total past
    # the float range reads inf rather than raising, and a scale that keeps
    # it in range moves only its exponent: the scale-1 total keeps its bits
    x = np.random.default_rng(5).standard_normal((3000, 12))
    totals = {}
    for scale in (0, 100, 600):
        path = tmp_path / f"x{scale}.bin"
        write_binary(path, x * 2.0 ** scale)
        _, bank, _ = length_squared_pass(open_source(path, "streaming"), 64,
                                         np.random.default_rng(6), label="ls")
        totals[scale] = bank.total_weight
    assert totals[0] == pytest.approx(float(np.sum(x * x)), rel=1e-12)
    assert totals[100] == math.ldexp(totals[0], 200)
    assert totals[600] == math.inf


def test_reservoir_rejects_misshaped_weights():
    src = open_source(PointSet(np.eye(3)))
    with pytest.raises(ValueError, match="shape"):
        weighted_reservoir_sample(src, lambda c: sq_norms(c)[:, None], 4, reservoir_rng(0))
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
    assert np.array_equal(bank_u.points_for(bank_u.rows), pts.data[bank_u.rows])


def test_uniform_counts_sum_to_the_draws():
    # increasing rows in range with positive counts summing to the draws,
    # from one row to a million: split by binomials when n exceeds the draws
    # (7 rows, a million), one multinomial otherwise
    rng = derive_rng(90, "uniform-counts")
    for n, draws in [(1, 5), (7, 1), (2, 64), (1_000_003, 4096), (3000, 10_000)]:
        rows, counts = _uniform_counts(rng, n, draws)
        assert counts.sum() == draws and np.all(counts > 0)
        assert np.all(np.diff(rows) > 0) and 0 <= rows[0] and rows[-1] < n


def test_uniform_counts_have_the_multinomial_law():
    # 3 draws over 5 rows (halves of unequal size): the 35 count vectors
    # against multinomial(3, [1/5] * 5), and each row's mean count 3/5
    n, draws, trials = 5, 3, 8_000
    rng = derive_rng(91, "uniform-counts")
    seen = {}
    totals = np.zeros(n)
    for _ in range(trials):
        rows, counts = _uniform_counts(rng, n, draws)
        full = np.zeros(n, dtype=np.int64)
        full[rows] = counts
        totals += full
        seen[tuple(full)] = seen.get(tuple(full), 0) + 1
    outcomes = [c for c in itertools.product(range(draws + 1), repeat=n) if sum(c) == draws]
    assert set(seen) <= set(outcomes) and len(outcomes) == 35
    pmf = np.array([math.factorial(draws) / math.prod(math.factorial(c) for c in o)
                    for o in outcomes]) / n ** draws
    observed = np.array([seen.get(o, 0) for o in outcomes])
    expected = trials * pmf
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    dof = len(outcomes) - 1
    assert chi2 <= dof + 5 * math.sqrt(2 * dof)
    sigma = math.sqrt(trials * draws * (1 / n) * (1 - 1 / n))
    assert np.all(np.abs(totals - trials * draws / n) <= 4 * sigma)


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
