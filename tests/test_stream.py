import hashlib
import itertools
import math
import os
import sys
import threading
import time
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subsel import samplers, stream
from subsel.linalg import (
    OrthonormalBasis,
    PointSet,
    err_p,
    optimal_subspace,
    orthonormal_basis,
    residual_distances,
)
from subsel.outliers import robust_select
from subsel.rng import derive_rng
from subsel.samplers import SamplingConfig, derive_params, mcmc_select, select_subset
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


@pytest.mark.parametrize("fmt", ["csv", "bin"])
def test_finite_rows_whose_sum_overflows_are_accepted(tmp_path, fmt):
    # +-1.7e308 rows sum past the float range (to inf, or inf - inf = NaN);
    # the chunk's one-sum check then reads them entry by entry, and passes them
    data = np.array([[1.7e308, 1.7e308], [1.7e308, -1.7e308], [-1.7e308, -1.7e308],
                     [-1.7e308, 1.0]])
    path = tmp_path / f"big.{fmt}"
    (write_csv if fmt == "csv" else write_binary)(path, data)
    for mode in ("memory", "streaming"):
        src = open_source(path, mode)
        assert np.array_equal(src.collect("all").data, data)


@pytest.mark.parametrize("bad", [
    pytest.param([np.nan], id="nan"),
    pytest.param([np.inf], id="+inf"),
    pytest.param([-np.inf], id="-inf"),
    pytest.param([np.inf, -np.inf], id="+inf/-inf"),
])
def test_finite_check_names_the_first_bad_row(bad):
    # the bad entries go to rows 3 and 5 (one entry: row 3 only); the error
    # names row 3's label, whatever the chunk's sum is
    chunk = np.random.default_rng(4).standard_normal((8, 3))
    for row, value in zip((3, 5), bad):
        chunk[row, 1] = value
    with pytest.raises(DatasetFormatError, match="f.bin: row 103: non-finite entry"):
        stream._finite(chunk, "f.bin", "row", range(100, 108))
    chunk[[3, 5], 1] = 0.0
    assert stream._finite(chunk, "f.bin", "row", range(100, 108)) is chunk


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


def test_memory_open_of_csv_holds_one_copy(tmp_path):
    # the rows are parsed into a spill on disk, then read back into one
    # preallocated array: one payload plus the chunks being parsed
    n, d = 20 * CHUNK_ROWS, 20
    data = np.random.default_rng(4).standard_normal((n, d))
    path = tmp_path / "big.csv"
    write_csv(path, data)
    tracemalloc.start()
    try:
        src = open_source(path, "memory")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * n * d * 8 + 4 * CHUNK_ROWS * d * 8
    assert np.array_equal(src.collect("load").data, data)


@pytest.mark.parametrize("fmt", ["csv", "bin"])
def test_memory_open_reads_file_once(tmp_path, monkeypatch, fmt):
    # after the format sniff, memory mode reads the file in one pass
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
# read-ahead: prepare runs on one reader thread that lives only in its pass
# ---------------------------------------------------------------------------

def _three_chunk_source(tmp_path, fmt, seed=10):
    n, d = 2 * CHUNK_ROWS + 9, 4
    data = np.random.default_rng(seed).standard_normal((n, d))
    if fmt == "memory":
        return open_source(PointSet(data)), data
    path = tmp_path / f"three.{fmt}"
    (write_csv if fmt == "csv" else write_binary)(path, data)
    return open_source(path, "streaming"), data


@pytest.mark.parametrize("fmt", ["memory", "csv", "bin"])
def test_prepare_runs_ahead_on_one_thread_in_order(tmp_path, fmt):
    # prepare sees every chunk in order on another thread, at most one chunk
    # ahead of the visitor, and its results reach the visitor through a
    # deque; the reader is joined when the pass returns
    src, data = _three_chunk_source(tmp_path, fmt)
    before = threading.active_count()
    sums, prepared, visited, threads = deque(), [], [], []

    def prepare(start, chunk):
        prepared.append((start, threading.get_ident()))
        sums.append(chunk.sum(axis=1))

    def visit(start, chunk):
        time.sleep(0.01)  # time for the reader to run ahead, if it would
        assert len(prepared) <= len(visited) + 2
        threads.append(threading.active_count())
        np.testing.assert_array_equal(sums.popleft(), chunk.sum(axis=1))
        visited.append((start, chunk.copy()))

    entry = src.stream_pass_chunks("ahead", visit, prepare=prepare)
    assert entry.complete and not sums
    # the reader still has the last chunk to read while the first is visited
    assert threads[0] == max(threads) == before + 1
    assert threading.active_count() == before
    assert [s for s, _ in prepared] == [s for s, _ in visited] == [0, CHUNK_ROWS, 2 * CHUNK_ROWS]
    assert {t for _, t in prepared} != {threading.get_ident()}
    assert np.array_equal(np.vstack([c for _, c in visited]), data)


def test_one_chunk_pass_builds_no_pool(monkeypatch):
    # a pass of CHUNK_ROWS rows has nothing to read ahead; one more row does
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was built")

    monkeypatch.setattr(stream, "ThreadPoolExecutor", no_pool)
    data = np.random.default_rng(2).standard_normal((CHUNK_ROWS + 1, 3))
    seen = []
    open_source(PointSet(data[:CHUNK_ROWS])).stream_pass_chunks(
        "one", lambda s, c: seen.append(s), prepare=lambda s, c: None)
    assert seen == [0]
    with pytest.raises(AssertionError, match="a pool was built"):
        open_source(PointSet(data)).stream_pass_chunks("two", lambda s, c: None)


@pytest.mark.parametrize("fmt", ["memory", "csv", "bin"])
def test_failed_visitor_stops_the_reader(tmp_path, fmt):
    src, _ = _three_chunk_source(tmp_path, fmt)
    before = threading.active_count()

    def visit(start, chunk):
        if start > 0:
            raise RuntimeError("abort")

    with pytest.raises(RuntimeError, match="abort"):
        src.stream_pass_chunks("doomed", visit, prepare=lambda s, c: None)
    assert threading.active_count() == before
    assert src.pass_log.entries[-1].rows_visited == CHUNK_ROWS


@pytest.mark.parametrize("fmt", ["memory", "csv", "bin"])
def test_failed_prepare_is_raised_on_the_calling_thread(tmp_path, fmt):
    # the error comes in its place among the chunks: after the visitor has
    # seen every chunk before the one prepare failed on
    src, _ = _three_chunk_source(tmp_path, fmt)
    before = threading.active_count()
    seen = []

    def prepare(start, chunk):
        if start == CHUNK_ROWS:
            raise ValueError(f"bad chunk at {start}")

    with pytest.raises(ValueError, match=f"bad chunk at {CHUNK_ROWS}"):
        src.stream_pass_chunks("doomed", lambda s, c: seen.append(s), prepare=prepare)
    assert threading.active_count() == before
    assert seen == [0]
    assert src.pass_log.entries[-1].rows_visited == CHUNK_ROWS


def test_reader_error_past_a_restored_mtime_names_the_row(tmp_path):
    # a NaN written into the third chunk of a streamed binary file, with the
    # size kept and the mtime put back, is caught by the reader ahead of the
    # visitor and raised on the calling thread, naming its row
    n, d = 3 * CHUNK_ROWS + 7, 4
    data = np.random.default_rng(12).standard_normal((n, d))
    path = tmp_path / "nan.bin"
    write_binary(path, data)
    opened = os.stat(path).st_mtime_ns
    src = open_source(path, "streaming")
    bad = data.copy()
    bad[2 * CHUNK_ROWS + 3, 1] = np.nan
    write_binary(path, bad)
    os.utime(path, ns=(opened, opened))
    before = threading.active_count()
    seen = []
    with pytest.raises(DatasetFormatError, match=f"nan.bin: row {2 * CHUNK_ROWS + 3}: non-finite"):
        src.stream_pass_chunks("after", lambda s, c: seen.append(s), prepare=lambda s, c: None)
    assert seen == [0, CHUNK_ROWS]
    assert threading.active_count() == before


@pytest.mark.parametrize("fmt", ["csv", "bin"])
def test_file_checks_run_before_any_thread(tmp_path, fmt, monkeypatch):
    # a same-size edit (a CSV digit, or a binary entry under a new mtime)
    # fails the next pass on the calling thread, before any read-ahead
    # thread is asked for and before any row is visited
    src, data = _three_chunk_source(tmp_path, fmt, seed=16)
    path = tmp_path / f"three.{fmt}"
    if fmt == "csv":
        raw = bytearray(path.read_bytes())
        at = raw.index(b".") + 1  # first row, first value
        raw[at] = ord("8") if raw[at] == ord("9") else raw[at] + 1
        path.write_bytes(bytes(raw))
    else:
        opened = os.stat(path).st_mtime_ns
        edited = data.copy()
        edited[0, 0] += 1.0
        write_binary(path, edited)
        os.utime(path, ns=(opened + 10 ** 9, opened + 10 ** 9))

    def no_thread(*args, **kwargs):
        raise AssertionError("a thread was started before the file checks")

    monkeypatch.setattr(threading, "Thread", no_thread)
    seen = []
    with pytest.raises(DatasetFormatError, match=f"three.{fmt}: changed since it was opened"):
        src.stream_pass_chunks("after", lambda s, c: seen.append(s),
                               prepare=lambda s, c: None)
    assert seen == []
    assert not src.pass_log.entries[-1].complete


@pytest.mark.parametrize("fmt", ["memory", "csv", "bin"])
def test_one_chunk_pass_starts_no_thread(tmp_path, fmt, monkeypatch):
    def no_thread(*args, **kwargs):
        raise AssertionError("a one-chunk pass started a thread")

    data = np.random.default_rng(13).standard_normal((CHUNK_ROWS, 3))
    if fmt == "memory":
        src = open_source(PointSet(data))
    else:
        path = tmp_path / f"one.{fmt}"
        (write_csv if fmt == "csv" else write_binary)(path, data)
        src = open_source(path, "streaming")
    monkeypatch.setattr(threading, "Thread", no_thread)
    order = []
    src.stream_pass_chunks("one", lambda s, c: order.append(("visit", s)),
                           prepare=lambda s, c: order.append(("prepare", s)))
    assert order == [("prepare", 0), ("visit", 0)]
    assert src.pass_log.entries[-1].complete


@pytest.mark.parametrize("fmt", ["csv", "bin"])
def test_passes_with_prepare_may_nest(tmp_path, fmt):
    # an inner pass inside an outer pass's visitor runs its own reader; both
    # read the one file (a CSV's spill) at their own offsets
    src, data = _three_chunk_source(tmp_path, fmt, seed=14)
    before = threading.active_count()
    outer, inner, prepared = [], [], []

    def visit(start, chunk):
        if start == CHUNK_ROWS:
            src.stream_pass_chunks("inner", lambda s, c: inner.append(c),
                                   prepare=lambda s, c: prepared.append(("inner", c.copy())))
        outer.append(chunk)

    src.stream_pass_chunks("outer", visit,
                           prepare=lambda s, c: prepared.append(("outer", c.copy())))
    assert threading.active_count() == before
    assert np.array_equal(np.vstack(outer), data)
    assert np.array_equal(np.vstack(inner), data)
    for name in ("outer", "inner"):
        assert np.array_equal(np.vstack([c for who, c in prepared if who == name]), data)


def test_nested_read_ahead_under_frequent_thread_switches(tmp_path):
    # three passes nested in one another (three threads on two cores),
    # switching threads every microsecond: each visitor still pops its own
    # prepare's result for its own chunk, in order
    src, data = _three_chunk_source(tmp_path, "bin", seed=15)
    starts = list(range(0, len(data), CHUNK_ROWS))
    before = threading.active_count()

    def run(depth):
        sums, seen = deque(), []

        def visit(start, chunk):
            assert sums.popleft() == (start, float(chunk.sum()))
            if depth < 2 and start == CHUNK_ROWS:
                run(depth + 1)
            seen.append(start)

        src.stream_pass_chunks(f"depth {depth}", visit,
                               prepare=lambda s, c: sums.append((s, float(c.sum()))))
        assert seen == starts and not sums

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            run(0)
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == before


# ---------------------------------------------------------------------------
# pinned seeded selections
# ---------------------------------------------------------------------------

# (call, seed) -> (sha256 of basis.vectors.tobytes(), selected_ids) of a
# streamed selection on the instance of pinned_inputs, recorded from
# one-thread passes
PINNED_SELECTIONS = {
    ("select_subset", 1): (
        "a9db7a969c8ff57c2e1e5a464f93bd369a6ac09544dd9f99b6552e1063101403",
        (754, 2199, 492, 883, 2173, 1746, 99, 1669, 2103, 820, 2066, 579, 2966, 1046,
         1647, 765, 593, 839, 139, 745, 301, 2238, 1071, 2253, 2338, 2844, 1571, 158,
         634, 2816, 394, 634, 2604, 1530, 2354, 1796, 1553, 1419, 339, 1829, 466, 1104,
         2051, 2938, 9, 2149, 1903, 1598, 1647, 2104, 2221),
    ),
    ("select_subset", 2): (
        "ee2ad2120cad63825ade61787d848f9177e9a3690521a8ab26be76f2cdd938e4",
        (2233, 2485, 1169, 619, 1210, 2861, 2306, 1746, 2025, 1008, 2454, 2865, 1571,
         2196, 1363, 2821, 1046, 2629, 1671, 2191, 926, 194, 856, 433, 1363, 600, 2309,
         1104, 1561, 1289, 900, 1756, 1688, 800, 2607, 1665, 956, 1796, 515, 2473, 1746,
         39, 1796, 2134, 1786, 2717, 2749, 444, 1104, 1934, 359),
    ),
    ("select_subset", 3): (
        "15fc20c8fb49dfa27ca6d3cfb988a1aac04e328ecf9b1847e1b231b7a914a215",
        (1412, 2310, 629, 514, 1581, 2481, 1617, 561, 1299, 43, 68, 1691, 967, 725, 636,
         804, 2056, 1667, 263, 1248, 1179, 798, 1875, 1041, 2382, 2922, 365, 2309, 600,
         1486, 2938, 1428, 798, 1598, 1107, 1101, 2475, 2861, 1671, 1741, 2629, 514,
         1796, 1875, 565, 2091, 146, 2882, 2942, 2156, 158),
    ),
    ("robust_select", 1): (
        "6c56069950e6dad67c61d6da2548c4c8ef62a3a148630d08f5e979fa5f74acf5",
        (754, 2199, 492, 2253, 1214, 1372, 1129, 2066, 141, 1391, 1599, 2438, 800, 766,
         2677, 1861, 1391, 1459, 1647, 2840, 2291, 2171, 439, 2846, 1380, 907, 2247,
         798, 746, 30, 1155, 2866, 1295, 1234, 710, 2405, 798, 1766, 157, 2844, 2356,
         2488, 2033, 384, 230, 812, 2706, 787, 914, 444, 314, 656, 1896, 905, 2850,
         1989, 313, 2735, 1953, 2781, 813, 600, 1603, 2593, 1988, 1978, 1676, 2703,
         2618, 1138, 1111, 1950, 1420, 2334, 816, 2930, 1598, 1312, 146, 1068, 2438,
         1712, 2480, 871, 847, 1372, 3028, 756, 2998, 2116, 1043, 1731, 1100, 627, 1060,
         2896, 329, 1952, 717),
    ),
    ("robust_select", 2): (
        "185fa78d6980895b111ef380b187a38078ff5cec08c0395d5190254f904dfed0",
        (2233, 2485, 1169, 1598, 2865, 727, 2532, 1054, 2020, 2253, 1058, 168, 127, 339,
         2746, 568, 1617, 1565, 1848, 1108, 111, 2505, 2354, 1244, 926, 2156, 158, 1746,
         2250, 1355, 1323, 2894, 339, 2967, 765, 1595, 2015, 2746, 323, 2475, 1232, 332,
         852, 1756, 2473, 2354, 1289, 1875, 1046, 847, 2333, 1437, 292, 1265, 2483, 301,
         2010, 1120, 39, 1036, 338, 2301, 3019, 1892, 866, 2211, 775, 387, 740, 2139,
         516, 2347, 1927, 1532, 310, 3015, 1442, 2897, 2124, 1825, 1980, 1693, 750,
         2074, 2725, 2120, 2406, 948, 1152, 2299, 1877, 242, 142, 977, 376, 2015, 1647,
         1000, 723),
    ),
    ("robust_select", 3): (
        "72362839f92efe6c09293ad7773ac3fd281aa4dd953c8a782e05d683d4a17489",
        (1412, 2310, 629, 1238, 619, 1616, 2750, 1614, 1297, 850, 1746, 1934, 158, 780,
         850, 3074, 749, 3016, 2958, 2553, 2134, 2915, 2062, 2532, 798, 29, 2861, 1228,
         3038, 154, 2626, 2846, 852, 2001, 1753, 2242, 31, 2020, 798, 2066, 1093, 12,
         1598, 2743, 1608, 1598, 107, 787, 1239, 2419, 2578, 270, 338, 1637, 2299, 2945,
         1306, 2691, 1382, 2242, 828, 1314, 46, 808, 2165, 2959, 1676, 368, 2190, 1976,
         1917, 685, 1405, 1107, 1171, 723, 1386, 1050, 150, 1542, 1574, 1119, 359, 2123,
         1026, 2623, 1326, 1851, 2297, 373, 2183, 950, 2733, 2163, 634, 2764, 2032,
         2653, 501),
    ),
}


@pytest.fixture(scope="module")
def pinned_inputs(tmp_path_factory):
    pts, _ = generate_synthetic(3 * CHUNK_ROWS + 7, 40, rank=3, noise_sigma=0.3,
                                outlier_frac=0.05, outlier_scale=3.0, seed=5)
    folder = tmp_path_factory.mktemp("pinned")
    write_binary(folder / "x.bin", pts.data)
    write_csv(folder / "x.csv", pts.data)
    return folder


@pytest.mark.parametrize("fmt", ["bin", "csv"])
@pytest.mark.parametrize("call, seed", list(PINNED_SELECTIONS))
def test_streamed_selection_is_pinned(pinned_inputs, fmt, call, seed):
    # a reordered offer or Gram add would move a selection in memory and
    # streaming mode alike, which no comparison of the two modes can see
    src = open_source(pinned_inputs / f"x.{fmt}", "streaming")
    if call == "select_subset":
        result = select_subset(src, SamplingConfig(k=3, epsilon=0.5, seed=seed, chain_steps=16))
    else:
        result, _ = robust_select(src, 3, 0.5, 0.05, 0.5, seed=seed, chain_steps=16)
    digest, ids = PINNED_SELECTIONS[call, seed]
    assert result.selected_ids == ids
    assert hashlib.sha256(result.basis.vectors.tobytes()).hexdigest() == digest


# (exponent, sha256 of the mantissa) of the Gram a streamed
# length_squared_pass sums over the instance of pinned_inputs, recorded from
# one-thread passes
PINNED_GRAM = (2, "59feb1685cb277fa1a075a287cbe83c98e9af7661a0d3846fcd58aef21ebb0d2")


@pytest.mark.parametrize("fmt", ["bin", "csv"])
def test_streamed_gram_is_pinned(pinned_inputs, fmt):
    # a selection rarely moves with the Gram's last bits, so the order of the
    # chunks' Gram adds is pinned on its own
    src = open_source(pinned_inputs / f"x.{fmt}", "streaming")
    (e, g), _, _ = length_squared_pass(src, 64, derive_rng(0, "pinned-gram"), label="pin")
    assert (e, hashlib.sha256(g.tobytes()).hexdigest()) == PINNED_GRAM


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
    err, bank_w, bank_u, _ = proposal_prefetch_pass(src, basis, 2.0, 5000, seed=13)
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
    err, bank_w, bank_u, d_piv = proposal_prefetch_pass(src, basis, 2.0, 4, seed=0)
    assert err == 0.0
    assert bank_w is None
    assert np.all(d_piv == 0.0) and len(d_piv) == bank_u.store.top
    assert bank_u.counts.sum() == 4
    assert all(i >= 0 for i in bank_u.rows)
    assert np.array_equal(bank_u.points_for(bank_u.rows), pts.data[bank_u.rows])


@pytest.mark.parametrize("mode", ["memory", "streaming"])
@pytest.mark.parametrize("d, slots", [(7, 400), (200, 400), (200, 5000), (800, 400)])
def test_prefetch_keeps_each_stored_rows_pivot_residual(tmp_path, mode, d, slots):
    # every cell either bank holds keeps the pivot residual the pass offered
    # for its row: the bits of residual_distances over the whole array, whose
    # tiles split each chunk as the pass does; 400 slots over 2085 rows
    # evict rows and reuse their cells
    x = np.random.default_rng(d).standard_normal((2 * CHUNK_ROWS + 37, d))
    path = tmp_path / "x.bin"
    write_binary(path, x)
    pivot = orthonormal_basis(PointSet(x), [0, 5, 9, 11, 40])
    whole = residual_distances(x, pivot)
    err, bank_w, bank_u, d_piv = proposal_prefetch_pass(
        open_source(path, mode), pivot, 2.0, slots, seed=4)
    store = bank_u.store
    assert len(d_piv) == store.top
    for bank in (bank_w, bank_u):
        got = d_piv[bank.cells]
        assert np.array_equal(got.view(np.int64), whole[bank.rows].view(np.int64))
        assert np.allclose(got, residual_distances(store.take(bank.cells), pivot),
                           rtol=1e-12, atol=0.0)
    assert err == pytest.approx(float(np.sum(whole ** 2)), rel=1e-12)


def _pool_instances():
    """Three instances of 1224 x 6 rows and their pivots, over two chunks:
    one whose pivot spans every row up to rounding, one whose pivot's
    residuals are exactly zero, and one whose pool round 0 saturates."""
    rng = np.random.default_rng(61)
    n = CHUNK_ROWS + 200
    spanned = rng.standard_normal((n, 3)) @ rng.standard_normal((3, 6))
    axes = np.zeros((n, 6))
    axes[:, :3] = rng.standard_normal((n, 3))
    rank4 = rng.standard_normal((n, 4)) @ rng.standard_normal((4, 6))
    exact = OrthonormalBasis(6, np.eye(6)[:3], (0, 1, 2))
    return {
        "saturated": (spanned, orthonormal_basis(PointSet(spanned), [0, 1, 2])),
        "exact-fit": (axes, exact),
        "saturated-later": (rank4, orthonormal_basis(PointSet(rank4), [0, 1, 2])),
    }


# blocks and warnings of mcmc_select on _pool_instances(), recorded when the
# pool's pivot residuals were measured again after the pass and every pool
# row's norm was read in every round
POOL_FILL = "remaining blocks drawn from the uniform floor"
PINNED_POOLS = {
    "saturated": (((580, 382, 947, 107), (2, 1102, 548, 865), (28, 264, 1044, 751)),
                  (f"candidate pool fit up to rounding after 0 rounds; {POOL_FILL}",)),
    "exact-fit": (((679, 894, 621, 1049), (184, 1071, 197, 1144), (591, 775, 798, 107)),
                  ("pivot span fits every point; blocks drawn from the uniform floor",)),
    "saturated-later": (((976, 1192, 733, 946), (241, 935, 8, 105), (1174, 1220, 243, 668)),
                        (f"candidate pool fit up to rounding after 1 rounds; {POOL_FILL}",)),
}


@pytest.mark.parametrize("mode", ["memory", "streaming"])
@pytest.mark.parametrize("name", list(PINNED_POOLS))
def test_saturated_and_exact_fit_pools_are_pinned(tmp_path, mode, name):
    data, pivot = _pool_instances()[name]
    path = tmp_path / "x.bin"
    write_binary(path, data)
    params = derive_params(3, 0.5, points_per_round=4, rounds=3, chain_steps=8)
    result = mcmc_select(open_source(path, mode), pivot, params, seed=62)
    assert (result.blocks, result.warnings) == PINNED_POOLS[name]


def test_saturation_test_reads_one_norm_unless_saturated(monkeypatch):
    # an unsaturated round reads the norm of its largest-residual entry
    # only; the saturated round reads every live entry's
    read = []
    real = samplers._row_norms

    def counting(rows):
        read.append(len(rows))
        return real(rows)

    monkeypatch.setattr(samplers, "_row_norms", counting)
    data, pivot = _pool_instances()["saturated-later"]
    params = derive_params(3, 0.5, points_per_round=4, rounds=3, chain_steps=8)
    mcmc_select(PointSet(data), pivot, params, seed=62)
    assert read[0] == 1 and read[1] == 1 and read[2] > 1 and len(read) == 3


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
