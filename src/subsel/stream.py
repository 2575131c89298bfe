"""Dataset sources with enforced sequential access and pass accounting.

A pass is exactly one full sequential visit of rows 0..n-1, and passes are
the only way to read rows in either mode. In-memory sources keep the rows
read at open; streaming-mode sources read their file again on every pass.
Both present the same rows in the same fixed-size chunks, so a seeded
algorithm consumes its random stream identically in both modes and produces
bit-identical results. Each file format has one reader, which checks the
file as it reads it, and opening a file is one pass of it. A later binary
pass runs that reader again against the n and d learned at open, and
against the file's size and modification time taken then. A CSV is
parsed only at open: a streaming source keeps the parsed rows in a private
spill file and the sha256 of the bytes parsed, and a later pass hashes the
whole file, checks it against that digest, then reads the rows back from the
spill.

A pass reads chunk c as a function of c alone, by positional reads. Its
file checks run on the calling thread before the first read, and chunk 0 is
read on the calling thread, since the pass waits for it anyway. A pass of
more than one chunk then reads ahead on the one worker of a one-worker pool,
started at its second chunk and joined by the pass: the worker reads and
checks chunk c + 1, and runs the caller's `prepare` stage on it, while the
caller's visitor uses chunk c on the calling thread. The visitor still sees
every chunk in order, so the arithmetic and the random draws it makes happen
in the same order as in a one-thread pass. A pass of one chunk builds no
pool.

A file chunk is checked finite by one sum (`_finite`): any NaN or infinity
makes the sum non-finite, and only then are its entries checked one by one,
to name the first bad row or line, or to pass finite rows whose sum
overflows.

Also provides weighted reservoir sampling (many independent single draws in
one pass, kept as per-row counts: a chunk thins each row's count by a
binomial and refills the freed draws with one multinomial, at a cost that
does not grow with the number of draws, and the drawn rows' coordinates
written once each into a RowStore), the exact-volume pivot's
length-squared pass, the proposal prefetch pass used by the Metropolis
selection, the CSV and binary file formats, and synthetic instance
generation.
"""

from __future__ import annotations

import hashlib
import io
import math
import os
import struct
import tempfile
import weakref
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .linalg import (
    RESIDUAL_BLOCK_ROWS,
    OrthonormalBasis,
    PointSet,
    _block_gram,
    _Pow2Sum,
    residual_distances,
)
from .rng import derive_rng

# Fixed chunk size: part of the sampling contract, not a tuning knob. Both
# source modes must consume randomness identically. It is the Gram kernel's
# block, so a streamed Gram sums the kernel's blocks.
CHUNK_ROWS = RESIDUAL_BLOCK_ROWS

BINARY_MAGIC = b"SSEL1\x00"
# the magic, then n and d as little-endian uint64
_BINARY_HEADER = len(BINARY_MAGIC) + 16

# block size of the digest check a streamed CSV pass makes of its file
_HASH_BLOCK = 1 << 16


class DatasetFormatError(ValueError):
    """Malformed dataset file: bad magic, ragged rows, non-finite entries."""


class PassCountError(AssertionError):
    """A pass-count assertion failed (wrong count or incomplete pass)."""


@dataclass
class PassEntry:
    label: str
    rows_visited: int
    expected_rows: int
    reporting: bool = False

    @property
    def complete(self) -> bool:
        return self.rows_visited == self.expected_rows


@dataclass
class PassLog:
    """Auditable record of sequential passes over one dataset source."""

    entries: list[PassEntry] = field(default_factory=list)

    @property
    def total_passes(self) -> int:
        """Completed or in-flight algorithm passes (reporting scans excluded)."""
        return sum(1 for e in self.entries if not e.reporting)

    @property
    def reporting_passes(self) -> int:
        return sum(1 for e in self.entries if e.reporting)

    def assert_passes(self, expected: int) -> None:
        """Exact integer check: `expected` algorithm passes, all complete."""
        incomplete = [e for e in self.entries if not e.complete]
        if incomplete:
            labels = ", ".join(f"{e.label} ({e.rows_visited}/{e.expected_rows})"
                               for e in incomplete)
            raise PassCountError(f"incomplete passes: {labels}")
        if self.total_passes != expected:
            raise PassCountError(
                f"expected {expected} passes, log shows {self.total_passes}: "
                + ", ".join(e.label for e in self.entries if not e.reporting))


class DatasetSource:
    """Sequential-only access to a dataset; create via open_source()."""

    def __init__(self, *, points: PointSet | None, path: str | None,
                 n: int, d: int, mode: str, spill=None, digest: bytes | None = None,
                 stamp: tuple[int, int] | None = None):
        self._points = points
        self.path = path
        self.n = n
        self.d = d
        self.mode = mode
        self.pass_log = PassLog()
        self._spill = spill
        self._digest = digest
        self._stamp = stamp
        if spill is not None:
            weakref.finalize(self, spill.close)

    # -- sequential access ---------------------------------------------------

    @contextmanager
    def _reader(self) -> Iterator[Callable[[int, np.ndarray | None], np.ndarray]]:
        """A pass's chunk reader, read(start, out) -> the chunk of rows from
        `start`, yielded after the pass's file checks, which run here on the
        calling thread before any row is read. A memory source returns its
        slice and ignores `out`. A binary file is reopened, its header must
        still say n x d and, given the size and mtime taken at open, its
        must still match; each chunk is read into `out`, the caller's unfilled
        array of the chunk's shape, and checked finite. A CSV's sha256 must
        match the digest of the bytes parsed at open; its chunks are read
        into `out` from the spill, as the parser checked them. Reads are
        positional, so read may run on any thread and readers may nest."""
        if self._points is not None:
            data = self._points.data
            yield lambda start, out: data[start:start + CHUNK_ROWS]
        elif self._spill is None:
            with open(self.path, "rb") as fh:
                shape = _binary_header(fh, self.path)
                if shape != (self.n, self.d):
                    raise DatasetFormatError(f"{self.path}: header says {shape[0]} x "
                                             f"{shape[1]}, but {self.n} x {self.d} when opened")
                if self._stamp is not None:
                    st = os.fstat(fh.fileno())
                    if (st.st_size, st.st_mtime_ns) != self._stamp:
                        raise DatasetFormatError(f"{self.path}: changed since it was opened")
                fd = fh.fileno()

                def read(start: int, out: np.ndarray) -> np.ndarray:
                    _read_into(fd, _BINARY_HEADER + start * self.d * 8, out, self.path, start)
                    return _finite(out, self.path, "row", range(start, start + len(out)))

                yield read
        else:
            if _sha256(self.path) != self._digest:
                raise DatasetFormatError(f"{self.path}: changed since it was opened")
            fd, name = self._spill.fileno(), f"spill of {self.path}"
            yield lambda start, out: _read_into(fd, start * self.d * 8, out, name, start)

    def stream_pass_chunks(self, label: str,
                           visitor: Callable[[int, np.ndarray], None], *,
                           prepare: Callable[[int, np.ndarray], None] | None = None,
                           reporting: bool = False) -> PassEntry:
        """Visit every row once, in index order, as (start, chunk) blocks.

        prepare(start, chunk), when given, runs on each chunk before
        visitor(start, chunk) does. The file checks run on the calling
        thread before the first read, and chunk 0 is read on the calling
        thread and prepared there. Each later chunk is read ahead by the one
        worker of a one-worker pool that lives only as long as the pass:
        while the visitor runs on chunk c on the calling thread, the worker
        reads and checks chunk c + 1 and runs prepare on it, so prepare runs
        in chunk order, at most one chunk ahead of the visitor. A pass of
        one chunk builds no pool. prepare hands its results to the visitor
        through state the caller owns, a deque that prepare appends to and
        the visitor pops from, and touches nothing else the visitor does. An
        error of a read or of prepare is raised here, after the visitor has
        seen every chunk before the one it concerns. A file source's chunks
        are fresh arrays, allocated on the calling thread, which a visitor
        may keep.
        """
        entry = PassEntry(label, 0, self.n, reporting)
        self.pass_log.entries.append(entry)
        with self._reader() as read, (ThreadPoolExecutor(1, "subsel-read-ahead")
                                      if self.n > CHUNK_ROWS else nullcontext()) as pool:

            def load(start: int, out: np.ndarray | None) -> np.ndarray:
                chunk = read(start, out)
                if prepare is not None:
                    prepare(start, chunk)
                return chunk

            chunk = load(0, self._unfilled(0))
            for start in range(0, self.n, CHUNK_ROWS):
                after = start + CHUNK_ROWS
                ahead = pool.submit(load, after, self._unfilled(after)) if after < self.n else None
                visitor(start, chunk)
                entry.rows_visited += len(chunk)
                if ahead is not None:
                    chunk = ahead.result()
        return entry

    def _unfilled(self, start: int) -> np.ndarray | None:
        """The array a file source's chunk from `start` is read into, taken
        on the calling thread; None for a memory source, which slices."""
        if self._points is not None:
            return None
        return np.empty((min(CHUNK_ROWS, self.n - start), self.d), dtype="<f8")

    def collect(self, label: str, *, reporting: bool = False) -> PointSet:
        """Materialize all rows with one sequential pass. A streaming source
        writes each chunk into one n x d array, which becomes the read-only
        PointSet's data without another copy."""
        if self.mode == "memory":
            entry = PassEntry(label, self.n, self.n, reporting)
            self.pass_log.entries.append(entry)
            return self._points
        data = np.empty((self.n, self.d))

        def fill(start: int, chunk: np.ndarray) -> None:
            data[start:start + len(chunk)] = chunk

        # the reader checked every chunk's shape and finiteness
        self.stream_pass_chunks(label, fill, reporting=reporting)
        return PointSet._adopt(data)


def open_source(path_or_points, mode: str = "memory") -> DatasetSource:
    """Open a dataset for pass-counted sequential access.

    Accepts a PointSet (in-memory only) or a file path. Opening a file is one
    pass of its format's reader, which checks every row. A binary file's
    header gives n and d before any row is read, so memory mode fills one
    preallocated n x d array, chunk by chunk. A streamed binary file keeps
    only its size and mtime_ns, taken before it is read, and a later pass
    raises DatasetFormatError if the file no longer holds n rows of d finite
    entries or either of those moved; an edit that keeps both goes unnoticed.
    A CSV learns n and d as it is parsed (see _csv_rows), and is parsed here
    and only here: its rows go to an unlinked temporary file (n * d * 8
    bytes of temp-dir disk). Memory mode reads that spill back into one
    preallocated n x d array and closes it, so it never holds a second copy
    of the rows. A streamed CSV keeps its spill (closed when the source is
    collected), and a later pass raises
    DatasetFormatError if the file's sha256 differs from that of the bytes
    parsed. The pass counter starts at zero after opening.
    """
    if mode not in ("memory", "streaming"):
        raise ValueError(f"unknown mode {mode!r}")
    if isinstance(path_or_points, PointSet):
        if mode != "memory":
            raise ValueError("streaming mode requires a file path")
        pts = path_or_points
        return DatasetSource(points=pts, path=None, n=pts.n, d=pts.d, mode="memory")
    path = str(path_or_points)
    shape = _binary_shape(path)
    if shape is None:
        return _open_csv(path, mode)
    stamp = None
    if mode == "streaming":
        st = os.stat(path)
        stamp = (st.st_size, st.st_mtime_ns)
    source = DatasetSource(points=None, path=path, n=shape[0], d=shape[1], mode=mode,
                           stamp=stamp)
    data = np.empty(shape) if mode == "memory" else None
    with source._reader() as read:
        for start in range(0, source.n, CHUNK_ROWS):
            read(start, source._unfilled(start) if data is None
                 else data[start:start + CHUNK_ROWS])
    if data is not None:
        # the reader checked every chunk; data is the one copy kept
        source._points = PointSet._adopt(data)
    return source


def _open_csv(path: str, mode: str) -> DatasetSource:
    """Parse a CSV into an unlinked spill; memory mode then reads the spill
    into one n x d array and closes it, so the parsed rows are held once.
    Only a streamed spill keeps the file's sha256, for its later passes."""
    digest = hashlib.sha256() if mode == "streaming" else None
    spill = tempfile.TemporaryFile()
    try:
        for start, chunk in _csv_rows(path, digest):
            spill.write(chunk.astype("<f8", copy=False))
        spill.flush()  # the spill is read by its file descriptor
        n, d = start + len(chunk), chunk.shape[1]
        if mode == "memory":
            data = _read_into(spill.fileno(), 0, np.empty((n, d), dtype="<f8"),
                              f"spill of {path}", 0)
            spill.close()
            # the reader checked every chunk; data is the one copy kept
            return DatasetSource(points=PointSet._adopt(data), path=path, n=n, d=d,
                                 mode=mode)
    except BaseException:
        spill.close()
        raise
    return DatasetSource(points=None, path=path, n=n, d=d, mode=mode, spill=spill,
                         digest=digest.digest())


def as_source(source_or_points) -> DatasetSource:
    """Pass DatasetSource through, wrap a PointSet or path in a memory source."""
    if isinstance(source_or_points, DatasetSource):
        return source_or_points
    return open_source(source_or_points)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def _binary_shape(path: str) -> tuple[int, int] | None:
    """(n, d) from a binary file's checked header (see _binary_header), or
    None for a CSV."""
    with open(path, "rb") as fh:
        head = fh.read(len(BINARY_MAGIC))
        if head == BINARY_MAGIC:
            return _binary_header(fh, path)
    if head[:4] == b"SSEL":
        # SSEL-prefixed but not the exact magic: corrupt or wrong-version binary
        raise DatasetFormatError(f"{path}: bad magic bytes {head!r}")
    return None


class _HashingReader(io.RawIOBase):
    """A raw binary file that folds every byte read through it into `digest`."""

    def __init__(self, raw, digest):
        self._raw, self._digest = raw, digest

    def readable(self) -> bool:
        return True

    def readinto(self, buf) -> int:
        count = self._raw.readinto(buf)
        self._digest.update(memoryview(buf)[:count])
        return count

    def close(self) -> None:
        self._raw.close()
        super().close()


def _sha256(path: str) -> bytes:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(_HASH_BLOCK), b""):
            digest.update(block)
    return digest.digest()


def _csv_rows(path: str, digest=None) -> Iterator[tuple[int, np.ndarray]]:
    """(start, chunk) blocks of CHUNK_ROWS rows, each checked as it is read.

    The file is UTF-8 text. Blank lines and lines starting with '#' (after
    whitespace) are skipped; every other line is one row of comma-separated
    decimal floats, as many as on the file's first data line. Fields may
    carry whitespace around them, nothing else: no trailing comment, no `_`
    digit separator, no non-ASCII digit. Each chunk's stripped data lines go
    to one np.loadtxt call (numpy's C parser); a chunk it refuses, or of the
    wrong width, is parsed again one line at a time to name its first bad
    line. A line holding bytes that are not UTF-8, a bad or missing field, a
    wrong width and a non-finite entry each raise DatasetFormatError naming
    the file and the line. Every byte read also goes into `digest` when one
    is given.
    """
    raw = open(path, "rb", buffering=0)
    if digest is not None:
        raw = _HashingReader(raw, digest)
    d = None
    start = 0
    texts: list[str] = []
    lines: list[int] = []
    # bytes that are not UTF-8 decode to lone surrogates, so the line that
    # holds them can be named
    with io.TextIOWrapper(io.BufferedReader(raw), encoding="utf-8",
                          errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                _check_utf8(text, path, lineno)
                continue
            if d is None:
                d = text.count(",") + 1
            texts.append(text)
            lines.append(lineno)
            if len(texts) == CHUNK_ROWS:
                yield start, _parse_lines(texts, lines, d, path)
                start += len(texts)
                texts, lines = [], []
    if texts:
        yield start, _parse_lines(texts, lines, d, path)
    elif start == 0:
        raise DatasetFormatError(f"{path}: 0 data rows")


def _loadtxt(texts: list[str]) -> np.ndarray:
    return np.loadtxt(texts, dtype=np.float64, delimiter=",", comments=None, ndmin=2)


def _parse_lines(texts: list[str], lines: list[int], d: int, path: str) -> np.ndarray:
    """The rows of data lines `texts` (file lines `lines`), d finite floats
    each."""
    try:
        chunk = _loadtxt(texts)
    except ValueError as exc:
        error = exc
    else:
        if chunk.shape[1] == d:
            # not under the try: DatasetFormatError is a ValueError
            return _finite(chunk, path, "line", lines)
        error = f"expected {d} columns, found {chunk.shape[1]}"
    # name the first bad line
    for text, lineno in zip(texts, lines):
        _check_utf8(text, path, lineno)
        try:
            row = _loadtxt([text])
        except ValueError as exc:
            # loadtxt counts the rows of its own input, here this one line
            message = str(exc).replace(" at row 0,", " at")
            raise DatasetFormatError(f"{path}: line {lineno}: {message}") from None
        if row.shape[1] != d:
            raise DatasetFormatError(
                f"{path}: line {lineno}: expected {d} columns, found {row.shape[1]}")
    raise DatasetFormatError(f"{path}: lines {lines[0]}..{lines[-1]}: {error}")


def _check_utf8(text: str, path: str, lineno: int) -> None:
    if not text.isascii():
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            raise DatasetFormatError(f"{path}: line {lineno}: not UTF-8 text") from None


def _binary_header(fh, path: str) -> tuple[int, int]:
    """(n, d) from the header of binary file fh, read from its start; checks
    the magic, n, d >= 1 and that the payload is n * d * 8 bytes, from the
    file's size."""
    fh.seek(0)
    header = fh.read(_BINARY_HEADER)
    if len(header) < _BINARY_HEADER:
        raise DatasetFormatError(f"{path}: truncated header")
    if header[:len(BINARY_MAGIC)] != BINARY_MAGIC:
        raise DatasetFormatError(f"{path}: bad magic bytes {header[:6]!r}")
    n, d = struct.unpack("<QQ", header[len(BINARY_MAGIC):])
    if n < 1 or d < 1:
        raise DatasetFormatError(f"{path}: empty dataset (n={n}, d={d})")
    found = os.fstat(fh.fileno()).st_size - _BINARY_HEADER
    if found != n * d * 8:
        raise DatasetFormatError(f"{path}: expected {n * d * 8} payload bytes, found {found}")
    return n, d


def _read_into(fd: int, at: int, out: np.ndarray, name: str, start: int) -> np.ndarray:
    """Fill `out`, rows start.. of `name`, with the little-endian float64s
    stored from byte `at` of the file open as fd, by positional reads: no
    read moves a shared file position, so reads of one file (a spill) may
    nest, on any threads."""
    view = memoryview(out).cast("B")
    done = 0
    while done < len(view):
        count = os.preadv(fd, [view[done:]], at + done)
        if not count:
            raise DatasetFormatError(
                f"{name}: payload ends inside rows {start}..{start + len(out) - 1}")
        done += count
    return out


def _finite(chunk: np.ndarray, path: str, unit: str, labels) -> np.ndarray:
    """The chunk, once every entry is checked finite; else DatasetFormatError
    naming the line or row (labels[i] for row i) of the first bad entry.

    A chunk whose sum is finite is accepted from that one reduction: a NaN
    or an infinity among the entries makes any sum of them NaN or infinite,
    whatever the order. Only a chunk whose sum is not finite, a bad entry or
    finite entries whose sum overflows, is checked entry by entry."""
    with np.errstate(over="ignore", invalid="ignore"):
        if math.isfinite(float(chunk.sum())):
            return chunk
    ok = np.isfinite(chunk).all(axis=1)
    if not ok.all():
        raise DatasetFormatError(f"{path}: {unit} {labels[int(np.argmin(ok))]}: "
                                 "non-finite entry")
    return chunk


def write_csv(path: str, data: np.ndarray, header: str | None = None) -> None:
    """One point per line, comma-separated; floats written with repr so they
    round-trip exactly."""
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(f"# {header}\n")
        for row in data:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def write_binary(path: str, data: np.ndarray) -> None:
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    n, d = data.shape
    with open(path, "wb") as fh:
        fh.write(BINARY_MAGIC)
        fh.write(struct.pack("<QQ", n, d))
        # the buffer itself, not a bytes copy of it
        fh.write(memoryview(np.ascontiguousarray(data, dtype="<f8")))


# ---------------------------------------------------------------------------
# weighted reservoir sampling
# ---------------------------------------------------------------------------

class DegenerateWeightsError(ValueError):
    """Every row a reservoir pass offered has weight zero."""


class RowStore:
    """The coordinates of the rows one or more banks hold, one row per cell,
    so a bank never copies them again.

    A row is written into a free cell as it enters a bank, and a row that
    leaves frees its cell, which the next row to enter reuses; cells below
    `top` have been written. Cells live in pages of min(CHUNK_ROWS,
    capacity) rows, allocated as `top` first reaches them, so the store
    holds about the rows its banks held at once, and never more than
    `capacity`: a bank of `slots` draws over n rows holds at most
    min(n, slots) rows, and frees before it writes.
    """

    def __init__(self, capacity: int, d: int):
        self.capacity, self.d = capacity, d
        self.top = 0
        self._page_rows = max(1, min(CHUNK_ROWS, capacity))
        self._pages: list[np.ndarray] = []
        self._free = np.zeros(0, dtype=np.int64)

    def put(self, chunk: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Write chunk[rows] into free cells, reused ones first; returns the
        cells."""
        reuse = min(len(rows), len(self._free))
        cells = np.arange(self.top - reuse, self.top + len(rows) - reuse)
        if reuse:
            cells[:reuse] = self._free[:reuse]
            self._free = self._free[reuse:]
        self.top += len(rows) - reuse
        if self.top > self.capacity:
            raise ValueError(f"a row store of {self.capacity} rows is full")
        while len(self._pages) * self._page_rows < self.top:
            self._pages.append(np.empty((self._page_rows, self.d)))
        for page, hit, at in self._by_page(cells):
            page[at] = chunk[rows[hit]]
        return cells

    def release(self, cells: np.ndarray) -> None:
        if len(cells):
            self._free = np.concatenate([self._free, cells])

    def take(self, cells: np.ndarray) -> np.ndarray:
        """The rows in `cells`, gathered into a new array."""
        out = np.empty((len(cells), self.d))
        for page, hit, at in self._by_page(cells):
            out[hit] = page[at]
        return out

    def _by_page(self, cells: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """(page, positions of cells in it, their rows in the page) for each
        page that holds one of `cells`."""
        if len(self._pages) == 1:
            yield self._pages[0], slice(None), cells
            return
        page_of, at = np.divmod(cells, self._page_rows)
        for p in np.unique(page_of):
            hit = page_of == p
            yield self._pages[p], hit, at[hit]


class CountBank:
    """A multiset of draws: increasing row ids `rows`, how many draws hit
    each (`counts`) and the cell of `store` that holds each row's
    coordinates (`cells`), written while the pass visits the row's chunk, so
    that the draws never re-access the source. This base class holds rows
    fixed before the pass, and `capture` writes each chunk's share of them.
    """

    def __init__(self, rows: np.ndarray, counts: np.ndarray, store: RowStore):
        self.rows, self.counts, self.store = rows, counts, store
        self.cells = np.zeros(len(rows), dtype=np.int64)

    def capture(self, start: int, chunk: np.ndarray) -> None:
        lo, hi = np.searchsorted(self.rows, (start, start + len(chunk)))
        self.cells[lo:hi] = self.store.put(chunk, self.rows[lo:hi] - start)

    def points_for(self, ids: np.ndarray) -> np.ndarray:
        return self.store.take(self.cells[np.searchsorted(self.rows, ids)])


class ReservoirBank(CountBank):
    """`slots` independent single draws, each proportional to a row weight.

    After chunks 1..c every slot holds a row drawn with probability
    w_i / W_cum, W_cum being the weight of those chunks. Chunk c keeps that
    true by replacing each slot independently with probability
    pi_c = W_c / W_cum with a fresh draw from the chunk. This is the
    exponential race of Efraimidis & Spirakis with the chunk as the unit: the
    chunk's smallest Exp(1)/w_i key beats the slot's standing key with
    exactly that probability. The replaced slots are chosen without looking
    at their contents, so only the multiset matters: each row keeps
    Binomial(count, 1 - pi_c) of its slots and one multinomial over the chunk
    fills the freed ones, in O(rows in the bank + chunk rows). A row that
    loses its last draw frees its store cell before the chunk's new rows are
    written, so the store needs min(n, slots) rows. A bank whose caller
    holds every row already is given no store (None) and keeps only rows and
    counts.

    A chunk's weights may come in units of 2**e (`offer`'s e): W_cum is a
    _Pow2Sum, so weights taken in each chunk's own units neither overflow
    nor underflow, and scaling them all by 2**k draws the same rows.
    """

    def __init__(self, slots: int, rng: np.random.Generator, store: RowStore | None):
        if slots < 1:
            raise ValueError("slots must be >= 1")
        super().__init__(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), store)
        self.slots = slots
        self.rng = rng
        self._w = _Pow2Sum()

    @property
    def total_weight(self) -> float:
        """The weight offered so far, W_cum (in units of 2**0), inf past the
        largest float."""
        try:
            return math.ldexp(float(self._w.m), self._w.e or 0)
        except OverflowError:
            return math.inf

    def offer(self, start: int, chunk: np.ndarray, weights: np.ndarray, e: int = 0) -> None:
        """Offer a chunk whose row weights are `weights` * 2**e."""
        # min >= 0 fails for a negative or NaN weight, a finite max for +inf
        if not (weights.min(initial=0.0) >= 0.0 and math.isfinite(weights.max(initial=0.0))):
            raise ValueError("weights must be nonnegative and finite")
        total = float(weights.sum())
        if total <= 0.0:
            return
        share = float(self._w.add(e, total))
        w_cum = float(self._w.m)
        if not math.isfinite(w_cum):
            raise ValueError("weights overflow: their running sum is not finite")
        # 1 - pi_c is exactly 0 when this chunk carries all the weight so
        # far; an empty bank (before the first chunk of weight) draws nothing
        kept = (self.rng.binomial(self.counts, 1.0 - share / w_cum)
                if len(self.counts) else self.counts)
        # rows of zero weight stay out, so the multinomial's remainder
        # category is a row that can be drawn
        support = np.flatnonzero(weights > 0.0)
        fill = self.rng.multinomial(self.slots - int(kept.sum()),
                                    weights[support] / total)
        stay = kept > 0
        new = support[fill > 0]
        self.rows = np.concatenate([self.rows[stay], start + new])
        self.counts = np.concatenate([kept[stay], fill[fill > 0]])
        if self.store is not None:
            self.store.release(self.cells[~stay])
            self.cells = np.concatenate([self.cells[stay], self.store.put(chunk, new)])

    def finish(self) -> None:
        """End of the pass: lay the counts out as `ids`, the slots' row ids
        in random order."""
        self.ids = np.repeat(self.rows, self.counts)
        self.rng.shuffle(self.ids)


def weighted_reservoir_sample(source: DatasetSource, weight_fn, slots: int,
                              rng: np.random.Generator, *,
                              label: str = "reservoir") -> ReservoirBank:
    """`slots` independent draws with probability proportional to weight_fn,
    in exactly one sequential pass regardless of slots, the drawn rows kept
    in a store of min(n, slots) rows.

    weight_fn maps a (rows, d) chunk to a (rows,) vector of nonnegative
    weights. It runs in the pass's visitor, on the calling thread, since an
    arbitrary callable need not be thread-safe; only the reads run ahead.
    Raises DegenerateWeightsError when every row has weight zero.
    """
    bank = ReservoirBank(slots, rng, RowStore(min(source.n, slots), source.d))

    def visit(start: int, chunk: np.ndarray) -> None:
        w = np.asarray(weight_fn(chunk), dtype=np.float64)
        if w.shape != (len(chunk),):
            raise ValueError(f"weight_fn returned shape {w.shape} for a chunk of "
                             f"{len(chunk)} rows; expected ({len(chunk)},)")
        bank.offer(start, chunk, w)

    source.stream_pass_chunks(label, visit)
    if not len(bank.rows):
        raise DegenerateWeightsError("degenerate weights: every row has weight zero")
    bank.finish()
    return bank


def _uniform_counts(rng: np.random.Generator, n: int, draws: int,
                    ) -> tuple[np.ndarray, np.ndarray]:
    """`draws` uniform draws over rows 0..n-1 as (increasing rows, positive
    counts), with the law of multinomial(draws, [1/n] * n), in
    O(min(n, draws)) memory: one multinomial over the rows when n is at most
    the draws, else the tally of `draws` uniform row ids.
    """
    if n <= draws:
        counts = rng.multinomial(draws, np.full(n, 1.0 / n))
        rows = np.flatnonzero(counts)
        return rows, counts[rows]
    return np.unique(rng.integers(0, n, size=draws), return_counts=True)


def proposal_prefetch_pass(source: DatasetSource, pivot_basis: OrthonormalBasis,
                           p: float, slots: int, seed: int, *,
                           label: str = "mcmc-prefetch",
                           ) -> tuple[float, ReservoirBank | None, CountBank, np.ndarray]:
    """The single Metropolis pass: accumulate err_p against the pivot span and
    fill two banks of `slots` draws, one weighted by residual^p, one uniform.

    The proposal mixture q(x) = (1/2) residual^p / err + 1/(2n) cannot be
    sampled directly mid-pass because its normalizer err is only known at the
    end, so the caller mixes the banks afterwards. The uniform counts are
    drawn before the pass by _uniform_counts, and the pass only writes their
    rows. Both banks keep their rows in one RowStore of 2 min(n, slots) rows,
    each row written once, as its chunk is visited, and the pass keeps the
    pivot residual of the row in each cell: the distance whose p-th power
    the residual bank was offered. The residuals are the pass's prepare
    stage: the file checks run on the calling thread before the first read,
    chunk 0 is read on the calling thread and its residuals computed there,
    and each later chunk's run ahead on the one worker of a one-worker pool;
    the offers and captures stay on the calling thread, in chunk order. Returns (err_p_pivot,
    residual bank or None when the pivot span fits everything, uniform bank,
    the pivot residual of each written cell 0..store.top-1).
    """
    store = RowStore(2 * min(source.n, slots), source.d)
    bank_w = ReservoirBank(slots, derive_rng(seed, "bank-residual", label), store)
    rows, counts = _uniform_counts(derive_rng(seed, "bank-uniform", label), source.n, slots)
    bank_u = CountBank(rows, counts, store)
    d_piv = np.empty(store.capacity)

    residuals: deque[tuple[np.ndarray, np.ndarray]] = deque()

    def prepare(start: int, chunk: np.ndarray) -> None:
        dist = residual_distances(chunk, pivot_basis)
        residuals.append((dist, dist ** p))

    def visit(start: int, chunk: np.ndarray) -> None:
        dist, weights = residuals.popleft()
        bank_w.offer(start, chunk, weights)
        bank_u.capture(start, chunk)
        # each bank's rows from this chunk, the residual bank's just written
        for bank in (bank_w, bank_u):
            lo, hi = np.searchsorted(bank.rows, (start, start + len(chunk)))
            d_piv[bank.cells[lo:hi]] = dist[bank.rows[lo:hi] - start]

    source.stream_pass_chunks(label, visit, prepare=prepare)
    err = bank_w.total_weight
    return err, (bank_w if err > 0.0 else None), bank_u, d_piv[:store.top]


def length_squared_pass(source: DatasetSource, slots: int, rng: np.random.Generator, *,
                        label: str,
                        ) -> tuple[tuple[int, np.ndarray], ReservoirBank, PointSet | None]:
    """The exact-volume pivot's one pass: the Gram of every row, a bank of
    `slots` independent draws with probability ||x||^2 / ||X||_F^2, and the
    rows themselves whenever they fit in the bank's store.

    Each chunk's products are taken at its own power of two 2**e by
    `linalg._block_gram`, the Gram kernel's own step: its rows' squared
    norms go to the bank in units of 4**e, so no weight overflows or
    underflows, and a streamed pass adds the chunk's Gram to a _Pow2Sum at
    4**e. A chunk inside the kernel's unscaled window is not rescaled (the
    products are, with the same bits); one outside it is rescaled in the
    pass's one scratch block. That step and the sum are the pass's prepare
    stage, run in chunk order: the file checks run on the calling thread
    before the first read, chunk 0 is read on the calling thread and
    prepared there, and each later chunk ahead on the one worker of a
    one-worker pool; the offers, the copies into the kept rows and every
    draw stay on the calling thread.
    Chunks are the Gram kernel's blocks, so the sum has the bits of
    PointSet._full_gram, which a memory source reads instead. Returns
    ((e, g), bank, points), the Gram being g * 4**e and the bank's `ids` in
    random order (none when every row is zero). `points` holds every row: a
    memory source's own, or, when n <= slots, the n rows a streamed pass
    keeps in place of a store of min(n, slots) drawn rows; the bank then
    stores none. Only a streamed pass over more than `slots` rows stores the
    drawn rows, at most `slots` of them, in the bank's RowStore, and returns
    points None. It also holds the d x d Gram, two chunks (the one visited
    and the one read ahead) and the pass's scratch block.
    """
    points = source._points
    keep = np.empty((source.n, source.d)) if points is None and source.n <= slots else None
    store = RowStore(slots, source.d) if points is None and keep is None else None
    bank = ReservoirBank(slots, rng, store)
    acc = _Pow2Sum((source.d, source.d)) if source.mode == "streaming" else None
    buf = np.empty((min(source.n, CHUNK_ROWS), source.d))
    norms: deque[tuple[int, np.ndarray]] = deque()

    def prepare(start: int, chunk: np.ndarray) -> None:
        e, g, sq = _block_gram(chunk, buf[:len(chunk)], gram=acc is not None, norms=True)
        if acc is not None:
            acc.add(2 * e, g)
        norms.append((2 * e, sq))

    def visit(start: int, chunk: np.ndarray) -> None:
        if keep is not None:
            keep[start:start + len(chunk)] = chunk
        e2, sq = norms.popleft()
        bank.offer(start, chunk, sq, e2)

    source.stream_pass_chunks(label, visit, prepare=prepare)
    bank.finish()
    if keep is not None:
        # the reader checked every chunk's shape and finiteness
        points = PointSet._adopt(keep)
    return (points._full_gram() if acc is None else ((acc.e or 0) // 2, acc.m)), bank, points


# ---------------------------------------------------------------------------
# synthetic instances
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SyntheticGroundTruth:
    planted_basis: OrthonormalBasis
    inlier_ids: tuple[int, ...]
    outlier_ids: tuple[int, ...]


def _check_beta_lambda(beta: float, lam: float = 1.0) -> None:
    """The outlier fraction beta lies in [0, 1), the inlier error share lam in (0, 1]."""
    if not 0.0 <= beta < 1.0:
        raise ValueError("beta must lie in [0, 1)")
    if not 0.0 < lam <= 1.0:
        raise ValueError("lambda must lie in (0, 1]")


def inlier_count(n: int, beta: float) -> int:
    """ceil((1 - beta) n), never discarding more than beta*n points."""
    return max(1, math.ceil((1.0 - beta) * n - 1e-9))


def generate_synthetic(n: int, d: int, rank: int, noise_sigma: float,
                       outlier_frac: float = 0.0, outlier_scale: float = 1.0,
                       seed: int = 0) -> tuple[PointSet, SyntheticGroundTruth]:
    """Planted low-rank instance with optional off-subspace outliers.

    Inliers are random combinations of `rank` orthonormal directions plus
    isotropic Gaussian noise scaled so noise_sigma is the expected per-point
    noise norm (err_2 against the planted span concentrates near
    n_inliers * noise_sigma^2 * (d - rank) / d). Outliers are Gaussian
    offsets of expected norm ~outlier_scale projected off the planted span,
    so they carry no in-span signal. Row order is shuffled; ground truth
    returns the planted span and inlier/outlier row indices.
    """
    if not 1 <= rank <= d:
        raise ValueError("rank must satisfy 1 <= rank <= d")
    if not 0.0 <= outlier_frac < 1.0:
        raise ValueError("outlier fraction must be in [0, 1)")
    if not (math.isfinite(noise_sigma) and noise_sigma >= 0.0):
        raise ValueError("noise_sigma must be finite and >= 0")
    rng = derive_rng(seed, "synthetic")
    raw = rng.standard_normal((rank, d))
    q, _ = np.linalg.qr(raw.T)
    planted = q[:, :rank].T

    n_in = inlier_count(n, outlier_frac)
    n_out = n - n_in
    coeffs = rng.standard_normal((n_in, rank))
    inliers = coeffs @ planted
    if noise_sigma > 0:
        inliers = inliers + noise_sigma * rng.standard_normal((n_in, d)) / math.sqrt(d)
    if n_out > 0:
        g = rng.standard_normal((n_out, d))
        g -= (g @ planted.T) @ planted
        outliers = outlier_scale * g / math.sqrt(d)
        stacked = np.vstack([inliers, outliers])
    else:
        stacked = inliers
    order = rng.permutation(n)
    data = stacked[order]
    # row i holds stacked[order[i]]; the first n_in stacked rows are inliers
    inlier_ids = tuple(int(i) for i in np.flatnonzero(order < n_in))
    outlier_ids = tuple(int(i) for i in np.flatnonzero(order >= n_in))
    truth = SyntheticGroundTruth(
        planted_basis=OrthonormalBasis(d, planted, ()),
        inlier_ids=inlier_ids,
        outlier_ids=outlier_ids,
    )
    return PointSet(data), truth
