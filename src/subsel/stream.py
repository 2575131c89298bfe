"""Dataset sources with enforced sequential access and pass accounting.

A pass is exactly one full sequential visit of rows 0..n-1, and passes are
the only way to read rows in either mode. Streaming-mode sources re-read
their file on every pass; in-memory sources present the same rows in the
same fixed-size chunks, so a seeded algorithm consumes its random stream
identically in both modes and produces bit-identical results. Each file
format has one reader, which checks the file as it reads it: opening a file
is one pass of it, and every later pass runs it again against the n and d
learned at open.

Also provides weighted reservoir sampling (many independent single draws in
one pass, kept as per-row counts: a chunk thins each row's count by a
binomial and refills the freed draws with one multinomial, at a cost that
does not grow with the number of draws), the proposal prefetch pass used by
the Metropolis selection, the CSV and binary file formats, and synthetic
instance generation.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .linalg import OrthonormalBasis, PointSet, residual_distances
from .rng import derive_rng

# Fixed chunk size: part of the sampling contract, not a tuning knob. Both
# source modes must consume randomness identically.
CHUNK_ROWS = 1024

BINARY_MAGIC = b"SSEL1\x00"


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
                 fmt: str | None, n: int, d: int, mode: str):
        self._points = points
        self.path = path
        self._fmt = fmt
        self.n = n
        self.d = d
        self.mode = mode
        self.pass_log = PassLog()

    # -- sequential access ---------------------------------------------------

    def _chunks(self) -> Iterator[tuple[int, np.ndarray]]:
        if self.mode == "memory":
            data = self._points.data
            for start in range(0, self.n, CHUNK_ROWS):
                yield start, data[start:start + CHUNK_ROWS]
        else:
            yield from _read_chunks(self.path, self._fmt, (self.n, self.d))

    def stream_pass_chunks(self, label: str,
                           visitor: Callable[[int, np.ndarray], None], *,
                           reporting: bool = False) -> PassEntry:
        """Visit every row once, in index order, as (start, chunk) blocks."""
        entry = PassEntry(label, 0, self.n, reporting)
        self.pass_log.entries.append(entry)
        for start, chunk in self._chunks():
            visitor(start, chunk)
            entry.rows_visited += len(chunk)
        return entry

    def collect(self, label: str, *, reporting: bool = False) -> PointSet:
        """Materialize all rows with one sequential pass."""
        if self.mode == "memory":
            entry = PassEntry(label, self.n, self.n, reporting)
            self.pass_log.entries.append(entry)
            return self._points
        rows: list[np.ndarray] = []
        self.stream_pass_chunks(label, lambda s, c: rows.append(c),
                                reporting=reporting)
        data = np.vstack(rows)
        rows.clear()  # PointSet copies `data`; the chunks go first
        return PointSet(data)


def open_source(path_or_points, mode: str = "memory") -> DatasetSource:
    """Open a dataset for pass-counted sequential access.

    Accepts a PointSet (in-memory only) or a file path. Opening a file is one
    pass of its format's reader, which learns n and d; memory mode keeps the
    chunks read, streaming mode drops them. A later pass raises
    DatasetFormatError if the file no longer holds n rows of d finite
    entries. The pass counter starts at zero after opening.
    """
    if mode not in ("memory", "streaming"):
        raise ValueError(f"unknown mode {mode!r}")
    if isinstance(path_or_points, PointSet):
        if mode != "memory":
            raise ValueError("streaming mode requires a file path")
        pts = path_or_points
        return DatasetSource(points=pts, path=None, fmt=None,
                             n=pts.n, d=pts.d, mode="memory")
    path = str(path_or_points)
    fmt = _sniff_format(path)
    kept = []
    for start, chunk in _read_chunks(path, fmt):
        if mode == "memory":
            kept.append(chunk)
    data = np.vstack(kept) if kept else None
    kept.clear()  # PointSet copies `data`; the chunks go first
    return DatasetSource(points=None if data is None else PointSet(data), path=path,
                         fmt=fmt, n=start + len(chunk), d=chunk.shape[1], mode=mode)


def as_source(source_or_points) -> DatasetSource:
    """Pass DatasetSource through, wrap a PointSet or path in a memory source."""
    if isinstance(source_or_points, DatasetSource):
        return source_or_points
    return open_source(source_or_points)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def _sniff_format(path: str) -> str:
    with open(path, "rb") as fh:
        head = fh.read(len(BINARY_MAGIC))
    if head == BINARY_MAGIC:
        return "binary"
    if head[:4] == b"SSEL":
        # SSEL-prefixed but not the exact magic: corrupt or wrong-version binary
        raise DatasetFormatError(f"{path}: bad magic bytes {head!r}")
    return "csv"


def _read_chunks(path: str, fmt: str, shape: tuple[int, int] | None = None,
                 ) -> Iterator[tuple[int, np.ndarray]]:
    """The one reader of a file: (start, chunk) blocks of CHUNK_ROWS rows in
    index order, each checked as it is read. Given the (n, d) learned at
    open, it also checks that the file still holds n rows of d entries, and
    raises before any row past the n-th reaches the caller."""
    rows = _csv_rows if fmt == "csv" else _binary_rows
    start = 0
    for chunk in rows(path, shape):
        if shape is not None and start + len(chunk) > shape[0]:
            raise DatasetFormatError(
                f"{path}: more than the {shape[0]} rows it held when opened")
        yield start, chunk
        start += len(chunk)
    if start == 0 or (shape is not None and start != shape[0]):
        raise DatasetFormatError(f"{path}: {start} data rows" + (
            "" if shape is None else f", but {shape[0]} when opened"))


def _csv_rows(path: str, shape: tuple[int, int] | None) -> Iterator[np.ndarray]:
    d = None if shape is None else shape[1]
    buf: list[list[float]] = []
    lines: list[int] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            try:
                values = [float(tok) for tok in text.split(",")]
            except ValueError as exc:
                raise DatasetFormatError(f"{path}: line {lineno}: {exc}") from None
            if d is None:
                d = len(values)
            elif len(values) != d:
                raise DatasetFormatError(
                    f"{path}: line {lineno}: expected {d} columns, found {len(values)}")
            buf.append(values)
            lines.append(lineno)
            if len(buf) == CHUNK_ROWS:
                yield _finite(np.array(buf, dtype=np.float64), path, "line", lines)
                buf, lines = [], []
    if buf:
        yield _finite(np.array(buf, dtype=np.float64), path, "line", lines)


def _binary_rows(path: str, shape: tuple[int, int] | None) -> Iterator[np.ndarray]:
    with open(path, "rb") as fh:
        header = fh.read(len(BINARY_MAGIC) + 16)
        if len(header) < len(BINARY_MAGIC) + 16:
            raise DatasetFormatError(f"{path}: truncated header")
        if header[:len(BINARY_MAGIC)] != BINARY_MAGIC:
            raise DatasetFormatError(f"{path}: bad magic bytes {header[:6]!r}")
        n, d = struct.unpack("<QQ", header[len(BINARY_MAGIC):])
        if n < 1 or d < 1:
            raise DatasetFormatError(f"{path}: empty dataset (n={n}, d={d})")
        if shape is not None and (n, d) != shape:
            raise DatasetFormatError(
                f"{path}: header says {n} x {d}, but {shape[0]} x {shape[1]} when opened")
        found = os.fstat(fh.fileno()).st_size - len(header)
        if found != n * d * 8:
            raise DatasetFormatError(
                f"{path}: expected {n * d * 8} payload bytes, found {found}")
        for start in range(0, n, CHUNK_ROWS):
            count = min(CHUNK_ROWS, n - start)
            raw = fh.read(count * d * 8)
            if len(raw) != count * d * 8:
                raise DatasetFormatError(
                    f"{path}: payload ends inside rows {start}..{start + count - 1}")
            chunk = np.frombuffer(raw, dtype="<f8").reshape(count, d)
            yield _finite(chunk, path, "row", range(start, start + count))


def _finite(chunk: np.ndarray, path: str, unit: str, labels) -> np.ndarray:
    ok = np.isfinite(chunk).all(axis=1)
    if not ok.all():  # name the line or row of the first bad entry
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
        fh.write(np.ascontiguousarray(data, dtype="<f8").tobytes())


# ---------------------------------------------------------------------------
# weighted reservoir sampling
# ---------------------------------------------------------------------------

class DegenerateWeightsError(ValueError):
    """Every row a reservoir pass offered has weight zero."""


class CountBank:
    """A multiset of draws: increasing row ids `rows`, how many draws hit
    each (`counts`) and their coordinates (`coords`), captured while the pass
    visits each chunk so that the draws never re-access the source."""

    def __init__(self, rows: np.ndarray, counts: np.ndarray):
        self.rows, self.counts = rows, counts
        self._kept: list[tuple[np.ndarray, np.ndarray]] = []

    def capture(self, start: int, chunk: np.ndarray, rows: np.ndarray) -> None:
        """Keep the coordinates of `rows`, increasing ids inside this chunk.
        Those of rows that left the bank go once they outnumber its rows."""
        self._kept.append((rows, chunk[rows - start]))
        if sum(len(r) for r, _ in self._kept) > 2 * len(self.rows):
            self._compact()

    def _compact(self) -> None:
        at = np.searchsorted(np.concatenate([r for r, _ in self._kept]), self.rows)
        self._kept = [(self.rows, np.concatenate([c for _, c in self._kept])[at])]

    @property
    def coords(self) -> np.ndarray:
        if len(self._kept) != 1 or self._kept[0][0] is not self.rows:
            self._compact()
        return self._kept[0][1]

    def points_for(self, ids: np.ndarray) -> np.ndarray:
        return self.coords[np.searchsorted(self.rows, ids)]


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
    fills the freed ones, in O(rows in the bank + chunk rows).
    """

    def __init__(self, slots: int, rng: np.random.Generator):
        if slots < 1:
            raise ValueError("slots must be >= 1")
        super().__init__(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
        self.slots = slots
        self.rng = rng
        self.total_weight = 0.0

    def offer(self, start: int, chunk: np.ndarray, weights: np.ndarray) -> None:
        if np.any(weights < 0) or not np.all(np.isfinite(weights)):
            raise ValueError("weights must be nonnegative and finite")
        total = float(weights.sum())
        self.total_weight += total
        if not math.isfinite(self.total_weight):
            raise ValueError("weights overflow: their running sum is not finite")
        if total <= 0.0:
            return
        # 1 - pi_c is exactly 0 when this chunk carries all the weight so far
        kept = self.rng.binomial(self.counts, 1.0 - total / self.total_weight)
        # rows of zero weight stay out, so the multinomial's remainder
        # category is a row that can be drawn
        support = np.flatnonzero(weights > 0.0)
        fill = self.rng.multinomial(self.slots - int(kept.sum()), weights[support] / total)
        new = start + support[fill > 0]
        self.rows = np.concatenate([self.rows[kept > 0], new])
        self.counts = np.concatenate([kept[kept > 0], fill[fill > 0]])
        self.capture(start, chunk, new)

    def finish(self) -> None:
        """End of the pass: reject all-zero weights, then lay the counts out
        as `ids`, the slots' row ids in random order."""
        if self.total_weight <= 0.0:
            raise DegenerateWeightsError("degenerate weights: every row has weight zero")
        self.ids = np.repeat(self.rows, self.counts)
        self.rng.shuffle(self.ids)


def weighted_reservoir_sample(source: DatasetSource, weight_fn, slots: int,
                              seed: int, *, label: str = "reservoir",
                              rng: np.random.Generator | None = None) -> ReservoirBank:
    """`slots` independent draws with probability proportional to weight_fn,
    in exactly one sequential pass regardless of slots.

    weight_fn maps a (rows, d) chunk to a (rows,) vector of nonnegative
    weights. Raises DegenerateWeightsError when every row has weight zero.
    """
    bank = ReservoirBank(slots, rng or derive_rng(seed, "reservoir", label))

    def visit(start: int, chunk: np.ndarray) -> None:
        w = np.asarray(weight_fn(chunk), dtype=np.float64)
        if w.shape != (len(chunk),):
            raise ValueError(f"weight_fn returned shape {w.shape} for a chunk of "
                             f"{len(chunk)} rows; expected ({len(chunk)},)")
        bank.offer(start, chunk, w)

    source.stream_pass_chunks(label, visit)
    bank.finish()
    return bank


def proposal_prefetch_pass(source: DatasetSource, pivot_basis: OrthonormalBasis,
                           p: float, slots: int, seed: int, *,
                           label: str = "mcmc-prefetch",
                           ) -> tuple[float, ReservoirBank | None, CountBank]:
    """The single Metropolis pass: accumulate err_p against the pivot span and
    fill two banks of `slots` draws, one weighted by residual^p, one uniform.

    The proposal mixture q(x) = (1/2) residual^p / err + 1/(2n) cannot be
    sampled directly mid-pass because its normalizer err is only known at the
    end, so the caller mixes the banks afterwards. The uniform counts are one
    multinomial drawn before the pass, which only captures their rows.
    Returns (err_p_pivot, residual bank or None when the pivot span fits
    everything, uniform bank).
    """
    bank_w = ReservoirBank(slots, derive_rng(seed, "bank-residual", label))
    counts = derive_rng(seed, "bank-uniform", label).multinomial(
        slots, np.full(source.n, 1.0 / source.n))
    rows = np.flatnonzero(counts)
    bank_u = CountBank(rows, counts[rows])

    def visit(start: int, chunk: np.ndarray) -> None:
        bank_w.offer(start, chunk, residual_distances(chunk, pivot_basis) ** p)
        lo, hi = np.searchsorted(rows, (start, start + len(chunk)))
        bank_u.capture(start, chunk, rows[lo:hi])

    source.stream_pass_chunks(label, visit)
    err = bank_w.total_weight
    return err, (bank_w if err > 0.0 else None), bank_u


# ---------------------------------------------------------------------------
# synthetic instances
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SyntheticGroundTruth:
    planted_basis: OrthonormalBasis
    inlier_ids: tuple[int, ...]
    outlier_ids: tuple[int, ...]


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
