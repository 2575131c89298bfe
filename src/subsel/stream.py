"""Dataset sources with enforced sequential access and pass accounting.

A pass is exactly one full sequential visit of rows 0..n-1. Streaming-mode
sources re-read their file on every pass and forbid random row access;
in-memory sources present the same rows in the same fixed-size chunks, so a
seeded algorithm consumes its random stream identically in both modes and
produces bit-identical results.

Also provides weighted reservoir sampling (many independent single draws in
one pass), the proposal prefetch pass used by the Metropolis selection, the
CSV and binary file formats, and synthetic instance generation.
"""

from __future__ import annotations

import math
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
        elif self._fmt == "csv":
            yield from _iter_csv_chunks(self.path, self.d)
        else:
            yield from _iter_binary_chunks(self.path, self.n, self.d)

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
        self.stream_pass_chunks(label, lambda s, c: rows.append(c.copy()),
                                reporting=reporting)
        return PointSet(np.vstack(rows))

    def in_memory_points(self) -> PointSet | None:
        """The already-resident rows (memory mode only); never counts a pass."""
        return self._points if self.mode == "memory" else None


def open_source(path_or_points, mode: str = "memory") -> DatasetSource:
    """Open a dataset for pass-counted sequential access.

    Accepts a PointSet (in-memory only) or a file path. The file is fully
    validated up front (row widths, finite entries); the pass counter starts
    at zero afterwards.
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
    if fmt == "csv":
        n, d = _validate_csv(path)
    else:
        n, d = _validate_binary(path)
    points = None
    if mode == "memory":
        rows = []
        chunks = _iter_csv_chunks(path, d) if fmt == "csv" else _iter_binary_chunks(path, n, d)
        for _, chunk in chunks:
            rows.append(chunk.copy())
        points = PointSet(np.vstack(rows))
    return DatasetSource(points=points, path=path, fmt=fmt, n=n, d=d, mode=mode)


def as_source(source_or_points, mode: str = "memory") -> DatasetSource:
    """Pass DatasetSource through, wrap a PointSet or path in a fresh source."""
    if isinstance(source_or_points, DatasetSource):
        return source_or_points
    return open_source(source_or_points, mode=mode)


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


def _parse_csv_line(line: str, lineno: int, path: str) -> list[float] | None:
    text = line.strip()
    if not text or text.startswith("#"):
        return None
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise DatasetFormatError(f"{path}: line {lineno}: {exc}") from None


def _validate_csv(path: str) -> tuple[int, int]:
    n = 0
    d = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            values = _parse_csv_line(line, lineno, path)
            if values is None:
                continue
            if d is None:
                d = len(values)
            elif len(values) != d:
                raise DatasetFormatError(
                    f"{path}: line {lineno}: expected {d} columns, found {len(values)}")
            if not all(math.isfinite(v) for v in values):
                raise DatasetFormatError(f"{path}: line {lineno}: non-finite entry")
            n += 1
    if n == 0 or d is None:
        raise DatasetFormatError(f"{path}: no data rows")
    return n, d


def _iter_csv_chunks(path: str, d: int) -> Iterator[tuple[int, np.ndarray]]:
    buf: list[list[float]] = []
    start = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            values = _parse_csv_line(line, lineno, path)
            if values is None:
                continue
            buf.append(values)
            if len(buf) == CHUNK_ROWS:
                yield start, np.array(buf, dtype=np.float64)
                start += len(buf)
                buf = []
    if buf:
        yield start, np.array(buf, dtype=np.float64)


def _validate_binary(path: str) -> tuple[int, int]:
    with open(path, "rb") as fh:
        header = fh.read(len(BINARY_MAGIC) + 16)
        if len(header) < len(BINARY_MAGIC) + 16:
            raise DatasetFormatError(f"{path}: truncated header")
        if header[:len(BINARY_MAGIC)] != BINARY_MAGIC:
            raise DatasetFormatError(f"{path}: bad magic bytes {header[:6]!r}")
        n, d = struct.unpack("<QQ", header[len(BINARY_MAGIC):])
        if n < 1 or d < 1:
            raise DatasetFormatError(f"{path}: empty dataset (n={n}, d={d})")
        expected = n * d * 8
        body = fh.read()
        if len(body) != expected:
            raise DatasetFormatError(
                f"{path}: expected {expected} payload bytes, found {len(body)}")
        values = np.frombuffer(body, dtype="<f8")
        if not np.all(np.isfinite(values)):
            raise DatasetFormatError(f"{path}: non-finite entry")
    return int(n), int(d)


def _iter_binary_chunks(path: str, n: int, d: int) -> Iterator[tuple[int, np.ndarray]]:
    with open(path, "rb") as fh:
        fh.seek(len(BINARY_MAGIC) + 16)
        start = 0
        while start < n:
            count = min(CHUNK_ROWS, n - start)
            raw = fh.read(count * d * 8)
            chunk = np.frombuffer(raw, dtype="<f8").reshape(count, d)
            yield start, chunk
            start += count


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

class ReservoirBank:
    """`slots` independent single draws, each proportional to a row weight.

    Each slot runs an exponential race: over a chunk with weights w and total
    W, the minimum of Exp(1)/w_i is distributed Exp(W) and lands on row i
    with probability w_i / W, so one exponential plus one uniform per slot
    and chunk reproduces the per-row exponential-jump keys exactly. Winner
    coordinates are captured at win time (keyed by row id), so draws never
    need to re-access the source. ids/keys expose the slots as arrays and
    points_for(ids) returns the captured coordinates.
    """

    def __init__(self, slots: int, rng: np.random.Generator):
        if slots < 1:
            raise ValueError("slots must be >= 1")
        self.rng = rng
        self.keys = np.full(slots, np.inf)
        self.ids = np.full(slots, -1, dtype=np.int64)
        self.total_weight = 0.0
        self._coords: dict[int, np.ndarray] = {}

    def offer(self, start: int, chunk: np.ndarray, weights: np.ndarray) -> None:
        if np.any(weights < 0) or not np.all(np.isfinite(weights)):
            raise ValueError("weights must be nonnegative and finite")
        total = float(weights.sum())
        # fixed consumption per chunk keeps streaming/in-memory runs identical
        keys = self.rng.exponential(size=self.keys.shape[0])
        picks = self.rng.random(size=self.keys.shape[0])
        self.total_weight += total
        if total <= 0.0:
            return
        keys /= total
        upd = keys < self.keys
        if not np.any(upd):
            return
        cum = np.cumsum(weights)
        rows = np.searchsorted(cum, picks[upd] * total, side="right")
        rows = np.minimum(rows, len(weights) - 1)
        self.keys[upd] = keys[upd]
        self.ids[upd] = start + rows
        for row in np.unique(rows):
            i = start + int(row)
            if i not in self._coords:
                self._coords[i] = chunk[row].copy()

    def require_nondegenerate(self) -> None:
        if self.total_weight <= 0.0:
            raise ValueError("degenerate weights: every row has weight zero")

    def points_for(self, ids: np.ndarray) -> np.ndarray:
        return np.array([self._coords[int(i)] for i in ids])

    def coord_map(self) -> dict[int, np.ndarray]:
        return self._coords


def weighted_reservoir_sample(source: DatasetSource, weight_fn, slots: int,
                              seed: int, *, label: str = "reservoir",
                              rng: np.random.Generator | None = None) -> ReservoirBank:
    """`slots` independent draws with probability proportional to weight_fn,
    in exactly one sequential pass regardless of slots.

    weight_fn maps a (rows, d) chunk to a (rows,) vector of nonnegative
    weights. Raises ValueError when every row has weight zero.
    """
    bank = ReservoirBank(slots, rng or derive_rng(seed, "reservoir", label))

    def visit(start: int, chunk: np.ndarray) -> None:
        w = np.asarray(weight_fn(chunk), dtype=np.float64)
        if w.shape != (len(chunk),):
            raise ValueError(f"weight_fn returned shape {w.shape} for a chunk of "
                             f"{len(chunk)} rows; expected ({len(chunk)},)")
        bank.offer(start, chunk, w)

    source.stream_pass_chunks(label, visit)
    bank.require_nondegenerate()
    return bank


def proposal_prefetch_pass(source: DatasetSource, pivot_basis: OrthonormalBasis,
                           p: float, slots: int, seed: int, *,
                           label: str = "mcmc-prefetch",
                           ) -> tuple[float, ReservoirBank | None, ReservoirBank]:
    """The single Metropolis pass: accumulate err_p against the pivot span and
    fill two reservoir banks, one weighted by residual^p and one uniform.

    The proposal mixture q(x) = (1/2) residual^p / err + 1/(2n) cannot be
    sampled directly mid-pass because its normalizer err is only known at the
    end; assigning each slot to one of the banks with a fair coin afterwards
    gives exactly i.i.d. draws from q. Returns (err_p_pivot, residual bank or
    None when the pivot span fits everything, uniform bank).
    """
    bank_w = ReservoirBank(slots, derive_rng(seed, "bank-residual", label))
    bank_u = ReservoirBank(slots, derive_rng(seed, "bank-uniform", label))
    err_acc = 0.0

    def visit(start: int, chunk: np.ndarray) -> None:
        nonlocal err_acc
        w = residual_distances(chunk, pivot_basis) ** p
        err_acc += float(w.sum())
        bank_w.offer(start, chunk, w)
        bank_u.offer(start, chunk, np.ones(len(chunk)))

    source.stream_pass_chunks(label, visit)
    weighted = bank_w if err_acc > 0.0 else None
    bank_u.require_nondegenerate()
    return err_acc, weighted, bank_u


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
