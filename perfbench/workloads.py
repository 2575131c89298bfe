"""Workload definitions, seeded input generation and the paper's closed forms.

Inputs are made here from the workload seed with the benchmark's own
generator, so the program under test receives only files (or an in-memory
array) and the benchmark keeps an exact copy for its checks.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
import numpy as np

# expected norm of the isotropic noise added to every row
NOISE = 1.0


@dataclass(frozen=True)
class Workload:
    """One input and one selection call, repeated as jobs.

    fmt is "binary" or "csv" for a file input, None for an in-memory array.
    beta > 0 selects the robust pipeline. chain_steps None keeps the derived
    m; expected_m then pins the value the closed forms must give. setup_reps
    and eval_reps repeat calls too short to time once.
    """

    name: str
    n: int
    d: int
    fmt: str | None
    mode: str
    rank: int = 5
    k: int = 5
    epsilon: float = 0.5
    chain_steps: int | None = 64
    expected_m: int | None = None
    outlier_frac: float = 0.0
    outlier_scale: float = 1.0
    beta: float = 0.0
    lam: float = 1.0
    setup_reps: int = 1
    eval_reps: int = 1

    @property
    def robust(self) -> bool:
        return self.beta > 0.0


# d = 200 exceeds the k + t*l = 165 selected rows, so the span is a proper
# subspace and the ratio measures the sampler rather than saturating at 1.
WORKLOADS = {
    w.name: w for w in (
        Workload("tall-binary-stream", n=50_000, d=200, fmt="binary",
                 mode="streaming", setup_reps=3),
        Workload("csv-robust-stream", n=10_000, d=200, fmt="csv", mode="streaming",
                 outlier_frac=0.05, outlier_scale=3.0, beta=0.05, lam=0.5, setup_reps=3),
        Workload("theory-m", n=2_000, d=200, fmt=None, mode="memory",
                 chain_steps=None, expected_m=140_218, setup_reps=100, eval_reps=20),
    )
}


@dataclass(frozen=True)
class ClosedForm:
    t: int
    l: int
    m: int


def _ceil(x: float) -> int:
    # slack so exact integers never round up from float noise
    return max(1, math.ceil(x - 1e-9))


def closed_form(k: int, epsilon: float, a: float) -> ClosedForm:
    """t = ceil(8k/eps), l = ceil(ln(2a(k+1)/eps) / ln(8/eps)) and the larger
    of the paper's two chain lengths m, for pivot quality a."""
    t = _ceil(8.0 * k / epsilon)
    l = _ceil(math.log(2.0 * a * (k + 1) / epsilon) / math.log(8.0 / epsilon))
    e1 = epsilon / (8.0 * a * (k + 1))
    e2 = epsilon / (8.0 * t * l * a * (k + 1))
    m = _ceil(1.0 + max((2.0 / e1) * math.log(1.0 / e2), (2.0 / e2) * math.log(1.0 / e1)))
    return ClosedForm(t, l, m)


@dataclass
class Input:
    data: np.ndarray
    planted: np.ndarray
    inlier_ids: np.ndarray


def make_input(w: Workload, seed: int) -> Input:
    """Planted rank-`rank` rows plus isotropic noise of expected norm NOISE;
    on robust workloads a share of rows is replaced by outliers of expected
    norm `outlier_scale`, drawn off the planted span. The same seed gives the
    same array."""
    rng = np.random.default_rng([seed, zlib.crc32(w.name.encode())])
    planted = np.linalg.qr(rng.standard_normal((w.d, w.rank)))[0].T
    data = rng.standard_normal((w.n, w.rank)) @ planted
    data += (NOISE / math.sqrt(w.d)) * rng.standard_normal((w.n, w.d))
    n_out = round(w.outlier_frac * w.n)
    out_ids = np.sort(rng.choice(w.n, size=n_out, replace=False))
    if n_out:
        g = rng.standard_normal((n_out, w.d))
        g -= (g @ planted.T) @ planted
        data[out_ids] = (w.outlier_scale / math.sqrt(w.d)) * g
    inlier_ids = np.setdiff1d(np.arange(w.n), out_ids)
    return Input(data=data, planted=planted, inlier_ids=inlier_ids)
