import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


@pytest.fixture
def volume_dpp():
    """The exact k-DPP draw on a PointSet: the ids _volume_pivot picks with
    generator rng, over a memory source."""
    from subsel.samplers import _volume_pivot
    from subsel.stream import as_source

    def draw(points, k, rng):
        return _volume_pivot(as_source(points), k, rng, label="volume-dpp")[0]
    return draw


@pytest.fixture
def rank_two_rows():
    """300 x 6 rows of rank 2: integers 1..4 in column 0, -3..2 in column 1,
    zeros elsewhere. Residuals off the span of two of them are rounding
    error, not always zero."""
    rng = np.random.default_rng(0)
    data = np.zeros((300, 6))
    data[:, 0] = rng.integers(1, 5, size=300)
    data[:, 1] = rng.integers(-3, 3, size=300)
    return data
