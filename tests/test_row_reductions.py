"""The row reductions of :mod:`repro.graphs.arrays` against Python.

``segment_sum``, ``segment_any`` and ``segment_min`` reduce consecutive
rows given by their lengths; an empty row reads the fill value wherever
it falls, including when every row, or no row, is there.
"""

import numpy as np
import pytest

from repro.graphs.arrays import segment_any, segment_min, segment_sum

_FILL = 1 << 62  # the kernel's "nobody" sentinel for minima

_REDUCERS = {
    # name: (reduction, Python reference of one row, result dtype, fill)
    "sum": (segment_sum, lambda row: sum(map(int, row)), np.int64, 0),
    "any": (segment_any, lambda row: any(map(bool, row)), np.bool_, False),
    "min": (
        lambda values, counts: segment_min(values, counts, _FILL),
        lambda row: min(map(int, row), default=_FILL),
        np.int64,
        _FILL,
    ),
}


def _layout(name, rng):
    """Row lengths: random ones with empty rows first, in the middle
    and last; all rows empty; or no rows at all."""
    if name == "mixed":
        counts = rng.integers(0, 6, 50)
        counts[[0, 1, 20, 21, 22, -1]] = 0
        return counts
    return np.zeros(7 if name == "all_empty" else 0, dtype=np.int64)


def _values(dtype, size, rng):
    if dtype is bool:
        return rng.random(size) < 0.3
    return rng.integers(-(1 << 40), 1 << 40, size)


@pytest.mark.parametrize("layout", ["mixed", "all_empty", "no_rows"])
@pytest.mark.parametrize(
    "name,dtype",
    [("sum", bool), ("sum", np.int64), ("any", bool), ("min", np.int64)],
)
def test_row_reduction_matches_python(name, dtype, layout):
    reduce, reference, result_dtype, fill = _REDUCERS[name]
    rng = np.random.default_rng(7)
    for _ in range(20):
        counts = _layout(layout, rng)
        values = _values(dtype, int(counts.sum()), rng)
        got = reduce(values, counts)
        bounds = np.concatenate(([0], np.cumsum(counts))).tolist()
        want = [reference(values[a:b].tolist()) for a, b in zip(bounds, bounds[1:])]
        assert got.dtype == result_dtype
        assert got.shape == counts.shape
        assert got.tolist() == want
        assert (got[counts == 0] == fill).all()
