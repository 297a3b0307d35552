"""The rank-bitset ext-dominance kernel, against an oracle written here.

``repro.core.extended_skyline._ext_dominated(pool, targets)`` answers, for
each of a ``(d, m)`` pool's first ``targets`` rows, whether some pool row
is strictly smaller on every dimension.  ``quadratic_dominated`` below is
plain loops that share no code with ``repro.core`` (in particular not
``repro.core.dominance``).

Pools straddle the 64-bit word boundaries; values come from coarse grids
holding exact ties, ``-0.0`` beside ``0.0``, ``+inf`` and duplicate rows;
targets run from one to the whole pool.  Each case also runs with a
shrunk scratch budget, so the kernel slices its targets and takes its
dimensions one group at a time.  A ``tracemalloc`` test bounds what one
filter call holds.
"""

from __future__ import annotations

import importlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

ext = importlib.import_module("repro.core.extended_skyline")

#: Pool sizes at and beside one and two words.
WORD_EDGES = [63, 64, 65, 127, 128, 129]

#: The shipped budget; one that holds a target per slice and a
#: dimension per group; one that groups a few dimensions of small pools.
BUDGETS = [ext._SCRATCH_BYTES, 1, 1 << 13]


def quadratic_dominated(rows, targets):
    """For each of the first ``targets`` rows: is another row smaller everywhere?"""
    out = []
    for p in rows[:targets]:
        out.append(any(all(qc < pc for qc, pc in zip(q, p)) for q in rows))
    return out


@st.composite
def pools(draw):
    """``(rows, targets)``: an ``(m, d)`` grid of values and a target count."""
    m = draw(st.one_of(st.sampled_from(WORD_EDGES), st.integers(1, 200)))
    d = draw(st.integers(1, 10))
    levels = draw(st.sampled_from([1, 2, 4, 1000]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.integers(0, levels + 1, size=(m, d)).astype(np.float64)
    # 0.0 may become -0.0 (equal to it), and the top level +inf.
    rows[(rows == 0) & (rng.random((m, d)) < 0.5)] = -0.0
    if draw(st.booleans()):
        rows[rows == levels] = np.inf
    if draw(st.booleans()):
        rows = rows[rng.integers(0, max(1, m // 3), size=m)]  # duplicate rows
    targets = draw(st.one_of(st.integers(1, min(m, 8)), st.integers(1, m)))
    return rows, targets


@pytest.mark.parametrize("budget", BUDGETS)
@given(case=pools())
@settings(max_examples=80, deadline=None)
def test_kernel_is_the_oracle(budget, case):
    rows, targets = case
    with mock.patch.object(ext, "_SCRATCH_BYTES", budget):
        got = ext._ext_dominated(np.ascontiguousarray(rows.T), targets)
    assert got.dtype == bool and got.shape == (targets,)
    assert got.tolist() == quadratic_dominated(rows.tolist(), targets)


@pytest.mark.parametrize("m", WORD_EDGES)
def test_signed_zeros_and_infinities_tie(m):
    """A row's twin with ``-0.0`` for ``0.0`` ties it; ``+inf`` is topmost."""
    rng = np.random.default_rng(m)
    rows = rng.integers(1, 4, size=(m, 3)).astype(np.float64)
    rows[0] = [0.0, 0.0, np.inf]
    rows[1] = [-0.0, -0.0, np.inf]
    rows[2] = [-0.0, 0.0, 5.0]
    got = ext._ext_dominated(np.ascontiguousarray(rows.T), m)
    assert got.tolist() == quadratic_dominated(rows.tolist(), m)
    assert not got[0] and not got[1] and not got[2]


def test_filter_stays_under_the_scratch_cap():
    """Every kernel step of one 5 000 × 8 filter call holds at most
    ``_SCRATCH_BYTES``; the whole call adds no more than a few copies of
    its input (the column copy, the codes, a pool) on top."""
    values = np.random.default_rng(5).random((5000, 8))
    kernel = ext._ext_dominated
    steps = []

    def measured(pool, targets):
        entry = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = kernel(pool, targets)
        steps.append(tracemalloc.get_traced_memory()[1] - entry)
        return out

    tracemalloc.start()
    try:
        with mock.patch.object(ext, "_ext_dominated", measured):
            ext._ext_skyline_filter(values)
        entry = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        ext._ext_skyline_filter(values)
        whole = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert len(steps) > 1
    assert max(steps) <= ext._SCRATCH_BYTES
    assert whole <= ext._SCRATCH_BYTES + 4 * values.nbytes
