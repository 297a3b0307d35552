"""The rank-bitset dominance kernel, against an oracle written here.

``repro.core.dominance._dominated(pool, targets, ext)`` answers, for each
of a ``(d, m)`` pool's first ``targets`` rows, whether some pool row
ext-dominates it (is strictly smaller on every dimension) or, without
``ext``, dominates it (no larger anywhere and smaller somewhere).
``quadratic_dominated`` below is plain loops that share no code with
``repro.core``.  Every case runs both relations.

Pools straddle the 64-bit word boundaries; values come from coarse grids
holding exact ties, ``-0.0`` beside ``0.0``, ``+inf`` and duplicate rows;
targets run from one to the whole pool.  Each case also runs with a
shrunk scratch budget, so the kernel slices its targets and takes its
dimensions one group at a time.  A ``tracemalloc`` test bounds what one
filter call holds, and a pool whose sorted columns pass that cap must
still take many targets per slice.
"""

from __future__ import annotations

import importlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

dom = importlib.import_module("repro.core.dominance")

#: Pool sizes at and beside one and two words.
WORD_EDGES = [63, 64, 65, 127, 128, 129]

#: The shipped budget; one that holds a target per slice and a
#: dimension per group; one that groups a few dimensions of small pools.
BUDGETS = [dom._SCRATCH_BYTES, 1, 1 << 13]


def quadratic_dominated(rows, targets, ext=True):
    """For each of the first ``targets`` rows: does another row
    ext-dominate it (``ext``) or dominate it?"""
    out = []
    for p in rows[:targets]:
        if ext:
            out.append(any(all(qc < pc for qc, pc in zip(q, p)) for q in rows))
        else:
            out.append(any(
                all(qc <= pc for qc, pc in zip(q, p)) and any(qc < pc for qc, pc in zip(q, p))
                for q in rows
            ))
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
    for relation in (True, False):
        with mock.patch.object(dom, "_SCRATCH_BYTES", budget):
            got = dom._dominated(np.ascontiguousarray(rows.T), targets, relation)
        assert got.dtype == bool and got.shape == (targets,)
        assert got.tolist() == quadratic_dominated(rows.tolist(), targets, relation)


@pytest.mark.parametrize("m", WORD_EDGES)
def test_signed_zeros_and_infinities_tie(m):
    """A row's twin with ``-0.0`` for ``0.0`` ties it; ``+inf`` is topmost."""
    rng = np.random.default_rng(m)
    rows = rng.integers(1, 4, size=(m, 3)).astype(np.float64)
    rows[0] = [0.0, 0.0, np.inf]
    rows[1] = [-0.0, -0.0, np.inf]
    rows[2] = [-0.0, 0.0, 5.0]
    pool = np.ascontiguousarray(rows.T)
    got = dom._dominated(pool, m, True)
    assert got.tolist() == quadratic_dominated(rows.tolist(), m)
    assert not got[0] and not got[1] and not got[2]
    # Under dominance the twins stay (equal rows), and row 2 beats both.
    got = dom._dominated(pool, m, False)
    assert got.tolist() == quadratic_dominated(rows.tolist(), m, ext=False)
    assert got[0] and got[1] and not got[2]


def test_filter_stays_under_the_scratch_cap():
    """Every kernel step of one 5 000 × 8 filter call holds at most
    ``_SCRATCH_BYTES``; the whole call adds no more than a few copies of
    its input (the column copy, the codes, a pool) on top."""
    values = np.random.default_rng(5).random((5000, 8))
    kernel = dom._dominated
    steps = []

    def measured(pool, targets, relation):
        entry = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = kernel(pool, targets, relation)
        steps.append(tracemalloc.get_traced_memory()[1] - entry)
        return out

    for relation in (True, False):
        steps.clear()
        tracemalloc.start()
        try:
            with mock.patch.object(dom, "_dominated", measured):
                dom._skyline_filter(values, relation)
            entry = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            dom._skyline_filter(values, relation)
            whole = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        assert len(steps) > 1
        assert max(steps) <= dom._SCRATCH_BYTES
        assert whole <= dom._SCRATCH_BYTES + 4 * values.nbytes


def test_a_pool_past_the_cap_still_slices_many_targets():
    """A pool whose sorted columns alone pass ``_SCRATCH_BYTES`` (30 000
    rows, four columns plus the rank sum) still tests many targets per
    slice, not one, and answers exactly."""
    rng = np.random.default_rng(11)
    rows = rng.random((30_000, 4))
    targets = 200
    widths = []
    prefixes = dom._prefixes

    def spy(order, cuts, words):
        widths.append(cuts.shape[1])
        return prefixes(order, cuts, words)

    with mock.patch.object(dom, "_prefixes", spy):
        got = dom._dominated(np.ascontiguousarray(rows.T), targets, False)
    assert 5 * rows.shape[0] * 8 > dom._SCRATCH_BYTES  # the sorted columns alone
    assert max(widths) > 1
    expected = [
        bool(np.any(np.all(rows <= p, axis=1) & np.any(rows < p, axis=1)))
        for p in rows[:targets]
    ]
    assert got.tolist() == expected
