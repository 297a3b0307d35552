"""The rank-bitset dominance kernel, against an oracle written here.

``repro.core.dominance._dominated(pool, targets, ext)`` answers, for each
of a ``(d, m)`` pool's first ``targets`` rows, whether some pool row
ext-dominates it (is strictly smaller on every dimension) or, without
``ext``, dominates it (no larger anywhere and smaller somewhere).
Its witness form, ``find_witnesses(members, candidates)``, names for each
candidate the lowest-index member that ext-dominates it.
``quadratic_dominated`` and ``quadratic_witness`` below are plain loops
that share no code with ``repro.core``.  Every ``_dominated`` case runs
both relations.

Pools straddle the 64-bit word boundaries; values come from coarse grids
holding exact ties, ``-0.0`` beside ``0.0``, ``+inf`` and duplicate rows;
targets run from one to the whole pool.  Each case also runs with a
shrunk scratch budget, so the kernel slices its targets and takes its
dimensions one group at a time.  A ``tracemalloc`` test bounds what one
filter or witness call holds, and a pool whose sorted columns pass that
cap must still take many targets per slice.
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


def quadratic_witness(members, candidates):
    """For each candidate: the first member strictly smaller on every
    dimension, else ``-1``."""
    return [
        next((i for i, q in enumerate(members) if all(qc < cc for qc, cc in zip(q, c))), -1)
        for c in candidates
    ]


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


@st.composite
def witness_cases(draw):
    """``(members, candidates)``: a pool and candidate rows on its grid,
    each column's value taken from a random member, so ties, ``-0.0``,
    ``+inf`` and candidates equal to members all occur."""
    members, _ = draw(pools())
    m, d = members.shape
    count = draw(st.one_of(st.integers(0, 8), st.integers(0, 150)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    candidates = members[rng.integers(0, m, size=(count, d)), np.arange(d)]
    return members, candidates


@pytest.mark.parametrize("budget", BUDGETS)
@given(case=witness_cases())
@settings(max_examples=80, deadline=None)
def test_witness_form_is_the_oracle(budget, case):
    members, candidates = case
    with mock.patch.object(dom, "_SCRATCH_BYTES", budget):
        got = dom.find_witnesses(members, candidates)
    assert got.dtype == np.int64 and got.shape == (candidates.shape[0],)
    assert got.tolist() == quadratic_witness(members.tolist(), candidates.tolist())


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("m", WORD_EDGES)
def test_witness_in_a_later_word(budget, m):
    """The lowest-index dominator wins, wherever it sits: row ``m // 2``
    ahead of the later ``m - 1``, and ``m - 1`` alone in the last word.
    A tie on one column, or a candidate equal to its only possible
    dominator, has none.  The ``2.0`` candidate keeps every member in
    the kernel's pool, so the witnesses sit in its later words."""
    members = np.ones((m, 3))
    members[m // 2] = [0.0, -0.0, 0.0]
    members[m - 1] = [-1.0, -1.0, -1.0]
    lead = [[0.5, 0.5, np.inf], [-0.5, -0.5, 0.0], [0.5, -1.0, 0.5], [2.0, 2.0, 2.0]]
    candidates = np.vstack([lead, members])
    with mock.patch.object(dom, "_SCRATCH_BYTES", budget):
        got = dom.find_witnesses(members, candidates)
    assert got.tolist() == quadratic_witness(members.tolist(), candidates.tolist())
    assert got[:4].tolist() == [m // 2, m - 1, -1, 0]
    assert got[4] == m // 2 and got[4 + m // 2] == m - 1 and got[3 + m] == -1


def test_witness_of_empty_sets():
    """No members, or no candidates: every answer is ``-1``."""
    rows = np.random.default_rng(3).random((5, 4))
    assert dom.find_witnesses(np.zeros((0, 4)), rows).tolist() == [-1] * 5
    got = dom.find_witnesses(rows, np.zeros((0, 4)))
    assert got.dtype == np.int64 and got.shape == (0,)


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
    """Every kernel step of one 5 000 × 8 filter call, and the AND sweep
    of one witness call that splits the same rows into members and
    candidates, holds at most ``_SCRATCH_BYTES``; each whole call adds
    no more than a few copies of its input (the column copy, the codes,
    a pool, the sorted columns) on top."""
    values = np.random.default_rng(5).random((5000, 8))
    cases = [
        ("_dominated", dom._skyline_filter, (values, True)),
        ("_dominated", dom._skyline_filter, (values, False)),
        ("_sweep", dom.find_witnesses, (values[:2500], values[2500:])),
    ]
    for step, call, args in cases:
        kernel = getattr(dom, step)
        steps = []

        def measured(*kernel_args):
            entry = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = kernel(*kernel_args)
            steps.append(tracemalloc.get_traced_memory()[1] - entry)
            return out

        tracemalloc.start()
        try:
            with mock.patch.object(dom, step, measured):
                call(*args)
            entry = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            call(*args)
            whole = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        assert len(steps) > (call is dom._skyline_filter)
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
