"""The batch-dominance kernel and the skyline filter, against references
written here: a 3-D broadcast reduction and plain Python loops.

``batch_dominated_any`` tests dominance only.  The filter
(:func:`repro.core.dominance._skyline_filter`) runs both relations: the
``strict`` half of each test puts its ext-dominance form (Section 5.3
pre-processing) through the same references, and the other half its
dominance form (Algorithms 1 and 2).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dominance import _skyline_filter, batch_dominated_any
from repro.core.extended_skyline import ext_skyline_positions

#: (dominators m, targets c, dims k) — the block-vs-batch shapes the
#: chunked scans produce (c = scan chunk) plus square eviction-style
#: shapes: the 18-shape grid of the kernel table in docs/PERFORMANCE.md.
SHAPES = [
    (16, 64, 3), (64, 64, 3), (256, 64, 3), (1024, 64, 3), (4096, 64, 3),
    (16, 64, 5), (64, 64, 5), (256, 64, 5), (1024, 64, 5), (4096, 64, 5),
    (16, 64, 9), (64, 64, 9), (256, 64, 9), (1024, 64, 9), (4096, 64, 9),
    (256, 256, 5), (1024, 256, 5), (1024, 1024, 5),
]


def dominated_any(dominators, targets, strict):
    """Is each target (ext-)dominated by a ``dominators`` row?  Under
    ext-domination the filter is asked once per target, with the target
    leading the pool: row 0 survives iff no dominator ext-dominates it."""
    if not strict:
        return batch_dominated_any(dominators, targets)
    return np.array(
        [ext_skyline_positions(np.vstack([t, dominators]))[:1].tolist() != [0]
         for t in np.asarray(targets, dtype=np.float64)],
        dtype=bool,
    )


def undominated(rows, strict):
    """Mask of ``rows`` no other row (ext-)dominates."""
    mask = np.zeros(len(rows), dtype=bool)
    mask[_skyline_filter(rows, ext=strict)[0]] = True
    return mask


def broadcast_reference(dominators, targets, strict):
    """One 3-D broadcast dominance reduction (an ``m × c × k`` cube)."""
    if strict:
        return np.any(
            np.all(dominators[None, :, :] < targets[:, None, :], axis=2), axis=1
        )
    less_eq = np.all(dominators[None, :, :] <= targets[:, None, :], axis=2)
    less = np.any(dominators[None, :, :] < targets[:, None, :], axis=2)
    return np.any(less_eq & less, axis=1)


def loop_reference(dominators, targets, strict):
    """Per-target Python loop, independent of numpy's reductions."""
    out = np.zeros(targets.shape[0], dtype=bool)
    for i, t in enumerate(targets):
        for d in dominators:
            if strict:
                if np.all(d < t):
                    out[i] = True
                    break
            elif np.all(d <= t) and np.any(d < t):
                out[i] = True
                break
    return out


class TestKernelEquality:
    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
    @pytest.mark.parametrize("strict", [False, True])
    def test_matches_broadcast_reference(self, rng, strict, shape):
        m, c, k = shape
        # Anti-correlated-ish data keeps the dominated fraction moderate,
        # so the per-dimension early exit is neither trivial nor unused.
        base = rng.uniform(0.0, 1.0, size=(m + c, 1))
        cloud = np.clip(1.0 - base + rng.normal(0.0, 0.2, size=(m + c, k)), 0.0, 1.0)
        dominators, targets = cloud[:m], cloud[m:]
        out = dominated_any(dominators, targets, strict)
        assert out.dtype == bool and out.shape == (c,)
        assert np.array_equal(out, broadcast_reference(dominators, targets, strict))

    @pytest.mark.parametrize("strict", [False, True])
    def test_tie_heavy_integer_grid(self, rng, strict):
        # Duplicated rows and shared coordinates: the <=/&-any kernel
        # and the all-< filter both have to get exact ties right in
        # every plane.
        dominators = rng.integers(0, 3, size=(120, 3)).astype(float)
        targets = np.vstack([dominators[:40], rng.integers(0, 3, size=(40, 3))])
        out = dominated_any(dominators, targets, strict)
        assert np.array_equal(out, broadcast_reference(dominators, targets, strict))
        assert np.array_equal(out, loop_reference(dominators, targets, strict))

    @pytest.mark.parametrize("strict", [False, True])
    def test_early_exit_when_everything_is_dominated(self, rng, strict):
        # The origin dominates every positive target; the per-dimension
        # acc.any() exit must not change the answer.
        dominators = np.vstack([np.zeros((1, 3)), rng.random((500, 3))])
        targets = rng.random((50, 3)) + 0.1
        assert dominated_any(dominators, targets, strict).all()

    @pytest.mark.parametrize("strict", [False, True])
    def test_early_exit_when_nothing_is_dominated(self, rng, strict):
        # No pair survives the first plane: the loop leaves before the
        # later dimensions and must still answer all-False.
        dominators = rng.random((40, 4)) + 1.0
        targets = rng.random((30, 4))
        assert not dominated_any(dominators, targets, strict).any()

    def test_transposed_handles_non_contiguous_planes(self, rng):
        # The kernel reads column-major copies; strided inputs must be
        # copied, not mis-strided.
        base = rng.random((60, 8))
        dominators = base[:, ::2]
        targets = rng.random((90, 8))[::3, 1::2]
        assert np.array_equal(
            batch_dominated_any(dominators, targets),
            broadcast_reference(dominators, targets, False),
        )


class TestEdgeCases:
    def test_empty_dominators(self):
        out = batch_dominated_any(np.zeros((0, 3)), np.ones((5, 3)))
        assert out.shape == (5,) and not out.any()

    def test_empty_targets(self):
        out = batch_dominated_any(np.ones((5, 3)), np.zeros((0, 3)))
        assert out.shape == (0,)

    def test_identical_rows_never_dominate_nonstrict(self):
        rows = np.ones((4, 2))
        assert not batch_dominated_any(rows, rows).any()

    def test_non_contiguous_input_matches_contiguous(self, rng):
        base = rng.random((60, 8))
        dominators = base[:, ::2]  # non-contiguous view, forces asarray path
        targets = rng.random((30, 4))
        assert np.array_equal(
            batch_dominated_any(dominators, targets),
            batch_dominated_any(np.ascontiguousarray(dominators), targets),
        )

    def test_integer_input_is_accepted(self, rng):
        dominators = rng.integers(0, 5, size=(20, 3))
        targets = rng.integers(0, 5, size=(15, 3))
        assert np.array_equal(
            batch_dominated_any(dominators, targets),
            loop_reference(dominators, targets, False),
        )


class TestUndominatedAmong:
    @staticmethod
    def double_loop(rows, strict):
        keep = np.ones(len(rows), dtype=bool)
        for i, p in enumerate(rows):
            for j, q in enumerate(rows):
                if i == j:
                    continue
                if (np.all(q < p) if strict else np.all(q <= p) and np.any(q < p)):
                    keep[i] = False
                    break
        return keep

    @pytest.mark.parametrize("strict", [False, True])
    def test_matches_double_loop_random(self, rng, strict):
        rows = rng.random((64, 3))
        assert np.array_equal(undominated(rows, strict), self.double_loop(rows, strict))

    @pytest.mark.parametrize("strict", [False, True])
    def test_matches_double_loop_with_ties_and_duplicates(self, rng, strict):
        base = rng.integers(0, 3, size=(30, 3)).astype(float)
        rows = np.vstack([base, base[:10]])
        mask = undominated(rows, strict)
        assert np.array_equal(mask, self.double_loop(rows, strict))
        # Exact duplicates never dominate each other: both copies share
        # one verdict.
        assert np.array_equal(mask[:10], mask[30:])

    def test_single_row_and_empty(self):
        assert undominated(np.ones((1, 4)), strict=False).tolist() == [True]
        assert undominated(np.zeros((0, 4)), strict=False).shape == (0,)
