"""The tiled/broadcast batch-dominance kernels must be pin-equal."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dominance import (
    DOMINANCE_KERNEL_ENV,
    batch_dominated_any,
    jit_kernel_available,
    resolve_dominance_kernel,
)

#: Every forceable kernel name; ``jit`` silently degrades to ``auto``
#: when numba is absent, so it is always safe to request.
FORCED_KERNELS = ("broadcast", "tiled", "transposed", "jit")


def oracle(dominators: np.ndarray, targets: np.ndarray, strict: bool) -> np.ndarray:
    """Per-target python-loop oracle, independent of the numpy kernels."""
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
    @pytest.mark.parametrize("kernel", FORCED_KERNELS)
    @pytest.mark.parametrize("strict", [False, True])
    def test_kernels_equal_broadcast_random(self, rng, strict, kernel):
        dominators = rng.random((90, 4))
        targets = rng.random((70, 4))
        broadcast = batch_dominated_any(dominators, targets, strict, kernel="broadcast")
        forced = batch_dominated_any(dominators, targets, strict, kernel=kernel)
        assert np.array_equal(broadcast, forced)
        assert np.array_equal(broadcast, oracle(dominators, targets, strict))

    @pytest.mark.parametrize("kernel", FORCED_KERNELS)
    @pytest.mark.parametrize("strict", [False, True])
    def test_tie_heavy_integer_grid(self, rng, strict, kernel):
        # Duplicated rows and shared coordinates: the <=/&-any branch of
        # the non-strict kernels and the all-< strict branch both have
        # to get exact ties right in every tile/plane.
        dominators = rng.integers(0, 3, size=(120, 3)).astype(float)
        targets = np.vstack([dominators[:40], rng.integers(0, 3, size=(40, 3))])
        broadcast = batch_dominated_any(dominators, targets, strict, kernel="broadcast")
        forced = batch_dominated_any(dominators, targets, strict, kernel=kernel)
        assert np.array_equal(broadcast, forced)
        assert np.array_equal(broadcast, oracle(dominators, targets, strict))

    @pytest.mark.parametrize("strict", [False, True])
    def test_auto_equals_forced_kernels_on_large_shapes(self, rng, strict):
        # 600×600×8 is well past any broadcast comfort zone; every
        # spelling must agree with auto anyway.
        dominators = rng.random((600, 8))
        targets = rng.random((600, 8))
        auto = batch_dominated_any(dominators, targets, strict)
        for kernel in FORCED_KERNELS:
            assert np.array_equal(
                auto, batch_dominated_any(dominators, targets, strict, kernel=kernel)
            ), kernel

    @pytest.mark.parametrize("kernel", ["tiled", "transposed", "jit"])
    def test_early_exit_when_everything_is_dominated(self, rng, kernel):
        # The origin dominates every positive target; the early-exit
        # paths (tile all(), per-dim acc.any(), per-target break) must
        # not change the answer.
        dominators = np.vstack([np.zeros((1, 3)), rng.random((500, 3))])
        targets = rng.random((50, 3)) + 0.1
        assert batch_dominated_any(dominators, targets, kernel=kernel).all()

    def test_transposed_handles_non_contiguous_planes(self, rng):
        # The transposed kernel reads column-major; strided inputs must
        # be copied, not mis-strided.
        base = rng.random((60, 8))
        dominators = base[:, ::2]
        targets = rng.random((30, 4))
        assert np.array_equal(
            batch_dominated_any(dominators, targets, kernel="transposed"),
            batch_dominated_any(dominators, targets, kernel="broadcast"),
        )


class TestJitFallback:
    def test_jit_request_never_raises_without_numba(self, rng):
        # The jit kernel is an opt-in accelerator, never a dependency:
        # requesting it on a host without numba silently degrades to the
        # auto kernel with identical output.
        dominators = rng.random((40, 3))
        targets = rng.random((20, 3))
        out = batch_dominated_any(dominators, targets, kernel="jit")
        assert np.array_equal(
            out, batch_dominated_any(dominators, targets, kernel="broadcast")
        )

    def test_availability_probe_is_a_bool(self):
        assert jit_kernel_available() in (True, False)

    def test_env_var_jit_reaches_batch_kernel(self, rng, monkeypatch):
        monkeypatch.setenv(DOMINANCE_KERNEL_ENV, "jit")
        dominators = rng.random((25, 4))
        targets = rng.random((25, 4))
        assert np.array_equal(
            batch_dominated_any(dominators, targets),
            batch_dominated_any(dominators, targets, kernel="broadcast"),
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
            batch_dominated_any(dominators, targets, kernel="tiled"),
            batch_dominated_any(np.ascontiguousarray(dominators), targets, kernel="tiled"),
        )


class TestResolveKernel:
    def test_default_is_auto(self, monkeypatch):
        monkeypatch.delenv(DOMINANCE_KERNEL_ENV, raising=False)
        assert resolve_dominance_kernel() == "auto"

    def test_env_var_selects(self, monkeypatch):
        monkeypatch.setenv(DOMINANCE_KERNEL_ENV, "tiled")
        assert resolve_dominance_kernel() == "tiled"

    def test_argument_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(DOMINANCE_KERNEL_ENV, "tiled")
        assert resolve_dominance_kernel("broadcast") == "broadcast"

    def test_unknown_kernel_raises(self):
        with pytest.raises(ValueError, match="unknown dominance kernel"):
            resolve_dominance_kernel("simd")

    def test_error_message_lists_valid_names(self):
        # Satellite: a typo in REPRO_DOMINANCE_KERNEL must name every
        # valid kernel in the error.
        with pytest.raises(ValueError) as exc:
            resolve_dominance_kernel("simd")
        message = str(exc.value)
        for name in ("auto", "broadcast", "tiled", "transposed", "jit"):
            assert name in message

    @pytest.mark.parametrize("name", ["transposed", "jit"])
    def test_new_kernels_resolve(self, name):
        assert resolve_dominance_kernel(name) == name

    def test_env_var_reaches_batch_kernel(self, rng, monkeypatch):
        monkeypatch.setenv(DOMINANCE_KERNEL_ENV, "bogus")
        with pytest.raises(ValueError, match="unknown dominance kernel"):
            batch_dominated_any(rng.random((3, 2)), rng.random((3, 2)))

    def test_scan_reads_the_environment_once(self, rng, monkeypatch):
        """One Algorithm-1 scan resolves the kernel when it builds its
        index, not once per chunk — and the result and the work
        counters do not depend on which kernel that was."""
        from repro.core import dominance, indexes
        from repro.core.dataset import PointSet
        from repro.core.local_skyline import local_subspace_skyline
        from repro.core.store import SortedByF

        store = SortedByF.from_points(PointSet(rng.random((600, 4))))
        calls: list[str | None] = []

        def counting(kernel=None):
            calls.append(kernel)
            return resolve_dominance_kernel(kernel)

        monkeypatch.setattr(indexes, "resolve_dominance_kernel", counting)
        monkeypatch.setattr(dominance, "resolve_dominance_kernel", counting)
        monkeypatch.setenv(DOMINANCE_KERNEL_ENV, "tiled")
        tiled = local_subspace_skyline(store, (0, 2), scan_chunk=16)
        # Only a ``None`` request consults the environment.
        assert calls[0] is None and set(calls[1:]) == {"tiled"}
        assert tiled.examined > 16  # several chunks, still one lookup
        monkeypatch.delenv(DOMINANCE_KERNEL_ENV)
        auto = local_subspace_skyline(store, (0, 2), scan_chunk=16)
        assert auto.positions.tolist() == tiled.positions.tolist()
        assert (auto.examined, auto.comparisons, auto.threshold) == (
            tiled.examined, tiled.comparisons, tiled.threshold
        )
