"""Tests for the leaf filter path: band windows through the cascade.

The contract: :meth:`repro.core.kernels.KernelContext.filter_windows`
keeps exactly the pairs the monolithic ``metric.within_rows`` verdict
keeps.  There is one kernel path; the spec carries no backend selector.
"""

import numpy as np
import pytest

from repro import JoinSpec, similarity_join
from repro.core.join import epsilon_kdb_self_join
from repro.core.kernels import DEFAULT_TILE_ROWS, build_kernel_context
from repro.core.result import JoinStats
from repro.datasets import gaussian_clusters
from repro.errors import ConfigError


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------
class TestResolution:
    def test_spec_rejects_unknown_backend(self):
        """The kernel-backend selector is gone: a spec naming one fails."""
        with pytest.raises(TypeError, match="kernel_backend"):
            JoinSpec(epsilon=0.3, kernel_backend="numpy")

    def test_mutated_cascade_mode_rejected(self):
        """A spec whose cascade mode was mutated past validation is
        caught at context-build time with the valid modes listed."""
        spec = JoinSpec(epsilon=0.3)
        spec.cascade = "sometimes"
        points = np.random.default_rng(0).random((50, 10))
        with pytest.raises(ConfigError, match="'auto', 'on', 'off'"):
            build_kernel_context(spec, points)


# ----------------------------------------------------------------------
# kernel exactness and stats
# ----------------------------------------------------------------------
class TestBackends:
    def test_join_stats_record_backend_and_tiling(self):
        """Joins record the work-queue's tiling and kernel time."""
        points = gaussian_clusters(400, 12, clusters=4, sigma=0.08, seed=3)
        result = epsilon_kdb_self_join(points, JoinSpec(epsilon=0.5))
        stats = result.stats
        assert stats.kernel_blocks > 0
        assert stats.kernel_tile_rows == DEFAULT_TILE_ROWS
        assert stats.kernel_seconds >= 0.0
        pairs = similarity_join(points, epsilon=0.5)
        np.testing.assert_array_equal(pairs, result.pairs)

    @pytest.mark.parametrize("metric", ["l1", "l2", "linf", 1.5])
    def test_filter_chunk_matches_monolithic_kernel(self, metric):
        """One chunk of band windows through the staged cascade keeps
        exactly the pairs the one-pass kernel keeps, in window order, and
        its per-stage survivor funnel never grows."""
        points = gaussian_clusters(300, 16, clusters=4, sigma=0.08, seed=9)
        spec = JoinSpec(epsilon=0.6, metric=metric)
        context = build_kernel_context(spec, points)
        assert context is not None
        rng = np.random.default_rng(13)
        rows = rng.integers(0, len(points), size=200)
        start = rng.integers(0, len(points) - 40, size=200)
        end = start + rng.integers(0, 40, size=200)
        for swap in (False, True):
            stats = JoinStats()
            left, right = context.filter_windows(rows, start, end, swap, stats)
            sources = np.repeat(rows, end - start)
            targets = np.concatenate(
                [np.arange(lo, hi) for lo, hi in zip(start, end)]
            )
            if swap:
                sources, targets = targets, sources
            mask = spec.metric.within_rows(
                points, points, sources, targets, spec.epsilon
            )
            np.testing.assert_array_equal(left, sources[mask])
            np.testing.assert_array_equal(right, targets[mask])
            survivors = stats.cascade_survivors
            assert stats.cascade_candidates == len(sources)
            assert survivors[-1] == int(np.count_nonzero(mask))
            assert all(a >= b for a, b in zip(survivors, survivors[1:]))
