"""Tests for the leaf filter path: the cascade chunk filter and the
batched leaf work-queue.

The contract: :func:`repro.core.kernels.filter_chunk` returns exactly the
monolithic ``metric.within_rows`` verdict, and any tiling of the
candidate stream through :class:`LeafBatchQueue` produces byte-identical
pairs.  There is one kernel path; the spec carries no backend selector.
"""

import numpy as np
import pytest

from repro import JoinSpec, similarity_join
from repro.core.join import epsilon_kdb_self_join
from repro.core.kernels import (
    DEFAULT_TILE_ROWS,
    LeafBatchQueue,
    build_kernel_context,
    filter_chunk,
)
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
# the batched leaf work-queue
# ----------------------------------------------------------------------
def _parity_filter(calls):
    """Deterministic per-row verdict that records invocation sizes."""

    def filter_rows(rows_a, rows_b):
        calls.append(len(rows_a))
        return (rows_a + rows_b) % 3 != 0

    return filter_rows


class TestLeafBatchQueue:
    def test_rejects_degenerate_tile(self):
        with pytest.raises(ConfigError, match="tile_rows"):
            LeafBatchQueue(lambda a, b: a == b, lambda a, b: None, tile_rows=0)

    def test_tiling_is_invisible_in_output(self):
        rng = np.random.default_rng(7)
        chunks = [
            (rng.integers(0, 500, size=m), rng.integers(0, 500, size=m))
            for m in (3, 17, 1, 40, 0, 9)
        ]

        def run(tile_rows):
            calls, out = [], []
            queue = LeafBatchQueue(
                _parity_filter(calls),
                lambda a, b: out.append((a, b)),
                tile_rows=tile_rows,
            )
            for rows_a, rows_b in chunks:
                queue.add(rows_a, rows_b)
            queue.flush()
            left = np.concatenate([a for a, _ in out]) if out else np.empty(0)
            right = np.concatenate([b for _, b in out]) if out else np.empty(0)
            return left, right, calls

        big_l, big_r, big_calls = run(tile_rows=10_000)
        small_l, small_r, small_calls = run(tile_rows=7)
        assert len(big_calls) == 1
        assert len(small_calls) > 1
        assert all(c <= 7 for c in small_calls)
        np.testing.assert_array_equal(big_l, small_l)
        np.testing.assert_array_equal(big_r, small_r)

    def test_nothing_emitted_before_flush(self):
        out = []
        queue = LeafBatchQueue(
            lambda a, b: np.ones(len(a), dtype=bool),
            lambda a, b: out.append((a, b)),
            tile_rows=100,
        )
        queue.add(np.arange(5), np.arange(5))
        assert queue.pending == 5
        assert not out
        queue.flush()
        assert queue.pending == 0
        assert len(out) == 1
        queue.flush()  # idempotent on empty buffer
        assert len(out) == 1

    def test_buffers_grow_on_demand_up_to_one_tile(self):
        calls = []
        out = []
        queue = LeafBatchQueue(
            lambda a, b: calls.append(len(a)) or np.ones(len(a), dtype=bool),
            lambda a, b: out.append(a),
            tile_rows=1000,
        )
        queue.add(np.arange(3), np.arange(3))
        assert len(queue._buf_a) < 1000  # a small probe allocates no tile
        queue.add(np.arange(2500), np.arange(2500))
        queue.flush()
        assert calls == [1000, 1000, 503]
        assert len(queue._buf_a) == 1000
        np.testing.assert_array_equal(
            np.concatenate(out), np.concatenate([np.arange(3), np.arange(2500)])
        )

    def test_emitted_arrays_do_not_alias_tile_buffers(self):
        out = []
        queue = LeafBatchQueue(
            lambda a, b: np.ones(len(a), dtype=bool),
            lambda a, b: out.append((a, b)),
            tile_rows=4,
        )
        queue.add(np.array([1, 2, 3, 4]), np.array([5, 6, 7, 8]))
        first = (out[0][0].copy(), out[0][1].copy())
        queue.add(np.array([90, 91, 92, 93]), np.array([94, 95, 96, 97]))
        np.testing.assert_array_equal(out[0][0], first[0])
        np.testing.assert_array_equal(out[0][1], first[1])


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
        """The staged cascade keeps exactly the rows the one-pass kernel
        keeps, and its per-stage survivor funnel never grows."""
        points = gaussian_clusters(300, 16, clusters=4, sigma=0.08, seed=9)
        spec = JoinSpec(epsilon=0.6, metric=metric)
        context = build_kernel_context(spec, points)
        assert context is not None
        rng = np.random.default_rng(13)
        rows_a = rng.integers(0, len(points), size=5_000)
        rows_b = rng.integers(0, len(points), size=5_000)
        stats = JoinStats(cascade_survivors=[0] * context.plan.n_stages)
        mask = filter_chunk(context, rows_a, rows_b, stats)
        expected = spec.metric.within_rows(
            points, points, rows_a, rows_b, spec.epsilon
        )
        np.testing.assert_array_equal(mask, expected)
        survivors = stats.cascade_survivors
        assert survivors[-1] == int(np.count_nonzero(expected))
        assert all(a >= b for a, b in zip(survivors, survivors[1:]))
