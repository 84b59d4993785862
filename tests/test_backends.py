"""Tests for the pluggable kernel backends and the leaf batch queue.

The contract: backend choice (``kernel_backend="auto" | "numpy" |
"numba"``) is a pure runtime performance knob — every backend, the
auto/env resolution, the numba-missing fallback, and any tiling of the
candidate stream through :class:`LeafBatchQueue` must produce
byte-identical pairs and identical cascade survivor counters.
"""

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import assert_same_pairs
from repro import JoinSpec, similarity_join
from repro.core import backends as backends_module
from repro.core.backends import (
    DEFAULT_TILE_ROWS,
    LeafBatchQueue,
    NumbaBackend,
    NumpyBackend,
    available_kernel_backends,
    numba_available,
    resolve_kernel_backend,
)
from repro.core.join import epsilon_kdb_self_join
from repro.core.kernels import build_kernel_context
from repro.core.result import JoinStats
from repro.datasets import gaussian_clusters
from repro.errors import ConfigError


@pytest.fixture(autouse=True)
def _reset_one_time_logs(monkeypatch):
    """Each test sees fresh once-only resolution logging state."""
    monkeypatch.setattr(backends_module, "_AUTO_LOGGED", False)
    monkeypatch.setattr(backends_module, "_FALLBACK_WARNED", False)


# ----------------------------------------------------------------------
# selection and validation
# ----------------------------------------------------------------------
class TestResolution:
    def test_spec_rejects_unknown_backend(self):
        with pytest.raises(ConfigError, match="unknown kernel backend"):
            JoinSpec(epsilon=0.3, kernel_backend="cupy")

    def test_resolve_rejects_unknown_name(self):
        with pytest.raises(ConfigError, match="valid values"):
            resolve_kernel_backend("fortran")

    def test_mutated_cascade_mode_rejected(self):
        """A spec whose cascade mode was mutated past validation is
        caught at context-build time with the valid modes listed."""
        spec = JoinSpec(epsilon=0.3)
        spec.cascade = "sometimes"
        points = np.random.default_rng(0).random((50, 10))
        with pytest.raises(ConfigError, match="'auto', 'on', 'off'"):
            build_kernel_context(spec, points)

    def test_available_backends(self):
        names = available_kernel_backends()
        assert names[0] == "numpy"
        assert ("numba" in names) == numba_available()

    def test_explicit_numpy_always_resolves(self):
        assert resolve_kernel_backend("numpy").name == "numpy"

    def test_auto_prefers_numba_when_available(self, monkeypatch):
        monkeypatch.delenv(backends_module._ENV_BACKEND, raising=False)
        expected = "numba" if numba_available() else "numpy"
        assert resolve_kernel_backend("auto").name == expected

    def test_auto_resolution_logged_once(self, monkeypatch, caplog):
        monkeypatch.delenv(backends_module._ENV_BACKEND, raising=False)
        with caplog.at_level(logging.INFO, logger="repro.kernels"):
            resolve_kernel_backend("auto")
            resolve_kernel_backend("auto")
        hits = [r for r in caplog.records if "resolved to" in r.message]
        assert len(hits) == 1

    def test_env_override_steers_auto(self, monkeypatch):
        monkeypatch.setenv(backends_module._ENV_BACKEND, "numpy")
        assert resolve_kernel_backend("auto").name == "numpy"

    def test_env_override_rejected_when_invalid(self, monkeypatch):
        monkeypatch.setenv(backends_module._ENV_BACKEND, "gpu")
        with pytest.raises(ConfigError, match="REPRO_KERNEL_BACKEND"):
            resolve_kernel_backend("auto")

    def test_env_does_not_override_explicit_choice(self, monkeypatch):
        monkeypatch.setenv(backends_module._ENV_BACKEND, "numba")
        assert resolve_kernel_backend("numpy").name == "numpy"

    @pytest.mark.skipif(numba_available(), reason="numba is installed")
    def test_explicit_numba_falls_back_with_one_warning(self, caplog):
        with caplog.at_level(logging.WARNING, logger="repro.kernels"):
            assert resolve_kernel_backend("numba").name == "numpy"
            assert resolve_kernel_backend("numba").name == "numpy"
        hits = [r for r in caplog.records if "falling back" in r.message]
        assert len(hits) == 1

    def test_backend_excluded_from_fingerprint(self):
        base = JoinSpec(epsilon=0.3)
        routed = JoinSpec(epsilon=0.3, kernel_backend="numpy")
        assert base.structural_dict() == routed.structural_dict()


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
# backend exactness and stats
# ----------------------------------------------------------------------
def _candidate_rows(n, m, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, n, size=m), rng.integers(0, n, size=m)


class TestBackends:
    def test_join_stats_record_backend_and_tiling(self):
        points = gaussian_clusters(400, 12, clusters=4, sigma=0.08, seed=3)
        result = epsilon_kdb_self_join(
            points, JoinSpec(epsilon=0.5, kernel_backend="numpy")
        )
        stats = result.stats
        assert stats.kernel_backend == "numpy"
        assert stats.kernel_blocks > 0
        assert stats.kernel_tile_rows == DEFAULT_TILE_ROWS
        assert stats.kernel_seconds >= 0.0
        # The public API accepts the knob and output is unchanged by it.
        pairs = similarity_join(points, epsilon=0.5, kernel_backend="numpy")
        np.testing.assert_array_equal(pairs, result.pairs)

    def test_numba_chunk_falls_back_to_numpy_for_unsupported_metric(
        self, monkeypatch
    ):
        """An unsupported metric must route each tile through the numpy
        cascade with identical masks and survivor counters — this is the
        path that keeps ``kernel_backend="numba"`` universally safe."""
        points = gaussian_clusters(300, 12, clusters=4, sigma=0.08, seed=5)
        spec = JoinSpec(epsilon=0.5, kernel_backend="numpy")
        context = build_kernel_context(spec, points)
        assert context is not None
        monkeypatch.setattr(backends_module, "_metric_code", lambda metric: None)
        rows_a, rows_b = _candidate_rows(len(points), 2_000, seed=11)

        def fresh_stats():
            return JoinStats(cascade_survivors=[0] * context.plan.n_stages)

        stats_numpy = fresh_stats()
        stats_numba = fresh_stats()
        mask_numpy = NumpyBackend().filter_chunk(
            context, rows_a, rows_b, stats_numpy
        )
        mask_numba = NumbaBackend().filter_chunk(
            context, rows_a, rows_b, stats_numba
        )
        np.testing.assert_array_equal(mask_numpy, mask_numba)
        assert stats_numpy.cascade_survivors == stats_numba.cascade_survivors

    @pytest.mark.skipif(not numba_available(), reason="numba not installed")
    def test_numba_chunk_matches_numpy_chunk(self):
        points = gaussian_clusters(300, 16, clusters=4, sigma=0.08, seed=9)
        spec = JoinSpec(epsilon=0.6, kernel_backend="numpy")
        context = build_kernel_context(spec, points)
        assert context is not None
        rows_a, rows_b = _candidate_rows(len(points), 5_000, seed=13)
        stats_numpy = JoinStats(cascade_survivors=[0] * context.plan.n_stages)
        stats_numba = JoinStats(cascade_survivors=[0] * context.plan.n_stages)
        mask_numpy = NumpyBackend().filter_chunk(
            context, rows_a, rows_b, stats_numpy
        )
        mask_numba = NumbaBackend().filter_chunk(
            context, rows_a, rows_b, stats_numba
        )
        np.testing.assert_array_equal(mask_numpy, mask_numba)
        assert stats_numpy.cascade_survivors == stats_numba.cascade_survivors

    @pytest.mark.skipif(not numba_available(), reason="numba not installed")
    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(min_value=60, max_value=260),
        d=st.integers(min_value=8, max_value=20),
        metric=st.sampled_from(["l1", "l2", "linf", 1.5]),
        eps=st.sampled_from([0.3, 0.6, 1.0]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_backends_identical_over_random_specs(self, n, d, metric, eps, seed):
        """Property: numpy and numba joins agree on pairs *and* on the
        cascade survivor funnel across random workloads and metrics."""
        points = gaussian_clusters(n, d, clusters=4, sigma=0.08, seed=seed)
        base = epsilon_kdb_self_join(
            points, JoinSpec(epsilon=eps, metric=metric, kernel_backend="numpy")
        )
        other = epsilon_kdb_self_join(
            points, JoinSpec(epsilon=eps, metric=metric, kernel_backend="numba")
        )
        assert_same_pairs(
            other.pairs,
            base.pairs,
            f"hypothesis n={n} d={d} {metric} eps={eps} seed={seed}",
        )
        assert base.stats.cascade_survivors == other.stats.cascade_survivors
        assert base.pairs.tobytes() == other.pairs.tobytes()
