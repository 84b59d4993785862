"""Tests for the flat vectorized epsilon-kdB build.

The contract under test: the flat build (radix cell-coding + stable
whole-array sorts + CSR leaf layout) produces the *same leaf partition* as the
pointer build, and the flat frontier gives the brute-force oracle's pairs
**byte for byte** through every engine — serial, parallel (in-process and
pooled, including under injected faults), and external-memory — with
traversal counters pinned to the values the recursive pointer traversal
produced on the same fixtures.  Plus reuse of a pre-built tree at a
smaller epsilon.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import oracle_self_pairs, oracle_two_set_pairs
from repro import JoinSpec
from repro.core.epsilon_kdb import EpsilonKdbTree, Grid
from repro.core.external import external_self_join
from repro.core.flat_build import FlatEpsilonKdbTree
from repro.core.join import epsilon_kdb_join, epsilon_kdb_self_join
from repro.core.parallel import ParallelJoinExecutor
from repro.core.resilience import FaultPlan
from repro.core.result import JoinStats
from repro.errors import InvalidParameterError
from repro.metrics import WeightedLpMetric
from repro.obs import MetricsRegistry
from repro.planner import profile
from repro.planner.profile import CostProfile


def _spec(**kwargs):
    kwargs.setdefault("epsilon", 0.25)
    return JoinSpec(**kwargs)


def _pair_bytes(result):
    return result.pairs.tobytes()


def _counters(result):
    stats = result.stats
    return (
        stats.node_pairs_visited,
        stats.leaf_joins,
        stats.distance_computations,
        stats.kernel_blocks,
    )


#: Work-queue tile for the pinned counters: ``kernel_blocks`` is the
#: candidate count divided by it, rounded up.
_PINNED_TILE_ROWS = 4096

#: ``(node_pairs_visited, leaf_joins, distance_computations,
#: kernel_blocks)`` of the recursive pointer traversal on each
#: ``test_traversal_stats_match_pointer`` case, recorded at a 4096-row
#: tile before that traversal was deleted.
_POINTER_COUNTERS = {
    "self-pruned-l1-leaf-default": (274, 133, 157007, 39),
    "self-pruned-l1-deep": (1757, 380, 120112, 30),
    "self-pruned-l2-leaf-default": (274, 133, 157007, 39),
    "self-pruned-l2-deep": (1757, 380, 120112, 30),
    "self-pruned-linf-leaf-default": (274, 133, 157007, 39),
    "self-pruned-linf-deep": (1757, 380, 120112, 30),
    "self-pruned-weighted-leaf-default": (469, 153, 389907, 96),
    "self-pruned-weighted-deep": (1460, 378, 389907, 96),
    "self-unpruned-l1-leaf-default": (19, 15, 20924, 6),
    "self-unpruned-l1-deep": (3300, 903, 20924, 6),
    "self-unpruned-l2-leaf-default": (19, 15, 20924, 6),
    "self-unpruned-l2-deep": (3300, 903, 20924, 6),
    "self-unpruned-linf-leaf-default": (19, 15, 20924, 6),
    "self-unpruned-linf-deep": (3300, 903, 20924, 6),
    "self-unpruned-weighted-leaf-default": (16, 10, 23658, 6),
    "self-unpruned-weighted-deep": (648, 153, 23658, 6),
    "two-set-pruned-l1-leaf-default": (30, 24, 77232, 19),
    "two-set-pruned-l1-deep": (2132, 459, 40127, 10),
    "two-set-pruned-l2-leaf-default": (30, 24, 77232, 19),
    "two-set-pruned-l2-deep": (2132, 459, 40127, 10),
    "two-set-pruned-linf-leaf-default": (30, 24, 77232, 19),
    "two-set-pruned-linf-deep": (2132, 459, 40127, 10),
    "two-set-pruned-weighted-leaf-default": (77, 45, 132577, 33),
    "two-set-pruned-weighted-deep": (1796, 420, 132577, 33),
    "two-set-unpruned-l1-leaf-default": (4, 3, 6926, 2),
    "two-set-unpruned-l1-deep": (3146, 868, 6926, 2),
    "two-set-unpruned-l2-leaf-default": (4, 3, 6926, 2),
    "two-set-unpruned-l2-deep": (3146, 868, 6926, 2),
    "two-set-unpruned-linf-leaf-default": (4, 3, 6926, 2),
    "two-set-unpruned-linf-deep": (3146, 868, 6926, 2),
    "two-set-unpruned-weighted-leaf-default": (3, 2, 8062, 2),
    "two-set-unpruned-weighted-deep": (562, 169, 8062, 2),
}


_COUNTER_METRICS = {
    "l1": "l1",
    "l2": "l2",
    "linf": "linf",
    "weighted": WeightedLpMetric(2, np.linspace(0.5, 2.0, 10)),
}


# ----------------------------------------------------------------------
# leaf partition equivalence
# ----------------------------------------------------------------------
def _pointer_leaf_sets(points, spec):
    tree = EpsilonKdbTree.build(points, spec)
    return sorted(
        (sorted(leaf.indices.tolist()) for leaf in tree.iter_leaves()),
        key=lambda ids: (len(ids), ids),
    )


def _flat_leaf_sets(points, spec):
    tree = FlatEpsilonKdbTree.build(points, spec)
    return sorted(
        (sorted(tree.perm[start:stop].tolist()) for start, stop in tree.leaf_slices()),
        key=lambda ids: (len(ids), ids),
    )


class TestLeafPartition:
    def test_describe_matches_pointer(self, small_clusters):
        spec = JoinSpec(epsilon=0.2, leaf_size=32)
        flat = FlatEpsilonKdbTree.build(small_clusters, spec)
        pointer = EpsilonKdbTree.build(small_clusters, spec)
        assert flat.describe() == pointer.describe()

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=80),
        d=st.integers(min_value=1, max_value=6),
        eps=st.sampled_from([0.0625, 0.125, 0.25, 0.5, 1.0]),
        leaf_size=st.sampled_from([1, 2, 4, 16]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_flat_leaf_partition_equals_pointer(self, n, d, eps, leaf_size, seed):
        # Quantized coordinates so cell-boundary ties occur constantly.
        points = (
            np.random.default_rng(seed).integers(0, 17, size=(n, d)).astype(np.float64)
            / 16.0
        )
        spec = JoinSpec(epsilon=eps, leaf_size=leaf_size)
        assert _flat_leaf_sets(points, spec) == _pointer_leaf_sets(points, spec)

    def test_leaves_partition_the_input(self, small_uniform):
        tree = FlatEpsilonKdbTree.build(small_uniform, JoinSpec(epsilon=0.1))
        rows = np.concatenate(
            [tree.perm[start:stop] for start, stop in tree.leaf_slices()]
        )
        assert sorted(rows.tolist()) == list(range(len(small_uniform)))

    def test_packed_nodes_round_trip(self, small_uniform):
        spec = JoinSpec(epsilon=0.15, leaf_size=64)
        tree = FlatEpsilonKdbTree.build(small_uniform, spec)
        clone = FlatEpsilonKdbTree.from_arrays(
            tree.points_flat,
            tree.perm,
            tree.digits,
            tree.packed_nodes(),
            spec,
            tree.grid,
        )
        assert clone.describe() == tree.describe()
        assert clone.n_nodes == tree.n_nodes
        result_a = epsilon_kdb_self_join(small_uniform, spec, tree=tree)
        result_b = epsilon_kdb_self_join(small_uniform, spec, tree=clone)
        assert _pair_bytes(result_a) == _pair_bytes(result_b)

    def test_sweep_index_for_shipped_tree(self):
        """A shipped tree derives its rank key on first use; like the
        one the build takes from its radix sort, it ranks every row by
        value and the join over it is the same, ties included (tied
        rows in different leaves may rank in either order)."""
        points = np.round(np.random.default_rng(12).random((800, 4)) * 10) / 10
        spec = JoinSpec(epsilon=0.15, leaf_size=16)
        tree = FlatEpsilonKdbTree.build(points, spec)
        clone = FlatEpsilonKdbTree.from_arrays(
            tree.points_flat,
            tree.perm,
            tree.digits,
            tree.packed_nodes(),
            spec,
            tree.grid,
        )
        stride = len(points) + 1
        for shipped in (tree, clone):
            values, key = shipped.sweep_index()
            assert np.all(np.diff(key) > 0)
            assert np.array_equal(values, np.sort(tree.sort_values))
            assert np.array_equal(values[key % stride], tree.sort_values)
        built = epsilon_kdb_self_join(points, spec, tree=tree)
        loaded = epsilon_kdb_self_join(points, spec, tree=clone)
        assert _pair_bytes(loaded) == _pair_bytes(built)
        assert _counters(loaded) == _counters(built)


# ----------------------------------------------------------------------
# byte-identical output across engines
# ----------------------------------------------------------------------
class TestSerialEquivalence:
    @pytest.mark.parametrize("metric", ["l1", "l2", "linf"])
    def test_self_join_identical(self, metric, small_clusters):
        flat = epsilon_kdb_self_join(small_clusters, _spec(metric=metric))
        expected = oracle_self_pairs(small_clusters, _spec(metric=metric))
        assert len(flat.pairs) > 0
        assert _pair_bytes(flat) == expected.tobytes()

    def test_two_set_join_identical(self, rng):
        r = rng.random((700, 6))
        s = rng.random((800, 6)) * 1.1 - 0.05
        flat = epsilon_kdb_join(r, s, _spec())
        assert len(flat.pairs) > 0
        assert _pair_bytes(flat) == oracle_two_set_pairs(r, s, _spec()).tobytes()

    def test_auto_resolves_to_flat(self, small_uniform):
        """With no pre-built tree the join builds a flat tree."""
        result = epsilon_kdb_self_join(small_uniform, JoinSpec(epsilon=0.1))
        assert result.stats.build_nodes > 0

    def test_pruning_off_identical(self, small_uniform):
        spec = _spec(adjacency_pruning=False)
        flat = epsilon_kdb_self_join(small_uniform, spec)
        assert _pair_bytes(flat) == oracle_self_pairs(small_uniform, spec).tobytes()

    def test_custom_split_order_and_sort_dim(self, small_uniform):
        kwargs = dict(split_order=[3, 1, 0, 2, 7, 6, 5, 4], sort_dim=2)
        flat = epsilon_kdb_self_join(small_uniform, _spec(**kwargs))
        expected = oracle_self_pairs(small_uniform, _spec(**kwargs))
        assert _pair_bytes(flat) == expected.tobytes()

    def test_build_stats_populated(self, small_uniform):
        result = epsilon_kdb_self_join(small_uniform, _spec())
        assert result.stats.build_nodes > 0
        assert result.stats.build_sort_seconds > 0.0

    @pytest.mark.parametrize("leaf_size", [None, 4], ids=["leaf-default", "deep"])
    @pytest.mark.parametrize("metric", sorted(_COUNTER_METRICS))
    @pytest.mark.parametrize("pruning", [True, False], ids=["pruned", "unpruned"])
    @pytest.mark.parametrize("kind", ["self", "two-set"])
    def test_traversal_stats_match_pointer(
        self, small_clusters, kind, pruning, metric, leaf_size, monkeypatch
    ):
        """The frontier's counters equal the ones the recursive pointer
        traversal recorded on the same case (:data:`_POINTER_COUNTERS`),
        and its pairs equal brute force."""
        monkeypatch.setattr(
            profile, "_ACTIVE", CostProfile(tile_rows=_PINNED_TILE_ROWS)
        )
        # Unpruned traversals visit every child pair: keep small.
        points = small_clusters if pruning else small_clusters[:300]
        kwargs = dict(metric=_COUNTER_METRICS[metric], adjacency_pruning=pruning)
        if leaf_size is not None:
            kwargs["leaf_size"] = leaf_size
        spec = _spec(**kwargs)
        if kind == "self":
            flat = epsilon_kdb_self_join(points, spec)
            expected = oracle_self_pairs(points, spec)
        else:
            r, s = points[::2], points[1::3] + 0.01
            flat = epsilon_kdb_join(r, s, spec)
            expected = oracle_two_set_pairs(r, s, spec)
        case = "-".join(
            [
                kind,
                "pruned" if pruning else "unpruned",
                metric,
                "deep" if leaf_size else "leaf-default",
            ]
        )
        assert flat.stats.kernel_tile_rows == _PINNED_TILE_ROWS
        assert _counters(flat) == _POINTER_COUNTERS[case]
        assert _pair_bytes(flat) == expected.tobytes()

    @pytest.mark.parametrize("kind", ["self", "two-set"])
    def test_stripe_range_stats_sum_to_serial(self, small_clusters, kind):
        """In-process parallel stripe ranges partition the serial
        traversal: their counters sum to the serial join's, less the
        one root visit no range makes."""
        executor = ParallelJoinExecutor(
            _spec(n_workers=3), use_processes=False, serial_threshold=0
        )
        if kind == "self":
            serial = epsilon_kdb_self_join(small_clusters, _spec())
            parallel = executor.self_join(small_clusters)
        else:
            r, s = small_clusters[::2], small_clusters[1::3] + 0.01
            serial = epsilon_kdb_join(r, s, _spec())
            parallel = executor.join(r, s)
        assert parallel.stats.stripes > 1
        assert parallel.stats.node_pairs_visited + 1 == serial.stats.node_pairs_visited
        assert parallel.stats.leaf_joins == serial.stats.leaf_joins
        assert (
            parallel.stats.distance_computations
            == serial.stats.distance_computations
        )
        assert _pair_bytes(parallel) == _pair_bytes(serial)

    def test_empty_and_tiny_inputs(self):
        spec = _spec()
        assert epsilon_kdb_self_join(np.empty((0, 3)), spec).count == 0
        assert epsilon_kdb_self_join(np.zeros((1, 3)), spec).count == 0
        two = epsilon_kdb_self_join(np.zeros((2, 3)), spec)
        assert two.count == 1


class TestEngineEquivalence:
    def test_parallel_in_process_identical(self, small_clusters):
        spec = _spec(n_workers=3)
        expected = oracle_self_pairs(small_clusters, _spec())
        result = ParallelJoinExecutor(
            spec, use_processes=False, serial_threshold=0
        ).self_join(small_clusters)
        assert _pair_bytes(result) == expected.tobytes()
        assert result.stats.duplicate_pairs_merged == 0
        assert result.stats.build_nodes > 0

    def test_parallel_pooled_identical(self, small_clusters):
        spec = _spec(n_workers=2)
        expected = oracle_self_pairs(small_clusters, _spec())
        result = ParallelJoinExecutor(spec, serial_threshold=0).self_join(
            small_clusters
        )
        assert _pair_bytes(result) == expected.tobytes()

    def test_parallel_two_set_identical(self, rng):
        r = rng.random((600, 5))
        s = rng.random((500, 5))
        expected = oracle_two_set_pairs(r, s, _spec())
        result = ParallelJoinExecutor(
            _spec(n_workers=3), use_processes=False, serial_threshold=0
        ).join(r, s)
        assert _pair_bytes(result) == expected.tobytes()

    def test_parallel_fault_injection_identical(self, small_clusters):
        spec = _spec(n_workers=3)
        expected = oracle_self_pairs(small_clusters, _spec())
        plan = FaultPlan(seed=7).crash_task(0).crash_task(2)
        result = ParallelJoinExecutor(
            spec,
            use_processes=False,
            serial_threshold=0,
            retry_backoff=0.0,
            fault_plan=plan,
        ).self_join(small_clusters)
        assert _pair_bytes(result) == expected.tobytes()
        assert result.stats.tasks_retried > 0

    def test_external_identical(self, small_clusters):
        expected = oracle_self_pairs(small_clusters, _spec())
        external = external_self_join(small_clusters, _spec(), memory_points=400)
        assert np.array_equal(np.unique(external.pairs, axis=0), expected)


# ----------------------------------------------------------------------
# prebuilt trees
# ----------------------------------------------------------------------
class TestTreeReuse:
    def test_prebuilt_flat_tree_reused(self, small_uniform):
        spec = _spec(epsilon=0.2)
        tree = FlatEpsilonKdbTree.build(small_uniform, spec)
        fresh = epsilon_kdb_self_join(small_uniform, spec)
        reused = epsilon_kdb_self_join(small_uniform, spec, tree=tree)
        assert _pair_bytes(fresh) == _pair_bytes(reused)
        # The sort happened when the caller built the tree, not here.
        assert reused.stats.build_sort_seconds == 0.0

    def test_prebuilt_tree_smaller_epsilon_ok(self, small_uniform):
        tree = FlatEpsilonKdbTree.build(small_uniform, _spec(epsilon=0.3))
        narrower = _spec(epsilon=0.2)
        reused = epsilon_kdb_self_join(small_uniform, narrower, tree=tree)
        fresh = epsilon_kdb_self_join(small_uniform, narrower)
        assert _pair_bytes(reused) == _pair_bytes(fresh)

    def test_prebuilt_tree_larger_epsilon_rejected(self, small_uniform):
        tree = FlatEpsilonKdbTree.build(small_uniform, _spec(epsilon=0.1))
        with pytest.raises(InvalidParameterError, match="rebuild the tree"):
            epsilon_kdb_self_join(small_uniform, _spec(epsilon=0.2), tree=tree)

    @pytest.mark.parametrize("tree_cls", [FlatEpsilonKdbTree, EpsilonKdbTree])
    def test_prebuilt_tree_over_other_points_rejected(self, small_uniform, tree_cls):
        """A tree over a different point count or dimensionality would
        emit ids outside the input (or crash), so the join refuses it."""
        spec = _spec(epsilon=0.2)
        points = small_uniform[:50]
        tree = tree_cls.build(points, spec)
        with pytest.raises(InvalidParameterError, match="pre-built tree"):
            epsilon_kdb_self_join(small_uniform[:10], spec, tree=tree)
        wider = tree_cls.build(np.hstack([points, points[:, :1]]), spec)
        with pytest.raises(InvalidParameterError, match="pre-built tree"):
            epsilon_kdb_self_join(points, spec, tree=wider)

    def test_pointer_tree_rejected(self, small_uniform):
        """Only the flat tree is traversed; a pointer tree is a typed
        error naming the class to build instead."""
        spec = _spec(epsilon=0.2)
        tree = EpsilonKdbTree.build(small_uniform, spec)
        with pytest.raises(InvalidParameterError, match="FlatEpsilonKdbTree"):
            epsilon_kdb_self_join(small_uniform, spec, tree=tree)


# ----------------------------------------------------------------------
# tiny epsilon: cell counts beyond what int64 key arithmetic can pack
# ----------------------------------------------------------------------
def _chain(eps, shift=0.0):
    """300 points ``0.6 * eps`` apart along y at x = 0.9: consecutive
    points pair up across a long run of adjacent cells."""
    steps = np.arange(300)
    return np.column_stack([np.full(300, 0.9), 0.25 + steps * 0.6 * eps + shift])


def _duplicate_groups(groups, copies, uniform=3000, seed=3):
    """``groups`` points repeated ``copies`` times each, plus ``uniform``
    distinct points, in three dimensions."""
    rng = np.random.default_rng(seed)
    centers = rng.random((groups, 3))
    return np.vstack([np.repeat(centers, copies, axis=0), rng.random((uniform, 3))])


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestTinyEpsilon:
    @pytest.mark.parametrize("eps", [1e-14, 1e-15, 1e-16, 1e-17, 1e-18])
    def test_chain_matches_brute_force(self, eps):
        """Two-set, parallel two-set, self-join and batched range
        queries stay exact when the grid has ~1/eps cells per dimension."""
        rng = np.random.default_rng(7)
        r = np.vstack([rng.random((3000, 2)) * [0.8, 1.0], _chain(eps)])
        s = np.vstack([rng.random((500, 2)) * [0.8, 1.0], _chain(eps, 0.3 * eps)])
        spec = JoinSpec(epsilon=eps)
        expected = oracle_two_set_pairs(r, s, spec)
        assert len(expected), "the case must emit pairs to prove anything"
        assert _pair_bytes(epsilon_kdb_join(r, s, spec)) == expected.tobytes()
        parallel = ParallelJoinExecutor(
            JoinSpec(epsilon=eps, n_workers=2),
            use_processes=False,
            serial_threshold=0,
        ).join(r, s)
        assert _pair_bytes(parallel) == expected.tobytes()
        self_join = epsilon_kdb_self_join(r, spec)
        assert _pair_bytes(self_join) == oracle_self_pairs(r, spec).tobytes()
        queries = s[400:]  # 100 uniform rows, then the shifted chain
        hits = FlatEpsilonKdbTree.build(r, spec).batch_range_query(queries)
        probe = oracle_two_set_pairs(queries, r, spec)
        for row, found in enumerate(hits):
            assert found.tolist() == probe[probe[:, 0] == row, 1].tolist()
        assert sum(len(found) for found in hits) == len(probe) > 0

    def test_duplicate_groups_match_brute_force(self):
        """Cells of exact duplicates stay oversized at every level."""
        points = _duplicate_groups(20, 200)
        spec = JoinSpec(epsilon=1e-18)
        result = epsilon_kdb_self_join(points, spec)
        expected = oracle_self_pairs(points, spec)
        assert len(expected) == 20 * 200 * 199 // 2
        assert _pair_bytes(result) == expected.tobytes()

    def test_build_sorts_by_two_keys_when_packed_key_overflows(self):
        """5000 oversized nodes times ~1e15 cells no longer pack into
        one int64 key: the build sorts by (node, digit) instead."""
        points = _duplicate_groups(5000, 2, uniform=0) * 1e-3
        spec = JoinSpec(epsilon=1e-18, leaf_size=1)
        with mock.patch("numpy.lexsort", wraps=np.lexsort) as lexsort:
            tree = FlatEpsilonKdbTree.build(points, spec)
        assert lexsort.called
        assert tree.n_leaves == 5000
        result = epsilon_kdb_self_join(points, spec, tree=tree)
        first = np.arange(0, 10000, 2, dtype=np.int64)
        assert result.pairs.tolist() == np.column_stack([first, first + 1]).tolist()

    @pytest.mark.parametrize("eps", [1e-20, 1e-300])
    def test_cell_count_clamped(self, eps):
        """``span / eps`` overflows int64; the clamped grid is exact."""
        points = _duplicate_groups(20, 5)
        spec = JoinSpec(epsilon=eps)
        assert Grid.fit(points, eps).n_cells.tolist() == [2**50] * 3
        result = epsilon_kdb_self_join(points, spec)
        expected = oracle_self_pairs(points, spec)
        assert len(expected) == 20 * 10
        assert _pair_bytes(result) == expected.tobytes()


    @pytest.mark.parametrize("eps", [1e-16, 1e-17])
    def test_rounding_far_from_lower_bound(self, eps):
        """Two values within eps of each other, close to 0, on either
        side of a rounding boundary of ``x - lo`` with ``lo = -1``: an
        uncapped grid puts them 22 cells apart at eps = 1e-17."""
        half_ulp = np.spacing(1.0) / 2
        points = np.array(
            [[-1.0, 0.0], [1.0, 0.0], [half_ulp - 3e-18, 0.5], [half_ulp + 3e-18, 0.5]]
        )
        spec = JoinSpec(epsilon=eps, leaf_size=1)
        result = epsilon_kdb_self_join(points, spec)
        assert result.pairs.tolist() == [[2, 3]]
        assert _pair_bytes(result) == oracle_self_pairs(points, spec).tobytes()


# ----------------------------------------------------------------------
# stats plumbing (CLI renderer + metrics ingestion)
# ----------------------------------------------------------------------
class TestStatsPlumbing:
    def test_as_dict_round_trips_build_counters(self):
        stats = JoinStats(build_nodes=42, build_sort_seconds=0.5)
        data = stats.as_dict()
        assert data["build_nodes"] == 42
        assert data["build_sort_seconds"] == 0.5

    def test_merge_accumulates_build_counters(self):
        a = JoinStats(build_nodes=10, build_sort_seconds=0.25)
        b = JoinStats(build_nodes=5, build_sort_seconds=0.5)
        a.merge(b)
        assert a.build_nodes == 15
        assert a.build_sort_seconds == 0.75

    def test_metrics_ingest_build_counters(self):
        registry = MetricsRegistry()
        stats = JoinStats(build_nodes=7, build_sort_seconds=0.125)
        registry.ingest_stats(stats)
        assert registry.counter("join.build_nodes").value == 7
        assert registry.gauge("join.build_sort_seconds").value == 0.125

    def test_cli_renders_build_counters(self, capsys):
        from repro.cli import _print_stats

        _print_stats(
            JoinStats(
                pairs_emitted=1,
                build_nodes=1500,
                build_sort_seconds=0.25,
            )
        )
        out = capsys.readouterr().out
        assert "tree nodes built:" in out and "1.5k" in out
        assert "build sort time:" in out and "250" in out
