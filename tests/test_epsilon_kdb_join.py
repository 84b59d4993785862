"""Correctness tests for the epsilon-kdB join against the brute-force oracle."""

import numpy as np
import pytest

from _oracles import assert_same_pairs, oracle_self_pairs, oracle_two_set_pairs
from repro import (
    FlatEpsilonKdbTree,
    IncrementalJoin,
    JoinSpec,
    PairCounter,
    epsilon_kdb_join,
    epsilon_kdb_self_join,
)
from repro.datasets import gaussian_clusters, uniform_points
from repro.errors import InvalidParameterError


@pytest.mark.parametrize("metric", ["l1", "l2", "linf", 3])
@pytest.mark.parametrize("eps", [0.05, 0.2, 0.6])
def test_self_join_matches_oracle_uniform(metric, eps, small_uniform):
    spec = JoinSpec(epsilon=eps, metric=metric, leaf_size=32)
    expected = oracle_self_pairs(small_uniform, spec)
    result = epsilon_kdb_self_join(small_uniform, spec)
    assert_same_pairs(result.pairs, expected, f"kdb self {metric}/{eps}")


@pytest.mark.parametrize("eps", [0.03, 0.1, 0.3])
def test_self_join_matches_oracle_clusters(eps, small_clusters):
    spec = JoinSpec(epsilon=eps, leaf_size=48)
    expected = oracle_self_pairs(small_clusters, spec)
    result = epsilon_kdb_self_join(small_clusters, spec)
    assert_same_pairs(result.pairs, expected, f"kdb self clusters/{eps}")


@pytest.mark.parametrize("leaf_size", [1, 4, 16, 100, 5000])
def test_leaf_size_never_changes_result(leaf_size, small_uniform):
    spec = JoinSpec(epsilon=0.25, leaf_size=leaf_size)
    expected = oracle_self_pairs(small_uniform, spec)
    result = epsilon_kdb_self_join(small_uniform, spec)
    assert_same_pairs(result.pairs, expected, f"leaf_size={leaf_size}")


def test_two_set_join_matches_oracle_with_overlap():
    # Same cluster layout on both sides forces real overlap.
    left = gaussian_clusters(700, 8, clusters=5, sigma=0.05, seed=42)
    right = gaussian_clusters(900, 8, clusters=5, sigma=0.05, seed=42) + 0.01
    spec = JoinSpec(epsilon=0.15, leaf_size=32)
    expected = oracle_two_set_pairs(left, right, spec)
    assert len(expected) > 0, "test workload must produce matches"
    result = epsilon_kdb_join(left, right, spec)
    assert_same_pairs(result.pairs, expected, "kdb two-set")


def test_two_set_join_orientation():
    left = np.array([[0.0, 0.0]])
    right = np.array([[0.05, 0.0], [0.9, 0.9]])
    result = epsilon_kdb_join(left, right, JoinSpec(epsilon=0.1))
    assert result.pairs.tolist() == [[0, 0]]


def test_two_set_disjoint_boxes():
    left = uniform_points(200, 4, seed=1)
    right = uniform_points(200, 4, seed=2) + 10.0
    result = epsilon_kdb_join(left, right, JoinSpec(epsilon=0.5))
    assert result.count == 0


def test_two_set_dim_mismatch_raises():
    with pytest.raises(InvalidParameterError):
        epsilon_kdb_join(np.zeros((3, 2)), np.zeros((3, 3)), JoinSpec(epsilon=0.1))


class TestSelfJoinInvariants:
    def test_no_self_pairs_and_ordered(self, small_uniform):
        result = epsilon_kdb_self_join(small_uniform, JoinSpec(epsilon=0.4))
        pairs = result.pairs
        assert (pairs[:, 0] < pairs[:, 1]).all()

    def test_each_pair_once(self, small_uniform):
        result = epsilon_kdb_self_join(small_uniform, JoinSpec(epsilon=0.4))
        assert len(np.unique(result.pairs, axis=0)) == len(result.pairs)

    def test_duplicate_points_all_pair(self):
        points = np.tile([[0.25, 0.75]], (30, 1))
        result = epsilon_kdb_self_join(points, JoinSpec(epsilon=0.01))
        assert result.count == 30 * 29 // 2

    def test_pairs_emitted_matches_len(self, small_uniform):
        result = epsilon_kdb_self_join(small_uniform, JoinSpec(epsilon=0.3))
        assert result.stats.pairs_emitted == len(result.pairs)


class TestEdgeCases:
    def test_empty_input(self):
        result = epsilon_kdb_self_join(np.empty((0, 3)), JoinSpec(epsilon=0.1))
        assert result.count == 0

    def test_single_point(self):
        result = epsilon_kdb_self_join(np.array([[0.5, 0.5]]), JoinSpec(epsilon=0.1))
        assert result.count == 0

    def test_two_points(self):
        points = np.array([[0.0, 0.0], [0.05, 0.05]])
        result = epsilon_kdb_self_join(points, JoinSpec(epsilon=0.1))
        assert result.pairs.tolist() == [[0, 1]]

    def test_one_dimensional_data(self):
        rng = np.random.default_rng(5)
        points = rng.random((300, 1))
        spec = JoinSpec(epsilon=0.02, leaf_size=16)
        expected = oracle_self_pairs(points, spec)
        result = epsilon_kdb_self_join(points, spec)
        assert_same_pairs(result.pairs, expected, "1-d")

    def test_epsilon_larger_than_diameter(self):
        points = np.random.default_rng(6).random((100, 3))
        result = epsilon_kdb_self_join(points, JoinSpec(epsilon=10.0))
        assert result.count == 100 * 99 // 2

    def test_points_on_cell_boundaries(self):
        # Exact multiples of eps sit on cell edges.
        values = np.arange(0, 11) * 0.1
        points = np.column_stack([values, values])
        spec = JoinSpec(epsilon=0.1, metric="linf", leaf_size=2)
        expected = oracle_self_pairs(points, spec)
        result = epsilon_kdb_self_join(points, spec)
        assert_same_pairs(result.pairs, expected, "boundaries")

    def test_empty_two_set_sides(self):
        points = np.random.default_rng(7).random((10, 2))
        empty = np.empty((0, 2))
        assert epsilon_kdb_join(points, empty, JoinSpec(epsilon=0.1)).count == 0
        assert epsilon_kdb_join(empty, points, JoinSpec(epsilon=0.1)).count == 0


class TestConfigurationVariants:
    def test_adjacency_pruning_off_same_result(self, small_clusters):
        on = epsilon_kdb_self_join(small_clusters, JoinSpec(epsilon=0.1))
        off_spec = JoinSpec(epsilon=0.1, adjacency_pruning=False)
        off = epsilon_kdb_self_join(small_clusters, off_spec)
        assert_same_pairs(off.pairs, on.pairs, "pruning off")
        # ...but pruning-off does strictly more traversal work.
        assert off.stats.node_pairs_visited >= on.stats.node_pairs_visited

    def test_custom_split_order_same_result(self, small_uniform):
        base = epsilon_kdb_self_join(small_uniform, JoinSpec(epsilon=0.2))
        spec = JoinSpec(epsilon=0.2, split_order=list(range(7, -1, -1)))
        reordered = epsilon_kdb_self_join(small_uniform, spec)
        assert_same_pairs(reordered.pairs, base.pairs, "split order")

    def test_custom_sort_dim_same_result(self, small_uniform):
        base = epsilon_kdb_self_join(small_uniform, JoinSpec(epsilon=0.2))
        result = epsilon_kdb_self_join(
            small_uniform, JoinSpec(epsilon=0.2, sort_dim=0)
        )
        assert_same_pairs(result.pairs, base.pairs, "sort dim")

    def test_counter_sink_matches_collector(self, small_uniform):
        spec = JoinSpec(epsilon=0.3)
        collected = epsilon_kdb_self_join(small_uniform, spec)
        counter = PairCounter()
        counted = epsilon_kdb_self_join(small_uniform, spec, sink=counter)
        assert counter.count == len(collected.pairs)
        assert counted.stats.pairs_emitted == counter.count

    def test_prebuilt_tree_reused(self, small_uniform):
        spec = JoinSpec(epsilon=0.25)
        tree = FlatEpsilonKdbTree.build(small_uniform, spec)
        direct = epsilon_kdb_self_join(small_uniform, spec)
        reused = epsilon_kdb_self_join(small_uniform, spec, tree=tree)
        assert_same_pairs(reused.pairs, direct.pairs, "prebuilt tree")

    def test_tree_reused_for_smaller_epsilon(self, small_clusters):
        """A tree built at a coarse epsilon answers every finer join."""
        coarse = JoinSpec(epsilon=0.2, leaf_size=32)
        tree = FlatEpsilonKdbTree.build(small_clusters, coarse)
        for eps in (0.15, 0.08, 0.02):
            fine = JoinSpec(epsilon=eps, leaf_size=32)
            expected = oracle_self_pairs(small_clusters, fine)
            result = epsilon_kdb_self_join(small_clusters, fine, tree=tree)
            assert_same_pairs(result.pairs, expected, f"reuse at eps={eps}")

    def test_tree_reuse_for_larger_epsilon_rejected(self, small_clusters):
        tree = FlatEpsilonKdbTree.build(small_clusters, JoinSpec(epsilon=0.1))
        with pytest.raises(InvalidParameterError):
            epsilon_kdb_self_join(
                small_clusters, JoinSpec(epsilon=0.3), tree=tree
            )

    def test_incrementally_built_tree_joins_correctly(self, small_clusters):
        """A session grown batch by batch, compacting its delta into a
        base tree along the way, ends on the oracle's pairs."""
        spec = JoinSpec(epsilon=0.1, leaf_size=32, delta_threshold=250)
        session = IncrementalJoin(spec)
        for chunk in np.array_split(small_clusters, 12):
            session.insert(chunk)
        assert session.stats.compactions > 0
        expected = oracle_self_pairs(small_clusters, spec)
        assert_same_pairs(session.current_pairs(), expected, "incremental tree")


class TestStatistics:
    def test_distance_computations_bounded_by_all_pairs(self, small_uniform):
        n = len(small_uniform)
        result = epsilon_kdb_self_join(small_uniform, JoinSpec(epsilon=0.1))
        assert result.stats.distance_computations <= n * (n - 1) // 2

    def test_pruning_reduces_candidates_on_clusters(self, small_clusters):
        n = len(small_clusters)
        result = epsilon_kdb_self_join(
            small_clusters, JoinSpec(epsilon=0.05, leaf_size=32)
        )
        # Clustered data at small epsilon must prune the vast majority.
        assert result.stats.distance_computations < 0.2 * n * (n - 1) / 2

    def test_timing_fields_populated(self, small_uniform):
        result = epsilon_kdb_self_join(small_uniform, JoinSpec(epsilon=0.2))
        assert result.build_seconds >= 0
        assert result.join_seconds >= 0
        assert result.total_seconds == pytest.approx(
            result.build_seconds + result.join_seconds
        )
