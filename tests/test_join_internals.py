"""White-box tests for the epsilon-kdB join traversal internals."""

import numpy as np

from repro import FlatEpsilonKdbTree, JoinSpec, epsilon_kdb_self_join
from repro.datasets import gaussian_clusters, uniform_points


class TestTraversalAccounting:
    def test_leaf_joins_counted(self):
        points = uniform_points(3000, 8, seed=5)
        result = epsilon_kdb_self_join(points, JoinSpec(epsilon=0.2, leaf_size=64))
        info = FlatEpsilonKdbTree.build(
            points, JoinSpec(epsilon=0.2, leaf_size=64)
        ).describe()
        # At least one self-join per leaf.
        assert result.stats.leaf_joins >= info.leaves

    def test_node_pairs_scale_with_tree_size(self):
        small = epsilon_kdb_self_join(
            uniform_points(500, 6, seed=6), JoinSpec(epsilon=0.15, leaf_size=16)
        )
        large = epsilon_kdb_self_join(
            uniform_points(5000, 6, seed=6), JoinSpec(epsilon=0.15, leaf_size=16)
        )
        assert large.stats.node_pairs_visited > small.stats.node_pairs_visited

    def test_empty_subtree_cross_is_cheap(self):
        """Two well-separated clusters: the cross joins between their
        subtrees should prune to nothing measurable."""
        rng = np.random.default_rng(7)
        left = rng.random((500, 4)) * 0.2
        right = rng.random((500, 4)) * 0.2 + 0.8
        points = np.vstack([left, right])
        result = epsilon_kdb_self_join(points, JoinSpec(epsilon=0.05, leaf_size=32))
        # Candidates should be on the order of within-cluster work only:
        # far below the all-pairs 499k.
        assert result.stats.distance_computations < 150_000


class TestDeterminism:
    def test_identical_runs_identical_everything(self):
        points = gaussian_clusters(2000, 8, seed=8)
        spec = JoinSpec(epsilon=0.1, leaf_size=64)
        first = epsilon_kdb_self_join(points, spec)
        second = epsilon_kdb_self_join(points, spec)
        assert (first.pairs == second.pairs).all()
        assert (
            first.stats.distance_computations
            == second.stats.distance_computations
        )
        assert first.stats.node_pairs_visited == second.stats.node_pairs_visited

    def test_point_order_does_not_change_pair_set(self):
        points = gaussian_clusters(1500, 6, seed=9)
        spec = JoinSpec(epsilon=0.1)
        base = epsilon_kdb_self_join(points, spec).pairs
        permutation = np.random.default_rng(10).permutation(len(points))
        shuffled = epsilon_kdb_self_join(points[permutation], spec).pairs
        # Map shuffled indices back to the original ids and canonicalize.
        remapped = permutation[shuffled]
        lo = np.minimum(remapped[:, 0], remapped[:, 1])
        hi = np.maximum(remapped[:, 0], remapped[:, 1])
        remapped = np.unique(np.column_stack([lo, hi]), axis=0)
        assert remapped.shape == base.shape
        assert (remapped == base).all()
