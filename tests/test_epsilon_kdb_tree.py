"""Structural tests for the epsilon-kdB tree and its grid."""

import numpy as np
import pytest

from repro.core.config import JoinSpec
from repro.core.epsilon_kdb import EpsilonKdbTree, Grid, InternalNode, LeafNode
from repro.core.flat_build import FlatEpsilonKdbTree
from repro.errors import DomainError, InvalidParameterError


class TestGrid:
    def test_cell_count_floor_rule(self):
        grid = Grid.fit(np.array([[0.0], [1.0]]), eps=0.3)
        # span 1.0 / 0.3 -> 3 cells; the last one is wider.
        assert grid.n_cells.tolist() == [3]

    def test_single_cell_when_span_below_eps(self):
        grid = Grid.fit(np.array([[0.0], [0.05]]), eps=0.1)
        assert grid.n_cells.tolist() == [1]

    def test_every_point_in_exactly_one_cell(self):
        rng = np.random.default_rng(0)
        points = rng.random((500, 3))
        grid = Grid.fit(points, eps=0.07)
        for dim in range(3):
            cells = grid.cell_of(points[:, dim], dim)
            assert (cells >= 0).all()
            assert (cells < grid.n_cells[dim]).all()

    def test_cell_width_at_least_eps(self):
        """The clipped final cell is wider than eps, never narrower."""
        grid = Grid.fit(np.array([[0.0], [1.0]]), eps=0.3)
        # points in [0.9, 1.0] land in cell 2, whose span [0.6, 1.0]
        # includes the remainder.
        assert grid.cell_of(np.array([0.95]), 0)[0] == 2
        assert grid.cell_of(np.array([0.61]), 0)[0] == 2

    def test_scalar_and_vector_cells_agree(self):
        rng = np.random.default_rng(1)
        points = rng.random((200, 2))
        grid = Grid.fit(points, eps=0.13)
        vector = grid.cell_of(points[:, 1], 1)
        for value, expected in zip(points[:, 1], vector):
            assert grid.cell_of_scalar(value, 1) == expected

    def test_adjacent_cell_rule_holds(self):
        """Points within eps in a dimension differ by at most one cell."""
        rng = np.random.default_rng(2)
        values = rng.random(2000)
        eps = 0.06
        grid = Grid.fit(values.reshape(-1, 1), eps=eps)
        cells = grid.cell_of(values, 0)
        order = np.argsort(values)
        sorted_values = values[order]
        sorted_cells = cells[order]
        for k in range(len(values) - 1):
            within = np.flatnonzero(
                sorted_values[k + 1 :] - sorted_values[k] <= eps
            )
            if len(within):
                neighbors = sorted_cells[k + 1 : k + 1 + len(within)]
                assert (np.abs(neighbors - sorted_cells[k]) <= 1).all()

    def test_union_covers_both_sets(self):
        a = np.array([[0.0, 0.5]])
        b = np.array([[2.0, -1.0]])
        grid = Grid.fit_union(a, b, eps=0.5)
        grid.validate(a)
        grid.validate(b)

    def test_validate_rejects_outside_points(self):
        grid = Grid.fit(np.array([[0.0], [1.0]]), eps=0.1)
        with pytest.raises(DomainError):
            grid.validate(np.array([[1.5]]))

    def test_rejects_inverted_bounds(self):
        with pytest.raises(InvalidParameterError):
            Grid.fit(np.zeros((1, 1)), eps=0.1, lo=np.array([1.0]), hi=np.array([0.0]))

    def test_single_point_degenerates_to_one_cell(self):
        grid = Grid.fit(np.array([[0.3, -1.5, 7.0]]), eps=0.2)
        assert grid.n_cells.tolist() == [1, 1, 1]
        assert grid.cell_of(np.array([0.3]), 0)[0] == 0
        grid.validate(np.array([[0.3, -1.5, 7.0]]))

    def test_constant_dimension_gets_one_cell(self):
        rng = np.random.default_rng(7)
        points = rng.random((100, 3))
        points[:, 1] = 0.25  # zero span in dim 1
        grid = Grid.fit(points, eps=0.1)
        assert grid.n_cells[1] == 1
        assert grid.n_cells[0] > 1 and grid.n_cells[2] > 1
        assert (grid.cell_of(points[:, 1], 1) == 0).all()

    def test_mixed_dtype_bounds_coerced_to_float64(self):
        grid = Grid.fit(
            np.array([[0, 0], [5, 5]], dtype=np.int32),
            eps=0.5,
            lo=np.array([0, 0], dtype=np.int64),
            hi=np.array([5.0, 5.0], dtype=np.float32),
        )
        assert grid.lo.dtype == np.float64 and grid.hi.dtype == np.float64
        assert grid.n_cells.tolist() == [10, 10]

    def test_fit_union_mixed_dtypes(self):
        grid = Grid.fit_union(
            np.array([[0, 1]], dtype=np.int32),
            np.array([[2.5, -0.5]], dtype=np.float32),
            eps=0.5,
        )
        assert grid.lo.dtype == np.float64 and grid.hi.dtype == np.float64
        assert np.allclose(grid.lo, [0.0, -0.5])
        assert np.allclose(grid.hi, [2.5, 1.0])

    def test_fit_union_rejects_non_finite(self):
        with pytest.raises(InvalidParameterError):
            Grid.fit_union(
                np.array([[0.0, np.nan]]), np.array([[1.0, 1.0]]), eps=0.5
            )

    def test_fit_rejects_mismatched_bounds(self):
        with pytest.raises(InvalidParameterError):
            Grid.fit(
                np.zeros((2, 2)), eps=0.1, lo=np.zeros(2), hi=np.ones(3)
            )


def leaf_point_count(tree):
    return sum(leaf.size for leaf in tree.iter_leaves())


def check_cell_containment(tree):
    """Every point under a child keyed by cell c really lies in cell c."""

    def visit(node):
        if isinstance(node, LeafNode):
            return node.indices
        gathered = []
        for cell, child in node.children.items():
            below = visit(child)
            values = tree.points[below, node.split_dim]
            assert (tree.grid.cell_of(values, node.split_dim) == cell).all()
            gathered.append(below)
        return np.concatenate(gathered) if gathered else np.empty(0, dtype=np.int64)

    visit(tree.root)


class TestBulkBuild:
    def test_partitions_all_points(self, small_clusters):
        tree = EpsilonKdbTree.build(small_clusters, JoinSpec(epsilon=0.1))
        indices = np.sort(
            np.concatenate([leaf.indices for leaf in tree.iter_leaves()])
        )
        assert indices.tolist() == list(range(len(small_clusters)))

    def test_cell_containment_invariant(self, small_clusters):
        tree = EpsilonKdbTree.build(
            small_clusters, JoinSpec(epsilon=0.08, leaf_size=32)
        )
        check_cell_containment(tree)

    def test_leaf_size_respected_when_dims_remain(self, small_uniform):
        spec = JoinSpec(epsilon=0.2, leaf_size=16)
        tree = EpsilonKdbTree.build(small_uniform, spec)
        for leaf in tree.iter_leaves():
            if leaf.level < len(tree.split_order):
                assert leaf.size <= spec.leaf_size

    def test_small_input_stays_single_leaf(self):
        points = np.random.default_rng(0).random((10, 4))
        tree = EpsilonKdbTree.build(points, JoinSpec(epsilon=0.1, leaf_size=64))
        assert isinstance(tree.root, LeafNode)

    def test_leaves_sorted_by_sort_dim(self, small_uniform):
        """The flat build's leaves come out sorted by the sweep
        dimension, the order the band sweep needs."""
        tree = FlatEpsilonKdbTree.build(
            small_uniform, JoinSpec(epsilon=0.15, leaf_size=32)
        )
        for start, stop in tree.leaf_slices():
            values = small_uniform[tree.perm[start:stop], tree.sort_dim]
            assert (np.diff(values) >= 0).all()
            assert np.array_equal(tree.sort_values[start:stop], values)

    def test_describe_summary(self, small_uniform):
        tree = EpsilonKdbTree.build(
            small_uniform, JoinSpec(epsilon=0.15, leaf_size=32)
        )
        info = tree.describe()
        assert info.points == len(small_uniform)
        assert info.leaves >= 1
        assert info.dims == small_uniform.shape[1]
        assert len(tree) == len(small_uniform)

    def test_custom_split_order_used(self, small_uniform):
        spec = JoinSpec(epsilon=0.15, leaf_size=32, split_order=[7, 6, 5, 4, 3, 2, 1, 0])
        tree = EpsilonKdbTree.build(small_uniform, spec)
        assert isinstance(tree.root, InternalNode)
        assert tree.root.split_dim == 7

    def test_degenerate_epsilon_larger_than_span(self):
        """eps >= span means one cell everywhere: the tree is one leaf."""
        points = np.random.default_rng(1).random((300, 4))
        tree = EpsilonKdbTree.build(points, JoinSpec(epsilon=5.0, leaf_size=16))
        assert isinstance(tree.root, LeafNode)
        assert tree.root.size == 300

    def test_empty_relation_builds_degenerate_tree(self):
        tree = EpsilonKdbTree.build(np.empty((0, 3)), JoinSpec(epsilon=0.1))
        assert len(tree) == 0
        assert isinstance(tree.root, LeafNode)

    def test_identical_points_do_not_recurse_forever(self):
        points = np.tile([[0.5, 0.5]], (500, 1))
        tree = EpsilonKdbTree.build(points, JoinSpec(epsilon=0.1, leaf_size=8))
        assert leaf_point_count(tree) == 500


class TestIncrementalInsert:
    def test_incremental_matches_bulk_point_set(self, small_clusters):
        spec = JoinSpec(epsilon=0.1, leaf_size=32)
        tree = EpsilonKdbTree.empty(small_clusters, spec)
        for index in range(len(small_clusters)):
            tree.insert(index)
        assert leaf_point_count(tree) == len(small_clusters)
        check_cell_containment(tree)

    def test_incremental_leaf_split_threshold(self):
        rng = np.random.default_rng(3)
        points = rng.random((200, 3))
        spec = JoinSpec(epsilon=0.2, leaf_size=10)
        tree = EpsilonKdbTree.empty(points, spec)
        for index in range(len(points)):
            tree.insert(index)
        for leaf in tree.iter_leaves():
            if leaf.level < len(tree.split_order):
                assert leaf.size <= spec.leaf_size + 1 or leaf.level == len(
                    tree.split_order
                )
