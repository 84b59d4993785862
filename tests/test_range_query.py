"""Tests for epsilon-kdB tree range queries (similarity search)."""

import numpy as np
import pytest

from repro import FlatEpsilonKdbTree, JoinSpec
from repro.errors import InvalidParameterError


def linear_scan(points, query, eps, metric):
    diffs = np.abs(points - query)
    return np.flatnonzero(metric.within_gap(diffs, eps))


@pytest.mark.parametrize("metric", ["l1", "l2", "linf"])
def test_matches_linear_scan(metric, small_clusters):
    spec = JoinSpec(epsilon=0.15, metric=metric, leaf_size=32)
    tree = FlatEpsilonKdbTree.build(small_clusters, spec)
    rng = np.random.default_rng(23)
    for _ in range(25):
        query = rng.random(small_clusters.shape[1])
        hits = tree.range_query(query)
        expected = linear_scan(small_clusters, query, 0.15, spec.metric)
        assert hits.tolist() == expected.tolist()


def test_smaller_radius_than_build_epsilon(small_clusters):
    spec = JoinSpec(epsilon=0.2, leaf_size=32)
    tree = FlatEpsilonKdbTree.build(small_clusters, spec)
    rng = np.random.default_rng(24)
    for _ in range(10):
        query = rng.random(small_clusters.shape[1])
        hits = tree.range_query(query, eps=0.07)
        expected = linear_scan(small_clusters, query, 0.07, spec.metric)
        assert hits.tolist() == expected.tolist()


def test_larger_radius_rejected(small_uniform):
    tree = FlatEpsilonKdbTree.build(small_uniform, JoinSpec(epsilon=0.1))
    with pytest.raises(InvalidParameterError):
        tree.range_query(np.zeros(small_uniform.shape[1]), eps=0.5)


def test_query_point_outside_domain(small_uniform):
    """Queries just outside the data bounding box must still be exact."""
    spec = JoinSpec(epsilon=0.3, leaf_size=32)
    tree = FlatEpsilonKdbTree.build(small_uniform, spec)
    dims = small_uniform.shape[1]
    for query in (np.full(dims, -0.2), np.full(dims, 1.2)):
        hits = tree.range_query(query)
        expected = linear_scan(small_uniform, query, 0.3, spec.metric)
        assert hits.tolist() == expected.tolist()


def test_wrong_query_shape_rejected(small_uniform):
    tree = FlatEpsilonKdbTree.build(small_uniform, JoinSpec(epsilon=0.1))
    with pytest.raises(InvalidParameterError):
        tree.range_query(np.zeros(3))


def test_query_on_incrementally_built_tree():
    """A session grown by inserts, with compactions into its base tree
    along the way, answers like a linear scan."""
    from repro import IncrementalJoin

    rng = np.random.default_rng(25)
    points = rng.random((400, 5))
    spec = JoinSpec(epsilon=0.2, leaf_size=16, delta_threshold=60)
    session = IncrementalJoin(spec)
    for chunk in np.array_split(points, 8):
        session.insert(chunk)
    assert session.stats.compactions > 0
    query = np.full(5, 0.5)
    hits = session.range_query(query)
    expected = session.live_ids()[linear_scan(session.live_points(), query, 0.2, spec.metric)]
    assert hits.tolist() == np.sort(expected).tolist()


def test_empty_tree_returns_nothing():
    tree = FlatEpsilonKdbTree.build(np.empty((0, 4)), JoinSpec(epsilon=0.1))
    hits = tree.range_query(np.zeros(4))
    assert hits.tolist() == []


# ----------------------------------------------------------------------
# batched queries
# ----------------------------------------------------------------------


@pytest.mark.parametrize("metric", ["l1", "l2", "linf"])
def test_batch_matches_sequential_pointer_queries(metric, small_clusters):
    """Q batched queries are, byte for byte, the ascending int64
    linear-scan hits that Q sequential pointer-tree queries returned."""
    spec = JoinSpec(epsilon=0.15, metric=metric, leaf_size=32)
    flat = FlatEpsilonKdbTree.build(small_clusters, spec)
    rng = np.random.default_rng(31)
    dims = small_clusters.shape[1]
    # Half anywhere in the box, half near data points so queries hit.
    near = small_clusters[rng.choice(len(small_clusters), 20)]
    queries = np.vstack([rng.random((20, dims)), near + rng.normal(0, 0.02, near.shape)])
    batched = flat.batch_range_query(queries)
    assert len(batched) == len(queries)
    assert sum(len(hits) for hits in batched) > 0
    for query, hits in zip(queries, batched):
        expected = linear_scan(small_clusters, query, 0.15, spec.metric)
        assert hits.dtype == np.int64
        assert hits.tobytes() == expected.astype(np.int64).tobytes()


def test_batch_narrower_radius_and_out_of_box(small_uniform):
    spec = JoinSpec(epsilon=0.25, leaf_size=16)
    flat = FlatEpsilonKdbTree.build(small_uniform, spec)
    rng = np.random.default_rng(32)
    # Mix in-box queries with ones outside the data bounding box.
    queries = rng.random((30, small_uniform.shape[1])) * 1.6 - 0.3
    for eps in (0.25, 0.1):
        batched = flat.batch_range_query(queries, eps=eps)
        for query, hits in zip(queries, batched):
            expected = linear_scan(small_uniform, query, eps, spec.metric)
            assert hits.tobytes() == expected.astype(np.int64).tobytes()


def test_batch_single_query_delegation(small_uniform):
    spec = JoinSpec(epsilon=0.2, leaf_size=16)
    flat = FlatEpsilonKdbTree.build(small_uniform, spec)
    rng = np.random.default_rng(33)
    query = rng.random(small_uniform.shape[1])
    single = flat.range_query(query)
    batched = flat.batch_range_query(query[np.newaxis, :])[0]
    assert single.tobytes() == batched.tobytes()


def test_batch_rejects_radius_above_build_epsilon(small_uniform):
    flat = FlatEpsilonKdbTree.build(small_uniform, JoinSpec(epsilon=0.1))
    queries = np.zeros((2, small_uniform.shape[1]))
    with pytest.raises(InvalidParameterError):
        flat.batch_range_query(queries, eps=0.5)
    with pytest.raises(InvalidParameterError):
        flat.range_query(queries[0], eps=0.5)


def test_batch_empty_inputs(small_uniform):
    flat = FlatEpsilonKdbTree.build(small_uniform, JoinSpec(epsilon=0.1))
    assert flat.batch_range_query(np.empty((0, small_uniform.shape[1]))) == []
    with pytest.raises(InvalidParameterError):
        flat.range_query(np.zeros(small_uniform.shape[1] + 1))


def test_session_range_query_matches_brute_force():
    """IncrementalJoin range queries see base, delta and tombstones."""
    from repro import IncrementalJoin

    rng = np.random.default_rng(34)
    spec = JoinSpec(epsilon=0.15, leaf_size=8, delta_threshold=50)
    session = IncrementalJoin(spec)
    deltas = [session.insert(rng.random((40, 3))) for _ in range(5)]
    session.delete(deltas[0].ids[:15])
    live_points = session.live_points()
    live_ids = session.live_ids()
    queries = rng.random((30, 3)) * 1.4 - 0.2
    for eps in (0.15, 0.08):
        batched = session.batch_range_query(queries, eps=eps)
        for query, hits in zip(queries, batched):
            keep = spec.metric.within_gap(np.abs(live_points - query), eps)
            expected = np.sort(live_ids[keep]).astype(np.int64)
            assert hits.tobytes() == expected.tobytes()
            assert session.range_query(query, eps=eps).tobytes() == expected.tobytes()


def test_session_range_query_validation():
    from repro import IncrementalJoin

    session = IncrementalJoin(JoinSpec(epsilon=0.1))
    # Empty session answers empty, whatever the dimensionality asked.
    assert session.range_query(np.zeros(7)).tolist() == []
    session.insert(np.random.default_rng(35).random((10, 2)))
    with pytest.raises(InvalidParameterError):
        session.range_query(np.zeros(2), eps=0.4)
    with pytest.raises(InvalidParameterError):
        session.range_query(np.zeros(3))
