"""Property-based tests for the components added on top of the core:
R+-tree joins, external two-set joins, range queries, and tree reuse."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import assert_same_pairs, oracle_self_pairs, oracle_two_set_pairs
from repro import (
    FlatEpsilonKdbTree,
    IncrementalJoin,
    JoinSpec,
    epsilon_kdb_self_join,
    external_join,
)
from repro.baselines import rplus_self_join, zorder_self_join


def quantized_points(max_n=50, max_d=5):
    """Small arrays on a 1/16 lattice: ties and boundary cases abound."""
    return st.tuples(
        st.integers(min_value=0, max_value=max_n),
        st.integers(min_value=1, max_value=max_d),
        st.integers(min_value=0, max_value=2**31 - 1),
    ).map(
        lambda args: np.random.default_rng(args[2])
        .integers(0, 17, size=(args[0], args[1]))
        .astype(np.float64)
        / 16.0
    )


epsilons = st.sampled_from([0.0625, 0.1, 0.25, 0.5, 1.0])
metrics = st.sampled_from(["l1", "l2", "linf"])


@settings(max_examples=30, deadline=None)
@given(points=quantized_points(), eps=epsilons, metric=metrics)
def test_rplus_self_join_equals_brute_force(points, eps, metric):
    spec = JoinSpec(epsilon=eps, metric=metric)
    expected = oracle_self_pairs(points, spec)
    result = rplus_self_join(points, spec, max_entries=4)
    assert_same_pairs(result.pairs, expected, "property rplus")


@settings(max_examples=30, deadline=None)
@given(points=quantized_points(), eps=epsilons, metric=metrics)
def test_zorder_self_join_equals_brute_force(points, eps, metric):
    spec = JoinSpec(epsilon=eps, metric=metric)
    expected = oracle_self_pairs(points, spec)
    result = zorder_self_join(points, spec)
    assert_same_pairs(result.pairs, expected, "property zorder")


@settings(max_examples=20, deadline=None)
@given(
    points_r=quantized_points(max_n=30, max_d=4),
    points_s=quantized_points(max_n=30, max_d=4),
    eps=st.sampled_from([0.125, 0.25, 0.5]),
    budget=st.sampled_from([2, 9, 500]),
)
def test_external_two_set_join_equals_brute_force(points_r, points_s, eps, budget):
    dims = min(points_r.shape[1], points_s.shape[1])
    points_r = points_r[:, :dims]
    points_s = points_s[:, :dims]
    spec = JoinSpec(epsilon=eps, leaf_size=4)
    expected = oracle_two_set_pairs(points_r, points_s, spec)
    report = external_join(points_r, points_s, spec, memory_points=budget)
    assert_same_pairs(report.pairs, expected, "property external two-set")


@settings(max_examples=30, deadline=None)
@given(
    points=quantized_points(max_n=60, max_d=4),
    eps=epsilons,
    metric=metrics,
    query_seed=st.integers(0, 2**31 - 1),
)
def test_range_query_equals_linear_scan(points, eps, metric, query_seed):
    if len(points) == 0:
        return
    spec = JoinSpec(epsilon=eps, metric=metric, leaf_size=4)
    tree = FlatEpsilonKdbTree.build(points, spec)
    rng = np.random.default_rng(query_seed)
    # Mix of in-domain and slightly out-of-domain queries.
    queries = [
        rng.integers(0, 17, size=points.shape[1]) / 16.0,
        rng.uniform(-0.5, 1.5, size=points.shape[1]),
        points[rng.integers(0, len(points))],
    ]
    for query in queries:
        hits = tree.range_query(np.asarray(query, dtype=np.float64))
        diffs = np.abs(points - query)
        expected = np.flatnonzero(spec.metric.within_gap(diffs, eps))
        assert hits.tolist() == expected.tolist()


@settings(max_examples=25, deadline=None)
@given(
    points=quantized_points(max_n=50, max_d=4),
    build_eps=st.sampled_from([0.25, 0.5, 1.0]),
    query_eps=st.sampled_from([0.03, 0.125, 0.25]),
    metric=metrics,
)
def test_tree_reuse_at_finer_epsilon(points, build_eps, query_eps, metric):
    if query_eps > build_eps:
        query_eps = build_eps
    coarse = JoinSpec(epsilon=build_eps, metric=metric, leaf_size=4)
    fine = JoinSpec(epsilon=query_eps, metric=metric, leaf_size=4)
    tree = FlatEpsilonKdbTree.build(points, coarse)
    expected = oracle_self_pairs(points, fine)
    result = epsilon_kdb_self_join(points, fine, tree=tree)
    assert_same_pairs(result.pairs, expected, "property reuse")


@settings(max_examples=25, deadline=None)
@given(points=quantized_points(max_n=60, max_d=4), eps=epsilons)
def test_incremental_and_bulk_trees_join_identically(points, eps):
    """Inserting one point at a time into a session (a base tree plus a
    delta, compacted as it grows) ends on the bulk join's pairs."""
    spec = JoinSpec(epsilon=eps, leaf_size=4, delta_threshold=16)
    bulk = epsilon_kdb_self_join(points, spec)
    session = IncrementalJoin(spec)
    for point in points:
        session.insert(point[np.newaxis, :])
    assert_same_pairs(session.current_pairs(), bulk.pairs, "property incremental")
