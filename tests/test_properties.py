"""Property-based tests (hypothesis) for the core invariants.

The central property of the whole library: every join algorithm returns
*exactly* the brute-force pair set for arbitrary inputs, thresholds and
metrics.  Plus the structural invariants the correctness argument rests
on: the adjacent-cell rule, band-sweep completeness, and grid cell
assignment.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from _oracles import assert_same_pairs, oracle_self_pairs, oracle_two_set_pairs
from repro import JoinSpec, epsilon_kdb_join, epsilon_kdb_self_join
from repro.baselines import grid_self_join, rtree_self_join, sort_merge_self_join
from repro.core.epsilon_kdb import EpsilonKdbTree, Grid
from repro.core.external import plan_stripes
from repro.core.flat_build import FlatEpsilonKdbTree
from repro.core.parallel import ParallelJoinExecutor, _root_cells
from repro.core.result import canonicalize_self_pairs
from repro.core.sweep import band_pairs_cross, band_pairs_self


def point_arrays(max_n=50, max_d=6):
    """Strategy: small float arrays in [0, 1] with coarse granularity.

    Values are quantized to multiples of 1/16 so ties, duplicate points
    and cell-boundary cases appear constantly instead of never.
    """
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


epsilons = st.sampled_from([0.03, 0.0625, 0.1, 0.25, 0.5, 1.0, 2.0])
metrics = st.sampled_from(["l1", "l2", "linf"])
leaf_sizes = st.sampled_from([1, 2, 8, 64])


@settings(max_examples=60, deadline=None)
@given(points=point_arrays(), eps=epsilons, metric=metrics, leaf_size=leaf_sizes)
def test_epsilon_kdb_self_join_equals_brute_force(points, eps, metric, leaf_size):
    spec = JoinSpec(epsilon=eps, metric=metric, leaf_size=leaf_size)
    expected = oracle_self_pairs(points, spec)
    result = epsilon_kdb_self_join(points, spec)
    assert_same_pairs(result.pairs, expected, "property kdb")


@settings(max_examples=40, deadline=None)
@given(
    points_r=point_arrays(max_n=30),
    points_s=point_arrays(max_n=30),
    eps=epsilons,
    metric=metrics,
)
def test_epsilon_kdb_two_set_join_equals_brute_force(points_r, points_s, eps, metric):
    if points_r.shape[1] != points_s.shape[1]:
        dims = min(points_r.shape[1], points_s.shape[1])
        points_r = points_r[:, :dims]
        points_s = points_s[:, :dims]
    spec = JoinSpec(epsilon=eps, metric=metric, leaf_size=4)
    expected = oracle_two_set_pairs(points_r, points_s, spec)
    result = epsilon_kdb_join(points_r, points_s, spec)
    assert_same_pairs(result.pairs, expected, "property kdb two-set")


@settings(max_examples=30, deadline=None)
@given(points=point_arrays(max_n=40), eps=epsilons, metric=metrics)
def test_rtree_self_join_equals_brute_force(points, eps, metric):
    spec = JoinSpec(epsilon=eps, metric=metric)
    expected = oracle_self_pairs(points, spec)
    result = rtree_self_join(points, spec, max_entries=4)
    assert_same_pairs(result.pairs, expected, "property rtree")


@settings(max_examples=30, deadline=None)
@given(points=point_arrays(max_n=40), eps=epsilons, metric=metrics)
def test_sort_merge_self_join_equals_brute_force(points, eps, metric):
    spec = JoinSpec(epsilon=eps, metric=metric)
    expected = oracle_self_pairs(points, spec)
    result = sort_merge_self_join(points, spec)
    assert_same_pairs(result.pairs, expected, "property sort-merge")


@settings(max_examples=30, deadline=None)
@given(points=point_arrays(max_n=40), eps=epsilons, metric=metrics)
def test_grid_self_join_equals_brute_force(points, eps, metric):
    spec = JoinSpec(epsilon=eps, metric=metric)
    expected = oracle_self_pairs(points, spec)
    result = grid_self_join(points, spec)
    assert_same_pairs(result.pairs, expected, "property grid")


@settings(max_examples=25, deadline=None)
@given(
    points=point_arrays(max_n=40, max_d=4),
    eps=st.sampled_from([0.1, 0.25, 0.5]),
    budget=st.sampled_from([2, 5, 17, 1000]),
)
def test_external_join_equals_brute_force(points, eps, budget):
    from repro import external_self_join

    spec = JoinSpec(epsilon=eps, leaf_size=4)
    expected = oracle_self_pairs(points, spec)
    report = external_self_join(points, spec, memory_points=budget)
    assert_same_pairs(report.pairs, expected, "property external")


@settings(max_examples=50, deadline=None)
@given(
    values=hnp.arrays(
        np.float64,
        st.integers(0, 60),
        elements=st.floats(0, 1, allow_nan=False, width=16),
    ),
    eps=st.floats(0.0, 1.5, allow_nan=False),
)
def test_band_sweep_self_completeness(values, eps):
    values = np.sort(values)
    pos_a, pos_b = band_pairs_self(values, eps)
    produced = set(zip(pos_a.tolist(), pos_b.tolist()))
    for a in range(len(values)):
        for b in range(a + 1, len(values)):
            expected = values[b] - values[a] <= eps
            assert ((a, b) in produced) == expected


@settings(max_examples=50, deadline=None)
@given(
    values_a=hnp.arrays(
        np.float64, st.integers(0, 30),
        elements=st.floats(0, 1, allow_nan=False, width=16),
    ),
    values_b=hnp.arrays(
        np.float64, st.integers(0, 30),
        elements=st.floats(0, 1, allow_nan=False, width=16),
    ),
    eps=st.floats(0.0, 1.5, allow_nan=False),
)
def test_band_sweep_cross_completeness(values_a, values_b, eps):
    values_a = np.sort(values_a)
    values_b = np.sort(values_b)
    pos_a, pos_b = band_pairs_cross(values_a, values_b, eps)
    produced = set(zip(pos_a.tolist(), pos_b.tolist()))
    for a in range(len(values_a)):
        for b in range(len(values_b)):
            expected = abs(values_a[a] - values_b[b]) <= eps
            assert ((a, b) in produced) == expected


@settings(max_examples=60, deadline=None)
@given(
    values=hnp.arrays(
        np.float64, st.integers(2, 200),
        elements=st.floats(0, 10, allow_nan=False, width=16),
    ),
    eps=st.floats(0.01, 3.0, allow_nan=False),
)
def test_grid_adjacent_cell_rule(values, eps):
    """If |x - y| <= eps then their cells differ by at most 1 — the
    property the whole traversal's correctness rests on."""
    grid = Grid.fit(values.reshape(-1, 1), eps=eps)
    cells = grid.cell_of(values, 0)
    order = np.argsort(values)
    values_sorted = values[order]
    cells_sorted = cells[order]
    for k in range(len(values) - 1):
        if values_sorted[k + 1] - values_sorted[k] <= eps:
            assert abs(int(cells_sorted[k + 1]) - int(cells_sorted[k])) <= 1


@settings(max_examples=40, deadline=None)
@given(points=point_arrays(max_n=60), eps=epsilons, leaf_size=leaf_sizes)
def test_tree_partitions_points(points, eps, leaf_size):
    if len(points) == 0:
        return
    spec = JoinSpec(epsilon=eps, leaf_size=leaf_size)
    tree = EpsilonKdbTree.build(points, spec)
    collected = np.sort(
        np.concatenate([leaf.indices for leaf in tree.iter_leaves()])
    )
    assert collected.tolist() == list(range(len(points)))


def _dense_plan(histogram, capacity):
    """Reference: the greedy plan walked over every cell of the span."""
    stripes, start, running = [], 0, 0
    for cell in range(len(histogram)):
        count = int(histogram[cell])
        reserve = int(histogram[cell + 1]) if cell + 1 < len(histogram) else 0
        if running and running + count + reserve > capacity:
            stripes.append(range(start, cell))
            start, running = cell, 0
        running += count
    stripes.append(range(start, len(histogram)))
    return stripes


@settings(max_examples=40, deadline=None)
@given(
    histogram=hnp.arrays(
        np.int64, st.integers(1, 60), elements=st.integers(0, 50)
    ),
    capacity=st.integers(1, 120),
)
def test_stripe_plan_covers_cells_in_order(histogram, capacity):
    cells = np.flatnonzero(histogram)
    counts = histogram[cells]
    stripes = plan_stripes(cells, counts, capacity)
    covered = []
    for s in stripes:
        covered.extend(range(s.start, s.stop))
    assert covered == list(range(len(cells)))
    for s in stripes:
        # A stripe exceeds the budget only when a single cell does so
        # on its own.
        if int(counts[s].sum()) > capacity:
            assert s.stop - s.start == 1
    # Planning over occupied cells only groups the points exactly as
    # planning over every cell of the span would.
    dense = [
        [cell for cell in span if histogram[cell]]
        for span in _dense_plan(histogram, capacity)
    ]
    sparse = [cells[s].tolist() for s in stripes]
    assert [group for group in sparse if group] == [g for g in dense if g]


@settings(max_examples=50, deadline=None)
@given(
    left=hnp.arrays(np.int64, st.integers(0, 50), elements=st.integers(0, 20)),
    right=hnp.arrays(np.int64, st.integers(0, 50), elements=st.integers(0, 20)),
)
def test_canonicalize_properties(left, right):
    n = min(len(left), len(right))
    pairs = canonicalize_self_pairs(left[:n], right[:n])
    if len(pairs):
        assert (pairs[:, 0] < pairs[:, 1]).all()
        assert len(np.unique(pairs, axis=0)) == len(pairs)
    expected = {
        (min(a, b), max(a, b))
        for a, b in zip(left[:n].tolist(), right[:n].tolist())
        if a != b
    }
    assert {tuple(p) for p in pairs.tolist()} == expected


# ----------------------------------------------------------------------
# parallel stripe planner
# ----------------------------------------------------------------------
parallel_workers = st.sampled_from([1, 2, 3, 7])


@settings(max_examples=60, deadline=None)
@given(
    points=point_arrays(max_n=120),
    eps=epsilons,
    n_workers=parallel_workers,
    two_set=st.booleans(),
)
def test_parallel_tasks_cover_root_children_once_in_order(
    points, eps, n_workers, two_set
):
    """Self tasks are contiguous, non-empty ranges of the root's
    children from the first to the last; two-set tasks are contiguous
    cell ranges that together hold every occupied root cell once."""
    spec = JoinSpec(epsilon=eps, leaf_size=4)
    executor = ParallelJoinExecutor(
        spec, n_workers=n_workers, serial_threshold=0, use_processes=False
    )
    planned = []
    run = executor._run

    def recording_run(task, tasks, arrays, started):
        planned.append(list(tasks))
        return run(task, tasks, arrays, started)

    executor._run = recording_run
    if two_set:
        r, s = points[::2], points[1::2]
        result = executor.join(r, s)
    else:
        result = executor.self_join(points)
    if not planned:  # serial path: nothing to partition
        assert result.stats.stripes == 1
        return
    tasks = planned[0]
    assert len(tasks) >= 2 and result.stats.stripes == len(tasks)
    assert all(lo < hi for lo, hi in tasks)
    assert all(a[1] == b[0] for a, b in zip(tasks, tasks[1:]))
    if two_set:
        grid = Grid.fit_union(r, s, spec.band_width)
        cells = np.union1d(
            *(_root_cells(FlatEpsilonKdbTree.build(p, spec, grid=grid))[0]
              for p in (r, s))
        )
        assert tasks[0][0] == cells[0] and tasks[-1][1] == cells[-1] + 1
        owners = np.searchsorted([lo for lo, _ in tasks], cells, side="right")
        assert np.unique(owners).tolist() == list(range(1, len(tasks) + 1))
    else:
        tree = FlatEpsilonKdbTree.build(points, spec)
        assert tasks[0][0] == 0
        assert tasks[-1][1] == int(tree.node_n_children[0])


@settings(max_examples=25, deadline=None)
@given(
    points=point_arrays(max_n=80, max_d=4),
    eps=epsilons,
    metric=metrics,
    n_workers=parallel_workers,
)
def test_parallel_boundary_pairs_emitted_once(points, eps, metric, n_workers):
    """After the merge, the parallel pair set is duplicate-free and equals
    the brute-force oracle — boundary pairs appear exactly once."""
    spec = JoinSpec(epsilon=eps, metric=metric, leaf_size=4)
    executor = ParallelJoinExecutor(
        spec, n_workers=n_workers, serial_threshold=0, use_processes=False
    )
    result = executor.self_join(points)
    if len(result.pairs):
        assert len(np.unique(result.pairs, axis=0)) == len(result.pairs)
    assert_same_pairs(
        result.pairs, oracle_self_pairs(points, spec), "property parallel"
    )


@settings(max_examples=20, deadline=None)
@given(points=point_arrays(max_n=80, max_d=4), eps=epsilons)
def test_parallel_output_invariant_to_worker_count(points, eps):
    spec = JoinSpec(epsilon=eps, leaf_size=4)
    reference = None
    for n_workers in (1, 2, 3, 7):
        executor = ParallelJoinExecutor(
            spec, n_workers=n_workers, serial_threshold=0, use_processes=False
        )
        pairs = executor.self_join(points).pairs
        if reference is None:
            reference = pairs
        else:
            assert pairs.tobytes() == reference.tobytes()
