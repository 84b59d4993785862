"""Reference oracles and comparison helpers shared across the test suite.

Kept in a plain module (rather than ``conftest.py``) so test files can
import them regardless of how pytest resolves its rootdir: ``conftest``
is importable only when pytest itself inserted the tests directory on
``sys.path``, while ``_oracles`` is a normal sibling module.
"""

from __future__ import annotations

import numpy as np

from repro import JoinSpec
from repro.baselines import brute_force_join, brute_force_self_join
from repro.core.epsilon_kdb import EpsilonKdbTree, Grid
from repro.core.join import _cross_join, _JoinContext, epsilon_kdb_self_join
from repro.core.kernels import build_kernel_context
from repro.core.result import JoinResult, PairCollector


def oracle_self_pairs(points: np.ndarray, spec: JoinSpec) -> np.ndarray:
    """Canonical self-join answer via the blocked nested loop."""
    return brute_force_self_join(points, spec).pairs


def oracle_two_set_pairs(
    points_r: np.ndarray, points_s: np.ndarray, spec: JoinSpec
) -> np.ndarray:
    """Canonical two-set join answer via the blocked nested loop."""
    return brute_force_join(points_r, points_s, spec).pairs


def pointer_self_join(points: np.ndarray, spec: JoinSpec, **kwargs) -> JoinResult:
    """Self-join through the recursive reference traversal.

    Passing a pointer :class:`EpsilonKdbTree` as ``tree=`` routes
    :func:`epsilon_kdb_self_join` to the recursion the flat frontier's
    counters are checked against.
    """
    points = np.asarray(points, dtype=np.float64)
    tree = EpsilonKdbTree.build(points, spec)
    return epsilon_kdb_self_join(points, spec, tree=tree, **kwargs)


def pointer_join(
    points_r: np.ndarray, points_s: np.ndarray, spec: JoinSpec
) -> JoinResult:
    """Two-set join through the recursive reference traversal.

    Builds one pointer tree per side on a shared :meth:`Grid.fit_union`
    grid and runs ``_cross_join`` over their roots with the same kernel
    context the flat join plans.
    """
    points_r = np.asarray(points_r, dtype=np.float64)
    points_s = np.asarray(points_s, dtype=np.float64)
    result = JoinResult()
    if len(points_r) == 0 or len(points_s) == 0:
        return result
    grid = Grid.fit_union(points_r, points_s, spec.band_width)
    tree_r = EpsilonKdbTree.build(points_r, spec, grid=grid)
    tree_s = EpsilonKdbTree.build(points_s, spec, grid=grid)
    kernel = build_kernel_context(
        spec,
        points_r,
        points_b=points_s,
        grid=grid,
        split_dims=tuple(set(tree_r.split_dims()) | set(tree_s.split_dims())),
        sort_dim=tree_r.sort_dim,
    )
    sink = PairCollector()
    ctx = _JoinContext(
        points_r, points_s, grid, spec, sink, self_mode=False, kernel=kernel
    )
    _cross_join(ctx, tree_r.root, tree_s.root)
    ctx.finish()
    result.stats = ctx.stats
    result.stats.pairs_emitted = sink.count
    result.pairs = sink.sorted_pairs()
    return result


def assert_same_pairs(actual: np.ndarray, expected: np.ndarray, label: str = ""):
    """Assert two canonical (sorted) pair arrays are identical."""
    assert actual.shape == expected.shape, (
        f"{label}: expected {len(expected)} pairs, got {len(actual)}"
    )
    if len(expected):
        assert (actual == expected).all(), f"{label}: pair sets differ"
