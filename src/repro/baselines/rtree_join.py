"""R-tree spatial join (the paper's index baseline).

Synchronized traversal in the style of Brinkhoff et al.: two nodes are
joined only if the minimum distance between their MBRs is at most
``epsilon``; qualifying internal pairs recurse on their children, and
leaf pairs fall back to a dense block comparison.  The self-join variant
traverses ordered node pairs so each unordered point pair is produced
once.

In high dimensions MBRs of any realistic node fan-out stretch across most
of every axis, ``mindist`` collapses to ~0 everywhere and the traversal
degenerates toward all-pairs — the degradation experiments E1/E2 exist to
show.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from repro.baselines._common import emit_block_pairs
from repro.baselines.rtree import RNode, RTree
from repro.core.config import JoinSpec, validate_point_sets, validate_points
from repro.core.result import JoinResult, JoinStats, PairCollector, PairSink
from repro.metrics import Metric


def _boxes_within(a: RNode, b: RNode, metric: Metric, eps: float) -> bool:
    gaps = np.maximum(0.0, np.maximum(a.lo - b.hi, b.lo - a.hi))
    return bool(metric.within_gap(gaps, eps))


class _RJoinContext:
    __slots__ = ("tree_a", "tree_b", "spec", "sink", "stats", "self_mode")

    def __init__(self, tree_a: RTree, tree_b: RTree, spec: JoinSpec,
                 sink: PairSink, self_mode: bool):
        self.tree_a = tree_a
        self.tree_b = tree_b
        self.spec = spec
        self.sink = sink
        self.stats = JoinStats()
        self.self_mode = self_mode


def _join_leaf_pair(ctx: _RJoinContext, a: RNode, b: RNode) -> None:
    ctx.stats.leaf_joins += 1
    idx_a = np.asarray(a.entries, dtype=np.int64)
    idx_b = np.asarray(b.entries, dtype=np.int64)
    emit_block_pairs(
        ctx.tree_a.points, ctx.tree_b.points, idx_a, idx_b,
        ctx.spec.metric, ctx.spec.epsilon, ctx.sink, ctx.stats,
        self_mode=ctx.self_mode, same_group=(a is b),
    )


def _join_nodes(ctx: _RJoinContext, a: RNode, b: RNode) -> None:
    """Join the points under ``a`` (tree A) with those under ``b`` (tree B)."""
    ctx.stats.node_pairs_visited += 1
    if a is b:
        # self pair: join children pairs (i, j) with i <= j
        if a.is_leaf:
            _join_leaf_pair(ctx, a, a)
            return
        children = a.entries
        for i, child_i in enumerate(children):
            _join_nodes(ctx, child_i, child_i)
            for child_j in children[i + 1:]:
                if _boxes_within(child_i, child_j, ctx.spec.metric,
                                 ctx.spec.epsilon):
                    _join_nodes(ctx, child_i, child_j)
        return
    if a.is_leaf and b.is_leaf:
        _join_leaf_pair(ctx, a, b)
        return
    # Descend the non-leaf side(s); when both are internal, descend both.
    if not a.is_leaf and not b.is_leaf:
        for child_a in a.entries:
            for child_b in b.entries:
                if _boxes_within(child_a, child_b, ctx.spec.metric,
                                 ctx.spec.epsilon):
                    _join_nodes(ctx, child_a, child_b)
    elif a.is_leaf:
        for child_b in b.entries:
            if _boxes_within(a, child_b, ctx.spec.metric, ctx.spec.epsilon):
                _join_nodes(ctx, a, child_b)
    else:
        for child_a in a.entries:
            if _boxes_within(child_a, b, ctx.spec.metric, ctx.spec.epsilon):
                _join_nodes(ctx, child_a, b)


def rtree_self_join(
    points: np.ndarray,
    spec: JoinSpec,
    sink: Optional[PairSink] = None,
    tree: Optional[RTree] = None,
    max_entries: int = 32,
) -> JoinResult:
    """Self-join via synchronized R-tree traversal.

    Bulk-loads an STR-packed tree unless a pre-built ``tree`` over the
    same points is supplied.
    """
    points = validate_points(points)
    collect = sink is None
    if collect:
        sink = PairCollector()
    result = JoinResult()
    if len(points) < 2:
        return result
    started = time.perf_counter()
    if tree is None:
        tree = RTree.bulk_load(points, max_entries=max_entries)
    built = time.perf_counter()
    ctx = _RJoinContext(tree, tree, spec, sink, self_mode=True)
    _join_nodes(ctx, tree.root, tree.root)
    finished = time.perf_counter()
    result.stats = ctx.stats
    result.stats.pairs_emitted = sink.count
    result.build_seconds = built - started
    result.join_seconds = finished - built
    if collect:
        result.pairs = sink.sorted_pairs()
    return result


def rplus_self_join(
    points: np.ndarray,
    spec: JoinSpec,
    sink: Optional[PairSink] = None,
    tree=None,
    max_entries: int = 32,
) -> JoinResult:
    """Self-join via synchronized traversal of an R+-tree.

    Identical traversal to :func:`rtree_self_join`; only the index
    differs (disjoint regions instead of STR-packed overlapping ones).
    """
    from repro.baselines.rplus_tree import RPlusTree

    points = validate_points(points)
    collect = sink is None
    if collect:
        sink = PairCollector()
    result = JoinResult()
    if len(points) < 2:
        return result
    started = time.perf_counter()
    if tree is None:
        tree = RPlusTree.bulk_load(points, max_entries=max_entries)
    built = time.perf_counter()
    ctx = _RJoinContext(tree, tree, spec, sink, self_mode=True)
    _join_nodes(ctx, tree.root, tree.root)
    finished = time.perf_counter()
    result.stats = ctx.stats
    result.stats.pairs_emitted = sink.count
    result.build_seconds = built - started
    result.join_seconds = finished - built
    if collect:
        result.pairs = sink.sorted_pairs()
    return result


def rplus_join(
    points_r: np.ndarray,
    points_s: np.ndarray,
    spec: JoinSpec,
    sink: Optional[PairSink] = None,
    max_entries: int = 32,
) -> JoinResult:
    """Two-set join via synchronized traversal of two R+-trees."""
    from repro.baselines.rplus_tree import RPlusTree

    points_r, points_s = validate_point_sets(points_r, points_s)
    collect = sink is None
    if collect:
        sink = PairCollector()
    result = JoinResult()
    if len(points_r) == 0 or len(points_s) == 0:
        return result
    started = time.perf_counter()
    tree_r = RPlusTree.bulk_load(points_r, max_entries=max_entries)
    tree_s = RPlusTree.bulk_load(points_s, max_entries=max_entries)
    built = time.perf_counter()
    ctx = _RJoinContext(tree_r, tree_s, spec, sink, self_mode=False)
    if _boxes_within(tree_r.root, tree_s.root, spec.metric, spec.epsilon):
        _join_nodes(ctx, tree_r.root, tree_s.root)
    finished = time.perf_counter()
    result.stats = ctx.stats
    result.stats.pairs_emitted = sink.count
    result.build_seconds = built - started
    result.join_seconds = finished - built
    if collect:
        result.pairs = sink.sorted_pairs()
    return result


def rtree_join(
    points_r: np.ndarray,
    points_s: np.ndarray,
    spec: JoinSpec,
    sink: Optional[PairSink] = None,
    max_entries: int = 32,
) -> JoinResult:
    """Two-set join via synchronized traversal of two STR-packed trees."""
    points_r, points_s = validate_point_sets(points_r, points_s)
    collect = sink is None
    if collect:
        sink = PairCollector()
    result = JoinResult()
    if len(points_r) == 0 or len(points_s) == 0:
        return result
    started = time.perf_counter()
    tree_r = RTree.bulk_load(points_r, max_entries=max_entries)
    tree_s = RTree.bulk_load(points_s, max_entries=max_entries)
    built = time.perf_counter()
    ctx = _RJoinContext(tree_r, tree_s, spec, sink, self_mode=False)
    if _boxes_within(tree_r.root, tree_s.root, spec.metric, spec.epsilon):
        _join_nodes(ctx, tree_r.root, tree_s.root)
    finished = time.perf_counter()
    result.stats = ctx.stats
    result.stats.pairs_emitted = sink.count
    result.build_seconds = built - started
    result.join_seconds = finished - built
    if collect:
        result.pairs = sink.sorted_pairs()
    return result
