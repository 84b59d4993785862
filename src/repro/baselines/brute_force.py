"""Blocked nested-loop similarity join.

The exact, assumption-free reference algorithm: every pair is checked.
Work is tiled into fixed-size coordinate blocks so memory stays bounded
and the inner comparison runs as one dense NumPy broadcast per tile.
Quadratic in the input size, so the benchmarks use it only at small N —
exactly the regime where the paper's evaluation includes it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.config import JoinSpec, validate_point_sets, validate_points
from repro.core.result import JoinResult, JoinStats, PairCollector, PairSink

#: Points per tile side; a tile evaluates at most BLOCK * BLOCK pairs.
BLOCK = 1024


def brute_force_self_join(
    points: np.ndarray,
    spec: JoinSpec,
    sink: Optional[PairSink] = None,
) -> JoinResult:
    """All pairs ``i < j`` with ``dist(points[i], points[j]) <= eps``."""
    points = validate_points(points)
    collect = sink is None
    if collect:
        sink = PairCollector()
    stats = JoinStats()
    n = len(points)
    metric = spec.metric
    for row_start in range(0, n, BLOCK):
        row_stop = min(row_start + BLOCK, n)
        rows = points[row_start:row_stop]
        for col_start in range(row_start, n, BLOCK):
            col_stop = min(col_start + BLOCK, n)
            cols = points[col_start:col_stop]
            stats.node_pairs_visited += 1
            mask = metric.within_block(rows, cols, spec.epsilon)
            stats.distance_computations += mask.size
            if col_start == row_start:
                # keep only the strict upper triangle of the diagonal tile
                mask = np.triu(mask, k=1)
            left, right = np.nonzero(mask)
            if len(left):
                sink.emit(left + row_start, right + col_start)
                stats.pairs_emitted += int(len(left))
    result = JoinResult(stats=stats)
    if collect:
        result.pairs = sink.sorted_pairs()
    return result


def brute_force_join(
    points_r: np.ndarray,
    points_s: np.ndarray,
    spec: JoinSpec,
    sink: Optional[PairSink] = None,
) -> JoinResult:
    """All ``(i, j)`` with ``dist(points_r[i], points_s[j]) <= eps``."""
    points_r, points_s = validate_point_sets(points_r, points_s)
    collect = sink is None
    if collect:
        sink = PairCollector()
    stats = JoinStats()
    metric = spec.metric
    for row_start in range(0, len(points_r), BLOCK):
        row_stop = min(row_start + BLOCK, len(points_r))
        rows = points_r[row_start:row_stop]
        for col_start in range(0, len(points_s), BLOCK):
            col_stop = min(col_start + BLOCK, len(points_s))
            cols = points_s[col_start:col_stop]
            stats.node_pairs_visited += 1
            mask = metric.within_block(rows, cols, spec.epsilon)
            stats.distance_computations += mask.size
            left, right = np.nonzero(mask)
            if len(left):
                sink.emit(left + row_start, right + col_start)
                stats.pairs_emitted += int(len(left))
    result = JoinResult(stats=stats)
    if collect:
        result.pairs = sink.sorted_pairs()
    return result
