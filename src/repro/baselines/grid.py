"""Epsilon-grid hash join.

Buckets points into axis-aligned cells of width ``epsilon`` over the
first ``grid_dims`` dimensions, then compares each cell only against
itself and its neighbor cells.  A common comparator for similarity joins
and, because its pruning logic (|cell difference| <= 1 per dimension) is
independent of the epsilon-kdB traversal, a useful second oracle in the
test suite.

The number of neighbor probes grows as ``3 ** grid_dims``, so only a few
leading dimensions are gridded; the remaining dimensions are handled by
the full distance check.
"""

from __future__ import annotations

import itertools
import time
from typing import Dict, Optional, Tuple

import numpy as np

from repro.baselines._common import emit_block_pairs
from repro.core.config import JoinSpec, validate_point_sets, validate_points
from repro.core.result import JoinResult, JoinStats, PairCollector, PairSink
from repro.errors import InvalidParameterError

#: Default number of leading dimensions used for bucketing.
DEFAULT_GRID_DIMS = 3

_CellMap = Dict[Tuple[int, ...], np.ndarray]


def _bucket(points: np.ndarray, eps: float, grid_dims: int) -> _CellMap:
    """Group point indices by their cell tuple over the leading dims."""
    cells = np.floor(points[:, :grid_dims] / eps).astype(np.int64)
    _, inverse, counts = np.unique(
        cells, axis=0, return_inverse=True, return_counts=True
    )
    order = np.argsort(inverse, kind="stable")
    boundaries = np.concatenate([[0], np.cumsum(counts)])
    groups: _CellMap = {}
    for group_id in range(len(counts)):
        members = order[boundaries[group_id] : boundaries[group_id + 1]]
        key = tuple(cells[members[0]].tolist())
        groups[key] = members.astype(np.int64)
    return groups


def _resolve_grid_dims(dims: int, grid_dims: Optional[int]) -> int:
    if grid_dims is None:
        return min(dims, DEFAULT_GRID_DIMS)
    if not 1 <= grid_dims <= dims:
        raise InvalidParameterError(
            f"grid_dims must be in [1, {dims}], got {grid_dims}"
        )
    return grid_dims


def grid_self_join(
    points: np.ndarray,
    spec: JoinSpec,
    sink: Optional[PairSink] = None,
    grid_dims: Optional[int] = None,
) -> JoinResult:
    """Self-join via epsilon-cell bucketing.

    Each unordered cell pair is visited once: a cell joins itself and
    every neighbor whose offset is lexicographically positive.
    """
    points = validate_points(points)
    collect = sink is None
    if collect:
        sink = PairCollector()
    stats = JoinStats()
    result = JoinResult(stats=stats)
    if len(points) < 2:
        return result
    k = _resolve_grid_dims(points.shape[1], grid_dims)
    started = time.perf_counter()
    groups = _bucket(points, spec.band_width, k)
    built = time.perf_counter()
    positive_offsets = [
        off
        for off in itertools.product((-1, 0, 1), repeat=k)
        if off > (0,) * k
    ]
    for key, members in groups.items():
        stats.node_pairs_visited += 1
        emit_block_pairs(
            points, points, members, members, spec.metric, spec.epsilon,
            sink, stats, self_mode=True, same_group=True,
        )
        for off in positive_offsets:
            neighbor = tuple(c + o for c, o in zip(key, off))
            other = groups.get(neighbor)
            if other is None:
                continue
            stats.node_pairs_visited += 1
            emit_block_pairs(
                points, points, members, other, spec.metric, spec.epsilon,
                sink, stats, self_mode=True,
            )
    finished = time.perf_counter()
    result.build_seconds = built - started
    result.join_seconds = finished - built
    result.stats.pairs_emitted = sink.count
    if collect:
        result.pairs = sink.sorted_pairs()
    return result


def grid_join(
    points_r: np.ndarray,
    points_s: np.ndarray,
    spec: JoinSpec,
    sink: Optional[PairSink] = None,
    grid_dims: Optional[int] = None,
) -> JoinResult:
    """Two-set join via epsilon-cell bucketing of both sides."""
    points_r, points_s = validate_point_sets(points_r, points_s)
    collect = sink is None
    if collect:
        sink = PairCollector()
    stats = JoinStats()
    result = JoinResult(stats=stats)
    if len(points_r) == 0 or len(points_s) == 0:
        return result
    k = _resolve_grid_dims(points_r.shape[1], grid_dims)
    started = time.perf_counter()
    groups_r = _bucket(points_r, spec.band_width, k)
    groups_s = _bucket(points_s, spec.band_width, k)
    built = time.perf_counter()
    all_offsets = list(itertools.product((-1, 0, 1), repeat=k))
    for key, members in groups_r.items():
        for off in all_offsets:
            neighbor = tuple(c + o for c, o in zip(key, off))
            other = groups_s.get(neighbor)
            if other is None:
                continue
            stats.node_pairs_visited += 1
            emit_block_pairs(
                points_r, points_s, members, other, spec.metric, spec.epsilon,
                sink, stats, self_mode=False,
            )
    finished = time.perf_counter()
    result.build_seconds = built - started
    result.join_seconds = finished - built
    result.stats.pairs_emitted = sink.count
    if collect:
        result.pairs = sink.sorted_pairs()
    return result
