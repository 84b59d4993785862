"""Multidimensional sort-merge band join.

The classic non-index baseline: sort all points along one dimension, then
sweep a band of width ``epsilon`` and fully check every pair inside it.
The 2-level variant adds a cheap second-dimension filter before the full
distance computation, which is the refinement the paper's sort-merge
comparison point uses.

Effective when ``epsilon`` is tiny (bands are empty) and in low
dimensions; degrades toward quadratic as ``epsilon`` grows because one
sort dimension prunes less and less of a high-dimensional space — the
behaviour experiments E1–E3 demonstrate.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from repro.core.config import JoinSpec, validate_point_sets, validate_points
from repro.core.kernels import KernelContext, build_kernel_context
from repro.core.result import JoinResult, JoinStats, PairCollector, PairSink
from repro.core.sweep import iter_band_pairs_cross, iter_band_pairs_self


def sort_merge_self_join(
    points: np.ndarray,
    spec: JoinSpec,
    sink: Optional[PairSink] = None,
    sweep_dim: int = 0,
    two_level: bool = True,
    filter_dim: Optional[int] = None,
) -> JoinResult:
    """Self-join via a sorted band sweep along ``sweep_dim``.

    With ``two_level`` a per-coordinate filter on ``filter_dim`` (default:
    the dimension after ``sweep_dim``) runs before the full distance
    check; it never changes the result, only the work.
    """
    points = validate_points(points)
    collect = sink is None
    if collect:
        sink = PairCollector()
    stats = JoinStats()
    result = JoinResult(stats=stats)
    n, dims = points.shape
    if n < 2:
        return result
    started = time.perf_counter()
    order = np.argsort(points[:, sweep_dim], kind="stable")
    values = points[order, sweep_dim]
    second = _second_dim(sweep_dim, filter_dim, dims) if two_level else None
    second_values = points[order, second] if second is not None else None
    kernel = build_kernel_context(spec, points, sort_dim=sweep_dim)
    sorted_done = time.perf_counter()
    for pos_a, pos_b in iter_band_pairs_self(values, spec.band_width):
        _check_and_emit(
            points,
            order,
            pos_a,
            pos_b,
            second_values,
            spec,
            sink,
            stats,
            kernel,
        )
    finished = time.perf_counter()
    result.build_seconds = sorted_done - started
    result.join_seconds = finished - sorted_done
    result.stats.pairs_emitted = sink.count
    if collect:
        result.pairs = sink.sorted_pairs()
    return result


def sort_merge_join(
    points_r: np.ndarray,
    points_s: np.ndarray,
    spec: JoinSpec,
    sink: Optional[PairSink] = None,
    sweep_dim: int = 0,
    two_level: bool = True,
    filter_dim: Optional[int] = None,
) -> JoinResult:
    """Two-set join via a sorted band sweep along ``sweep_dim``."""
    points_r, points_s = validate_point_sets(points_r, points_s)
    collect = sink is None
    if collect:
        sink = PairCollector()
    stats = JoinStats()
    result = JoinResult(stats=stats)
    if len(points_r) == 0 or len(points_s) == 0:
        return result
    dims = points_r.shape[1]
    started = time.perf_counter()
    order_r = np.argsort(points_r[:, sweep_dim], kind="stable")
    order_s = np.argsort(points_s[:, sweep_dim], kind="stable")
    values_r = points_r[order_r, sweep_dim]
    values_s = points_s[order_s, sweep_dim]
    second = _second_dim(sweep_dim, filter_dim, dims) if two_level else None
    kernel = build_kernel_context(
        spec, points_r, points_b=points_s, sort_dim=sweep_dim
    )
    sorted_done = time.perf_counter()
    for pos_a, pos_b in iter_band_pairs_cross(
        values_r, values_s, spec.band_width
    ):
        left = order_r[pos_a]
        right = order_s[pos_b]
        if second is not None:
            keep = (
                np.abs(points_r[left, second] - points_s[right, second])
                <= spec.band_width
            )
            left, right = left[keep], right[keep]
        if not len(left):
            continue
        stats.distance_computations += len(left)
        if kernel is not None:
            mask = kernel.within_rows(left, right, stats)
        else:
            mask = spec.metric.within_rows(
                points_r, points_s, left, right, spec.epsilon
            )
        if mask.any():
            sink.emit(left[mask], right[mask])
            stats.pairs_emitted += int(mask.sum())
    finished = time.perf_counter()
    result.build_seconds = sorted_done - started
    result.join_seconds = finished - sorted_done
    result.stats.pairs_emitted = sink.count
    if collect:
        result.pairs = sink.sorted_pairs()
    return result


def _second_dim(sweep_dim: int, filter_dim: Optional[int], dims: int) -> Optional[int]:
    """Resolve the 2-level filter dimension; ``None`` if there is no second."""
    if filter_dim is not None:
        return filter_dim if filter_dim != sweep_dim else None
    if dims < 2:
        return None
    return (sweep_dim + 1) % dims


def _check_and_emit(
    points: np.ndarray,
    order: np.ndarray,
    pos_a: np.ndarray,
    pos_b: np.ndarray,
    second_values: Optional[np.ndarray],
    spec: JoinSpec,
    sink: PairSink,
    stats: JoinStats,
    kernel: Optional[KernelContext] = None,
) -> None:
    if second_values is not None:
        keep = (
            np.abs(second_values[pos_a] - second_values[pos_b])
            <= spec.band_width
        )
        pos_a, pos_b = pos_a[keep], pos_b[keep]
    if not len(pos_a):
        return
    left = order[pos_a]
    right = order[pos_b]
    stats.distance_computations += len(left)
    if kernel is not None:
        mask = kernel.within_rows(left, right, stats)
    else:
        mask = spec.metric.within_rows(points, points, left, right, spec.epsilon)
    if mask.any():
        lo = np.minimum(left[mask], right[mask])
        hi = np.maximum(left[mask], right[mask])
        sink.emit(lo, hi)
        stats.pairs_emitted += int(mask.sum())
