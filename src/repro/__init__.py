"""repro — high-dimensional similarity joins.

A from-scratch reproduction of *"High Dimensional Similarity Joins:
Algorithms and Performance Evaluation"*: the epsilon-kdB tree and its
join algorithms, the baselines the paper evaluates against (R-tree
spatial join, sort-merge, brute force, epsilon-grid), the synthetic and
feature-vector workloads of its evaluation, and an external-memory
variant over a simulated paged disk.

Quickstart::

    import numpy as np
    from repro import similarity_join

    points = np.random.default_rng(0).random((5000, 16))
    pairs = similarity_join(points, epsilon=0.3)          # (n, 2) indices
    pairs_rs = similarity_join(points, points2, epsilon=0.3)

The full machinery (pre-built trees, counting sinks, statistics, the
baselines) is available from the subpackages; see README.md.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.apps import (
    DuplicateGroups,
    SequenceMatchResult,
    find_duplicate_images,
    find_similar_sequences,
)
from repro.baselines import (
    RPlusTree,
    RTree,
    brute_force_join,
    brute_force_self_join,
    grid_join,
    grid_self_join,
    index_nested_loop_join,
    rplus_join,
    rplus_self_join,
    rtree_join,
    rtree_self_join,
    sort_merge_join,
    sort_merge_self_join,
    zorder_join,
    zorder_self_join,
)
from repro.core import (
    EpsilonKdbTree,
    ExternalJoinReport,
    FaultPlan,
    FlatEpsilonKdbTree,
    Grid,
    IncrementalJoin,
    JoinResult,
    JoinSizeSketch,
    JoinSpec,
    JoinStats,
    PairCollector,
    PairCounter,
    ParallelJoinExecutor,
    UpdateDelta,
    apply_update_stream,
    epsilon_kdb_join,
    epsilon_kdb_self_join,
    epsilon_sweep,
    external_join,
    external_self_join,
    parallel_join,
    parallel_self_join,
    subtract_pairs,
)
from repro.errors import (
    AdmissionError,
    CorruptSnapshotError,
    DomainError,
    InvalidParameterError,
    ReproError,
    SessionCrashError,
    StorageError,
    TaskTimeoutError,
    TransientIoError,
    WorkerCrashError,
)
from repro.metrics import (
    L1,
    L2,
    LINF,
    Metric,
    WeightedLpMetric,
    get_metric,
    lp_metric,
)
from repro.obs import MetricsRegistry, Tracer, trace
from repro.planner import (
    CostProfile,
    ExecutionPlan,
    calibrate,
    plan_execution,
)

__version__ = "1.0.0"

#: Algorithm registry used by :func:`similarity_join` and the CLI.
_SELF_JOIN_ALGORITHMS = {
    "epsilon-kdb": epsilon_kdb_self_join,
    "rtree": rtree_self_join,
    "rplus": rplus_self_join,
    "zorder": zorder_self_join,
    "sort-merge": sort_merge_self_join,
    "grid": grid_self_join,
    "brute-force": brute_force_self_join,
}

_TWO_SET_ALGORITHMS = {
    "epsilon-kdb": epsilon_kdb_join,
    "rtree": rtree_join,
    "rplus": rplus_join,
    "zorder": zorder_join,
    "index-nested-loop": index_nested_loop_join,
    "sort-merge": sort_merge_join,
    "grid": grid_join,
    "brute-force": brute_force_join,
}

ALGORITHMS = tuple(_SELF_JOIN_ALGORITHMS)


def _run_planned_strategy(plan, points, points2, spec):
    """Execute the strategy ``plan`` chose; both emit pairs
    byte-identical to each other (the differential suite proves it)."""
    if plan.chosen == "parallel":
        if points2 is None:
            return parallel_self_join(points, spec)
        return parallel_join(points, points2, spec)
    if points2 is None:
        return epsilon_kdb_self_join(points, spec)
    return epsilon_kdb_join(points, points2, spec)


def _run_external(points, points2, spec):
    """The external-memory driver with every point in one memory load."""
    if points2 is None:
        report = external_self_join(
            points, spec, memory_points=max(2, len(points))
        )
    else:
        report = external_join(
            points, points2, spec,
            memory_points=max(2, len(points) + len(points2)),
        )
    report.stats.planned_strategy = "external"
    return JoinResult(stats=report.stats, pairs=report.pairs)


def similarity_join(
    points: np.ndarray,
    points2: Optional[np.ndarray] = None,
    *,
    epsilon: float,
    metric: Union[str, float, Metric] = "l2",
    algorithm: str = "epsilon-kdb",
    leaf_size: int = 128,
    n_workers: Optional[int] = None,
    task_timeout: Optional[float] = None,
    max_task_retries: Optional[int] = None,
    cascade: str = "auto",
    filter_dims: Optional[int] = None,
    engine: str = "auto",
    updates: Optional[Sequence] = None,
    delta_threshold: Optional[int] = None,
    persist_path: Optional[str] = None,
    sync_mode: Optional[str] = None,
    keep_generations: Optional[int] = None,
    return_result: bool = False,
):
    """Find all point pairs within ``epsilon`` of each other.

    With one array, performs a self-join and returns an ``(m, 2)`` array
    of index pairs ``i < j``.  With two arrays, performs an R-against-S
    join and returns pairs ``(i, j)`` indexing the first and second array
    respectively.

    Args:
        points: ``(n, d)`` array of points.
        points2: optional second point set for a two-set join.
        epsilon: join distance threshold (inclusive).
        metric: ``"l1"``, ``"l2"``, ``"linf"``, a Minkowski order, or a
            :class:`~repro.metrics.Metric` instance.
        algorithm: one of ``"epsilon-kdb"`` (the paper's contribution,
            default; ``engine`` picks how it runs), ``"rplus"`` (the
            paper's R+-tree baseline), ``"rtree"``, ``"zorder"``,
            ``"sort-merge"``, ``"grid"``, ``"brute-force"``.
        leaf_size: epsilon-kdB leaf split threshold (ignored by the
            baselines).
        n_workers: worker-process count for the parallel executor
            (``None``: all cores; ``1``: serial path).  Setting it
            means ``engine="parallel"``.
        task_timeout: per-stripe-task deadline in seconds for the
            parallel executor; timed-out attempts are retried (and
            counted in ``stats.tasks_timed_out``).  ``None`` disables
            deadlines.  Only meaningful with the parallel algorithm.
        max_task_retries: pool re-dispatch budget per stripe task before
            the final in-parent attempt.  ``None`` keeps the
            :class:`~repro.core.config.JoinSpec` default.
        cascade: filter-cascade kernel policy for the distance checks:
            ``"auto"`` (default; on for d >= 8 when the metric supports
            it), ``"on"``, or ``"off"``.  Never changes the result, only
            the work per candidate.
        filter_dims: number of single-dimension pre-filter stages the
            cascade runs before the blocked distance reduction
            (``None``: scale with dimensionality).
        engine: the only way to choose how the ``epsilon-kdb``
            algorithm runs: ``"auto"`` (default) asks the cost-based
            planner (:mod:`repro.planner`) to score serial against
            parallel execution with the host's calibrated
            :class:`~repro.planner.CostProfile` and run the
            predicted-cheaper; ``"serial"`` or ``"parallel"`` runs that
            strategy directly (the plan is still computed and recorded
            for the mispredict metrics); ``"external"`` runs the
            external-memory driver, unplanned (``result.plan`` is
            ``None``).  Every strategy emits byte-identical pairs;
            ``result.stats.planned_strategy`` / ``predicted_cost`` /
            ``plan_seconds`` and ``result.plan`` record the decision.
            Only meaningful with the default algorithm; update/persisted
            sessions accept ``"serial"`` or ``"parallel"``.
        updates: optional sequence of ``("insert", points)`` /
            ``("delete", ids)`` operations (or the equivalent ``{"op":
            ...}`` mappings) applied *after* ``points`` through an
            :class:`~repro.core.incremental.IncrementalJoin` session.
            ``points`` seeds the session with ids ``0..n-1``; inserted
            batches continue the id sequence.  The returned pairs are
            the surviving *id* pairs — byte-identical to a from-scratch
            join over the surviving points mapped to their ids.  Only
            the ``epsilon-kdb`` algorithms support updates; incompatible
            with ``points2``.
        delta_threshold: delta-buffer compaction trigger for the update
            session (``None``: scale with the base size).  Only
            meaningful with ``updates``.
        persist_path: directory for a crash-consistent on-disk session
            (checksummed snapshots plus a write-ahead log; see
            ``docs/persistence.md``).  An empty or missing directory
            starts a fresh session; a directory already holding one is
            *resumed* — its durable state is recovered first, then
            ``points`` (if non-empty) and ``updates`` are applied on
            top.  The returned pairs are the surviving *id* pairs of the
            whole session, byte-identical to a never-interrupted run.
            Implies the epsilon-kdb update session even when ``updates``
            is ``None``.
        sync_mode: WAL durability policy for ``persist_path``:
            ``"always"`` (fsync per update), ``"batch"`` (default;
            fsync at snapshot boundaries), or ``"off"``.
        keep_generations: snapshot generations the ``persist_path``
            session retains on disk (older ones are pruned at each
            compaction).  ``None`` keeps the spec default of 2; must be
            at least 1.  A runtime knob: it may differ freely between
            runs over the same session directory.
        return_result: when true, return the full
            :class:`~repro.core.result.JoinResult` (pairs *and*
            statistics) instead of just the pair array.

    Returns:
        ``(m, 2)`` int64 array of qualifying index pairs, or a
        :class:`~repro.core.result.JoinResult` when ``return_result``.
    """
    if n_workers is not None:
        if engine not in ("auto", "parallel"):
            raise InvalidParameterError(
                f"n_workers conflicts with engine={engine!r}"
            )
        engine = "parallel"
    if engine != "auto" and algorithm != "epsilon-kdb":
        raise InvalidParameterError(
            "engine selection only applies to the epsilon-kdb algorithm, "
            f"not {algorithm!r}"
        )
    spec_kwargs = dict(
        epsilon=epsilon,
        metric=metric,
        leaf_size=leaf_size,
        n_workers=n_workers,
        cascade=cascade,
        filter_dims=filter_dims,
        engine=engine,
    )
    if task_timeout is not None:
        spec_kwargs["task_timeout"] = task_timeout
    if max_task_retries is not None:
        spec_kwargs["max_task_retries"] = max_task_retries
    if delta_threshold is not None:
        spec_kwargs["delta_threshold"] = delta_threshold
    spec = JoinSpec(**spec_kwargs)
    if sync_mode is not None and persist_path is None:
        raise InvalidParameterError(
            "sync_mode is only meaningful together with persist_path"
        )
    if keep_generations is not None and persist_path is None:
        raise InvalidParameterError(
            "keep_generations is only meaningful together with persist_path"
        )
    if updates is not None or persist_path is not None:
        if points2 is not None:
            raise InvalidParameterError(
                "update/persisted sessions are only supported for "
                "self-joins, not two-set joins"
            )
        if algorithm != "epsilon-kdb":
            raise InvalidParameterError(
                "update/persisted sessions are only supported by the "
                f"epsilon-kdb algorithm, not {algorithm!r}"
            )
        if engine not in ("auto", "serial", "parallel"):
            raise InvalidParameterError(
                "update/persisted sessions execute serially or in "
                f"parallel, not engine={engine!r}"
            )
        session_engine = "parallel" if engine == "parallel" else "serial"
        stream = list(updates) if updates is not None else []
        points = np.asarray(points, dtype=np.float64)
        if len(points):
            stream.insert(0, ("insert", points))
        if persist_path is not None:
            session = IncrementalJoin.open(
                persist_path,
                spec=spec,
                sync_mode=sync_mode,
                engine=session_engine,
                keep_generations=keep_generations,
            )
            try:
                apply_update_stream(session, stream)
                # The accumulated live pair set — identical to what a
                # fresh session's added-minus-retracted ledger yields,
                # but also correct when the session was resumed.
                pairs = session.current_pairs()
                stats = session.stats
            finally:
                session.close()
            if not return_result:
                return pairs
            return JoinResult(stats=stats, pairs=pairs)
        session = IncrementalJoin(spec, engine=session_engine)
        added, retracted = apply_update_stream(session, stream)
        pairs = subtract_pairs(added, retracted)
        if not return_result:
            return pairs
        result = JoinResult(stats=session.stats, pairs=pairs)
        return result
    registry = _SELF_JOIN_ALGORITHMS if points2 is None else _TWO_SET_ALGORITHMS
    try:
        runner = registry[algorithm]
    except KeyError:
        raise InvalidParameterError(
            f"unknown algorithm {algorithm!r}; expected one of "
            f"{sorted(registry)}"
        ) from None
    if algorithm == "epsilon-kdb":
        pts = np.asarray(points, dtype=np.float64)
        pts2 = (
            np.asarray(points2, dtype=np.float64)
            if points2 is not None
            else None
        )
        if engine == "external":
            result = _run_external(pts, pts2, spec)
            return result if return_result else result.pairs
        plannable = pts.ndim == 2 and (pts2 is None or pts2.ndim == 2)
        if plannable:
            plan = plan_execution(
                spec,
                len(pts),
                pts.shape[1],
                n2=len(pts2) if pts2 is not None else None,
                forced=None if engine == "auto" else engine,
            )
            with trace.span(
                "plan",
                strategy=plan.chosen,
                predicted_seconds=plan.predicted_cost,
                plan_seconds=plan.plan_seconds,
                forced=bool(plan.forced),
            ):
                result = _run_planned_strategy(plan, pts, pts2, spec)
            result.stats.planned_strategy = plan.chosen
            result.stats.predicted_cost = plan.predicted_cost
            result.stats.plan_seconds = plan.plan_seconds
            result.plan = plan
            return result if return_result else result.pairs
    if points2 is None:
        result = runner(points, spec)
    else:
        result = runner(points, points2, spec)
    return result if return_result else result.pairs


__all__ = [
    "__version__",
    "similarity_join",
    "ALGORITHMS",
    # core
    "JoinSpec",
    "Grid",
    "EpsilonKdbTree",
    "FlatEpsilonKdbTree",
    "epsilon_kdb_self_join",
    "epsilon_kdb_join",
    "epsilon_sweep",
    "external_self_join",
    "external_join",
    "ExternalJoinReport",
    "ParallelJoinExecutor",
    "parallel_self_join",
    "parallel_join",
    "FaultPlan",
    "PairCollector",
    "PairCounter",
    "JoinStats",
    "JoinResult",
    "IncrementalJoin",
    "JoinSizeSketch",
    "UpdateDelta",
    "apply_update_stream",
    "subtract_pairs",
    # planner
    "CostProfile",
    "ExecutionPlan",
    "calibrate",
    "plan_execution",
    # observability
    "Tracer",
    "MetricsRegistry",
    # baselines
    "RTree",
    "rtree_self_join",
    "rtree_join",
    "RPlusTree",
    "rplus_self_join",
    "rplus_join",
    "zorder_self_join",
    "zorder_join",
    "index_nested_loop_join",
    "sort_merge_self_join",
    "sort_merge_join",
    "grid_self_join",
    "grid_join",
    "brute_force_self_join",
    "brute_force_join",
    # applications
    "find_similar_sequences",
    "SequenceMatchResult",
    "find_duplicate_images",
    "DuplicateGroups",
    # metrics
    "Metric",
    "WeightedLpMetric",
    "L1",
    "L2",
    "LINF",
    "lp_metric",
    "get_metric",
    # errors
    "ReproError",
    "AdmissionError",
    "InvalidParameterError",
    "DomainError",
    "StorageError",
    "CorruptSnapshotError",
    "SessionCrashError",
    "TransientIoError",
    "WorkerCrashError",
    "TaskTimeoutError",
]
