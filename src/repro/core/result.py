"""Result sinks and machine-independent join statistics.

Join algorithms emit candidate verdicts through a sink object instead of
returning Python lists, so the same traversal code can either materialize
the joined pairs (:class:`PairCollector`) or merely count them
(:class:`PairCounter`) — the latter is what the benchmark harness uses to
measure algorithmic work without the memory cost of huge outputs.

:class:`JoinStats` carries the hardware-independent counters that the
paper's evaluation reasons about: how many full distance computations an
algorithm performed, how many node pairs its traversal visited, and how
many leaf joins it executed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Tuple

import numpy as np


@dataclass
class JoinStats:
    """Counters describing the work one join execution performed.

    Attributes:
        distance_computations: candidate pairs whose full distance was
            evaluated (after all per-coordinate pruning).
        node_pairs_visited: pairs of index nodes (or grid cells, or
            tree nodes, depending on the algorithm) the traversal
            touched.
        leaf_joins: leaf-level join invocations.
        pairs_emitted: qualifying pairs reported.
        pages_read / pages_written: simulated I/O, filled in only by the
            external-memory variants.
        stripes: partitions planned, filled in only by the parallel and
            external-memory variants.
        workers_used: process-pool size, filled in only by the parallel
            executor (0 means the serial path ran).
        duplicate_pairs_merged: boundary pairs found by more than one
            stripe task and removed by the deterministic merge.
        worker_seconds: per-stripe-task wall-clock times, in stripe
            order (not completion order).
        tasks_retried: stripe-task dispatches that repeated a failed or
            timed-out attempt (including the final in-parent attempt).
        tasks_timed_out: stripe-task attempts that exceeded the
            ``task_timeout`` deadline.
        degraded_to_serial: the parallel executor abandoned the process
            pool (creation failure or ``BrokenProcessPool``) and fell
            back to the serial join.
        faults_injected: faults a :class:`~repro.core.resilience.FaultPlan`
            deliberately injected into this run.
        storage_retries: transient page-read failures the external joins
            retried successfully.
        cascade_candidates: candidate rows that entered the filter
            cascade (:mod:`repro.core.kernels`); 0 when the monolithic
            kernel ran.
        cascade_survivors: rows still alive after each cascade stage
            (the pre-filter stages followed by the short-circuit
            reduction), monotonically non-increasing.  Rendered by
            :meth:`as_dict` as ``cascade_survivors_stage{N}`` keys.
        coordinates_touched: individual point coordinates the cascade
            kernels actually read; the monolithic kernel would have read
            ``cascade_candidates * d``.
        build_nodes: nodes in the flat epsilon-kdB tree(s) this join
            traversed.
        build_sort_seconds: wall-clock the flat build spent in its
            ``lexsort`` calls, the dominant build cost.
        updates_applied: insert/delete batches an incremental session
            applied (:mod:`repro.core.incremental`); 0 for batch joins.
        delta_size: live rows currently in the incremental session's
            delta buffer (a gauge: ``merge`` keeps the maximum observed).
        compactions: delta-buffer merges the incremental session ran
            (automatic threshold triggers and explicit ``compact()``).
        pairs_retracted: pairs un-reported by ``delete()`` calls; the
            session's net result size is
            ``pairs_emitted - pairs_retracted``.
        estimated_join_size: one-pass sketch estimate of the self-join
            size over the session's live points (a gauge: ``merge``
            keeps the maximum observed).
        wal_records_replayed: write-ahead-log records a persisted
            session re-applied while recovering (0 for a clean open).
        snapshot_bytes: size of the largest snapshot this session
            published or recovered from (a gauge: ``merge`` keeps the
            maximum observed).
        recovery_seconds: wall-clock spent in
            :meth:`~repro.core.incremental.IncrementalJoin.open`
            recovery (snapshot validation, memmap open, WAL replay).
        corrupt_frames_discarded: damaged storage artifacts recovery
            detected and discarded — torn or checksum-failed WAL
            suffixes plus snapshot generations that failed validation.
        batches_rejected: update batches refused by sketch-based
            admission control (``spec.admission_threshold``); a refused
            batch journals nothing and mutates nothing.
        kernel_blocks: candidate tiles the leaf work-queue dispatched to
            the filter kernel (cascaded or monolithic).
        kernel_tile_rows: capacity of the leaf work-queue's tiles, in
            candidate row pairs (a gauge; ``merge`` keeps the maximum).
        kernel_seconds: wall-clock spent inside the leaf filter kernel,
            summed over work-queue tiles — the figure E21's tile sweep
            compares.
        planned_strategy: execution strategy the cost-based planner
            chose (:mod:`repro.planner`); empty when the caller pinned
            an engine without planning or called an algorithm directly.
        predicted_cost: the planner's predicted wall-clock seconds for
            the chosen strategy — compare against the measured time for
            the mispredict ratio E22 charts (a gauge; ``merge`` keeps
            the maximum).
        plan_seconds: wall-clock spent scoring strategies, the overhead
            ``engine="auto"`` pays over a pinned engine.
    """

    distance_computations: int = 0
    node_pairs_visited: int = 0
    leaf_joins: int = 0
    pairs_emitted: int = 0
    pages_read: int = 0
    pages_written: int = 0
    stripes: int = 0
    workers_used: int = 0
    duplicate_pairs_merged: int = 0
    worker_seconds: List[float] = field(default_factory=list)
    tasks_retried: int = 0
    tasks_timed_out: int = 0
    degraded_to_serial: bool = False
    faults_injected: int = 0
    storage_retries: int = 0
    cascade_candidates: int = 0
    cascade_survivors: List[int] = field(default_factory=list)
    coordinates_touched: int = 0
    build_nodes: int = 0
    build_sort_seconds: float = 0.0
    updates_applied: int = 0
    delta_size: int = 0
    compactions: int = 0
    pairs_retracted: int = 0
    estimated_join_size: float = 0.0
    wal_records_replayed: int = 0
    snapshot_bytes: int = 0
    recovery_seconds: float = 0.0
    corrupt_frames_discarded: int = 0
    batches_rejected: int = 0
    kernel_blocks: int = 0
    kernel_tile_rows: int = 0
    kernel_seconds: float = 0.0
    planned_strategy: str = ""
    predicted_cost: float = 0.0
    plan_seconds: float = 0.0

    def as_dict(self) -> Dict[str, Any]:
        """Every counter as JSON-ready data, in field order.

        Consumers that render or export stats (the CLI's stat lines and
        ``--stats-json``, :meth:`repro.obs.metrics.MetricsRegistry.ingest_stats`)
        iterate this generically, so new fields added here flow through
        without touching them.  ``cascade_survivors`` expands into one
        ``cascade_survivors_stage{N}`` integer per stage.
        """
        out: Dict[str, Any] = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if spec.name == "cascade_survivors":
                for stage, survivors in enumerate(value):
                    out[f"cascade_survivors_stage{stage + 1}"] = int(survivors)
                continue
            if isinstance(value, (list, tuple)):
                value = [float(v) for v in value]
            out[spec.name] = value
        return out

    def merge(self, other: "JoinStats") -> None:
        """Accumulate another stats object into this one."""
        self.distance_computations += other.distance_computations
        self.node_pairs_visited += other.node_pairs_visited
        self.leaf_joins += other.leaf_joins
        self.pairs_emitted += other.pairs_emitted
        self.pages_read += other.pages_read
        self.pages_written += other.pages_written
        self.stripes += other.stripes
        self.workers_used = max(self.workers_used, other.workers_used)
        self.duplicate_pairs_merged += other.duplicate_pairs_merged
        self.worker_seconds.extend(other.worker_seconds)
        self.tasks_retried += other.tasks_retried
        self.tasks_timed_out += other.tasks_timed_out
        self.degraded_to_serial = bool(
            self.degraded_to_serial or other.degraded_to_serial
        )
        self.faults_injected += other.faults_injected
        self.storage_retries += other.storage_retries
        self.cascade_candidates += other.cascade_candidates
        if other.cascade_survivors:
            # Element-wise sum; zero-pad the shorter list so stripes that
            # ran with fewer stages (or none) still merge cleanly.
            if len(self.cascade_survivors) < len(other.cascade_survivors):
                self.cascade_survivors.extend(
                    [0] * (len(other.cascade_survivors) - len(self.cascade_survivors))
                )
            for stage, survivors in enumerate(other.cascade_survivors):
                self.cascade_survivors[stage] += survivors
        self.coordinates_touched += other.coordinates_touched
        self.build_nodes += other.build_nodes
        self.build_sort_seconds += other.build_sort_seconds
        self.updates_applied += other.updates_applied
        self.delta_size = max(self.delta_size, other.delta_size)
        self.compactions += other.compactions
        self.pairs_retracted += other.pairs_retracted
        self.estimated_join_size = max(
            self.estimated_join_size, other.estimated_join_size
        )
        self.wal_records_replayed += other.wal_records_replayed
        self.snapshot_bytes = max(self.snapshot_bytes, other.snapshot_bytes)
        self.recovery_seconds += other.recovery_seconds
        self.corrupt_frames_discarded += other.corrupt_frames_discarded
        self.batches_rejected += other.batches_rejected
        self.kernel_blocks += other.kernel_blocks
        self.kernel_tile_rows = max(self.kernel_tile_rows, other.kernel_tile_rows)
        self.kernel_seconds += other.kernel_seconds
        if not self.planned_strategy:
            self.planned_strategy = other.planned_strategy
        self.predicted_cost = max(self.predicted_cost, other.predicted_cost)
        self.plan_seconds += other.plan_seconds


_EMPTY_I64 = np.empty(0, dtype=np.int64)


class PairSink:
    """Interface accepted by every join algorithm.

    ``emit(left, right)`` receives two equal-length int arrays of point
    indices; each position is one qualifying pair.  For self-joins the
    convention is ``left < right`` element-wise and each unordered pair
    appears exactly once.
    """

    def emit(self, left: np.ndarray, right: np.ndarray) -> None:
        raise NotImplementedError

    @property
    def count(self) -> int:
        raise NotImplementedError


class PairCounter(PairSink):
    """Sink that only counts qualifying pairs."""

    def __init__(self) -> None:
        self._count = 0

    def emit(self, left: np.ndarray, right: np.ndarray) -> None:
        self._count += int(len(left))

    @property
    def count(self) -> int:
        return self._count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PairCounter count={self._count}>"


class PairCollector(PairSink):
    """Sink that materializes every qualifying pair.

    Pairs are buffered as the chunks the algorithms emit and concatenated
    once at the end, so collection is O(pairs) with no per-pair Python
    object overhead.
    """

    def __init__(self) -> None:
        self._left: List[np.ndarray] = []
        self._right: List[np.ndarray] = []
        self._count = 0

    def emit(self, left: np.ndarray, right: np.ndarray) -> None:
        if len(left):
            self._left.append(np.asarray(left, dtype=np.int64))
            self._right.append(np.asarray(right, dtype=np.int64))
            self._count += int(len(left))

    @property
    def count(self) -> int:
        return self._count

    def arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return the collected pairs as two aligned index arrays."""
        if not self._left:
            return _EMPTY_I64.copy(), _EMPTY_I64.copy()
        return np.concatenate(self._left), np.concatenate(self._right)

    def pairs(self) -> np.ndarray:
        """Return the collected pairs as an ``(n, 2)`` array."""
        left, right = self.arrays()
        return np.column_stack([left, right])

    def sorted_pairs(self) -> np.ndarray:
        """Pairs as a canonical ``(n, 2)`` array, lexicographically sorted.

        Useful for comparing the output of two algorithms; does not
        reorder within a pair (self-join pairs are already ``i < j``).
        """
        out = self.pairs()
        if len(out) == 0:
            return out
        order = np.lexsort((out[:, 1], out[:, 0]))
        return out[order]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PairCollector count={self._count}>"


@dataclass
class JoinResult:
    """Bundle of a join's output pairs (optional) and its statistics.

    ``build_seconds`` and ``join_seconds`` split the wall-clock cost into
    structure construction and traversal, mirroring the paper's
    discussion of the epsilon-kdB tree being cheap to build per join.
    """

    stats: JoinStats = field(default_factory=JoinStats)
    pairs: np.ndarray = field(default_factory=lambda: np.empty((0, 2), dtype=np.int64))
    build_seconds: float = 0.0
    join_seconds: float = 0.0
    # An ExecutionPlan when the cost-based planner drove this execution
    # (typed loosely: core must not import repro.planner at module level).
    plan: Any = None

    @property
    def count(self) -> int:
        return self.stats.pairs_emitted

    @property
    def total_seconds(self) -> float:
        return self.build_seconds + self.join_seconds


def canonicalize_self_pairs(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Normalize self-join pairs: orient ``i < j``, dedupe, sort.

    Baselines that generate pairs in arbitrary orientation use this to
    produce the canonical form for comparison.
    """
    left = np.asarray(left, dtype=np.int64)
    right = np.asarray(right, dtype=np.int64)
    lo = np.minimum(left, right)
    hi = np.maximum(left, right)
    keep = lo != hi
    pairs = np.column_stack([lo[keep], hi[keep]])
    if len(pairs) == 0:
        return pairs
    pairs = np.unique(pairs, axis=0)
    return pairs


def canonicalize_two_set_pairs(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Normalize two-set pairs: keep sides, dedupe, sort lexicographically.

    The parallel merge uses this to fold boundary pairs reported by two
    adjacent stripe tasks into one occurrence; the result matches the
    serial traversal's ``PairCollector.sorted_pairs()`` ordering exactly.
    """
    left = np.asarray(left, dtype=np.int64)
    right = np.asarray(right, dtype=np.int64)
    pairs = np.column_stack([left, right])
    if len(pairs) == 0:
        return pairs
    return np.unique(pairs, axis=0)
