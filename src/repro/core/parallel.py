"""Parallel partitioned epsilon-kdB joins.

The epsilon-kdB decomposition is embarrassingly parallel along any split
dimension: child ``i`` of a split node only ever joins children
``i-1..i+1``, so a run of epsilon-wide cells (a *stripe*) joins only
itself and its neighbouring stripes' adjacent cells.  The
external-memory driver (:mod:`repro.core.external`) already exploits
this to bound memory; this module exploits it to bound *latency*: it
builds one flat tree in the parent, groups the root's children (the
occupied cells of the first split dimension) into load-balanced stripes
with :func:`repro.core.external.plan_stripes`, ships the tree's arrays
to worker processes once via ``multiprocessing.shared_memory``, lets
each worker traverse one disjoint range of the root's children in a
process pool, and merges the per-stripe pair blocks deterministically.
Planning reads only the root's children, so its cost grows with the
number of occupied cells, never with the span of the data over epsilon.

Partitioning rule (self-join): the task owning root children
``[lo, hi)`` joins each of them with itself and with its right-adjacent
sibling, so the tasks partition the serial root visit exactly.  Two-set
joins assign each adjacent root-cell pair to the smaller of its two
cells.  The merge canonicalizes with
:func:`repro.core.result.canonicalize_self_pairs` (or
:func:`repro.core.result.canonicalize_two_set_pairs`), whose
``np.unique`` ordering is exactly the serial path's lexicographic
``sorted_pairs()`` ordering — so the parallel result is byte-identical
to the serial one.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import JoinSpec, validate_point_sets, validate_points
from repro.core.epsilon_kdb import Grid
from repro.core.external import merge_cell_counts, plan_stripes
from repro.core.flat_build import FlatEpsilonKdbTree
from repro.core.join import (
    _flat_self_join_range,
    _flat_two_set_range,
    epsilon_kdb_join,
    epsilon_kdb_self_join,
    join_flat_trees,
)
from repro.core.kernels import KernelSource, build_kernel_context
from repro.core.resilience import DegradeToSerial, FaultPlan
from repro.core.result import (
    JoinResult,
    JoinStats,
    PairCollector,
    PairSink,
    canonicalize_self_pairs,
    canonicalize_two_set_pairs,
)
from repro.errors import InvalidParameterError, WorkerCrashError
from repro.obs import trace
from repro.obs.trace import Tracer

#: Below this many points (total, both sides for two-set joins) the
#: executor runs the serial path: process startup would dominate.
DEFAULT_SERIAL_THRESHOLD = 2048

#: Stripes planned per worker; a few per worker smooths out skew
#: (a slow stripe overlaps other workers' remaining stripes).
DEFAULT_STRIPES_PER_WORKER = 3

#: Base of the exponential backoff between task retries, in seconds.
DEFAULT_RETRY_BACKOFF = 0.05


def _root_cells(tree: FlatEpsilonKdbTree) -> Tuple[np.ndarray, np.ndarray]:
    """Cell digits and point counts of the root's children."""
    children = tree.root_children()
    return tree.node_digit[children], tree.node_stop[children] - tree.node_start[children]


# ----------------------------------------------------------------------
# worker-process machinery
# ----------------------------------------------------------------------
# Populated by the pool initializer in each worker (or directly by the
# in-process runner): side label -> (n, d) float64 view.
_WORKER_POINTS: Dict[str, np.ndarray] = {}
# Keeps attached segments alive for the worker's lifetime; with the
# fork start method all registrations share the parent's resource
# tracker, so only the parent's unlink() releases the segment.
_WORKER_SEGMENTS: List[shared_memory.SharedMemory] = []


def _init_worker(segments: Dict[str, Tuple[str, Tuple[int, ...], str]]) -> None:
    _WORKER_POINTS.clear()
    for side, (name, shape, dtype) in segments.items():
        shm = shared_memory.SharedMemory(name=name)
        _WORKER_SEGMENTS.append(shm)
        _WORKER_POINTS[side] = np.ndarray(
            shape, dtype=np.dtype(dtype), buffer=shm.buf
        )


def _worker_flat_tree(prefix: str, spec: JoinSpec, grid: Grid) -> FlatEpsilonKdbTree:
    """Reassemble a shipped flat tree from this worker's shared segments."""
    return FlatEpsilonKdbTree.from_arrays(
        _WORKER_POINTS[prefix],
        _WORKER_POINTS[prefix + "_perm"],
        _WORKER_POINTS[prefix + "_digits"],
        _WORKER_POINTS[prefix + "_nodes"],
        spec,
        grid,
    )


def _flat_self_stripe_task(
    spec: JoinSpec, child_lo: int, child_hi: int
) -> Tuple[np.ndarray, JoinStats, float]:
    """Self stripe task: join one range of the flat tree's root children.

    The tree is not rebuilt: its permuted point array, digit matrix and
    CSR node table arrive through shared memory, and the grid is refit
    from the data (min/max are permutation-invariant, so it is identical
    to the parent's).  The shipped flat column store backs the cascade
    kernels with no row translation at all — flat rows *are* kernel rows.
    """
    started = time.perf_counter()
    with trace.span("build", children=child_hi - child_lo):
        points_flat = _WORKER_POINTS["a"]
        grid = Grid.fit(points_flat, spec.band_width)
        tree = _worker_flat_tree("a", spec, grid)
        cols = _WORKER_POINTS.get("a_cols")
        source = KernelSource(cols_a=cols) if cols is not None else None
        kernel = build_kernel_context(
            spec,
            points_flat,
            grid=grid,
            split_dims=tree.split_dims(),
            sort_dim=tree.sort_dim,
            source=source,
        )
    collector = PairCollector()
    with trace.span("self-join-traversal", points=len(points_flat)) as join_span:
        stats = _flat_self_join_range(
            tree, spec, child_lo, child_hi, collector, kernel
        )
        join_span.set_attribute("pairs", collector.count)
        join_span.set_attribute("leaf_joins", stats.leaf_joins)
    return collector.pairs(), stats, time.perf_counter() - started


def _flat_cross_stripe_task(
    spec: JoinSpec, cell_lo: int, cell_hi: int
) -> Tuple[np.ndarray, JoinStats, float]:
    """Two-set stripe task: join one range of root cells."""
    started = time.perf_counter()
    with trace.span("build", cell_lo=cell_lo):
        points_r = _WORKER_POINTS["r"]
        points_s = _WORKER_POINTS["s"]
        grid = Grid.fit_union(points_r, points_s, spec.band_width)
        tree_r = _worker_flat_tree("r", spec, grid)
        tree_s = _worker_flat_tree("s", spec, grid)
        cols_r = _WORKER_POINTS.get("r_cols")
        cols_s = _WORKER_POINTS.get("s_cols")
        if cols_r is not None and cols_s is not None:
            source = KernelSource(cols_a=cols_r, cols_b=cols_s)
        else:
            source = None
        kernel = build_kernel_context(
            spec,
            points_r,
            points_b=points_s,
            grid=grid,
            split_dims=tuple(set(tree_r.split_dims()) | set(tree_s.split_dims())),
            sort_dim=tree_r.sort_dim,
            source=source,
        )
    collector = PairCollector()
    with trace.span("two-set-traversal") as join_span:
        stats = _flat_two_set_range(
            tree_r, tree_s, spec, cell_lo, cell_hi, collector, kernel
        )
        join_span.set_attribute("pairs", collector.count)
        join_span.set_attribute("leaf_joins", stats.leaf_joins)
    return collector.pairs(), stats, time.perf_counter() - started


def _guarded_task(
    task, plan, task_id, attempt, spec, *args, in_process=False, traced=False
):
    """Run one stripe task attempt, applying any injected faults first.

    Module-level (picklable) so it can be submitted to the pool; the
    same wrapper runs in-process for the poolless mode and the final
    in-parent retry, keeping fault semantics identical on every path.

    Returns ``(task result, shipped spans)``.  When ``traced`` and
    running in a pool worker, the attempt executes under a fresh local
    :class:`~repro.obs.trace.Tracer` whose spans are serialized and
    shipped back for the parent to stitch (spans of attempts that crash
    die with the worker; the parent records those from its side).
    In-process attempts trace straight into the parent's ambient tracer
    and ship nothing.
    """

    def attempt_span(tracer):
        return tracer.span(
            "stripe-task",
            task=task_id,
            attempt=attempt,
            pid=os.getpid(),
            in_parent=in_process,
        )

    def run(span):
        if plan is not None:
            plan.apply_task_faults(task_id, attempt, in_process=in_process)
        out = task(spec, *args)
        span.set_attribute("outcome", "ok")
        return out

    if traced and not in_process:
        tracer = Tracer()
        with trace.activate(tracer):
            with attempt_span(tracer) as span:
                out = run(span)
        return out, tracer.export()
    with attempt_span(trace.current_tracer()) as span:
        return run(span), None


def _export_shared(array: np.ndarray) -> shared_memory.SharedMemory:
    shm = shared_memory.SharedMemory(create=True, size=max(1, array.nbytes))
    try:
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=shm.buf)
        view[:] = array
    except BaseException:
        shm.close()
        shm.unlink()
        raise
    return shm


def _release_shared(shm: shared_memory.SharedMemory) -> None:
    """Best-effort close + unlink; must never raise during cleanup."""
    try:
        shm.close()
        shm.unlink()
    except (FileNotFoundError, OSError):  # pragma: no cover - already gone
        pass


class ParallelJoinExecutor:
    """Run epsilon-kdB joins across a process pool of stripe tasks.

    Degrades gracefully: ``n_workers=1`` and inputs below
    ``serial_threshold`` points run the plain serial join, and a plan
    with a single stripe runs it on the tree already built — with
    output identical to the parallel path,
    which is itself byte-identical to the serial path (see module
    docstring).

    The pool path is fault-tolerant.  Every stripe task is a pure
    function of ``(shipped tree arrays, spec, range)``, so recovery is
    re-execution: a crashed or timed-out task is re-dispatched up to
    ``max_task_retries`` times (exponential backoff), then run one final
    time *in the parent process*, so a task whose pool workers keep
    dying cannot fail the join.  A broken pool
    (``BrokenProcessPool``, e.g. an OOM-killed worker) or a pool that
    cannot be created at all degrades the whole join to the serial
    traversal.  Shared-memory segments are released on every one of
    those paths.  Because the merge dedups deterministically, the
    result stays byte-identical to the serial join no matter which
    recovery route ran; ``JoinStats`` reports the route taken
    (``tasks_retried``, ``tasks_timed_out``, ``degraded_to_serial``,
    ``faults_injected``).

    Args:
        spec: the join parameters; ``spec.n_workers``,
            ``spec.task_timeout`` and ``spec.max_task_retries`` supply
            defaults.
        n_workers: overrides ``spec.n_workers``; ``None`` falls back to
            the spec, then to ``os.cpu_count()``.
        stripes_per_worker: planned stripes per worker (load balance).
        serial_threshold: total point count below which the serial path
            runs directly.
        use_processes: when ``False``, run the same stripe tasks
            in-process (same planning, same merge, same retry
            accounting, no pool) — used by tests to exercise the
            decomposition and recovery logic cheaply.
        task_timeout: overrides ``spec.task_timeout`` (seconds).
        max_task_retries: overrides ``spec.max_task_retries``.
        retry_backoff: base of the exponential backoff between retries,
            in seconds (``0`` disables backoff sleeps).
        fault_plan: a :class:`~repro.core.resilience.FaultPlan` to
            inject deterministic faults into this executor's runs.
    """

    def __init__(
        self,
        spec: JoinSpec,
        n_workers: Optional[int] = None,
        stripes_per_worker: int = DEFAULT_STRIPES_PER_WORKER,
        serial_threshold: int = DEFAULT_SERIAL_THRESHOLD,
        use_processes: bool = True,
        task_timeout: Optional[float] = None,
        max_task_retries: Optional[int] = None,
        retry_backoff: float = DEFAULT_RETRY_BACKOFF,
        fault_plan: Optional[FaultPlan] = None,
    ):
        if n_workers is None:
            n_workers = spec.n_workers
        if n_workers is None:
            n_workers = os.cpu_count() or 1
        if int(n_workers) < 1:
            raise InvalidParameterError(
                f"n_workers must be >= 1, got {n_workers!r}"
            )
        if int(stripes_per_worker) < 1:
            raise InvalidParameterError(
                f"stripes_per_worker must be >= 1, got {stripes_per_worker!r}"
            )
        self.spec = spec
        self.n_workers = int(n_workers)
        self.stripes_per_worker = int(stripes_per_worker)
        self.serial_threshold = int(serial_threshold)
        self.use_processes = use_processes
        self.task_timeout = (
            spec.task_timeout if task_timeout is None else float(task_timeout)
        )
        self.max_task_retries = (
            spec.max_task_retries
            if max_task_retries is None
            else int(max_task_retries)
        )
        if self.max_task_retries < 0:
            raise InvalidParameterError(
                f"max_task_retries must be >= 0, got {max_task_retries!r}"
            )
        self.retry_backoff = float(retry_backoff)
        self.fault_plan = fault_plan

    # ------------------------------------------------------------------
    def self_join(
        self, points: np.ndarray, sink: Optional[PairSink] = None
    ) -> JoinResult:
        """Parallel self-join; same contract as ``epsilon_kdb_self_join``."""
        points = validate_points(points)
        with trace.span(
            "parallel-self-join", points=len(points), n_workers=self.n_workers
        ):
            if self.n_workers == 1 or len(points) < max(2, self.serial_threshold):
                trace.add_event("serial-fallback", reason="small input or 1 worker")
                return self._serial(
                    lambda: epsilon_kdb_self_join(points, self.spec, sink=sink)
                )
            return self._flat_self(points, sink)

    def join(
        self,
        points_r: np.ndarray,
        points_s: np.ndarray,
        sink: Optional[PairSink] = None,
    ) -> JoinResult:
        """Parallel two-set join; same contract as ``epsilon_kdb_join``."""
        points_r, points_s = validate_point_sets(points_r, points_s)
        total = len(points_r) + len(points_s)
        with trace.span(
            "parallel-two-set-join",
            points_r=len(points_r),
            points_s=len(points_s),
            n_workers=self.n_workers,
        ):
            small = (
                self.n_workers == 1
                or total < self.serial_threshold
                or len(points_r) == 0
                or len(points_s) == 0
            )
            if small:
                trace.add_event("serial-fallback", reason="small input or 1 worker")
                return self._serial(
                    lambda: epsilon_kdb_join(points_r, points_s, self.spec, sink=sink)
                )
            return self._flat_cross(points_r, points_s, sink)

    # ------------------------------------------------------------------
    # stripe execution over globally built flat trees
    # ------------------------------------------------------------------
    def _plan(self, cells: np.ndarray, counts: np.ndarray) -> List[slice]:
        """Group root cells into stripes of about equal point counts.

        Reuses the external driver's greedy :func:`plan_stripes` with a
        *capacity* target of roughly ``points / (n_workers *
        stripes_per_worker)`` instead of a memory budget.
        """
        with trace.span("plan", cells=len(cells)) as plan_span:
            capacity = max(
                2, -(-int(counts.sum()) // (self.n_workers * self.stripes_per_worker))
            )
            stripes = plan_stripes(cells, counts, capacity)
            plan_span.set_attribute("stripes", len(stripes))
        return stripes

    def _flat_self(self, points, sink) -> JoinResult:
        """Parallel self-join over one globally built flat tree.

        One vectorized build in the parent; workers receive the permuted
        array, digit matrix and CSR node table through shared memory and
        traverse disjoint root-child ranges (each child plus its cross
        with the right-adjacent sibling), so the stripe tasks partition
        the serial traversal exactly — no boundary bands, no duplicate
        pairs, and no per-task index-list shipping.
        """
        started = time.perf_counter()
        with trace.span(
            "build", points=len(points), dims=points.shape[1], epsilon=self.spec.epsilon
        ):
            tree = FlatEpsilonKdbTree.build(points, self.spec)

        def stamp(result: JoinResult) -> JoinResult:
            result.stats.build_nodes = tree.n_nodes
            result.stats.build_sort_seconds = tree.build_sort_seconds
            return result

        def serial() -> JoinResult:
            return epsilon_kdb_self_join(points, self.spec, sink=sink, tree=tree)

        stripes = self._plan(*_root_cells(tree))
        if len(stripes) < 2:
            trace.add_event("serial-fallback", reason="single stripe")
            return stamp(self._serial(serial))
        tasks = [(span.start, span.stop) for span in stripes]
        segments = {
            "a": tree.points_flat,
            "a_perm": tree.perm,
            "a_digits": tree.digits,
            "a_nodes": tree.packed_nodes(),
        }
        if self.spec.cascade_enabled(points.shape[1]):
            segments["a_cols"] = np.ascontiguousarray(tree.points_flat.T)
        try:
            outcomes, planned, resilience = self._run(
                _flat_self_stripe_task, tasks, segments, started
            )
        except DegradeToSerial as signal:
            return stamp(self._degraded_serial(serial, signal))
        return stamp(
            self._merge(outcomes, planned, sink, canonicalize_self_pairs, resilience)
        )

    def _flat_cross(self, points_r, points_s, sink) -> JoinResult:
        """Parallel two-set join over two globally built flat trees.

        Stripes are planned over the union of both roots' cells, sized
        by the two sides' summed counts.  Tasks own half-open root-cell
        ranges; the task owning cell ``g`` joins ``(R_g, S_g)``,
        ``(R_g, S_{g+1})`` and ``(R_{g+1}, S_g)``, which partitions the
        adjacent child pairs exactly.
        """
        started = time.perf_counter()
        with trace.span(
            "build",
            points_r=len(points_r),
            points_s=len(points_s),
            dims=points_r.shape[1],
            epsilon=self.spec.epsilon,
        ):
            grid = Grid.fit_union(points_r, points_s, self.spec.band_width)
            tree_r = FlatEpsilonKdbTree.build(points_r, self.spec, grid=grid)
            tree_s = FlatEpsilonKdbTree.build(points_s, self.spec, grid=grid)

        def serial() -> JoinResult:
            return join_flat_trees(tree_r, tree_s, self.spec, sink=sink)

        roots = (_root_cells(tree_r), _root_cells(tree_s))
        cells, counts = merge_cell_counts(*zip(*roots))
        stripes = self._plan(cells, counts)
        # Both roots must split for the root-cell ranges to cover the
        # join; a leaf root (too few points on one side) runs serially.
        if len(stripes) < 2 or not all(len(root_cells) for root_cells, _ in roots):
            trace.add_event("serial-fallback", reason="nothing to partition")
            return self._serial(serial)
        bounds = [int(cells[span.start]) for span in stripes] + [int(cells[-1]) + 1]
        tasks = list(zip(bounds[:-1], bounds[1:]))
        segments = {
            "r": tree_r.points_flat,
            "r_perm": tree_r.perm,
            "r_digits": tree_r.digits,
            "r_nodes": tree_r.packed_nodes(),
            "s": tree_s.points_flat,
            "s_perm": tree_s.perm,
            "s_digits": tree_s.digits,
            "s_nodes": tree_s.packed_nodes(),
        }
        if self.spec.cascade_enabled(points_r.shape[1]):
            segments["r_cols"] = np.ascontiguousarray(tree_r.points_flat.T)
            segments["s_cols"] = np.ascontiguousarray(tree_s.points_flat.T)
        try:
            outcomes, planned, resilience = self._run(
                _flat_cross_stripe_task, tasks, segments, started
            )
        except DegradeToSerial as signal:
            return self._degraded_serial(serial, signal)
        result = self._merge(
            outcomes, planned, sink, canonicalize_two_set_pairs, resilience
        )
        result.stats.build_nodes = tree_r.n_nodes + tree_s.n_nodes
        result.stats.build_sort_seconds = (
            tree_r.build_sort_seconds + tree_s.build_sort_seconds
        )
        return result

    # ------------------------------------------------------------------
    def _serial(self, run) -> JoinResult:
        result = run()
        result.stats.stripes = max(result.stats.stripes, 1)
        result.stats.workers_used = 0
        return result

    def _degraded_serial(self, run, signal: DegradeToSerial) -> JoinResult:
        """Serial fallback after the pool path failed; carries its stats."""
        trace.add_event("degraded-to-serial", reason=signal.reason)
        result = self._serial(run)
        stats = result.stats
        stats.degraded_to_serial = True
        stats.tasks_retried += signal.tasks_retried
        stats.tasks_timed_out += signal.tasks_timed_out
        stats.faults_injected += signal.faults_injected
        return result

    def _run(self, task, tasks, arrays, started):
        """Execute stripe tasks with retry, deadlines, and degradation.

        Returns ``(outcomes in task order, plan seconds, resilience
        counters)``.  Raises :class:`DegradeToSerial` when no pool can
        be created or the pool breaks mid-join; shared-memory segments
        are released on every exit path, including that one.
        """
        resilience = {
            "tasks_retried": 0,
            "tasks_timed_out": 0,
            "faults_injected": 0,
        }
        if not self.use_processes:
            _WORKER_POINTS.clear()
            _WORKER_POINTS.update(arrays)
            planned = time.perf_counter() - started
            try:
                with trace.span("dispatch", mode="in-process", tasks=len(tasks)):
                    outcomes = [
                        self._attempts_in_process(task, index, args, resilience)
                        for index, args in enumerate(tasks)
                    ]
                return outcomes, planned, resilience
            finally:
                _WORKER_POINTS.clear()
        shms: Dict[str, shared_memory.SharedMemory] = {}
        try:
            with trace.span("ship") as ship_span:
                for side, array in arrays.items():
                    shms[side] = _export_shared(array)
                segments = {
                    side: (
                        shms[side].name,
                        arrays[side].shape,
                        arrays[side].dtype.str,
                    )
                    for side in arrays
                }
                ship_span.set_attribute(
                    "bytes", int(sum(a.nbytes for a in arrays.values()))
                )
            workers = min(self.n_workers, max(1, len(tasks)))
            if self.fault_plan is not None and self.fault_plan.take_pool_failure():
                resilience["faults_injected"] += 1
                raise DegradeToSerial(
                    "injected pool-creation failure", **resilience
                )
            try:
                pool = ProcessPoolExecutor(
                    max_workers=workers,
                    initializer=_init_worker,
                    initargs=(segments,),
                )
            except (OSError, ValueError, RuntimeError) as exc:
                raise DegradeToSerial(
                    f"process pool creation failed: {exc}", **resilience
                ) from exc
            try:
                with pool:
                    planned = time.perf_counter() - started
                    with trace.span(
                        "dispatch", tasks=len(tasks), workers=workers
                    ):
                        futures = {
                            index: self._dispatch(
                                pool, task, index, 0, args, resilience
                            )
                            for index, args in enumerate(tasks)
                        }
                        outcomes = [
                            self._await_with_retries(
                                pool, task, index, args, futures[index],
                                arrays, resilience,
                            )
                            for index, args in enumerate(tasks)
                        ]
                return outcomes, planned, resilience
            except BrokenProcessPool as exc:
                raise DegradeToSerial(
                    f"process pool broke mid-join: {exc}", **resilience
                ) from exc
        finally:
            for shm in shms.values():
                _release_shared(shm)

    def _dispatch(self, pool, task, index, attempt, args, resilience):
        """Submit one attempt; returns ``(future, dispatch timestamp)``."""
        plan = self.fault_plan
        if plan is not None:
            resilience["faults_injected"] += plan.count_task_faults(index, attempt)
        future = pool.submit(
            _guarded_task,
            task,
            plan,
            index,
            attempt,
            self.spec,
            *args,
            traced=trace.is_enabled(),
        )
        return future, time.perf_counter()

    def _await_with_retries(
        self, pool, task, index, args, future, arrays, resilience
    ):
        """Wait on one stripe task, re-dispatching failed/timed-out attempts.

        Attempts ``0..max_task_retries`` run in the pool under the
        ``task_timeout`` deadline; the attempt after that runs in the
        parent process with no deadline, so a task whose workers keep
        failing still completes (or surfaces its real error).
        ``BrokenProcessPool`` propagates — the caller degrades the whole
        join to serial.

        Tracing: a successful attempt ships its worker-side spans back
        with the result, which are stitched into the ambient trace here;
        a failed attempt's spans die with the worker, so the parent
        records a ``stripe-task`` span for it from the dispatch
        timestamp (submission time, so it includes queueing).
        """
        future, dispatched_at = future
        attempt = 0
        while True:
            try:
                outcome, spans = future.result(timeout=self.task_timeout)
            except BrokenProcessPool:
                raise
            except FuturesTimeoutError:
                resilience["tasks_timed_out"] += 1
                trace.record_span(
                    "stripe-task",
                    dispatched_at,
                    time.perf_counter(),
                    task=index,
                    attempt=attempt,
                    outcome="timed-out",
                )
                future.cancel()
            except (WorkerCrashError, OSError) as exc:
                trace.record_span(
                    "stripe-task",
                    dispatched_at,
                    time.perf_counter(),
                    task=index,
                    attempt=attempt,
                    outcome=f"crashed:{type(exc).__name__}",
                )
            else:
                if spans:
                    trace.current_tracer().adopt(spans)
                return outcome
            attempt += 1
            resilience["tasks_retried"] += 1
            trace.add_event("task-retry", task=index, attempt=attempt)
            if attempt > self.max_task_retries:
                return self._final_attempt_in_parent(
                    task, index, attempt, args, arrays, resilience
                )
            if self.retry_backoff:
                time.sleep(self.retry_backoff * (2 ** (attempt - 1)))
            future, dispatched_at = self._dispatch(
                pool, task, index, attempt, args, resilience
            )

    def _final_attempt_in_parent(
        self, task, index, attempt, args, arrays, resilience
    ):
        """Last-chance execution in the parent: no pool, no deadline."""
        plan = self.fault_plan
        if plan is not None:
            resilience["faults_injected"] += plan.count_task_faults(index, attempt)
        preserved = dict(_WORKER_POINTS)
        _WORKER_POINTS.clear()
        _WORKER_POINTS.update(arrays)
        try:
            outcome, _ = _guarded_task(
                task, plan, index, attempt, self.spec, *args, in_process=True
            )
            return outcome
        finally:
            _WORKER_POINTS.clear()
            _WORKER_POINTS.update(preserved)

    def _attempts_in_process(self, task, index, args, resilience):
        """Poolless counterpart of ``_await_with_retries``.

        Deadlines cannot preempt an in-process task, so they are
        emulated post-hoc: an attempt whose wall time exceeded
        ``task_timeout`` is discarded and retried, with the same
        accounting as the pool path.  The final attempt (the in-parent
        one on the pool path) has no deadline.
        """
        plan = self.fault_plan
        attempt = 0
        while True:
            if plan is not None:
                resilience["faults_injected"] += plan.count_task_faults(
                    index, attempt
                )
            final = attempt > self.max_task_retries
            try:
                began = time.perf_counter()
                outcome, _ = _guarded_task(
                    task, plan, index, attempt, self.spec, *args, in_process=True
                )
            except DegradeToSerial as signal:
                raise DegradeToSerial(signal.reason, **resilience) from None
            except (WorkerCrashError, OSError):
                if final:
                    raise
            else:
                elapsed = time.perf_counter() - began
                timed_out = (
                    not final
                    and self.task_timeout is not None
                    and elapsed > self.task_timeout
                )
                if not timed_out:
                    return outcome
                resilience["tasks_timed_out"] += 1
            attempt += 1
            resilience["tasks_retried"] += 1
            trace.add_event("task-retry", task=index, attempt=attempt)
            if self.retry_backoff:
                time.sleep(self.retry_backoff * (2 ** (attempt - 1)))

    def _merge(
        self, outcomes, planned, sink, canonicalize, resilience=None
    ) -> JoinResult:
        result = JoinResult()
        stats = result.stats
        with trace.span("merge", tasks=len(outcomes)) as merge_span:
            blocks: List[np.ndarray] = []
            for pairs, task_stats, seconds in outcomes:
                stats.merge(task_stats)
                stats.worker_seconds.append(seconds)
                if len(pairs):
                    blocks.append(pairs)
            if blocks:
                raw = np.vstack(blocks)
            else:
                raw = np.empty((0, 2), dtype=np.int64)
            canonical = canonicalize(raw[:, 0], raw[:, 1])
            stats.stripes = len(outcomes)
            stats.workers_used = min(self.n_workers, max(1, len(outcomes)))
            stats.duplicate_pairs_merged = len(raw) - len(canonical)
            merge_span.set_attribute("pairs", len(canonical))
            merge_span.set_attribute(
                "duplicate_pairs_merged", stats.duplicate_pairs_merged
            )
            if resilience is not None:
                stats.tasks_retried += resilience["tasks_retried"]
                stats.tasks_timed_out += resilience["tasks_timed_out"]
                stats.faults_injected += resilience["faults_injected"]
            if sink is None:
                result.pairs = canonical
                stats.pairs_emitted = len(canonical)
            else:
                sink.emit(canonical[:, 0], canonical[:, 1])
                stats.pairs_emitted = sink.count
        result.build_seconds = planned
        result.join_seconds = merge_span.duration + max(
            stats.worker_seconds, default=0.0
        )
        return result


def parallel_self_join(
    points: np.ndarray,
    spec: JoinSpec,
    sink: Optional[PairSink] = None,
    n_workers: Optional[int] = None,
    **kwargs,
) -> JoinResult:
    """Function-style entry point mirroring ``epsilon_kdb_self_join``."""
    executor = ParallelJoinExecutor(spec, n_workers=n_workers, **kwargs)
    return executor.self_join(points, sink=sink)


def parallel_join(
    points_r: np.ndarray,
    points_s: np.ndarray,
    spec: JoinSpec,
    sink: Optional[PairSink] = None,
    n_workers: Optional[int] = None,
    **kwargs,
) -> JoinResult:
    """Function-style entry point mirroring ``epsilon_kdb_join``."""
    executor = ParallelJoinExecutor(spec, n_workers=n_workers, **kwargs)
    return executor.join(points_r, points_s, sink=sink)
