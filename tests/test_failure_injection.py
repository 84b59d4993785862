"""Failure-injection tests.

Two families: wrong usage must fail loudly, never silently; and
*injected* faults (via :class:`repro.core.resilience.FaultPlan`) must be
recovered from with byte-identical results, honest resilience counters,
and no leaked shared memory.
"""

import os
import pickle

import numpy as np
import pytest

from repro import (
    EpsilonKdbTree,
    FaultPlan,
    FlatEpsilonKdbTree,
    Grid,
    JoinSpec,
    external_join,
    external_self_join,
)
from repro.core import epsilon_kdb_join, epsilon_kdb_self_join
from repro.core.join import join_flat_trees
from repro.core.parallel import ParallelJoinExecutor
from repro.errors import (
    DomainError,
    InvalidParameterError,
    StorageError,
    TransientIoError,
    WorkerCrashError,
)
from repro.storage import BufferManager, PageStore


def _shm_listing():
    try:
        return set(os.listdir("/dev/shm"))
    except (FileNotFoundError, NotADirectoryError):  # pragma: no cover
        return None


@pytest.fixture
def shm_guard():
    """Assert the test leaked no shared-memory segments."""
    before = _shm_listing()
    yield
    if before is not None:
        leaked = _shm_listing() - before
        assert not leaked, f"leaked shared memory segments: {sorted(leaked)}"


class TestGridDomainViolations:
    def test_build_with_too_small_grid_rejected(self):
        points = np.random.default_rng(0).random((50, 3))
        grid = Grid.fit(points[:10], eps=0.1)  # covers only a subset
        outside = points[np.any(points > points[:10].max(axis=0), axis=1)]
        if len(outside) == 0:
            pytest.skip("sample happened to cover the full box")
        with pytest.raises(DomainError):
            FlatEpsilonKdbTree.build(points, JoinSpec(epsilon=0.1), grid=grid)

    def test_empty_tree_with_shared_grid_ok(self):
        points = np.random.default_rng(1).random((20, 2))
        grid = Grid.fit(points, eps=0.2)
        tree = FlatEpsilonKdbTree.build(
            np.empty((0, 2)), JoinSpec(epsilon=0.2), grid=grid
        )
        assert len(tree) == 0


class TestTraversalMisuse:
    def test_unfinalized_leaf_rejected_by_traversal(self):
        """A pointer tree built point by point is not traversal-ready:
        the join rejects it with a typed error, never mis-joins it."""
        points = np.random.default_rng(2).random((30, 2))
        spec = JoinSpec(epsilon=0.2)
        tree = EpsilonKdbTree.empty(points, spec)
        for index in range(30):
            tree.insert(index)
        with pytest.raises(InvalidParameterError, match="FlatEpsilonKdbTree"):
            epsilon_kdb_self_join(points, spec, tree=tree)

    def test_mismatched_split_orders_rejected(self):
        """Two trees on one grid that split different dimensions first
        cannot be walked in step; the join says so instead of pairing
        unrelated cells."""
        points = np.random.default_rng(3).random((600, 4))
        grid = Grid.fit(points, eps=0.05)
        spec_a = JoinSpec(epsilon=0.05, leaf_size=8, split_order=[0, 1, 2, 3])
        spec_b = JoinSpec(epsilon=0.05, leaf_size=8, split_order=[3, 2, 1, 0])
        tree_a = FlatEpsilonKdbTree.build(points, spec_a, grid=grid)
        tree_b = FlatEpsilonKdbTree.build(points, spec_b, grid=grid)
        with pytest.raises(InvalidParameterError, match="split dimension"):
            join_flat_trees(tree_a, tree_b, spec_a)


class TestStorageMisuse:
    def test_read_past_end(self):
        store = PageStore(page_rows=2)
        store.allocate(np.zeros((1, 1)))
        with pytest.raises(StorageError):
            store.read_page(5)

    def test_buffer_over_pinning_is_loud(self):
        store = PageStore(page_rows=2)
        pids = [store.allocate(np.zeros((1, 1))) for _ in range(2)]
        buffer = BufferManager(store, capacity=1)
        buffer.get(pids[0], pin=True)
        with pytest.raises(StorageError):
            buffer.get(pids[1])


class TestNonFiniteInputs:
    @pytest.mark.parametrize("bad_value", [np.nan, np.inf, -np.inf])
    def test_all_entry_points_reject_non_finite(self, bad_value):
        from repro import similarity_join

        points = np.random.default_rng(4).random((10, 3))
        points[3, 1] = bad_value
        with pytest.raises(InvalidParameterError):
            similarity_join(points, epsilon=0.1)

    @pytest.mark.parametrize("bad_value", [np.nan, np.inf])
    def test_every_algorithm_rejects_non_finite(self, bad_value):
        from repro import ALGORITHMS, similarity_join

        points = np.random.default_rng(4).random((10, 3))
        points[3, 1] = bad_value
        for algorithm in ALGORITHMS:
            with pytest.raises(InvalidParameterError):
                similarity_join(points, epsilon=0.1, algorithm=algorithm)

    def test_external_join_rejects_non_finite(self):
        points = np.full((5, 2), np.nan)
        with pytest.raises(InvalidParameterError):
            external_self_join(points, JoinSpec(epsilon=0.1), 100)

    @pytest.mark.parametrize("bad_value", [np.nan, np.inf, -np.inf])
    def test_grid_fit_rejects_non_finite_bounds(self, bad_value):
        points = np.random.default_rng(4).random((10, 3))
        lo = points.min(axis=0)
        hi = points.max(axis=0)
        hi[1] = bad_value
        with pytest.raises(InvalidParameterError):
            Grid.fit(points, eps=0.1, lo=lo, hi=hi)


# ----------------------------------------------------------------------
# injected faults: recovery must be exact, counted, and leak-free
# ----------------------------------------------------------------------
def _points(n=900, d=5, seed=11):
    return np.random.default_rng(seed).random((n, d))


def _executor(spec, fault_plan=None, **kwargs):
    kwargs.setdefault("use_processes", False)
    kwargs.setdefault("serial_threshold", 0)
    kwargs.setdefault("retry_backoff", 0.0)
    return ParallelJoinExecutor(spec, fault_plan=fault_plan, **kwargs)


class TestFaultPlanDeterminism:
    def test_rate_decisions_replay_identically(self):
        first = FaultPlan(seed=42, crash_rate=0.5, io_failure_rate=0.3)
        second = FaultPlan(seed=42, crash_rate=0.5, io_failure_rate=0.3)
        crashes = [first.crash_fires(task, 0) for task in range(64)]
        assert crashes == [second.crash_fires(task, 0) for task in range(64)]
        assert any(crashes) and not all(crashes)
        io = [first.io_fault(o) for o in range(64)]
        assert io == [second.io_fault(o) for o in range(64)]

    def test_different_seeds_differ(self):
        a = FaultPlan(seed=1, crash_rate=0.5)
        b = FaultPlan(seed=2, crash_rate=0.5)
        assert [a.crash_fires(t, 0) for t in range(64)] != [
            b.crash_fires(t, 0) for t in range(64)
        ]

    def test_rate_faults_are_transient(self):
        # Rate-drawn faults fire on attempt 0 only: retry always recovers.
        plan = FaultPlan(seed=0, crash_rate=1.0, delay_rate=1.0)
        assert plan.crash_fires(3, 0) and not plan.crash_fires(3, 1)
        assert plan.delay_for(3, 0) > 0.0 and plan.delay_for(3, 1) == 0.0

    def test_explicit_fault_attempt_budgets(self):
        plan = FaultPlan().crash_task(2, attempts=2).crash_task(5, attempts=None)
        assert plan.crash_fires(2, 0) and plan.crash_fires(2, 1)
        assert not plan.crash_fires(2, 2)
        assert all(plan.crash_fires(5, attempt) for attempt in range(10))

    def test_plan_is_picklable(self):
        plan = (
            FaultPlan(seed=3, crash_rate=0.25)
            .crash_task(1)
            .delay_task(2, 0.1)
            .fail_page_read(7)
        )
        clone = pickle.loads(pickle.dumps(plan))
        assert [clone.crash_fires(t, 0) for t in range(16)] == [
            plan.crash_fires(t, 0) for t in range(16)
        ]

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(crash_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(io_failure_rate=-0.1)


class TestStripeTaskRecovery:
    """In-process executor: same retry logic as the pool, run cheaply."""

    def _oracle_and_tasks(self, spec, points):
        oracle = epsilon_kdb_self_join(points, spec)
        clean = _executor(spec).self_join(points)
        assert clean.pairs.tobytes() == oracle.pairs.tobytes()
        return oracle, len(clean.stats.worker_seconds)

    @pytest.mark.parametrize("which", ["first", "middle", "last"])
    def test_crash_any_stripe_is_recovered_exactly(self, which):
        points = _points()
        spec = JoinSpec(epsilon=0.3, n_workers=3)
        oracle, n_tasks = self._oracle_and_tasks(spec, points)
        assert n_tasks >= 2
        task = {"first": 0, "middle": n_tasks // 2, "last": n_tasks - 1}[which]
        plan = FaultPlan().crash_task(task)
        result = _executor(spec, plan).self_join(points)
        assert result.pairs.tobytes() == oracle.pairs.tobytes()
        assert result.stats.tasks_retried == 1
        assert result.stats.faults_injected == 1
        assert not result.stats.degraded_to_serial

    def test_timeout_then_retry_is_exact_and_counted(self):
        points = _points()
        spec = JoinSpec(epsilon=0.3, n_workers=3)
        oracle, _ = self._oracle_and_tasks(spec, points)
        plan = FaultPlan().delay_task(0, 0.2)
        result = _executor(spec, plan, task_timeout=0.05).self_join(points)
        assert result.pairs.tobytes() == oracle.pairs.tobytes()
        assert result.stats.tasks_timed_out == 1
        assert result.stats.tasks_retried == 1

    def test_exhausted_retries_surface_worker_crash_error(self):
        points = _points()
        spec = JoinSpec(epsilon=0.3, n_workers=3)
        plan = FaultPlan().crash_task(0, attempts=None)  # poisoned
        with pytest.raises(WorkerCrashError):
            _executor(spec, plan, max_task_retries=1).self_join(points)

    def test_transient_crash_on_every_pool_attempt_still_succeeds(self):
        # Crashes on attempts 0..max_task_retries; the final in-parent
        # attempt (which a real pool would run) must still complete.
        points = _points()
        spec = JoinSpec(epsilon=0.3, n_workers=3)
        oracle, _ = self._oracle_and_tasks(spec, points)
        plan = FaultPlan().crash_task(0, attempts=3)
        result = _executor(spec, plan, max_task_retries=2).self_join(points)
        assert result.pairs.tobytes() == oracle.pairs.tobytes()
        assert result.stats.tasks_retried == 3

    def test_pool_creation_failure_degrades_to_serial(self):
        points = _points()
        spec = JoinSpec(epsilon=0.3, n_workers=2)
        oracle = epsilon_kdb_self_join(points, spec)
        plan = FaultPlan().fail_pool_creation()
        result = _executor(spec, plan, use_processes=True).self_join(points)
        assert result.pairs.tobytes() == oracle.pairs.tobytes()
        assert result.stats.degraded_to_serial
        assert result.stats.faults_injected == 1

    def test_hard_crash_in_process_degrades_to_serial(self):
        points = _points()
        spec = JoinSpec(epsilon=0.3, n_workers=2)
        oracle = epsilon_kdb_self_join(points, spec)
        plan = FaultPlan().hard_crash_task(0)
        result = _executor(spec, plan).self_join(points)
        assert result.pairs.tobytes() == oracle.pairs.tobytes()
        assert result.stats.degraded_to_serial

    def test_two_set_join_crash_recovery(self):
        rng = np.random.default_rng(8)
        r, s = rng.random((700, 4)), rng.random((600, 4))
        spec = JoinSpec(epsilon=0.25, n_workers=3)
        oracle = epsilon_kdb_join(r, s, spec)
        plan = FaultPlan().crash_task(1)
        result = _executor(spec, plan).join(r, s)
        assert result.pairs.tobytes() == oracle.pairs.tobytes()
        assert result.stats.tasks_retried == 1

    def test_crash_rate_sweep_always_exact(self):
        points = _points(n=700)
        spec = JoinSpec(epsilon=0.3, n_workers=3)
        oracle = epsilon_kdb_self_join(points, spec)
        for seed in range(4):
            plan = FaultPlan(seed=seed, crash_rate=0.6)
            result = _executor(spec, plan).self_join(points)
            assert result.pairs.tobytes() == oracle.pairs.tobytes()
            assert result.stats.tasks_retried == result.stats.faults_injected


class TestPoolRecovery:
    """Real process pools: crash retry, broken-pool degradation, cleanup."""

    def test_pool_crash_is_retried_exactly(self, shm_guard):
        points = _points(n=1100)
        spec = JoinSpec(epsilon=0.3, n_workers=2)
        oracle = epsilon_kdb_self_join(points, spec)
        plan = FaultPlan().crash_task(0)
        result = _executor(spec, plan, use_processes=True).self_join(points)
        assert result.pairs.tobytes() == oracle.pairs.tobytes()
        assert result.stats.tasks_retried == 1
        assert not result.stats.degraded_to_serial

    def test_worker_death_breaks_pool_and_degrades(self, shm_guard):
        points = _points(n=1100)
        spec = JoinSpec(epsilon=0.3, n_workers=2)
        oracle = epsilon_kdb_self_join(points, spec)
        plan = FaultPlan().hard_crash_task(0)
        result = _executor(spec, plan, use_processes=True).self_join(points)
        assert result.pairs.tobytes() == oracle.pairs.tobytes()
        assert result.stats.degraded_to_serial

    def test_pool_timeout_is_retried_exactly(self, shm_guard):
        points = _points(n=1100)
        spec = JoinSpec(epsilon=0.3, n_workers=2)
        oracle = epsilon_kdb_self_join(points, spec)
        plan = FaultPlan().delay_task(0, 1.0)
        result = _executor(
            spec, plan, use_processes=True, task_timeout=0.25
        ).self_join(points)
        assert result.pairs.tobytes() == oracle.pairs.tobytes()
        assert result.stats.tasks_timed_out >= 1
        assert result.stats.tasks_retried >= 1

    def test_partial_export_failure_releases_earlier_segments(
        self, shm_guard, monkeypatch
    ):
        from repro.core import parallel as parallel_module

        real_export = parallel_module._export_shared
        calls = {"n": 0}

        def failing_export(array):
            calls["n"] += 1
            if calls["n"] >= 2:
                raise MemoryError("injected export failure")
            return real_export(array)

        monkeypatch.setattr(parallel_module, "_export_shared", failing_export)
        rng = np.random.default_rng(9)
        r, s = rng.random((1400, 4)), rng.random((1300, 4))
        spec = JoinSpec(epsilon=0.25, n_workers=2)
        executor = ParallelJoinExecutor(spec, serial_threshold=0)
        with pytest.raises(MemoryError):
            executor.join(r, s)
        assert calls["n"] == 2  # shm_guard asserts the first was released


class TestStorageFaultRecovery:
    def test_transient_read_faults_are_retried_exactly(self):
        points = _points(n=600, d=3)
        spec = JoinSpec(epsilon=0.2)
        clean = external_self_join(
            points, spec, memory_points=300, store=PageStore(page_rows=64)
        )
        plan = FaultPlan().fail_page_read(1, 8, 15)
        store = PageStore(page_rows=64, fault_plan=plan)
        faulty = external_self_join(
            points, spec, memory_points=300, store=store
        )
        assert faulty.pairs.tobytes() == clean.pairs.tobytes()
        assert faulty.stats.storage_retries == 3
        assert faulty.stats.faults_injected == 3
        # Each retry is one extra physical read.
        assert faulty.stats.pages_read == clean.stats.pages_read + 3

    def test_io_failure_rate_sweep_always_exact(self):
        points = _points(n=500, d=3)
        spec = JoinSpec(epsilon=0.2)
        clean = external_self_join(points, spec, memory_points=250)
        for seed in range(3):
            plan = FaultPlan(seed=seed, io_failure_rate=0.2)
            store = PageStore(page_rows=64, fault_plan=plan)
            faulty = external_self_join(
                points, spec, memory_points=250, store=store
            )
            assert faulty.pairs.tobytes() == clean.pairs.tobytes()
            assert faulty.stats.storage_retries == faulty.stats.faults_injected

    def test_two_set_join_retries_transient_faults(self):
        rng = np.random.default_rng(10)
        r, s = rng.random((400, 3)), rng.random((350, 3))
        spec = JoinSpec(epsilon=0.2)
        clean = external_join(r, s, spec, memory_points=300)
        plan = FaultPlan().fail_page_read(2, 11)
        store = PageStore(page_rows=64, fault_plan=plan)
        faulty = external_join(r, s, spec, memory_points=300, store=store)
        assert faulty.pairs.tobytes() == clean.pairs.tobytes()
        assert faulty.stats.storage_retries == 2

    def test_exhausted_io_retries_propagate(self):
        points = _points(n=400, d=3)
        spec = JoinSpec(epsilon=0.2)
        # Persistent fault: every read fails, so no retry budget suffices.
        plan = FaultPlan(io_failure_rate=1.0)
        store = PageStore(page_rows=64, fault_plan=plan)
        with pytest.raises(TransientIoError):
            external_self_join(points, spec, memory_points=200, store=store)

    def test_zero_retry_budget_fails_on_first_fault(self):
        points = _points(n=400, d=3)
        spec = JoinSpec(epsilon=0.2)
        store = PageStore(page_rows=64, fault_plan=FaultPlan().fail_page_read(0))
        with pytest.raises(TransientIoError):
            external_self_join(
                points, spec, memory_points=200, store=store, io_retries=0
            )

    def test_negative_retry_budget_rejected(self):
        with pytest.raises(InvalidParameterError):
            external_self_join(
                _points(n=10, d=2), JoinSpec(epsilon=0.2), 100, io_retries=-1
            )
