"""Tests for the stripe-parallel epsilon-kdB executor.

Covers the exactness contract (parallel output is byte-identical to the
serial traversal), the graceful degradation rules (``n_workers=1`` and
tiny inputs run the serial path), worker-count invariance, determinism
across runs, and the observability counters.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from _oracles import assert_same_pairs, oracle_self_pairs, oracle_two_set_pairs
from repro import (
    JoinSpec,
    PairCounter,
    epsilon_kdb_join,
    epsilon_kdb_self_join,
    external_join,
    external_self_join,
    parallel_join,
    parallel_self_join,
    similarity_join,
)
from repro.core.parallel import ParallelJoinExecutor
from repro.errors import InvalidParameterError


def make_points(n=1200, d=6, seed=7):
    return np.random.default_rng(seed).random((n, d))


SPEC = dict(epsilon=0.3)


# ----------------------------------------------------------------------
# exactness against the serial engine and the brute-force oracle
# ----------------------------------------------------------------------
@pytest.mark.parametrize("metric", ["l1", "l2", "linf"])
def test_pooled_self_join_byte_identical_to_serial(metric):
    points = make_points()
    spec = JoinSpec(epsilon=0.3, metric=metric)
    serial = epsilon_kdb_self_join(points, spec)
    executor = ParallelJoinExecutor(spec, n_workers=3, serial_threshold=64)
    result = executor.self_join(points)
    assert result.pairs.tobytes() == serial.pairs.tobytes()
    assert result.stats.stripes > 1
    assert result.stats.workers_used >= 2
    assert_same_pairs(result.pairs, oracle_self_pairs(points, spec), "pooled")


def test_pooled_two_set_join_byte_identical_to_serial():
    rng = np.random.default_rng(13)
    r = rng.random((900, 5))
    s = rng.random((800, 5))
    spec = JoinSpec(epsilon=0.35, metric="l1")
    serial = epsilon_kdb_join(r, s, spec)
    executor = ParallelJoinExecutor(spec, n_workers=3, serial_threshold=64)
    result = executor.join(r, s)
    assert result.pairs.tobytes() == serial.pairs.tobytes()
    assert_same_pairs(result.pairs, oracle_two_set_pairs(r, s, spec), "pooled")


@pytest.mark.parametrize("n_workers", [1, 2, 3, 7])
def test_self_join_invariant_to_worker_count(n_workers):
    points = make_points(n=800)
    spec = JoinSpec(**SPEC)
    expected = epsilon_kdb_self_join(points, spec).pairs
    executor = ParallelJoinExecutor(
        spec, n_workers=n_workers, serial_threshold=64, use_processes=False
    )
    assert executor.self_join(points).pairs.tobytes() == expected.tobytes()


@pytest.mark.parametrize("n_workers", [1, 2, 3, 7])
def test_two_set_join_invariant_to_worker_count(n_workers):
    rng = np.random.default_rng(5)
    r = rng.random((700, 4))
    s = rng.random((600, 4))
    spec = JoinSpec(epsilon=0.2)
    expected = epsilon_kdb_join(r, s, spec).pairs
    executor = ParallelJoinExecutor(
        spec, n_workers=n_workers, serial_threshold=64, use_processes=False
    )
    assert executor.join(r, s).pairs.tobytes() == expected.tobytes()


# ----------------------------------------------------------------------
# determinism: same spec + seed => byte-identical ordering across runs
# ----------------------------------------------------------------------
def test_serial_join_is_deterministic_across_runs():
    spec = JoinSpec(**SPEC)
    first = epsilon_kdb_self_join(make_points(), spec)
    second = epsilon_kdb_self_join(make_points(), spec)
    assert first.pairs.tobytes() == second.pairs.tobytes()


def test_parallel_join_is_deterministic_across_runs():
    spec = JoinSpec(**SPEC)
    runs = []
    for _ in range(2):
        executor = ParallelJoinExecutor(spec, n_workers=3, serial_threshold=64)
        runs.append(executor.self_join(make_points()))
    assert runs[0].pairs.tobytes() == runs[1].pairs.tobytes()
    assert runs[0].stats.stripes == runs[1].stats.stripes
    assert (
        runs[0].stats.duplicate_pairs_merged
        == runs[1].stats.duplicate_pairs_merged
    )


# ----------------------------------------------------------------------
# graceful degradation
# ----------------------------------------------------------------------
def test_one_worker_runs_serial_path():
    points = make_points(n=600)
    spec = JoinSpec(**SPEC)
    result = ParallelJoinExecutor(spec, n_workers=1).self_join(points)
    assert result.stats.workers_used == 0
    assert result.stats.stripes == 1
    assert result.pairs.tobytes() == epsilon_kdb_self_join(points, spec).pairs.tobytes()


def test_tiny_input_runs_serial_path():
    points = make_points(n=200)
    spec = JoinSpec(**SPEC)
    result = ParallelJoinExecutor(spec, n_workers=4).self_join(points)
    assert result.stats.workers_used == 0


def test_single_stripe_domain_runs_serial_path():
    # All mass in one cell of every dimension: the tree's root is a
    # leaf, so there is nothing to partition.
    points = make_points(n=600) * 0.01
    spec = JoinSpec(epsilon=0.3)
    result = ParallelJoinExecutor(
        spec, n_workers=4, serial_threshold=64
    ).self_join(points)
    assert result.stats.workers_used == 0
    assert_same_pairs(result.pairs, oracle_self_pairs(points, spec), "1-stripe")


def test_splits_on_the_tree_first_split_dimension():
    """Column 0 is constant, so the tree splits on column 1 first; the
    stripes follow the tree rather than ``split_order[0]``."""
    points = np.random.default_rng(17).random((4000, 3))
    points[:, 0] = 0.5
    spec = JoinSpec(epsilon=0.05)
    expected = epsilon_kdb_self_join(points, spec).pairs
    for use_processes in (False, True):
        result = ParallelJoinExecutor(
            spec, n_workers=2, use_processes=use_processes
        ).self_join(points)
        assert result.stats.stripes >= 2
        assert result.stats.workers_used >= 1
        assert result.pairs.tobytes() == expected.tobytes()
    r, s = points[:2500], points[2500:]
    result = ParallelJoinExecutor(spec, n_workers=2, use_processes=False).join(r, s)
    assert result.stats.stripes >= 2
    assert result.pairs.tobytes() == epsilon_kdb_join(r, s, spec).pairs.tobytes()


@pytest.mark.parametrize("n", [100, 3000], ids=["below-threshold", "above"])
def test_stripes_per_worker_validated_at_construction(n):
    spec = JoinSpec(**SPEC)
    with pytest.raises(InvalidParameterError, match="stripes_per_worker"):
        ParallelJoinExecutor(spec, n_workers=2, stripes_per_worker=0)
    # A valid executor runs at either size (the serial cut-off is 2048).
    executor = ParallelJoinExecutor(
        spec, n_workers=2, stripes_per_worker=1, use_processes=False
    )
    points = make_points(n=n, d=3)
    expected = epsilon_kdb_self_join(points, spec).pairs
    assert executor.self_join(points).pairs.tobytes() == expected.tobytes()


@pytest.mark.parametrize("epsilon", [1e-3, 1e-5, 1e-7, 1e-9])
def test_stripe_planning_time_independent_of_epsilon(epsilon):
    """Planning follows the occupied cells, not span / epsilon: tiny
    thresholds finish quickly on both the parallel and the external
    engine, and stay exact."""
    rng = np.random.default_rng(29)
    spec = JoinSpec(epsilon=epsilon)
    executor = ParallelJoinExecutor(spec, n_workers=2, use_processes=False)
    big_r, big_s = rng.random((5000, 4)), rng.random((5000, 4))
    small_r, small_s = rng.random((300, 4)), rng.random((300, 4))
    calls = [
        (lambda: executor.self_join(big_r), oracle_self_pairs(big_r, spec)),
        (
            lambda: executor.join(big_r, big_s),
            oracle_two_set_pairs(big_r, big_s, spec),
        ),
        (
            lambda: external_self_join(small_r, spec, memory_points=100),
            oracle_self_pairs(small_r, spec),
        ),
        (
            lambda: external_join(small_r, small_s, spec, memory_points=100),
            oracle_two_set_pairs(small_r, small_s, spec),
        ),
    ]
    for call, expected in calls:
        started = time.perf_counter()
        result = call()
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"took {elapsed:.2f}s at epsilon={epsilon}"
        assert_same_pairs(result.pairs, expected, f"epsilon={epsilon}")


def test_degenerate_inputs():
    spec = JoinSpec(**SPEC)
    executor = ParallelJoinExecutor(spec, n_workers=4, serial_threshold=0)
    assert len(executor.self_join(np.empty((0, 3))).pairs) == 0
    assert len(executor.self_join(np.zeros((1, 3))).pairs) == 0
    assert len(executor.join(np.empty((0, 3)), np.zeros((4, 3))).pairs) == 0


# ----------------------------------------------------------------------
# knobs, sinks, stats
# ----------------------------------------------------------------------
def test_counting_sink_matches_collected_pairs():
    points = make_points(n=900)
    spec = JoinSpec(**SPEC)
    executor = ParallelJoinExecutor(
        spec, n_workers=3, serial_threshold=64, use_processes=False
    )
    collected = executor.self_join(points)
    sink = PairCounter()
    counted = executor.self_join(points, sink=sink)
    assert sink.count == len(collected.pairs)
    assert counted.stats.pairs_emitted == sink.count
    assert len(counted.pairs) == 0


def test_observability_counters():
    points = make_points(n=1500)
    spec = JoinSpec(**SPEC)
    executor = ParallelJoinExecutor(
        spec, n_workers=4, serial_threshold=64, use_processes=False
    )
    result = executor.self_join(points)
    stats = result.stats
    assert stats.stripes >= 2
    assert len(stats.worker_seconds) >= 1
    assert all(t >= 0 for t in stats.worker_seconds)
    assert stats.duplicate_pairs_merged >= 0
    assert stats.pairs_emitted == len(result.pairs)


def test_spec_knob_validation():
    with pytest.raises(InvalidParameterError):
        JoinSpec(epsilon=0.3, n_workers=0)


def test_spec_resilience_knob_validation():
    with pytest.raises(InvalidParameterError):
        JoinSpec(epsilon=0.3, task_timeout=0.0)
    with pytest.raises(InvalidParameterError):
        JoinSpec(epsilon=0.3, task_timeout=float("inf"))
    with pytest.raises(InvalidParameterError):
        JoinSpec(epsilon=0.3, max_task_retries=-1)
    spec = JoinSpec(epsilon=0.3, task_timeout=2.5, max_task_retries=0)
    assert spec.task_timeout == 2.5
    assert spec.max_task_retries == 0


def test_executor_inherits_resilience_knobs_from_spec():
    spec = JoinSpec(epsilon=0.3, task_timeout=1.5, max_task_retries=4)
    executor = ParallelJoinExecutor(spec, n_workers=2)
    assert executor.task_timeout == 1.5
    assert executor.max_task_retries == 4
    override = ParallelJoinExecutor(
        spec, n_workers=2, task_timeout=0.5, max_task_retries=1
    )
    assert override.task_timeout == 0.5
    assert override.max_task_retries == 1
    with pytest.raises(InvalidParameterError):
        ParallelJoinExecutor(spec, n_workers=2, max_task_retries=-1)


def test_clean_run_reports_zero_resilience_counters():
    points = make_points(n=900)
    spec = JoinSpec(**SPEC)
    executor = ParallelJoinExecutor(
        spec, n_workers=3, serial_threshold=64, use_processes=False
    )
    stats = executor.self_join(points).stats
    assert stats.tasks_retried == 0
    assert stats.tasks_timed_out == 0
    assert not stats.degraded_to_serial
    assert stats.faults_injected == 0
    assert stats.storage_retries == 0


def test_fault_plan_kwarg_flows_through_entry_point():
    from repro import FaultPlan

    points = make_points(n=800)
    spec = JoinSpec(**SPEC)
    expected = epsilon_kdb_self_join(points, spec).pairs
    result = parallel_self_join(
        points,
        spec,
        n_workers=3,
        serial_threshold=64,
        use_processes=False,
        retry_backoff=0.0,
        fault_plan=FaultPlan().crash_task(0),
    )
    assert result.pairs.tobytes() == expected.tobytes()
    assert result.stats.tasks_retried == 1
    assert result.stats.faults_injected == 1


def test_spec_n_workers_flows_through():
    spec = JoinSpec(epsilon=0.3, n_workers=1)
    result = ParallelJoinExecutor(spec).self_join(make_points(n=600))
    assert result.stats.workers_used == 0


# ----------------------------------------------------------------------
# public API wiring
# ----------------------------------------------------------------------
def test_similarity_join_parallel_flag():
    points = make_points(n=500)
    expected = similarity_join(points, epsilon=0.3)
    pairs = similarity_join(points, epsilon=0.3, engine="parallel", n_workers=2)
    assert pairs.tobytes() == expected.tobytes()


def test_similarity_join_parallel_algorithm_name():
    points = make_points(n=500)
    expected = similarity_join(points, epsilon=0.3)
    pairs = similarity_join(points, epsilon=0.3, n_workers=2)
    assert pairs.tobytes() == expected.tobytes()


def test_similarity_join_parallel_rejects_other_algorithms():
    with pytest.raises(InvalidParameterError):
        similarity_join(
            make_points(n=50), epsilon=0.3, algorithm="grid", engine="parallel"
        )
    with pytest.raises(InvalidParameterError):
        similarity_join(make_points(n=50), epsilon=0.3, algorithm="grid", n_workers=2)


def test_similarity_join_accepts_resilience_kwargs():
    points = make_points(n=500)
    expected = similarity_join(points, epsilon=0.3)
    pairs = similarity_join(
        points,
        epsilon=0.3,
        engine="parallel",
        n_workers=2,
        task_timeout=30.0,
        max_task_retries=1,
    )
    assert pairs.tobytes() == expected.tobytes()
    with pytest.raises(InvalidParameterError):
        similarity_join(points, epsilon=0.3, task_timeout=-1.0)


def test_function_entry_points():
    points = make_points(n=700)
    spec = JoinSpec(**SPEC)
    expected = epsilon_kdb_self_join(points, spec).pairs
    result = parallel_self_join(
        points, spec, n_workers=2, serial_threshold=64, use_processes=False
    )
    assert result.pairs.tobytes() == expected.tobytes()
    rng = np.random.default_rng(3)
    r, s = rng.random((500, 4)), rng.random((400, 4))
    expected_rs = epsilon_kdb_join(r, s, spec).pairs
    result_rs = parallel_join(
        r, s, spec, n_workers=2, serial_threshold=64, use_processes=False
    )
    assert result_rs.pairs.tobytes() == expected_rs.tobytes()
