"""Differential testing harness: every engine, one answer.

A seed-driven workload generator sweeps (n, d, epsilon, metric,
distribution, self vs two-set) and asserts that every join engine —
serial epsilon-kdB on the flat frontier, the stripe-parallel executor,
the incremental streaming session, the grid, sort-merge and R-tree
baselines — returns exactly the brute-force oracle's canonical pair set.  A fixed small matrix runs in tier-1; the
extended matrix (larger inputs, more seeds, the pooled executor) runs
under ``-m slow``.

The incremental row answers each case through an
:class:`~repro.core.incremental.IncrementalJoin` update stream —
chunked inserts interleaved with decoy points that are inserted and
later deleted, plus a mid-stream compaction — so every matrix case
doubles as a check that accumulated deltas reproduce the batch answer.
Dedicated tier-1 cases run the same adapter on the parallel engine and
with a fault-injected compaction.

The persisted-crash row streams each case through a crash-consistent
on-disk session (WAL + checksummed snapshots) with injected crashes — a
torn WAL append mid-stream and a death between snapshot write and
publish — re-opening from disk after each one; recovery must reproduce
the oracle's pair set byte-for-byte.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from _oracles import (
    assert_same_pairs,
    oracle_self_pairs,
    oracle_two_set_pairs,
)
from repro import JoinSpec
from repro.baselines import (
    grid_join,
    grid_self_join,
    rtree_join,
    rtree_self_join,
    sort_merge_join,
    sort_merge_self_join,
)
from repro.core import epsilon_kdb_join, epsilon_kdb_self_join
from repro.core.parallel import ParallelJoinExecutor
from repro.datasets import gaussian_clusters


def _parallel_engine(use_processes: bool, n_workers: int = 3):
    def self_join(points, spec):
        executor = ParallelJoinExecutor(
            spec,
            n_workers=n_workers,
            serial_threshold=0,
            use_processes=use_processes,
        )
        return executor.self_join(points)

    def two_set(points_r, points_s, spec):
        executor = ParallelJoinExecutor(
            spec,
            n_workers=n_workers,
            serial_threshold=0,
            use_processes=use_processes,
        )
        return executor.join(points_r, points_s)

    return self_join, two_set


_PARALLEL_SELF, _PARALLEL_TWO_SET = _parallel_engine(use_processes=False)
_POOLED_SELF, _POOLED_TWO_SET = _parallel_engine(use_processes=True)


_EMPTY_PAIRS = np.empty((0, 2), dtype=np.int64)


def _incremental_engine(engine: str = "serial", fault: bool = False):
    """Answer a batch case through an incremental update stream.

    Self-join: the points arrive in three chunks with a batch of decoy
    points (within epsilon of real ones) inserted in between and deleted
    at the end, and an explicit mid-stream compaction; the net emitted
    pairs are mapped from session ids back to input positions.  Two-set:
    R is inserted and compacted into the base, then S probes it; the
    cross pairs are the answer.  A tight ``delta_threshold`` forces
    auto-compactions on every matrix case.
    """
    from repro.core import FaultPlan
    from repro.core.incremental import IncrementalJoin, subtract_pairs
    from repro.core.result import JoinResult

    def _make_session(spec):
        kwargs = {}
        if fault:
            kwargs["fault_plan"] = FaultPlan(seed=5).fail_page_read(0)
            kwargs["io_retries"] = 2
        return IncrementalJoin(
            replace(spec, delta_threshold=48),
            engine=engine,
            use_processes=False,
            n_workers=3,
            **kwargs,
        )

    def self_join(points, spec):
        points = np.asarray(points, dtype=np.float64)
        session = _make_session(spec)
        added, retracted = [], []

        def record(delta):
            if len(delta.added):
                added.append(delta.added)
            if len(delta.retracted):
                retracted.append(delta.retracted)
            return delta.ids

        chunks = np.array_split(points, 3)
        real_ids = [record(session.insert(chunks[0]))]
        decoys = points[: min(8, len(points))].copy()
        decoys[:, 0] += spec.epsilon / 4.0  # within epsilon in any Lp
        decoy_ids = record(session.insert(decoys))
        real_ids.append(record(session.insert(chunks[1])))
        session.compact()
        real_ids.append(record(session.insert(chunks[2])))
        if len(decoy_ids):
            record(session.delete(decoy_ids))
        net = subtract_pairs(
            np.concatenate(added) if added else _EMPTY_PAIRS,
            np.concatenate(retracted) if retracted else _EMPTY_PAIRS,
        )
        ids = np.concatenate(real_ids)
        inverse = np.full(session._next_id, -1, dtype=np.int64)
        inverse[ids] = np.arange(len(points), dtype=np.int64)
        pairs = inverse[net]
        assert (pairs >= 0).all(), "a decoy survived retraction"
        pairs = np.sort(pairs, axis=1)
        pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
        return JoinResult(stats=session.stats, pairs=pairs)

    def two_set(points_r, points_s, spec):
        points_r = np.asarray(points_r, dtype=np.float64)
        points_s = np.asarray(points_s, dtype=np.float64)
        session = _make_session(spec)
        added = []
        for batch in (points_r, points_s):
            delta = session.insert(batch)
            if len(delta.added):
                added.append(delta.added)
            if batch is points_r:
                session.compact()
        all_pairs = np.concatenate(added) if added else _EMPTY_PAIRS
        n_r = len(points_r)
        cross = all_pairs[(all_pairs[:, 0] < n_r) & (all_pairs[:, 1] >= n_r)]
        pairs = np.column_stack([cross[:, 0], cross[:, 1] - n_r])
        pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
        return JoinResult(stats=session.stats, pairs=pairs)

    return self_join, two_set


_INCREMENTAL_SELF, _INCREMENTAL_TWO_SET = _incremental_engine()
_INCREMENTAL_PARALLEL = _incremental_engine(engine="parallel")
_INCREMENTAL_FAULTY = _incremental_engine(fault=True)


def _persisted_crash_engine():
    """Answer a batch case through a persisted session that crashes.

    Each case streams its points into a crash-consistent on-disk session
    (tmpdir) with two injected crashes: a WAL append torn mid-frame
    during the stream, and a process death between the snapshot
    tmp-write and its atomic rename during a compaction.  After each
    crash the session is re-opened from disk and the stream resumes from
    the recovered update seq.  The surviving pair set must be
    byte-identical to the oracle's — crashes never lose acknowledged
    updates or conjure phantom pairs.
    """
    import os
    import tempfile

    from repro.core import FaultPlan
    from repro.core.incremental import IncrementalJoin
    from repro.core.result import JoinResult
    from repro.errors import SessionCrashError

    def _apply_with_recovery(session, path, plan, steps):
        """Apply seq-consuming steps, re-opening after injected crashes."""
        idx = session.last_update_seq
        while idx < len(steps):
            op, payload = steps[idx]
            try:
                if op == "insert":
                    session.insert(payload)
                else:
                    session.delete(payload)
            except SessionCrashError:
                session = IncrementalJoin.open(path, fault_plan=plan)
                idx = session.last_update_seq
                continue
            if op == "insert" and idx == 1:
                # mid-stream compaction; a publish crash here loses only
                # the in-memory fold, never an acknowledged update
                try:
                    session.compact()
                except SessionCrashError:
                    session = IncrementalJoin.open(path, fault_plan=plan)
            idx += 1
        return session

    def self_join(points, spec):
        points = np.asarray(points, dtype=np.float64)
        chunks = np.array_split(points, 3)
        decoys = points[: min(8, len(points))].copy()
        decoys[:, 0] += spec.epsilon / 4.0
        steps = [
            ("insert", chunks[0]),
            ("insert", decoys),
            ("insert", chunks[1]),
            ("insert", chunks[2]),
        ]
        # Ids are assigned contiguously per acknowledged batch, and the
        # recovery loop applies each step exactly once, so the id ranges
        # are known analytically — crash or no crash.
        offsets = np.cumsum([0] + [len(payload) for _, payload in steps])
        decoy_ids = np.arange(offsets[1], offsets[2], dtype=np.int64)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "session")
            plan = (
                FaultPlan()
                .tear_wal_frame(3)
                .crash_before_snapshot_publish(1)
            )
            session = IncrementalJoin.open(
                path,
                spec=replace(spec, delta_threshold=48),
                fault_plan=plan,
            )
            session = _apply_with_recovery(session, path, plan, steps)
            if len(decoy_ids):
                session.delete(decoy_ids)
            id_pairs = session.current_pairs()
            stats = session.stats
            next_id = session._next_id
            session.close()
        real_ids = np.concatenate(
            [
                np.arange(offsets[0], offsets[1], dtype=np.int64),
                np.arange(offsets[2], offsets[4], dtype=np.int64),
            ]
        )
        inverse = np.full(next_id, -1, dtype=np.int64)
        inverse[real_ids] = np.arange(len(points), dtype=np.int64)
        pairs = inverse[id_pairs]
        assert (pairs >= 0).all(), "a decoy survived retraction"
        pairs = np.sort(pairs, axis=1)
        pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
        return JoinResult(stats=stats, pairs=pairs)

    def two_set(points_r, points_s, spec):
        points_r = np.asarray(points_r, dtype=np.float64)
        points_s = np.asarray(points_s, dtype=np.float64)
        steps = [("insert", points_r), ("insert", points_s)]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "session")
            plan = FaultPlan().tear_wal_frame(2)
            session = IncrementalJoin.open(
                path,
                spec=replace(spec, delta_threshold=48),
                fault_plan=plan,
            )
            session = _apply_with_recovery(session, path, plan, steps)
            id_pairs = session.current_pairs()
            stats = session.stats
            session.close()
        n_r = len(points_r)
        cross = id_pairs[(id_pairs[:, 0] < n_r) & (id_pairs[:, 1] >= n_r)]
        pairs = np.column_stack([cross[:, 0], cross[:, 1] - n_r])
        pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
        return JoinResult(stats=stats, pairs=pairs)

    return self_join, two_set


_PERSISTED_CRASH_SELF, _PERSISTED_CRASH_TWO_SET = _persisted_crash_engine()

#: engine name -> (self_join(points, spec), join(r, s, spec)).
ENGINES = {
    "epsilon-kdb": (epsilon_kdb_self_join, epsilon_kdb_join),
    "epsilon-kdb-parallel": (_PARALLEL_SELF, _PARALLEL_TWO_SET),
    "epsilon-kdb-incremental": (_INCREMENTAL_SELF, _INCREMENTAL_TWO_SET),
    "epsilon-kdb-persisted-crash": (
        _PERSISTED_CRASH_SELF,
        _PERSISTED_CRASH_TWO_SET,
    ),
    "grid": (grid_self_join, grid_join),
    "sort-merge": (sort_merge_self_join, sort_merge_join),
    "rtree": (rtree_self_join, rtree_join),
}


def generate(distribution: str, n: int, d: int, seed: int) -> np.ndarray:
    """One workload draw; ``quantized`` forces ties and boundary hits."""
    rng = np.random.default_rng(seed)
    if distribution == "uniform":
        return rng.random((n, d))
    if distribution == "clusters":
        return gaussian_clusters(n, d, clusters=5, sigma=0.06, seed=seed)
    if distribution == "quantized":
        return rng.integers(0, 9, size=(n, d)).astype(np.float64) / 8.0
    raise ValueError(distribution)


def check_case(n, d, eps, metric, distribution, mode, seed, engines=ENGINES):
    spec = JoinSpec(epsilon=eps, metric=metric)
    if mode == "self":
        points = generate(distribution, n, d, seed)
        expected = oracle_self_pairs(points, spec)
        for name, (self_join, _) in engines.items():
            assert_same_pairs(
                self_join(points, spec).pairs,
                expected,
                f"{name} self n={n} d={d} eps={eps} {metric} "
                f"{distribution} seed={seed}",
            )
    else:
        points_r = generate(distribution, n, d, seed)
        points_s = generate(distribution, max(1, n * 3 // 4), d, seed + 1)
        expected = oracle_two_set_pairs(points_r, points_s, spec)
        for name, (_, two_set) in engines.items():
            assert_same_pairs(
                two_set(points_r, points_s, spec).pairs,
                expected,
                f"{name} two-set n={n} d={d} eps={eps} {metric} "
                f"{distribution} seed={seed}",
            )


#: (n, d, eps, metric, distribution, mode, seed) — the tier-1 matrix.
TIER1_MATRIX = [
    (120, 2, 0.25, "l2", "uniform", "self", 0),
    (200, 4, 0.4, "l1", "clusters", "self", 1),
    (150, 3, 0.25, "linf", "quantized", "self", 2),
    (250, 6, 0.6, "l2", "uniform", "self", 3),
    (90, 5, 0.5, "l1", "quantized", "two-set", 4),
    (160, 3, 0.3, "l2", "clusters", "two-set", 5),
    (130, 2, 0.2, "linf", "uniform", "two-set", 6),
    (60, 8, 0.9, "l2", "quantized", "two-set", 7),
]


@pytest.mark.parametrize(
    "n,d,eps,metric,distribution,mode,seed",
    TIER1_MATRIX,
    ids=[f"{m[5]}-{m[4]}-{m[3]}-n{m[0]}d{m[1]}" for m in TIER1_MATRIX],
)
def test_all_engines_agree(n, d, eps, metric, distribution, mode, seed):
    check_case(n, d, eps, metric, distribution, mode, seed)


def test_pooled_executor_agrees_on_one_tier1_case():
    """One real process-pool run in tier-1; the rest exercise it in-process."""
    engines = {"epsilon-kdb-parallel-pooled": (_POOLED_SELF, _POOLED_TWO_SET)}
    check_case(400, 4, 0.3, "l2", "clusters", "self", 11, engines=engines)


def test_incremental_parallel_engine_agrees():
    """The incremental session probing its base through the stripe
    executor must match the oracle on self and two-set cases."""
    engines = {"epsilon-kdb-incremental-parallel": _INCREMENTAL_PARALLEL}
    check_case(200, 4, 0.4, "l1", "clusters", "self", 1, engines=engines)
    check_case(160, 3, 0.3, "l2", "clusters", "two-set", 5, engines=engines)


def test_incremental_faulty_compaction_agrees_and_retries():
    """Injected compaction faults are retried transparently: the stream
    stays byte-exact and the resilience counters record the injections."""
    engines = {"epsilon-kdb-incremental-faulty": _INCREMENTAL_FAULTY}
    check_case(150, 3, 0.25, "linf", "quantized", "self", 2, engines=engines)
    self_join, _ = _INCREMENTAL_FAULTY
    result = self_join(generate("uniform", 150, 3, 9), JoinSpec(epsilon=0.3))
    assert result.stats.faults_injected >= 1
    assert result.stats.storage_retries >= 1
    assert result.stats.compactions >= 1


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("metric", ["l1", "l2", "linf"])
@pytest.mark.parametrize("distribution", ["uniform", "clusters", "quantized"])
@pytest.mark.parametrize("mode", ["self", "two-set"])
def test_extended_matrix(seed, metric, distribution, mode):
    rng = np.random.default_rng(1000 + seed)
    n = int(rng.integers(50, 700))
    d = int(rng.integers(2, 10))
    eps = float(rng.choice([0.1, 0.25, 0.4, 0.75, 1.25]))
    check_case(n, d, eps, metric, distribution, mode, seed)


@pytest.mark.slow
@pytest.mark.parametrize("mode", ["self", "two-set"])
def test_extended_pooled_executor(mode):
    engines = {"epsilon-kdb-parallel-pooled": (_POOLED_SELF, _POOLED_TWO_SET)}
    check_case(1500, 6, 0.35, "l2", "uniform", mode, 21, engines=engines)


# ----------------------------------------------------------------------
# Filter-cascade kernels: cascade on must be byte-identical to cascade off
# for every metric, on every engine that carries the kernels.
# ----------------------------------------------------------------------
CASCADE_METRICS = ["l1", "l2", "linf", 1.5]


def _fault_parallel_engine():
    from repro.core import FaultPlan

    def self_join(points, spec):
        executor = ParallelJoinExecutor(
            spec,
            n_workers=3,
            serial_threshold=0,
            use_processes=False,
            fault_plan=FaultPlan(seed=5).crash_task(0),
        )
        return executor.self_join(points)

    def two_set(points_r, points_s, spec):
        executor = ParallelJoinExecutor(
            spec,
            n_workers=3,
            serial_threshold=0,
            use_processes=False,
            fault_plan=FaultPlan(seed=5).crash_task(0),
        )
        return executor.join(points_r, points_s)

    return self_join, two_set


_FAULT_SELF, _FAULT_TWO_SET = _fault_parallel_engine()

#: Engines that route leaf distance checks through the cascade kernels.
CASCADE_ENGINES = {
    "epsilon-kdb": (epsilon_kdb_self_join, epsilon_kdb_join),
    "epsilon-kdb-parallel": (_PARALLEL_SELF, _PARALLEL_TWO_SET),
    "epsilon-kdb-parallel-faulty": (_FAULT_SELF, _FAULT_TWO_SET),
    "sort-merge": (sort_merge_self_join, sort_merge_join),
}


def _metric_id(metric):
    return metric if isinstance(metric, str) else f"p{metric}"


@pytest.mark.parametrize("mode", ["self", "two-set"])
@pytest.mark.parametrize("metric", CASCADE_METRICS, ids=_metric_id)
def test_cascade_identical_to_monolithic(metric, mode):
    """cascade=auto (engaged: d >= 8) vs cascade=off, all engines."""
    n, d, seed = 220, 12, 31
    eps = 0.9 if metric == "l1" else 0.45
    points_r = generate("clusters", n, d, seed)
    points_s = generate("clusters", n * 3 // 4, d, seed + 1)
    spec_off = JoinSpec(epsilon=eps, metric=metric, cascade="off")
    spec_auto = JoinSpec(epsilon=eps, metric=metric, cascade="auto")
    assert spec_auto.cascade_enabled(d)
    for name, (self_join, two_set) in CASCADE_ENGINES.items():
        if mode == "self":
            baseline = self_join(points_r, spec_off)
            cascaded = self_join(points_r, spec_auto)
        else:
            baseline = two_set(points_r, points_s, spec_off)
            cascaded = two_set(points_r, points_s, spec_auto)
        assert_same_pairs(
            cascaded.pairs,
            baseline.pairs,
            f"{name} {mode} cascade vs monolithic {metric}",
        )
        assert baseline.stats.cascade_candidates == 0, name
        stats = cascaded.stats
        assert stats.cascade_candidates > 0, name
        survivors = stats.cascade_survivors
        assert survivors, name
        assert all(
            survivors[i] >= survivors[i + 1] for i in range(len(survivors) - 1)
        ), (name, survivors)
        assert stats.cascade_candidates >= survivors[0], name


@pytest.mark.parametrize("metric", CASCADE_METRICS, ids=_metric_id)
def test_cascade_forced_on_low_dims_matches_oracle(metric):
    """cascade=on engages below the auto threshold; still exact."""
    points = generate("quantized", 150, 4, 17)
    spec_on = JoinSpec(epsilon=0.4, metric=metric, cascade="on", filter_dims=2)
    assert spec_on.cascade_enabled(4)
    expected = oracle_self_pairs(points, JoinSpec(epsilon=0.4, metric=metric))
    result = epsilon_kdb_self_join(points, spec_on)
    assert_same_pairs(result.pairs, expected, f"cascade=on {metric} d=4")
    assert result.stats.cascade_candidates > 0


def test_cascade_pooled_executor_agrees():
    """One real process-pool run with the shared-memory column store."""
    points = generate("clusters", 500, 10, 41)
    spec_off = JoinSpec(epsilon=0.5, cascade="off")
    spec_auto = JoinSpec(epsilon=0.5, cascade="auto")
    baseline = epsilon_kdb_self_join(points, spec_off)
    pooled = _POOLED_SELF(points, spec_auto)
    assert_same_pairs(pooled.pairs, baseline.pairs, "pooled cascade self")
    assert pooled.stats.cascade_candidates > 0


# ----------------------------------------------------------------------
# One kernel path behind every engine: with the cascade engaged, the
# flat, parallel and incremental engines must emit byte-identical pairs,
# and the flat frontier must check exactly the candidates the recursive
# pointer traversal checked (pinned below).
# ----------------------------------------------------------------------
BACKEND_ENGINES = dict(
    CASCADE_ENGINES,
    **{"epsilon-kdb-incremental": (_INCREMENTAL_SELF, _INCREMENTAL_TWO_SET)},
)

#: ``cascade_candidates`` of the recursive pointer traversal on each
#: ``test_backends_identical_across_engines`` case, recorded before that
#: traversal was deleted (it does not depend on the tile size).
_POINTER_CASCADE_CANDIDATES = {
    ("l1", "self"): 24090,
    ("l1", "two-set"): 36300,
    ("l2", "self"): 24029,
    ("l2", "two-set"): 36156,
    ("linf", "self"): 24029,
    ("linf", "two-set"): 36156,
    (1.5, "self"): 24029,
    (1.5, "two-set"): 36156,
}


@pytest.mark.parametrize("mode", ["self", "two-set"])
@pytest.mark.parametrize("metric", CASCADE_METRICS, ids=_metric_id)
def test_backends_identical_across_engines(metric, mode):
    """Every engine running the cascade kernels emits the serial pairs."""
    n, d, seed = 220, 12, 31
    eps = 0.9 if metric == "l1" else 0.45
    points_r = generate("clusters", n, d, seed)
    # S shadows part of R, so the two-set case emits pairs too.
    points_s = points_r[: n * 3 // 4] + 0.02
    spec = JoinSpec(epsilon=eps, metric=metric)
    assert spec.cascade_enabled(d)
    results = {}
    for name, (self_join, two_set) in BACKEND_ENGINES.items():
        if mode == "self":
            results[name] = self_join(points_r, spec)
        else:
            results[name] = two_set(points_r, points_s, spec)
    base = results["epsilon-kdb"]
    assert len(base.pairs), "the case must emit pairs to prove anything"
    for name, result in results.items():
        assert result.pairs.tobytes() == base.pairs.tobytes(), (
            f"{name} {mode} vs epsilon-kdb {metric}"
        )
    pinned = _POINTER_CASCADE_CANDIDATES[(metric, mode)]
    assert base.stats.cascade_candidates == pinned


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("metric", CASCADE_METRICS, ids=_metric_id)
@pytest.mark.parametrize("distribution", ["uniform", "clusters", "quantized"])
@pytest.mark.parametrize("mode", ["self", "two-set"])
def test_cascade_extended_matrix(seed, metric, distribution, mode):
    rng = np.random.default_rng(3000 + seed)
    n = int(rng.integers(100, 500))
    d = int(rng.integers(8, 24))
    eps = float(rng.choice([0.4, 0.8, 1.4]))
    points_r = generate(distribution, n, d, seed)
    points_s = generate(distribution, max(1, n * 2 // 3), d, seed + 1)
    spec_off = JoinSpec(epsilon=eps, metric=metric, cascade="off")
    spec_auto = JoinSpec(epsilon=eps, metric=metric, cascade="auto")
    for name, (self_join, two_set) in CASCADE_ENGINES.items():
        if mode == "self":
            baseline = self_join(points_r, spec_off)
            cascaded = self_join(points_r, spec_auto)
        else:
            baseline = two_set(points_r, points_s, spec_off)
            cascaded = two_set(points_r, points_s, spec_auto)
        assert_same_pairs(
            cascaded.pairs,
            baseline.pairs,
            f"{name} {mode} cascade {metric} {distribution} seed={seed}",
        )
