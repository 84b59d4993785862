"""Tests for the incremental streaming join engine.

The headline property (ISSUE 6): after **every** prefix of **any**
update stream, the accumulated emitted pairs minus the retracted pairs
must be byte-identical to a from-scratch batch join over the surviving
points.  A hypothesis ``RuleBasedStateMachine`` drives random
interleavings of insert/delete/compact against the brute-force oracle;
deterministic tests pin down the individual mechanisms (delta-buffer
probes, out-of-grid rows through the base tree, compaction atomicity
under injected faults, the join-size sketch, the stats plumbing).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from _oracles import assert_same_pairs, oracle_self_pairs
from repro import JoinSpec, similarity_join
from repro.core.incremental import (
    IncrementalJoin,
    JoinSizeSketch,
    UpdateDelta,
    apply_update_stream,
    normalize_update,
    subtract_pairs,
)
from repro.core.resilience import FaultPlan
from repro.errors import InvalidParameterError, TransientIoError
from repro.metrics import WeightedLpMetric

EMPTY_PAIRS = np.empty((0, 2), dtype=np.int64)


def oracle_id_pairs(mirror: dict, spec: JoinSpec) -> np.ndarray:
    """Brute-force join over a mirror {id: point}, mapped back to ids."""
    ids = np.array(sorted(mirror), dtype=np.int64)
    if len(ids) < 2:
        return EMPTY_PAIRS.copy()
    points = np.array([mirror[int(i)] for i in ids])
    local = oracle_self_pairs(points, spec)
    if not len(local):
        return EMPTY_PAIRS.copy()
    pairs = ids[local]
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


class SessionHarness:
    """An IncrementalJoin plus the mirror and accumulators to audit it."""

    def __init__(self, spec: JoinSpec, **session_kwargs):
        self.spec = spec
        self.session = IncrementalJoin(spec, **session_kwargs)
        self.mirror: dict = {}
        self.added = []
        self.retracted = []

    def insert(self, points: np.ndarray) -> UpdateDelta:
        delta = self.session.insert(points)
        assert len(delta.ids) == len(points)
        if len(delta.added):
            self.added.append(delta.added)
        for offset, point_id in enumerate(delta.ids):
            self.mirror[int(point_id)] = np.asarray(points, dtype=np.float64)[offset]
        return delta

    def delete(self, ids) -> UpdateDelta:
        delta = self.session.delete(ids)
        if len(delta.retracted):
            self.retracted.append(delta.retracted)
        for point_id in np.asarray(ids, dtype=np.int64):
            del self.mirror[int(point_id)]
        return delta

    def accumulated(self) -> np.ndarray:
        added = np.concatenate(self.added) if self.added else EMPTY_PAIRS
        retracted = (
            np.concatenate(self.retracted) if self.retracted else EMPTY_PAIRS
        )
        return subtract_pairs(added, retracted)

    def check(self, label: str = "") -> None:
        expected = oracle_id_pairs(self.mirror, self.spec)
        assert_same_pairs(self.accumulated(), expected, f"incremental {label}")
        assert self.session.n_live == len(self.mirror), label
        live = self.session.live_ids()
        assert live.tolist() == sorted(self.mirror), label


# ----------------------------------------------------------------------
# rows outside the base box
# ----------------------------------------------------------------------
#: Dyadic radii and weights, so a shift of ``eps / w**(1/p)`` off a box
#: edge at 0 or 1 is exact: those pairs sit at distance exactly eps.
EDGE_METRICS = {
    "l1": "l1",
    "l2": "l2",
    "linf": "linf",
    "weighted": WeightedLpMetric(2, [0.25, 1.0, 4.0]),
}


def _edge_rows(rng, base, eps, metric, count):
    """Rows at, and one ulp past, distance ``eps`` off the box edges.

    Each starts from a base row moved onto a face of ``[0, 1]^3`` and
    steps outward along that face's axis."""
    weights = getattr(metric, "weights", np.ones(3))
    power = getattr(metric, "p", 1.0)
    power = 1.0 if power == np.inf else power
    rows = base[rng.integers(0, len(base), size=count)].copy()
    axis = rng.integers(0, 3, size=count)
    high = rng.random(count) < 0.5
    at = np.arange(count)
    rows[at, axis] = np.where(high, 1.0, 0.0)
    step = eps / weights[axis] ** (1.0 / power)
    step = np.where(rng.random(count) < 0.5, step, np.nextafter(step, np.inf))
    rows[at, axis] += np.where(high, step, -step)
    return rows


@settings(max_examples=40, deadline=None)
@given(
    metric_name=st.sampled_from(sorted(EDGE_METRICS)),
    eps=st.sampled_from([0.0625, 0.125, 0.25]),
    seed=st.integers(0, 2**32 - 1),
)
def test_out_of_box_rows_match_brute_force(metric_name, eps, seed):
    """Inserts, range queries and deletes of rows just past the base
    tree's box (at distance exactly eps from rows on its faces) stay
    exact through the tree, with no whole-base fallback."""
    rng = np.random.default_rng(seed)
    spec = JoinSpec(epsilon=eps, metric=EDGE_METRICS[metric_name])
    harness = SessionHarness(spec)
    base = rng.random((80, 3))
    base[:6] = np.repeat(np.eye(3), 2, axis=0)  # rows on every face
    base[6], base[7] = 0.0, 1.0  # the box is exactly [0, 1]^3
    harness.insert(base)
    harness.session.compact()
    faces = base.copy()
    faces[:40, rng.integers(0, 3)] = 1.0
    outside = _edge_rows(rng, faces, eps, spec.metric, 24)
    harness.insert(outside)
    harness.check("out-of-box insert")
    queries = _edge_rows(rng, faces, eps, spec.metric, 16)
    ids = np.array(sorted(harness.mirror), dtype=np.int64)
    points = np.array([harness.mirror[int(i)] for i in ids])
    for query, hits in zip(queries, harness.session.batch_range_query(queries)):
        near = spec.metric.within_block(query[None, :], points, eps)[0]
        assert hits.tolist() == ids[near].tolist()
    harness.delete(harness.session.live_ids()[-12:])
    harness.check("out-of-box delete")


# ----------------------------------------------------------------------
# deterministic unit tests
# ----------------------------------------------------------------------
class TestIncrementalBasics:
    SPEC = dict(epsilon=0.3, leaf_size=8)

    def test_single_batch_equals_batch_join(self):
        points = np.random.default_rng(0).random((80, 4))
        harness = SessionHarness(JoinSpec(**self.SPEC))
        delta = harness.insert(points)
        assert delta.ids.tolist() == list(range(80))
        assert len(delta.retracted) == 0
        harness.check("single batch")

    def test_second_batch_emits_only_new_pairs(self):
        rng = np.random.default_rng(1)
        harness = SessionHarness(JoinSpec(**self.SPEC))
        first = harness.insert(rng.random((50, 3)))
        second = harness.insert(rng.random((30, 3)))
        # Disjoint: a pair is emitted exactly once across the stream.
        seen = {tuple(p) for p in first.added.tolist()}
        assert not seen.intersection(tuple(p) for p in second.added.tolist())
        harness.check("two batches")

    def test_delete_retracts_exactly_incident_pairs(self):
        rng = np.random.default_rng(2)
        harness = SessionHarness(JoinSpec(**self.SPEC))
        harness.insert(rng.random((60, 3)))
        before = harness.accumulated()
        delta = harness.delete([3, 17, 41])
        gone = {tuple(p) for p in delta.retracted.tolist()}
        assert all(3 in p or 17 in p or 41 in p for p in gone)
        assert gone <= {tuple(p) for p in before.tolist()}
        harness.check("after delete")

    def test_interleaved_stream_with_compactions(self):
        """A long seeded stream crossing the compaction threshold often."""
        rng = np.random.default_rng(3)
        spec = JoinSpec(epsilon=0.35, leaf_size=8, delta_threshold=25)
        harness = SessionHarness(spec)
        for step in range(30):
            action = rng.random()
            if action < 0.6 or len(harness.mirror) < 5:
                harness.insert(rng.random((int(rng.integers(1, 12)), 3)))
            elif action < 0.85:
                live = sorted(harness.mirror)
                size = min(len(live), int(rng.integers(1, 5)))
                harness.delete(rng.choice(live, size=size, replace=False))
            else:
                harness.session.compact()
            harness.check(f"step {step}")
        assert harness.session.stats.compactions > 0

    def test_ids_are_never_reused(self):
        rng = np.random.default_rng(4)
        harness = SessionHarness(JoinSpec(**self.SPEC))
        first = harness.insert(rng.random((10, 2)))
        harness.delete(first.ids)
        second = harness.insert(rng.random((10, 2)))
        assert second.ids.min() == 10  # deletion frees no ids
        harness.check("after reuse window")

    def test_out_of_grid_batch_takes_fallback_and_stays_exact(self):
        # (The name predates the fallback's removal: out-of-box batches
        # now probe the base tree like any other, clipped into its cells.)
        rng = np.random.default_rng(5)
        harness = SessionHarness(JoinSpec(**self.SPEC))
        harness.insert(rng.random((40, 3)))
        harness.session.compact()  # base grid now fits [0, 1]^3
        shifted = rng.random((15, 3)) + 0.9  # straddles the base box
        harness.insert(shifted)
        harness.check("out-of-grid insert")
        far = rng.random((10, 3)) - 5.0
        harness.insert(far)
        harness.check("far insert")
        harness.delete(harness.session.live_ids()[-5:])
        harness.check("delete out-of-grid points")

    def test_empty_and_tiny_batches(self):
        harness = SessionHarness(JoinSpec(**self.SPEC))
        delta = harness.insert(np.empty((0, 3)))
        assert len(delta.ids) == 0 and len(delta.added) == 0
        harness.insert(np.array([[0.5, 0.5, 0.5]]))
        harness.insert(np.array([[0.5, 0.5, 0.51]]))
        harness.check("tiny")
        harness.session.compact()  # single-digit base still probes fine
        harness.insert(np.array([[0.5, 0.5, 0.49]]))
        harness.check("tiny after compact")

    def test_empty_delete_is_a_noop(self):
        session = IncrementalJoin(JoinSpec(**self.SPEC))
        delta = session.delete([])  # fresh session: no sketch, no dims yet
        assert len(delta.ids) == 0 and len(delta.retracted) == 0
        assert session.last_update_seq == 0
        assert session.stats.updates_applied == 0
        harness = SessionHarness(JoinSpec(**self.SPEC))
        harness.session = session
        harness.insert(np.random.default_rng(5).random((20, 2)))
        assert len(session.delete(np.empty(0, dtype=np.int64)).retracted) == 0
        assert session.last_update_seq == 1
        harness.check("after empty deletes")

    def test_delete_unknown_id_raises(self):
        harness = SessionHarness(JoinSpec(**self.SPEC))
        harness.insert(np.random.default_rng(6).random((5, 2)))
        with pytest.raises(InvalidParameterError, match="unknown point id"):
            harness.session.delete([99])

    def test_delete_twice_raises(self):
        harness = SessionHarness(JoinSpec(**self.SPEC))
        harness.insert(np.random.default_rng(7).random((5, 2)))
        harness.delete([2])
        with pytest.raises(InvalidParameterError, match="already deleted"):
            harness.session.delete([2])

    def test_delete_duplicate_ids_raises(self):
        harness = SessionHarness(JoinSpec(**self.SPEC))
        harness.insert(np.random.default_rng(8).random((5, 2)))
        with pytest.raises(InvalidParameterError, match="duplicates"):
            harness.session.delete([1, 1])

    def test_dimension_mismatch_raises(self):
        harness = SessionHarness(JoinSpec(**self.SPEC))
        harness.insert(np.random.default_rng(9).random((5, 3)))
        with pytest.raises(InvalidParameterError, match="dimensional"):
            harness.session.insert(np.random.default_rng(9).random((5, 4)))

    @pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf])
    def test_nan_inf_batch_rejected_up_front(self, poison):
        """Satellite: a batch with non-finite coordinates raises the
        typed error before any state mutates."""
        harness = SessionHarness(JoinSpec(**self.SPEC))
        harness.insert(np.random.default_rng(10).random((6, 2)))
        before_pairs = harness.accumulated()
        bad = np.random.default_rng(11).random((3, 2))
        bad[1, 1] = poison
        with pytest.raises(
            InvalidParameterError, match="insert batch contains NaN"
        ):
            harness.session.insert(bad)
        # untouched: same live set, same ids, same pair ledger, and the
        # next insert continues the id sequence without a gap
        assert harness.session.n_live == 6
        assert harness.session._next_id == 6
        assert np.array_equal(harness.accumulated(), before_pairs)
        delta = harness.insert(np.random.default_rng(12).random((2, 2)))
        assert delta.ids.tolist() == [6, 7]
        harness.check("after rejected batch")

    def test_nan_batch_never_reaches_the_journal(self, tmp_path):
        """With persistence on, a rejected batch must not leave a WAL
        record: the reopened session has the same update seq."""
        path = str(tmp_path / "session")
        session = IncrementalJoin(
            JoinSpec(epsilon=0.3, persist_path=path, delta_threshold=100)
        )
        session.insert(np.random.default_rng(13).random((4, 2)))
        bad = np.array([[0.1, np.nan]])
        with pytest.raises(InvalidParameterError, match="NaN"):
            session.insert(bad)
        assert session.last_update_seq == 1
        session.close()
        reopened = IncrementalJoin.open(path)
        assert reopened.last_update_seq == 1
        assert reopened.stats.wal_records_replayed == 1
        reopened.close()

    def test_invalid_engine_rejected(self):
        with pytest.raises(InvalidParameterError, match="engine"):
            IncrementalJoin(JoinSpec(epsilon=0.3), engine="gpu")
        with pytest.raises(InvalidParameterError, match="io_retries"):
            IncrementalJoin(JoinSpec(epsilon=0.3), io_retries=-1)

    def test_live_points_in_id_order(self):
        rng = np.random.default_rng(10)
        harness = SessionHarness(JoinSpec(**self.SPEC))
        harness.insert(rng.random((20, 2)))
        harness.session.compact()
        harness.insert(rng.random((10, 2)))
        harness.delete([0, 25])
        live = harness.session.live_points()
        expected = np.array([harness.mirror[i] for i in sorted(harness.mirror)])
        assert np.array_equal(live, expected)
        assert len(harness.session) == len(harness.mirror)

    def test_parallel_engine_is_byte_identical(self):
        rng = np.random.default_rng(11)
        spec = JoinSpec(epsilon=0.3, leaf_size=8, delta_threshold=30)
        stream = [("insert", rng.random((35, 4))) for _ in range(3)]
        stream.append(("delete", list(range(10, 30))))
        serial = IncrementalJoin(spec)
        parallel = IncrementalJoin(
            spec, engine="parallel", use_processes=False, n_workers=3
        )
        added_s, retracted_s = apply_update_stream(serial, stream)
        added_p, retracted_p = apply_update_stream(parallel, stream)
        assert_same_pairs(
            subtract_pairs(added_p, retracted_p),
            subtract_pairs(added_s, retracted_s),
            "parallel vs serial session",
        )


class TestCompaction:
    def test_auto_compaction_triggers_at_threshold(self):
        rng = np.random.default_rng(20)
        spec = JoinSpec(epsilon=0.3, leaf_size=8, delta_threshold=10)
        session = IncrementalJoin(spec)
        session.insert(rng.random((10, 3)))
        assert session.stats.compactions == 0  # at threshold, not over
        session.insert(rng.random((1, 3)))
        assert session.stats.compactions == 1
        assert session.delta_size == 0
        assert session.stats.delta_size == 0

    def test_explicit_compact_emits_nothing(self):
        rng = np.random.default_rng(21)
        harness = SessionHarness(JoinSpec(epsilon=0.3, leaf_size=8))
        harness.insert(rng.random((40, 3)))
        before = harness.accumulated()
        harness.session.compact()
        assert_same_pairs(harness.accumulated(), before, "compact is silent")
        harness.check("after explicit compact")

    def test_compact_folds_tombstones(self):
        rng = np.random.default_rng(22)
        harness = SessionHarness(JoinSpec(epsilon=0.3, leaf_size=8))
        harness.insert(rng.random((30, 3)))
        harness.session.compact()
        harness.delete([5, 6, 7])
        harness.session.compact()  # tombstoned base rows must be dropped
        assert harness.session._base_alive.all()
        assert len(harness.session._base_points) == 27
        harness.check("tombstone fold")

    def test_noop_compact_early_returns(self):
        session = IncrementalJoin(JoinSpec(epsilon=0.3))
        session.compact()  # empty session: nothing to do
        assert session.stats.compactions == 0
        rng = np.random.default_rng(23)
        session.insert(rng.random((10, 3)))
        session.compact()
        session.compact()  # no delta, no tombstones -> no-op
        assert session.stats.compactions == 1

    def test_injected_fault_is_retried_and_counted(self):
        rng = np.random.default_rng(25)
        plan = FaultPlan(seed=9).fail_page_read(0)
        session = IncrementalJoin(
            JoinSpec(epsilon=0.3, leaf_size=8), fault_plan=plan, io_retries=2
        )
        harness_points = rng.random((30, 3))
        session.insert(harness_points)
        session.compact()
        assert session.stats.faults_injected == 1
        assert session.stats.storage_retries == 1
        assert session.stats.compactions == 1
        assert plan.injected == 1

    def test_exhausted_retries_leave_session_untouched(self):
        rng = np.random.default_rng(26)
        plan = FaultPlan(seed=9).fail_page_read(0, 1, 2, 3, 4)
        spec = JoinSpec(epsilon=0.3, leaf_size=8)
        session = IncrementalJoin(spec, fault_plan=plan, io_retries=2)
        harness = SessionHarness(spec)
        harness.session = session
        harness.insert(rng.random((25, 3)))
        snapshot = (
            session.n_live,
            session.delta_size,
            session.stats.compactions,
            len(session._base_points),
        )
        with pytest.raises(TransientIoError):
            session.compact()
        assert (
            session.n_live,
            session.delta_size,
            session.stats.compactions,
            len(session._base_points),
        ) == snapshot
        # the session keeps answering exactly after the failed compaction
        harness.insert(rng.random((10, 3)))
        harness.check("after failed compaction")

    def test_faulty_compaction_stream_stays_exact(self):
        """Faults at several attempt ordinals; retries keep every delta
        byte-identical to the fault-free run."""
        rng = np.random.default_rng(27)
        batches = [rng.random((20, 3)) for _ in range(4)]
        spec = JoinSpec(epsilon=0.35, leaf_size=8, delta_threshold=15)

        def run(fault_plan):
            session = IncrementalJoin(
                spec, fault_plan=fault_plan, io_retries=2
            )
            stream = [("insert", batch) for batch in batches]
            stream.append(("delete", list(range(5, 25))))
            added, retracted = apply_update_stream(session, stream)
            return subtract_pairs(added, retracted), session

        clean_pairs, _ = run(None)
        faulty_pairs, faulty = run(FaultPlan(seed=13).fail_page_read(0, 2))
        assert_same_pairs(faulty_pairs, clean_pairs, "faulty compaction stream")
        assert faulty.stats.faults_injected == 2
        assert faulty.stats.storage_retries == 2


class TestJoinSizeSketch:
    def test_estimate_tracks_known_duplicates(self):
        sketch = JoinSizeSketch(cell_width=0.1, bits=12)
        point = np.full((1, 4), 0.5)
        sketch.add(np.repeat(point, 30, axis=0))
        # 30 identical points: C(30, 2) same-cell pairs, no collisions.
        assert sketch.estimate() == pytest.approx(435.0, rel=0.01)

    def test_add_remove_inverse(self):
        rng = np.random.default_rng(30)
        sketch = JoinSizeSketch(cell_width=0.2, bits=10)
        first = rng.random((50, 3))
        second = rng.random((20, 3))
        sketch.add(first)
        state = (sketch.n, sketch._same_bucket_pairs, sketch.counts.copy())
        sketch.add(second)
        sketch.remove(second)
        assert sketch.n == state[0]
        assert sketch._same_bucket_pairs == state[1]
        assert np.array_equal(sketch.counts, state[2])

    def test_estimate_empty_and_single(self):
        sketch = JoinSizeSketch(cell_width=0.1)
        assert sketch.estimate() == 0.0
        sketch.add(np.array([[0.1, 0.2]]))
        assert sketch.estimate() == 0.0

    def test_remove_never_added_raises(self):
        sketch = JoinSizeSketch(cell_width=0.1)
        sketch.add(np.array([[0.95, 0.95]]))
        with pytest.raises(InvalidParameterError, match="never added"):
            sketch.remove(np.array([[0.05, 0.05], [0.05, 0.05]]))

    def test_dimension_mismatch_raises(self):
        sketch = JoinSizeSketch(cell_width=0.1)
        sketch.add(np.array([[0.1, 0.2]]))
        with pytest.raises(InvalidParameterError, match="dimensional"):
            sketch.add(np.array([[0.1, 0.2, 0.3]]))

    def test_invalid_cell_width_raises(self):
        with pytest.raises(InvalidParameterError, match="cell_width"):
            JoinSizeSketch(cell_width=0.0)

    def test_estimate_within_factor_on_clustered_data(self):
        """The sketch estimates same-cell pairs — a constant-factor proxy
        documented in docs/streaming.md and measured by E18.  On a
        clustered workload it must land within an order of magnitude."""
        from repro.datasets import gaussian_clusters

        points = gaussian_clusters(800, 6, clusters=5, sigma=0.05, seed=31)
        spec = JoinSpec(epsilon=0.4, leaf_size=32)
        session = IncrementalJoin(spec)
        session.insert(points)
        truth = len(similarity_join(points, epsilon=0.4))
        estimate = session.estimated_join_size
        assert truth > 0
        assert truth / 16 <= estimate <= truth * 16

    def test_deterministic_across_sessions(self):
        rng = np.random.default_rng(32)
        points = rng.random((100, 4))
        spec = JoinSpec(epsilon=0.3)
        first = IncrementalJoin(spec)
        second = IncrementalJoin(spec)
        first.insert(points)
        second.insert(points)
        assert first.estimated_join_size == second.estimated_join_size


class TestUpdateStreamApi:
    def test_similarity_join_updates_matches_scratch(self):
        rng = np.random.default_rng(40)
        base = rng.random((60, 4))
        extra = rng.random((25, 4))
        pairs = similarity_join(
            base,
            epsilon=0.3,
            updates=[("insert", extra), ("delete", list(range(0, 20)))],
            delta_threshold=32,
        )
        survivors = np.concatenate([base[20:], extra])
        idmap = np.concatenate([np.arange(20, 60), np.arange(60, 85)])
        expected = idmap[similarity_join(survivors, epsilon=0.3)]
        expected = expected[np.lexsort((expected[:, 1], expected[:, 0]))]
        assert_same_pairs(pairs, expected, "similarity_join updates")

    def test_similarity_join_updates_return_result_stats(self):
        rng = np.random.default_rng(41)
        result = similarity_join(
            rng.random((30, 3)),
            epsilon=0.3,
            updates=[("insert", rng.random((10, 3)))],
            return_result=True,
        )
        assert result.stats.updates_applied == 2
        assert result.stats.estimated_join_size >= 0.0
        assert result.stats.pairs_emitted >= len(result.pairs)

    def test_similarity_join_updates_rejects_two_set_and_baselines(self):
        rng = np.random.default_rng(42)
        points = rng.random((10, 3))
        with pytest.raises(InvalidParameterError, match="two-set"):
            similarity_join(
                points, points, epsilon=0.3, updates=[("insert", points)]
            )
        with pytest.raises(InvalidParameterError, match="epsilon-kdb"):
            similarity_join(
                points,
                epsilon=0.3,
                algorithm="grid",
                updates=[("insert", points)],
            )

    def test_normalize_update_shapes(self):
        points = [[0.1, 0.2]]
        assert normalize_update(("insert", points)) == ("insert", points)
        assert normalize_update({"op": "insert", "points": points}) == (
            "insert",
            points,
        )
        assert normalize_update({"op": "delete", "ids": [1]}) == ("delete", [1])
        with pytest.raises(InvalidParameterError, match="points"):
            normalize_update({"op": "insert"})
        with pytest.raises(InvalidParameterError, match="ids"):
            normalize_update({"op": "delete"})
        with pytest.raises(InvalidParameterError, match='"op"'):
            normalize_update({"op": "upsert"})
        with pytest.raises(InvalidParameterError, match="each update"):
            normalize_update(("insert",))

    def test_subtract_pairs(self):
        pairs = np.array([[0, 1], [0, 2], [1, 2], [2, 3]], dtype=np.int64)
        remove = np.array([[0, 2], [2, 3]], dtype=np.int64)
        out = subtract_pairs(pairs, remove)
        assert out.tolist() == [[0, 1], [1, 2]]
        assert subtract_pairs(EMPTY_PAIRS, EMPTY_PAIRS).shape == (0, 2)
        assert subtract_pairs(pairs, EMPTY_PAIRS).tolist() == pairs.tolist()


class TestStreamingStatsPlumbing:
    def test_new_fields_flow_through_as_dict_and_metrics(self):
        rng = np.random.default_rng(50)
        spec = JoinSpec(epsilon=0.3, leaf_size=8, delta_threshold=10)
        session = IncrementalJoin(spec)
        session.insert(rng.random((25, 3)))
        session.delete([0, 1])
        data = session.stats.as_dict()
        for name in (
            "updates_applied",
            "delta_size",
            "compactions",
            "pairs_retracted",
            "estimated_join_size",
        ):
            assert name in data
        assert data["updates_applied"] == 2
        assert data["compactions"] >= 1

        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        registry.ingest_stats(session.stats)
        assert registry.counter("join.updates_applied").value == 2
        assert registry.counter("join.compactions").value >= 1
        assert registry.gauge("join.estimated_join_size").value >= 0.0

    def test_merge_semantics(self):
        from repro.core.result import JoinStats

        first = JoinStats(
            updates_applied=2,
            delta_size=7,
            compactions=1,
            pairs_retracted=3,
            estimated_join_size=10.0,
        )
        second = JoinStats(
            updates_applied=1,
            delta_size=4,
            compactions=2,
            pairs_retracted=1,
            estimated_join_size=25.0,
        )
        first.merge(second)
        assert first.updates_applied == 3
        assert first.delta_size == 7  # gauge: max
        assert first.compactions == 3
        assert first.pairs_retracted == 4
        assert first.estimated_join_size == 25.0  # gauge: max

    def test_cli_renderer_handles_estimate(self):
        from repro.cli import _render_stat

        assert _render_stat("estimated_join_size", 1234.4) == "1.23k"
        assert _render_stat("delta_size", 42) == "42"


# ----------------------------------------------------------------------
# the stateful hypothesis machine
# ----------------------------------------------------------------------
# Quantized coordinates in a 3-cube spanning [0, 1.5]: ties and
# boundary-exact distances are common, batches regularly escape the
# current base grid (probing the base tree from outside its box), and
# epsilon=0.4 keeps the pair density meaningful.
_coord = st.integers(min_value=0, max_value=12).map(lambda v: v / 8.0)
_point = st.tuples(_coord, _coord, _coord)
_batch = st.lists(_point, min_size=1, max_size=6)

_MACHINE_SPEC = JoinSpec(
    epsilon=0.4, leaf_size=4, delta_threshold=8, sketch_bits=8
)


class IncrementalJoinMachine(RuleBasedStateMachine):
    """Random interleavings of insert/delete/compact, oracle-checked
    after every step (the ISSUE 6 acceptance property)."""

    def __init__(self):
        super().__init__()
        self.harness = SessionHarness(_MACHINE_SPEC)
        self.steps = 0

    @rule(batch=_batch)
    def insert(self, batch):
        self.harness.insert(np.array(batch, dtype=np.float64))
        self.steps += 1

    @precondition(lambda self: len(self.harness.mirror) > 0)
    @rule(data=st.data())
    def delete(self, data):
        live = sorted(self.harness.mirror)
        subset = data.draw(
            st.lists(st.sampled_from(live), min_size=1, unique=True),
            label="ids",
        )
        self.harness.delete(subset)
        self.steps += 1

    @rule()
    def compact(self):
        self.harness.session.compact()
        self.steps += 1

    @invariant()
    def emitted_deltas_match_scratch_join(self):
        self.harness.check(f"machine step {self.steps}")


IncrementalJoinMachine.TestCase.settings = settings(
    max_examples=12, stateful_step_count=12, deadline=None
)

TestIncrementalJoinStateful = IncrementalJoinMachine.TestCase


# ----------------------------------------------------------------------
# admission control (ISSUE 8)
# ----------------------------------------------------------------------
class TestAdmissionThreshold:
    def _dense_batch(self, n, dims=2):
        # A tight clump: the sketch predicts ~C(n, 2) same-cell pairs.
        return np.full((n, dims), 0.5) + np.arange(n)[:, None] * 1e-6

    def test_oversized_batch_refused_without_mutation(self):
        from repro.errors import AdmissionError

        rng = np.random.default_rng(40)
        spec = JoinSpec(epsilon=0.2, admission_threshold=100.0)
        session = IncrementalJoin(spec)
        session.insert(rng.random((10, 2)))
        before_ids = session.live_ids().copy()
        before_est = session.estimated_join_size
        before_seq = session.last_update_seq
        with pytest.raises(AdmissionError, match="admission threshold"):
            session.insert(self._dense_batch(50))
        # Nothing moved: ids, sequence, sketch, pair ledger.
        assert np.array_equal(session.live_ids(), before_ids)
        assert session.last_update_seq == before_seq
        assert session.estimated_join_size == before_est
        assert session.stats.batches_rejected == 1
        # The session still works afterwards.
        delta = session.insert(rng.random((5, 2)))
        assert len(delta.ids) == 5

    def test_refused_batch_not_journaled(self, tmp_path):
        from repro.errors import AdmissionError

        path = str(tmp_path / "session")
        rng = np.random.default_rng(41)
        spec = JoinSpec(
            epsilon=0.2, admission_threshold=100.0, persist_path=path
        )
        session = IncrementalJoin(spec)
        session.insert(rng.random((10, 2)))
        with pytest.raises(AdmissionError):
            session.insert(self._dense_batch(60))
        expected_pairs = session.current_pairs()
        session.close()
        # Recovery replays the journal; a journaled refused batch would
        # resurface here as extra points.
        recovered = IncrementalJoin.open(path)
        assert recovered.n_live == 10
        assert np.array_equal(recovered.current_pairs(), expected_pairs)
        assert recovered.stats.batches_rejected == 0
        recovered.close()

    def test_refusal_on_first_insert_leaves_fresh_session(self):
        from repro.errors import AdmissionError

        spec = JoinSpec(epsilon=0.2, admission_threshold=10.0)
        session = IncrementalJoin(spec)
        with pytest.raises(AdmissionError):
            session.insert(self._dense_batch(30, dims=3))
        assert session.n_live == 0
        assert session.dims is None
        # A later, differently-dimensioned insert must not trip over a
        # sketch left behind by the refused batch.
        delta = session.insert(np.random.default_rng(42).random((4, 5)))
        assert len(delta.ids) == 4

    def test_no_threshold_admits_everything(self):
        spec = JoinSpec(epsilon=0.2)
        session = IncrementalJoin(spec)
        delta = session.insert(self._dense_batch(40))
        assert len(delta.ids) == 40
        assert session.stats.batches_rejected == 0

    def test_threshold_validation(self):
        with pytest.raises(InvalidParameterError, match="admission_threshold"):
            JoinSpec(epsilon=0.1, admission_threshold=-1.0)
        with pytest.raises(InvalidParameterError, match="admission_threshold"):
            JoinSpec(epsilon=0.1, admission_threshold=float("nan"))

    def test_batches_rejected_merges(self):
        from repro.core.result import JoinStats

        first, second = JoinStats(), JoinStats()
        first.batches_rejected = 2
        second.batches_rejected = 3
        first.merge(second)
        assert first.batches_rejected == 5
        assert first.as_dict()["batches_rejected"] == 5
