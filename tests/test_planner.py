"""Cost-based execution planner: profiles, decisions, equivalence, views.

Four concerns:

* :class:`CostProfile` persistence — save/load round-trips, host
  fingerprint gating, version gating, cache reuse by ``calibrate``.
* the decision — synthetic profiles with exaggerated constants force
  serial or parallel to win, so both outcomes are exercised without
  depending on this machine's real timings.
* engine equivalence — every strategy ``similarity_join`` can plan
  emits pairs byte-identical to the serial oracle, self and two-set.
* :class:`SnapshotView` — the zero-materialization query path answers
  range queries identically to a fully recovered session, refuses
  stale snapshots, and is what a persisted serve attach of a fresh
  snapshot yields until the first mutation promotes it.
"""

import asyncio
import json
import os

import numpy as np
import pytest

from repro import JoinSpec, plan_execution, similarity_join
from repro.cli import main
from repro.core.incremental import IncrementalJoin
from repro.errors import (
    ConfigError,
    InvalidParameterError,
    StaleSnapshotError,
    StorageError,
)
from repro.datasets import gaussian_clusters, uniform_points
from repro.obs import Tracer, trace
from repro.planner import (
    CostProfile,
    calibrate_and_save,
    load_profile,
    save_profile,
    set_active_profile,
)
from repro.planner.profile import host_fingerprint, stamp
from repro.serve.sessions import SessionManager
from repro.storage import SnapshotView


@pytest.fixture(autouse=True)
def _default_profile(tmp_path, monkeypatch):
    """Pin the planner to the built-in defaults for every test here.

    A developer machine may carry a calibrated profile; tests must not
    see it.  The env override also keeps ``load_profile()`` (lazy
    reload after the test) away from the real cache file.
    """
    monkeypatch.setenv(
        "REPRO_COST_PROFILE", str(tmp_path / "no-such-profile.json")
    )
    set_active_profile(CostProfile())
    yield
    set_active_profile(None)


# ---------------------------------------------------------------------------
# profile persistence
# ---------------------------------------------------------------------------
class TestCostProfile:
    def test_save_load_round_trip(self, tmp_path):
        path = str(tmp_path / "profile.json")
        profile = stamp(CostProfile(node_visit_seconds=3.5e-6))
        save_profile(profile, path)
        loaded = load_profile(path)
        assert loaded == profile
        assert loaded.source == "calibrated"
        assert loaded.node_visit_seconds == 3.5e-6

    def test_missing_file_yields_defaults(self, tmp_path):
        loaded = load_profile(str(tmp_path / "absent.json"))
        assert loaded == CostProfile()

    def test_garbage_file_yields_defaults(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert load_profile(str(path)) == CostProfile()

    def test_host_mismatch_yields_defaults(self, tmp_path):
        path = str(tmp_path / "profile.json")
        profile = stamp(CostProfile(candidate_check_seconds=9.9e-9))
        profile.host = "feedfacedeadbeef"  # measured "elsewhere"
        save_profile(profile, path)
        assert load_profile(path) == CostProfile()

    def test_version_mismatch_yields_defaults(self, tmp_path):
        path = tmp_path / "profile.json"
        data = stamp(CostProfile()).as_dict()
        data["version"] = 999
        path.write_text(json.dumps(data))
        assert load_profile(str(path)) == CostProfile()

    def test_profile_with_removed_fields_loads(self, tmp_path):
        """A profile written before the pointer, sort-merge, external
        and snapshot-reuse planner strategies and the tile sweep were
        removed still loads; their constants are skipped and the
        measured ones survive."""
        path = tmp_path / "profile.json"
        data = stamp(CostProfile(node_visit_seconds=3.5e-6)).as_dict()
        data.update(
            pointer_build_factor=18.0,
            sort_point_seconds=1.5e-8,
            sort_merge_overhead_factor=40.0,
            page_io_seconds=2.0e-5,
            snapshot_byte_seconds=2.0e-10,
            tile_rows=4096,
        )
        path.write_text(json.dumps(data))
        loaded = load_profile(str(path))
        assert loaded.source == "calibrated"
        assert loaded.node_visit_seconds == 3.5e-6

    def test_validation_rejects_nonpositive_constants(self):
        with pytest.raises(InvalidParameterError):
            CostProfile(candidate_check_seconds=0.0)
        with pytest.raises(InvalidParameterError):
            CostProfile(node_visit_seconds=float("nan"))
        with pytest.raises(InvalidParameterError):
            CostProfile(pool_startup_seconds=-1.0)

    def test_calibrate_reuses_cached_profile(self, tmp_path):
        # A valid profile for this host short-circuits the (slow)
        # measurement; `--force` is exercised by the CI smoke job.
        path = str(tmp_path / "cached.json")
        save_profile(stamp(CostProfile()), path)
        profile, used_path, ran = calibrate_and_save(path=path)
        assert not ran
        assert used_path == path
        assert profile.host == host_fingerprint()


# ---------------------------------------------------------------------------
# decision matrix
# ---------------------------------------------------------------------------
def synthetic(**overrides):
    base = dict(
        candidate_check_seconds=1.0e-9,
        node_visit_seconds=1.0e-6,
        worker_dispatch_seconds=1.0e-3,
        pool_startup_seconds=0.5,
        build_point_seconds=5.0e-7,
        source="synthetic",
    )
    base.update(overrides)
    return CostProfile(**base)


class TestDecisionMatrix:
    """Serial and parallel each win under constants that favor them."""

    SPEC = JoinSpec(epsilon=0.1)

    def plan(self, profile, **kwargs):
        kwargs.setdefault("n", 50_000)
        kwargs.setdefault("dims", 12)
        return plan_execution(
            self.SPEC, kwargs.pop("n"), kwargs.pop("dims"),
            profile=profile, **kwargs
        )

    def test_serial_wins_by_default(self):
        plan = self.plan(synthetic(), n=4000, dims=10)
        assert plan.chosen == "serial"

    def test_parallel_wins_when_kernel_dominates(self):
        plan = self.plan(
            synthetic(
                candidate_check_seconds=1.0e-4,
                pool_startup_seconds=1.0e-9,
                worker_dispatch_seconds=1.0e-9,
            ),
            n_workers=8,
        )
        assert plan.chosen == "parallel"

    def test_all_strategies_scored_when_enabled(self):
        # Serial vs parallel is the planner's one decision.
        plan = self.plan(synthetic())
        assert [c.strategy for c in plan.costs] == ["serial", "parallel"]

    def test_forced_strategy_pins_choice_but_scores_everything(self):
        plan = self.plan(synthetic(), forced="parallel")
        assert plan.chosen == "parallel"
        assert plan.forced == "parallel"
        assert plan.cost_of("serial").predicted_seconds > 0
        assert not plan.cost_of("serial").chosen

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            self.plan(synthetic(), n=-1)
        # An empty input is planned, not rejected.
        assert self.plan(synthetic(), n=0).chosen == "serial"
        with pytest.raises(InvalidParameterError):
            self.plan(synthetic(), dims=0)
        with pytest.raises(InvalidParameterError):
            self.plan(synthetic(), strategies=())
        with pytest.raises(InvalidParameterError):
            # The external driver runs unplanned.
            self.plan(synthetic(), forced="external")

    def test_plan_serialization_and_table(self):
        plan = self.plan(synthetic(), n=1000, dims=8)
        data = plan.as_dict()
        assert data["chosen"] == plan.chosen
        assert {c["strategy"] for c in data["costs"]} >= {"serial", "parallel"}
        rendered = plan.format_table().render()
        assert "serial" in rendered and "<==" in rendered


# ---------------------------------------------------------------------------
# engine equivalence through the facade
# ---------------------------------------------------------------------------
ENGINES = ("serial", "parallel", "external")


class TestEngineEquivalence:
    def test_self_join_engines_byte_identical(self):
        points = gaussian_clusters(700, 8, seed=5)
        oracle = similarity_join(points, epsilon=0.3, engine="serial")
        for engine in ENGINES[1:]:
            pairs = similarity_join(points, epsilon=0.3, engine=engine)
            np.testing.assert_array_equal(pairs, oracle)

    def test_two_set_engines_byte_identical(self):
        a = uniform_points(500, 6, seed=11)
        b = uniform_points(400, 6, seed=12)
        oracle = similarity_join(a, b, epsilon=0.3, engine="serial")
        for engine in ENGINES[1:]:
            pairs = similarity_join(a, b, epsilon=0.3, engine=engine)
            np.testing.assert_array_equal(pairs, oracle)

    def test_auto_plans_and_matches_serial(self):
        points = uniform_points(900, 8, seed=3)
        result = similarity_join(
            points, epsilon=0.2, engine="auto", return_result=True
        )
        serial = similarity_join(points, epsilon=0.2, engine="serial")
        np.testing.assert_array_equal(result.pairs, serial)
        assert result.stats.planned_strategy in ENGINES
        assert result.stats.predicted_cost > 0
        assert result.stats.plan_seconds > 0
        assert result.plan is not None
        assert result.plan.chosen == result.stats.planned_strategy

    def test_forced_engine_recorded_in_stats(self):
        points = uniform_points(300, 6, seed=9)
        result = similarity_join(
            points, epsilon=0.2, engine="parallel", return_result=True
        )
        assert result.stats.planned_strategy == "parallel"
        assert result.plan.forced == "parallel"
        # n_workers takes the same forced-plan path.
        result = similarity_join(
            points, epsilon=0.2, n_workers=2, return_result=True
        )
        assert result.stats.planned_strategy == "parallel"
        assert result.plan.forced == "parallel"
        # The external driver runs directly, with no plan.
        result = similarity_join(
            points, epsilon=0.2, engine="external", return_result=True
        )
        assert result.stats.planned_strategy == "external"
        assert result.plan is None

    def test_spec_rejects_unknown_engine(self):
        with pytest.raises(ConfigError):
            JoinSpec(epsilon=0.1, engine="quantum")
        for removed in ("pointer", "sort-merge"):
            with pytest.raises(ConfigError):
                JoinSpec(epsilon=0.1, engine=removed)

    @pytest.mark.parametrize("engine", ("auto",) + ENGINES)
    def test_empty_self_join_returns_no_pairs(self, engine):
        result = similarity_join(
            np.empty((0, 3)), epsilon=0.1, engine=engine, return_result=True
        )
        assert result.pairs.shape == (0, 2)
        assert result.stats.planned_strategy == (
            "serial" if engine == "auto" else engine
        )

    def test_engine_only_plans_epsilon_kdb(self):
        points = uniform_points(100, 4, seed=0)
        with pytest.raises(InvalidParameterError):
            similarity_join(
                points, epsilon=0.2, algorithm="brute-force", engine="parallel"
            )

    def test_workers_conflict_with_forced_serial(self):
        points = uniform_points(100, 4, seed=0)
        with pytest.raises(InvalidParameterError):
            similarity_join(points, epsilon=0.2, engine="serial", n_workers=4)

    def test_plan_span_emitted(self):
        tracer = Tracer()
        points = uniform_points(400, 6, seed=21)
        with trace.activate(tracer):
            similarity_join(points, epsilon=0.2)
        names = [span["name"] for span in tracer.export()]
        assert "plan" in names


# ---------------------------------------------------------------------------
# SnapshotView: the zero-materialization query path
# ---------------------------------------------------------------------------
def _persisted_session(path, n=2500, dims=6, epsilon=0.25, seed=4):
    spec = JoinSpec(epsilon=epsilon)
    points = uniform_points(n, dims, seed=seed)
    with IncrementalJoin.open(str(path), spec=spec) as join:
        join.insert(points)
        join.delete(np.arange(0, 40))
        join.compact()  # publishes a snapshot covering every update
    return points


class TestSnapshotView:
    def test_matches_materialized_session(self, tmp_path):
        path = tmp_path / "sess"
        _persisted_session(path)
        rng = np.random.default_rng(8)
        queries = np.vstack(
            [
                rng.random((6, 6)),          # inside the grid
                rng.random((3, 6)) + 2.0,    # far outside the grid
                rng.random((2, 6)) - 1.5,    # below it
            ]
        )
        view = SnapshotView.open(str(path))
        session = IncrementalJoin.open(str(path))
        try:
            for eps in (None, 0.1, 0.02):
                got = view.batch_range_query(queries, eps=eps)
                want = session.batch_range_query(queries, eps=eps)
                assert len(got) == len(want)
                for g, w in zip(got, want):
                    np.testing.assert_array_equal(g, w)
            np.testing.assert_array_equal(
                view.range_query(queries[0]), session.range_query(queries[0])
            )
            assert view.n_live == session.n_live
            assert view.dims == session.dims
            assert view.last_update_seq == session.last_update_seq
        finally:
            view.close()
            session.close()

    def test_rejects_radius_beyond_session_epsilon(self, tmp_path):
        path = tmp_path / "sess"
        _persisted_session(path, epsilon=0.2)
        view = SnapshotView.open(str(path))
        try:
            with pytest.raises(InvalidParameterError):
                view.range_query(np.zeros(6), eps=0.5)
        finally:
            view.close()

    def test_stale_wal_raises(self, tmp_path):
        path = tmp_path / "sess"
        _persisted_session(path)
        # Updates after the last snapshot live only in the WAL; the
        # read-only view cannot replay them and must say so.
        with IncrementalJoin.open(str(path)) as join:
            join.insert(np.full((3, 6), 0.5))
        with pytest.raises(StaleSnapshotError):
            SnapshotView.open(str(path))

    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(StorageError):
            SnapshotView.open(str(tmp_path / "nothing-here"))

    def test_open_emits_no_build_span(self, tmp_path):
        path = tmp_path / "sess"
        _persisted_session(path)
        tracer = Tracer()
        with trace.activate(tracer):
            view = SnapshotView.open(str(path))
            view.batch_range_query(np.random.default_rng(0).random((4, 6)))
            view.close()
        names = [span["name"] for span in tracer.export()]
        assert "snapshot-view.open" in names
        assert not any("build" in name for name in names)


class TestServeViewAttach:
    def test_persisted_attach_serves_from_view_until_mutation(self, tmp_path):
        path = tmp_path / "sess"
        _persisted_session(path)

        async def scenario():
            manager = SessionManager()
            session = manager.attach("t", path=str(path))
            assert session.is_view
            assert session.persisted
            queries = np.random.default_rng(7).random((5, 6))
            before = session.batch_range_query(queries)
            # First mutation promotes the tenant to a real session.
            await session.materialize()
            assert not session.is_view
            session.insert(np.full((2, 6), 0.25))
            after = session.batch_range_query(queries)
            assert len(before) == len(after)
            for b, a in zip(before, after):
                assert set(b) <= set(a)
            manager.close_all()

        asyncio.run(scenario())

    def test_fresh_high_dimensional_snapshot_attaches_as_view(self, tmp_path):
        # A fresh snapshot attaches as a view at any dimensionality
        # (3000 points at d=400 is where pricing the view against
        # recovery chose recovery), and its answers equal recovery's.
        path = tmp_path / "sess"
        points = _persisted_session(path, n=3000, dims=400, epsilon=0.5)
        queries = points[::250] + 0.001
        manager = SessionManager()
        session = manager.attach("t", path=str(path))
        recovered = IncrementalJoin.open(str(path))
        try:
            assert session.is_view
            got = session.batch_range_query(queries)
            want = recovered.batch_range_query(queries)
            assert sum(len(w) for w in want) > 0
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes()
        finally:
            recovered.close()
            manager.close_all()

    def test_stale_directory_falls_back_to_recovery(self, tmp_path):
        path = tmp_path / "sess"
        _persisted_session(path)
        with IncrementalJoin.open(str(path)) as join:
            join.insert(np.full((3, 6), 0.5))  # strand updates in the WAL
        manager = SessionManager()
        session = manager.attach("t", path=str(path))
        assert not session.is_view  # recovery replayed the WAL
        assert session.n_live == 2500 - 40 + 3
        manager.close_all()


# ---------------------------------------------------------------------------
# CLI surfaces
# ---------------------------------------------------------------------------
class TestExplainCli:
    def test_join_explain_prints_plan_without_running(self, capsys):
        code = main(
            ["join", "--epsilon", "0.2", "--points", "500", "--dims", "6",
             "--explain"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "execution plan" in out
        assert "chosen:" in out
        assert "joining" not in out  # the join itself never ran

    def test_query_explain_offline(self, tmp_path, capsys):
        path = tmp_path / "sess"
        _persisted_session(path)
        code = main(
            ["query", "--tenant", "t", "--explain", "--path", str(path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "attach: view" in out
        with IncrementalJoin.open(str(path)) as join:
            join.insert(np.full((3, 6), 0.5))  # strand updates in the WAL
        assert main(
            ["query", "--tenant", "t", "--explain", "--path", str(path)]
        ) == 0
        out = capsys.readouterr().out
        assert "attach: recover" in out
        assert "record(s) past snapshot watermark" in out

    def test_query_without_port_or_explain_fails(self, capsys):
        assert main(["query", "--tenant", "t"]) == 2

    def test_stats_json_contains_plan(self, tmp_path, capsys):
        target = tmp_path / "stats.json"
        code = main(
            ["join", "--epsilon", "0.2", "--points", "400", "--dims", "6",
             "--stats-json", str(target)]
        )
        assert code == 0
        data = json.loads(target.read_text())
        assert data["planned_strategy"] in ENGINES
        assert data["plan"]["chosen"] == data["planned_strategy"]
        assert any(c["chosen"] for c in data["plan"]["costs"])
