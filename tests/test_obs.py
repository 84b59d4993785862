"""Unit tests for the observability subsystem (:mod:`repro.obs`).

Covers the tracer (nesting, attributes, events, cross-process
stitching), the export sinks (JSONL round-trip, Chrome ``trace_event``,
the phase tree), the metrics registry, the profiling hooks, and the
disabled-path cost contract.
"""

import json
import threading
import time

import pytest

from repro.core.result import JoinStats
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MemorySampler,
    MetricsRegistry,
    NullTracer,
    Tracer,
    format_tree,
    load_jsonl,
    profiled_span,
    read_rss_bytes,
    to_chrome_trace,
    trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.export import SPAN_SCHEMA_KEYS


class TestSpanNesting:
    def test_nested_spans_link_parents(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("middle") as middle:
                with tracer.span("inner") as inner:
                    pass
        assert outer.parent_id is None
        assert middle.parent_id == outer.span_id
        assert inner.parent_id == middle.span_id
        assert len(tracer) == 3

    def test_sibling_spans_share_parent(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("a") as a:
                pass
            with tracer.span("b") as b:
                pass
        assert a.parent_id == outer.span_id
        assert b.parent_id == outer.span_id
        assert a.span_id != b.span_id

    def test_span_ids_are_unique_across_tracers(self):
        # Pool workers create one short-lived Tracer per attempt; their
        # spans are adopted into one parent trace and must not collide.
        ids = set()
        for _ in range(5):
            tracer = Tracer()
            with tracer.span("root"):
                pass
            ids.add(tracer.export()[0]["span_id"])
        assert len(ids) == 5

    def test_attributes_and_events(self):
        tracer = Tracer()
        with tracer.span("work", points=100) as sp:
            sp.set_attribute("pairs", 7)
            sp.add_event("checkpoint", stage=1)
        exported = tracer.export()[0]
        assert exported["attributes"] == {"points": 100, "pairs": 7}
        assert len(exported["events"]) == 1
        event = exported["events"][0]
        assert event["name"] == "checkpoint"
        assert event["attributes"] == {"stage": 1}
        assert exported["start"] <= event["time"] <= exported["end"]

    def test_duration_is_monotonic_window(self):
        tracer = Tracer()
        with tracer.span("sleep") as sp:
            time.sleep(0.01)
        assert sp.duration >= 0.01
        assert sp.end > sp.start

    def test_record_span_parents_to_current(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            tracer.record_span("past", 1.0, 2.0, outcome="timed-out")
        recorded = [s for s in tracer.export() if s["name"] == "past"][0]
        assert recorded["parent_id"] == outer.span_id
        assert recorded["duration"] == 1.0
        assert recorded["attributes"]["outcome"] == "timed-out"

    def test_threads_nest_independently(self):
        tracer = Tracer()
        barrier = threading.Barrier(2)

        def worker(name):
            barrier.wait()
            with tracer.span(f"{name}-outer"):
                with tracer.span(f"{name}-inner"):
                    pass

        threads = [
            threading.Thread(target=worker, args=(n,)) for n in ("t1", "t2")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        by_name = {s["name"]: s for s in tracer.export()}
        assert len(by_name) == 4
        for name in ("t1", "t2"):
            assert (
                by_name[f"{name}-inner"]["parent_id"]
                == by_name[f"{name}-outer"]["span_id"]
            )


class TestAdoption:
    def _worker_export(self):
        """Simulate a pool worker tracing one attempt and shipping it."""
        worker = Tracer()
        with worker.span("stripe-task", task=0):
            with worker.span("build"):
                pass
            with worker.span("self-join-traversal"):
                pass
        return worker.export()

    def test_adopt_reparents_roots_to_current_span(self):
        shipped = self._worker_export()
        parent = Tracer()
        with parent.span("dispatch") as dispatch:
            parent.adopt(shipped)
        spans = {s["name"]: s for s in parent.export()}
        assert spans["stripe-task"]["parent_id"] == dispatch.span_id
        # the worker-side hierarchy below the root is preserved
        assert spans["build"]["parent_id"] == spans["stripe-task"]["span_id"]
        assert (
            spans["self-join-traversal"]["parent_id"]
            == spans["stripe-task"]["span_id"]
        )

    def test_adopt_explicit_parent_and_empty(self):
        parent = Tracer()
        parent.adopt([])  # harmless
        with parent.span("root") as root:
            pass
        parent.adopt(self._worker_export(), parent_id=root.span_id)
        spans = {s["name"]: s for s in parent.export()}
        assert spans["stripe-task"]["parent_id"] == root.span_id


class TestAmbientTracer:
    def test_default_is_disabled(self):
        assert not trace.is_enabled()
        assert trace.current_span_id() is None

    def test_activate_and_restore(self):
        tracer = Tracer()
        with trace.activate(tracer):
            assert trace.is_enabled()
            with trace.span("inside"):
                assert trace.current_span_id() is not None
        assert not trace.is_enabled()
        assert len(tracer) == 1

    def test_activate_none_disables_nested(self):
        tracer = Tracer()
        with trace.activate(tracer):
            with trace.activate(None):
                assert not trace.is_enabled()
                with trace.span("dropped"):
                    pass
            assert trace.is_enabled()
        assert len(tracer) == 0

    def test_null_span_still_measures_duration(self):
        with NullTracer().span("timed") as sp:
            time.sleep(0.005)
        assert sp.duration >= 0.005

    def test_module_functions_are_noops_when_disabled(self):
        trace.add_event("nothing")
        trace.set_attribute("k", "v")
        trace.record_span("nothing", 0.0, 1.0)
        with trace.span("nothing", attr=1) as sp:
            sp.add_event("inner")
            sp.set_attribute("k", "v")
        assert sp.attributes == {}

    def test_disabled_path_overhead_smoke(self):
        # The disabled path must stay within the same order of magnitude
        # as the bare perf_counter arithmetic it replaces.  Loose bound:
        # timing in CI is noisy, the guard is against accidental
        # collection on the null path, not micro-regressions.
        iterations = 20_000
        started = time.perf_counter()
        for _ in range(iterations):
            with trace.span("hot"):
                pass
        per_span = (time.perf_counter() - started) / iterations
        assert per_span < 50e-6, f"null span costs {per_span * 1e6:.1f}us"


class TestExports:
    def _sample_spans(self):
        tracer = Tracer()
        with tracer.span("root", points=10):
            with tracer.span("child") as child:
                child.add_event("tick", n=1)
        return tracer.export()

    def test_jsonl_round_trip_preserves_schema(self, tmp_path):
        spans = self._sample_spans()
        path = str(tmp_path / "trace.jsonl")
        assert write_jsonl(spans, path) == len(spans)
        loaded = load_jsonl(path)
        assert loaded == json.loads(json.dumps(spans))
        for span in loaded:
            assert set(span) == set(SPAN_SCHEMA_KEYS)

    def test_chrome_trace_shape(self):
        spans = self._sample_spans()
        doc = to_chrome_trace(spans)
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert len(complete) == len(spans)
        assert len(instants) == 1  # the "tick" event
        by_name = {e["name"]: e for e in complete}
        root, child = by_name["root"], by_name["child"]
        # microseconds on the shared clock; child nested inside root
        assert root["ts"] <= child["ts"]
        assert child["ts"] + child["dur"] <= root["ts"] + root["dur"] + 1.0
        assert root["args"]["points"] == 10
        assert child["args"]["parent_id"] == root["args"]["span_id"]

    def test_chrome_trace_file_is_valid_json(self, tmp_path):
        spans = self._sample_spans()
        path = str(tmp_path / "trace.json")
        events = write_chrome_trace(spans, path)
        with open(path) as handle:
            doc = json.load(handle)
        assert len(doc["traceEvents"]) == events
        assert doc["displayTimeUnit"] == "ms"

    def test_format_tree_nesting_and_events(self):
        spans = self._sample_spans()
        rendered = format_tree(spans)
        lines = rendered.splitlines()
        assert lines[0].startswith("root")
        assert "points=10" in lines[0]
        assert any("└─ child" in line for line in lines)
        assert any("* tick" in line for line in lines)

    def test_format_tree_orphans_become_roots(self):
        spans = self._sample_spans()
        # Drop the root: the child's parent is now absent (the shape a
        # crashed parent process would leave) — it must still render.
        orphans = [s for s in spans if s["name"] == "child"]
        rendered = format_tree(orphans)
        assert rendered.splitlines()[0].startswith("child")


class TestMetrics:
    def test_counter(self):
        counter = Counter("n")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge(self):
        gauge = Gauge("g")
        gauge.set(3.5)
        assert gauge.value == 3.5

    def test_histogram_percentiles(self):
        hist = Histogram("h")
        for v in range(1, 101):
            hist.observe(float(v))
        assert hist.percentile(50) == 50.0
        assert hist.percentile(100) == 100.0
        snapshot = hist.as_dict()
        assert snapshot["count"] == 100
        assert snapshot["min"] == 1.0
        assert snapshot["max"] == 100.0

    def test_registry_reuses_and_type_checks(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_registry_as_dict(self):
        registry = MetricsRegistry()
        registry.counter("reads").inc(2)
        registry.gauge("depth").set(7)
        registry.histogram("latency").observe(0.5)
        snapshot = registry.as_dict()
        assert snapshot["reads"] == {"type": "counter", "value": 2}
        assert snapshot["depth"] == {"type": "gauge", "value": 7}
        assert snapshot["latency"]["count"] == 1

    def test_ingest_stats_is_generic_over_fields(self):
        stats = JoinStats(
            distance_computations=10,
            pairs_emitted=3,
            degraded_to_serial=True,
            worker_seconds=[0.1, 0.2],
            planned_strategy="serial",
        )
        registry = MetricsRegistry()
        registry.ingest_stats(stats)
        snapshot = registry.as_dict()
        assert snapshot["join.distance_computations"]["value"] == 10
        assert snapshot["join.pairs_emitted"]["value"] == 3
        assert snapshot["join.degraded_to_serial"] == {
            "type": "gauge",
            "value": 1.0,
        }
        assert snapshot["join.worker_seconds"]["count"] == 2
        # string fields surface as a <field>.<value> marker gauge
        assert snapshot["join.planned_strategy.serial"] == {
            "type": "gauge",
            "value": 1.0,
        }
        # every JoinStats field landed under the prefix
        # (cascade_survivors expands to per-stage keys; empty here)
        for name, spec in JoinStats.__dataclass_fields__.items():
            if name == "cascade_survivors":
                continue
            # empty string fields (planned_strategy)
            # surface only as non-empty <field>.<value> marker gauges
            if spec.type in ("str", str):
                continue
            assert f"join.{name}" in snapshot

    def test_ingest_stats_expands_cascade_stages(self):
        stats = JoinStats(cascade_candidates=9, cascade_survivors=[4, 1])
        registry = MetricsRegistry()
        registry.ingest_stats(stats)
        snapshot = registry.as_dict()
        assert snapshot["join.cascade_candidates"]["value"] == 9
        assert snapshot["join.cascade_survivors_stage1"]["value"] == 4
        assert snapshot["join.cascade_survivors_stage2"]["value"] == 1


class TestProfilingHooks:
    def test_read_rss_reports_positive(self):
        assert read_rss_bytes() > 0

    def test_memory_sampler_attaches_to_span(self):
        tracer = Tracer()
        with trace.activate(tracer):
            with trace.span("phase") as sp:
                with MemorySampler(interval=0.01):
                    time.sleep(0.03)
        assert sp.attributes["rss_peak_bytes"] > 0
        assert sp.attributes["rss_samples"] >= 2

    def test_memory_sampler_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            MemorySampler(interval=0.0)

    def test_profiled_span_disabled_is_plain_span(self):
        tracer = Tracer()
        with trace.activate(tracer):
            with profiled_span("plain"):
                pass
        exported = tracer.export()[0]
        assert "profile" not in exported["attributes"]

    def test_profiled_span_attaches_profile(self):
        tracer = Tracer()
        with trace.activate(tracer):
            with profiled_span("hot", profile=True):
                sum(i * i for i in range(10_000))
        exported = tracer.export()[0]
        assert "cumulative" in exported["attributes"]["profile"]
