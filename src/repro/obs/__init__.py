"""Observability: structured tracing, metrics, exporters, profiling.

The measurement substrate under the join stack.  Four pieces:

* :mod:`repro.obs.trace` — nestable spans with monotonic timestamps,
  thread/process-safe collection, and cross-process stitching of worker
  spans onto the parent timeline.  Disabled by default (ambient
  :data:`~repro.obs.trace.NULL_TRACER`) with a near-zero-overhead
  disabled path.
* :mod:`repro.obs.metrics` — a registry of named counters, gauges and
  histograms that ``JoinStats`` (including the resilience counters) and
  ``PageStore`` I/O feed through.
* :mod:`repro.obs.export` — JSONL trace files, Chrome ``trace_event``
  JSON (opens in ``about:tracing`` / Perfetto), and the CLI's
  human-readable phase-breakdown tree.
* :mod:`repro.obs.profile` — opt-in RSS sampling and per-phase
  ``cProfile`` wrappers that attach results to the trace.

Typical use::

    from repro.obs import Tracer, trace, format_tree, write_jsonl

    tracer = Tracer()
    with trace.activate(tracer):
        similarity_join(points, epsilon=0.1, engine="parallel")
    spans = tracer.export()
    print(format_tree(spans))
    write_jsonl(spans, "join.trace.jsonl")
"""

from repro.obs import trace
from repro.obs.export import (
    format_tree,
    load_jsonl,
    to_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.profile import MemorySampler, profiled_span, read_rss_bytes
from repro.obs.trace import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "trace",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Span",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "write_jsonl",
    "load_jsonl",
    "to_chrome_trace",
    "write_chrome_trace",
    "format_tree",
    "MemorySampler",
    "profiled_span",
    "read_rss_bytes",
]
