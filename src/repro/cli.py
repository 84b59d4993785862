"""Command-line interface: ``python -m repro`` / ``repro-join``.

Eight subcommands:

* ``join`` (the default when flags are given directly) — run one
  similarity join on a generated workload or a ``.npy``/``.csv`` file
  and print the result statistics.  The execution strategy is chosen
  by the cost-based planner unless ``--engine`` forces one;
  ``--explain`` prints the plan table and exits without running.
* ``calibrate`` — measure this host's per-unit cost constants (the
  planner's inputs) and cache them as JSON (see docs/planner.md).
* ``join-stream`` — feed a JSONL update stream (insert/delete batches)
  through an incremental join session and report the emitted deltas
  per batch (see docs/streaming.md).  With ``--persist DIR`` the
  session is crash-consistent: every batch is journaled to a
  write-ahead log and checksummed snapshots are published at
  compactions, so an interrupted run resumes where it left off.
* ``join-open`` — recover a persisted session directory (replaying the
  WAL over the newest valid snapshot) and print its surviving pairs
  and recovery statistics (see docs/persistence.md).
* ``serve`` — run the asyncio TCP serving front-end: multi-tenant
  incremental-join sessions, query coalescing and sketch-based
  admission control (see docs/serving.md).
* ``query`` — a scripted client for a running server: attach a tenant,
  insert points, run range queries and print the answers.
* ``compare`` — run *every* implemented algorithm on the same workload
  and print the comparison table, a one-command version of the paper's
  head-to-head experiments.
* ``search`` — build an epsilon-kdB tree once and answer range queries
  against it (similarity search).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import ExitStack
from typing import Optional, Sequence

import numpy as np

from repro import (
    ALGORITHMS,
    FlatEpsilonKdbTree,
    IncrementalJoin,
    JoinSpec,
    PairCounter,
    similarity_join,
    subtract_pairs,
)
from repro import _SELF_JOIN_ALGORITHMS as SELF_JOIN_REGISTRY
from repro.analysis import Table, format_seconds, format_si
from repro.core.incremental import normalize_update
from repro.core.result import JoinStats
from repro.errors import CorruptSnapshotError, InvalidParameterError
from repro.storage.wal import SYNC_MODES
from repro.datasets import (
    color_histograms,
    gaussian_clusters,
    load_points,
    save_pairs,
    timeseries_features,
    uniform_points,
)
from repro.obs import (
    Tracer,
    format_tree,
    profiled_span,
    trace,
    write_chrome_trace,
    write_jsonl,
)

_GENERATORS = {
    "uniform": lambda n, dims, seed: uniform_points(n, dims, seed=seed),
    "clusters": lambda n, dims, seed: gaussian_clusters(n, dims, seed=seed),
    "timeseries": lambda n, dims, seed: timeseries_features(
        n, coefficients=max(1, dims // 2), seed=seed
    ),
    "images": lambda n, dims, seed: color_histograms(n, bins=dims, seed=seed),
}


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--epsilon", type=float, required=True, help="join threshold"
    )
    parser.add_argument(
        "--metric", default="l2", help="l1, l2, linf or a Minkowski order"
    )
    parser.add_argument(
        "--dataset",
        choices=sorted(_GENERATORS),
        default="clusters",
        help="generated workload family (default: clusters)",
    )
    parser.add_argument(
        "--input",
        help="instead of generating, load points from a .npy or .csv file",
    )
    parser.add_argument("--points", type=int, default=10_000, help="point count")
    parser.add_argument("--dims", type=int, default=16, help="dimensionality")
    parser.add_argument("--seed", type=int, default=0, help="generator seed")
    parser.add_argument(
        "--leaf-size", type=int, default=128, help="epsilon-kdB leaf threshold"
    )
    parser.add_argument(
        "--cascade",
        choices=["auto", "on", "off"],
        default="auto",
        help="filter-cascade distance kernels: auto (on for d >= 8, "
        "default), on, or off; never changes the result, only the work",
    )
    parser.add_argument(
        "--filter-dims",
        type=int,
        help="single-dimension pre-filter stages the cascade runs before "
        "the blocked reduction (default: scale with dimensionality)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-join",
        description="High-dimensional similarity joins (epsilon-kdB tree "
        "reproduction).",
    )
    subparsers = parser.add_subparsers(dest="command")

    join = subparsers.add_parser(
        "join", help="run one similarity join and print its statistics"
    )
    _add_common_arguments(join)
    join.add_argument(
        "--algorithm",
        choices=sorted(ALGORITHMS),
        default="epsilon-kdb",
        help="join algorithm (default: epsilon-kdb)",
    )
    join.add_argument(
        "--workers",
        type=int,
        help="run the stripe-parallel epsilon-kdB executor with this many "
        "worker processes (only valid with --algorithm epsilon-kdb; "
        "1 means the serial path)",
    )
    join.add_argument(
        "--engine",
        choices=["auto", "serial", "parallel", "external"],
        default="auto",
        help="execution strategy for --algorithm epsilon-kdb: auto "
        "(default; the cost-based planner picks) or a forced strategy; "
        "every strategy emits byte-identical pairs",
    )
    join.add_argument(
        "--explain",
        action="store_true",
        help="print the planner's per-strategy cost table for this "
        "workload and exit without executing the join",
    )
    join.add_argument(
        "--task-timeout",
        type=float,
        help="per-stripe-task deadline in seconds for the parallel "
        "executor; timed-out attempts are retried (default: no deadline)",
    )
    join.add_argument(
        "--max-task-retries",
        type=int,
        help="pool re-dispatch budget per stripe task before the final "
        "in-parent attempt (default: 2)",
    )
    join.add_argument(
        "--output",
        help="write the resulting (m, 2) pair array to this .npy file",
    )
    join.add_argument(
        "--trace",
        metavar="PATH",
        help="record a structured trace of the run and write it to PATH "
        "(format chosen by --trace-format)",
    )
    join.add_argument(
        "--trace-format",
        choices=["jsonl", "chrome"],
        default="jsonl",
        help="trace file format: jsonl (one span per line) or chrome "
        "(trace_event JSON; open in about:tracing or Perfetto)",
    )
    join.add_argument(
        "--trace-summary",
        action="store_true",
        help="print the phase-breakdown tree of the traced run",
    )
    join.add_argument(
        "--stats-json",
        metavar="PATH",
        help="dump the final JoinStats (every counter, including the "
        "resilience fields) as JSON to PATH",
    )
    join.add_argument(
        "--profile",
        action="store_true",
        help="run the join under cProfile; the top functions attach to "
        "the trace (visible with --trace / --trace-summary)",
    )
    join.add_argument(
        "--sample-memory",
        action="store_true",
        help="sample RSS during the join; the peak attaches to the trace",
    )

    stream = subparsers.add_parser(
        "join-stream",
        help="run an incremental join session over a JSONL update stream",
    )
    _add_common_arguments(stream)
    stream.add_argument(
        "--updates",
        required=True,
        metavar="PATH",
        help="JSONL update stream, one batch per line: "
        '{"op": "insert", "points": [[...], ...]} or '
        '{"op": "delete", "ids": [...]}; "-" reads stdin',
    )
    stream.add_argument(
        "--no-initial",
        action="store_true",
        help="start from an empty session instead of seeding it with the "
        "generated/loaded workload (ids then start at 0 with the first "
        "inserted batch)",
    )
    stream.add_argument(
        "--delta-threshold",
        type=int,
        help="delta-buffer size that triggers automatic compaction "
        "(default: scale with the base size)",
    )
    stream.add_argument(
        "--workers",
        type=int,
        help="route the batch-vs-base probes through the stripe-parallel "
        "executor with this many workers (results are identical)",
    )
    stream.add_argument(
        "--output",
        help="write the surviving (m, 2) id-pair array to this .npy file",
    )
    stream.add_argument(
        "--stats-json",
        metavar="PATH",
        help="dump the session's cumulative JoinStats as JSON to PATH",
    )
    stream.add_argument(
        "--trace",
        metavar="PATH",
        help="record a structured trace of the session (delta-join, "
        "compact and estimate spans) and write it to PATH",
    )
    stream.add_argument(
        "--trace-format",
        choices=["jsonl", "chrome"],
        default="jsonl",
        help="trace file format: jsonl (one span per line) or chrome "
        "(trace_event JSON)",
    )
    stream.add_argument(
        "--trace-summary",
        action="store_true",
        help="print the phase-breakdown tree of the traced session",
    )
    stream.add_argument(
        "--persist",
        metavar="DIR",
        help="make the session crash-consistent: journal every batch to "
        "a write-ahead log in DIR and publish checksummed snapshots at "
        "compactions; an existing session directory is resumed (the "
        "seed workload is then skipped)",
    )
    stream.add_argument(
        "--sync-mode",
        choices=list(SYNC_MODES),
        default=None,
        help="WAL durability policy with --persist: always (fsync per "
        "batch), batch (default; fsync at snapshot boundaries), or off",
    )
    stream.add_argument(
        "--keep-generations",
        type=int,
        default=None,
        help="snapshot generations retained on disk with --persist "
        "(default: 2; older generations are pruned at each compaction)",
    )

    opened = subparsers.add_parser(
        "join-open",
        help="recover a persisted session directory and print its "
        "surviving pairs and recovery statistics",
    )
    opened.add_argument(
        "path", help="session directory previously written with --persist"
    )
    opened.add_argument(
        "--sync-mode",
        choices=list(SYNC_MODES),
        default=None,
        help="WAL durability policy for the reopened session "
        "(default: the persisted spec's policy)",
    )
    opened.add_argument(
        "--keep-generations",
        type=int,
        default=None,
        help="snapshot generations the reopened session retains "
        "(default: 2)",
    )
    opened.add_argument(
        "--output",
        help="write the surviving (m, 2) id-pair array to this .npy file",
    )
    opened.add_argument(
        "--stats-json",
        metavar="PATH",
        help="dump the recovered session's JoinStats as JSON to PATH",
    )
    opened.add_argument(
        "--trace",
        metavar="PATH",
        help="record a structured trace of the recovery and the join "
        "(recover, wal-append and traversal spans) and write it to PATH",
    )
    opened.add_argument(
        "--trace-format",
        choices=["jsonl", "chrome"],
        default="jsonl",
        help="trace file format: jsonl (one span per line) or chrome "
        "(trace_event JSON)",
    )
    opened.add_argument(
        "--trace-summary",
        action="store_true",
        help="print the phase-breakdown tree of the traced recovery",
    )

    serve = subparsers.add_parser(
        "serve",
        help="run the async TCP serving front-end for incremental join "
        "sessions (see docs/serving.md)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (default: 0, pick a free one; the chosen port is "
        "printed on startup)",
    )
    serve.add_argument(
        "--max-predicted-pairs",
        type=float,
        default=None,
        help="shed any request whose sketch-predicted output exceeds "
        "this many pairs (default: no size budget)",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=8,
        help="requests executing concurrently; more wait in the "
        "admission queue (default: 8)",
    )
    serve.add_argument(
        "--max-pending",
        type=int,
        default=64,
        help="admission queue length beyond which requests are shed "
        "(default: 64)",
    )
    serve.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="default per-request deadline; requests missing it get a "
        "'deadline' error (default: none; clients may set deadline_ms "
        "per request)",
    )
    serve.add_argument(
        "--metrics-json",
        metavar="PATH",
        help="dump the serving metrics registry as JSON to PATH on "
        "shutdown",
    )
    serve.add_argument(
        "--trace",
        metavar="PATH",
        help="record a structured trace of every served request and "
        "write it to PATH on shutdown",
    )
    serve.add_argument(
        "--trace-format",
        choices=["jsonl", "chrome"],
        default="jsonl",
        help="trace file format: jsonl (one span per line) or chrome "
        "(trace_event JSON)",
    )

    query = subparsers.add_parser(
        "query",
        help="scripted client for a running serve instance: attach, "
        "insert, range-query, print answers",
    )
    query.add_argument("--host", default="127.0.0.1", help="server address")
    query.add_argument(
        "--port",
        type=int,
        default=None,
        help="server port (required unless --explain runs offline "
        "against --path)",
    )
    query.add_argument(
        "--tenant", required=True, help="tenant session name to attach"
    )
    query.add_argument(
        "--epsilon",
        type=float,
        default=None,
        help="join threshold when the attach creates the tenant "
        "(in-memory, or a fresh --path directory)",
    )
    query.add_argument(
        "--metric", default=None, help="metric when the attach creates the tenant"
    )
    query.add_argument(
        "--path",
        default=None,
        help="attach the tenant from this persisted session directory "
        "on the server's filesystem",
    )
    query.add_argument(
        "--keep-generations",
        type=int,
        default=None,
        help="snapshot generations the attached persisted session keeps",
    )
    query.add_argument(
        "--insert",
        metavar="PATH",
        help="insert points from a .npy or .csv file after attaching",
    )
    query.add_argument(
        "--range",
        action="append",
        default=[],
        metavar="COORDS",
        help="range query as comma-separated coordinates (repeatable); "
        "all queries are sent concurrently, so the server may coalesce "
        "them into one batched traversal",
    )
    query.add_argument(
        "--eps",
        type=float,
        default=None,
        help="query radius for --range (default: the tenant's epsilon)",
    )
    query.add_argument(
        "--pairs",
        action="store_true",
        help="print the tenant's current self-join pair count",
    )
    query.add_argument(
        "--stats",
        action="store_true",
        help="print the server and tenant statistics JSON",
    )
    query.add_argument(
        "--shutdown",
        action="store_true",
        help="ask the server to shut down gracefully after the other "
        "operations",
    )
    query.add_argument(
        "--explain",
        action="store_true",
        help="with --path: print whether an attach of the persisted "
        "directory would serve from the memmapped snapshot view or "
        "recover the full session, and why, then exit without "
        "connecting to any server",
    )

    calibrate = subparsers.add_parser(
        "calibrate",
        help="measure this host's per-unit cost constants and cache "
        "them for the execution planner",
    )
    calibrate.add_argument(
        "--force",
        action="store_true",
        help="re-measure even when a valid profile for this host is "
        "already cached",
    )
    calibrate.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="profile file to write (default: $REPRO_COST_PROFILE, "
        "else ~/.cache/repro/cost_profile.json)",
    )

    compare = subparsers.add_parser(
        "compare", help="run every algorithm on the same workload"
    )
    _add_common_arguments(compare)
    compare.add_argument(
        "--skip",
        action="append",
        default=[],
        choices=sorted(ALGORITHMS),
        help="algorithms to leave out (repeatable); e.g. --skip brute-force",
    )

    search = subparsers.add_parser(
        "search", help="build an epsilon-kdB tree and run range queries"
    )
    _add_common_arguments(search)
    search.add_argument(
        "--queries",
        type=int,
        default=10,
        help="number of random query points drawn from the data "
        "(default: 10)",
    )
    search.add_argument(
        "--query",
        action="append",
        default=[],
        help="explicit query point as comma-separated coordinates "
        "(repeatable; overrides --queries)",
    )
    return parser


def _load_points(args: argparse.Namespace) -> np.ndarray:
    if args.input:
        return load_points(args.input)
    generator = _GENERATORS[args.dataset]
    return generator(args.points, args.dims, args.seed)


#: Stat lines whose wording predates the generic renderer; any field not
#: listed renders as its name with underscores spaced, so new JoinStats
#: counters show up without touching this module.
_STAT_LABELS = {
    "pairs_emitted": "pairs",
    "distance_computations": "distance computations",
    "node_pairs_visited": "node pairs visited",
    "duplicate_pairs_merged": "boundary dups merged",
    "workers_used": "worker processes",
    "build_nodes": "tree nodes built",
    "build_sort_seconds": "build sort time",
    "updates_applied": "update batches applied",
    "delta_size": "delta buffer size",
    "pairs_retracted": "pairs retracted",
    "estimated_join_size": "estimated join size",
    "kernel_blocks": "kernel tiles",
    "kernel_tile_rows": "kernel tile rows",
    "kernel_seconds": "kernel time",
    "planned_strategy": "planned strategy",
    "predicted_cost": "predicted cost",
    "plan_seconds": "planning time",
}

#: Fields printed even when zero (the headline numbers of every join).
_ALWAYS_SHOWN = {"pairs_emitted", "distance_computations", "node_pairs_visited"}


def _render_stat(name: str, value) -> str:
    if name == "degraded_to_serial":
        return "yes (pool unusable; results exact)"
    if name == "estimated_join_size":
        # A pair-count estimate, not a duration like the other floats.
        return format_si(int(round(value)))
    if name == "workers_used":
        return str(value) if value else "serial path"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, list):
        total = sum(value)
        return f"{len(value)} tasks, {format_seconds(total)} total"
    if isinstance(value, int):
        return format_si(value)
    if isinstance(value, float):
        return format_seconds(value)
    return str(value)


def _print_stats(stats: JoinStats) -> None:
    """Render every populated JoinStats field, one aligned line each."""
    data = stats.as_dict()
    lines = []
    for name, value in data.items():
        if name not in _ALWAYS_SHOWN and not value:
            if name != "workers_used" or not data.get("stripes"):
                continue
        label = _STAT_LABELS.get(name, name.replace("_", " "))
        lines.append((label, _render_stat(name, value)))
    width = max(len(label) for label, _ in lines) + 1
    for label, rendered in lines:
        print(f"{label + ':':<{width}} {rendered}")


def _run_join(args: argparse.Namespace) -> int:
    points = _load_points(args)
    spec = JoinSpec(
        epsilon=args.epsilon,
        metric=args.metric,
        leaf_size=args.leaf_size,
        cascade=args.cascade,
        filter_dims=args.filter_dims,
    )
    workers = getattr(args, "workers", None)
    engine = getattr(args, "engine", "auto")
    if getattr(args, "explain", False):
        if args.algorithm != "epsilon-kdb":
            raise InvalidParameterError(
                "--explain plans the epsilon-kdb strategies; "
                f"--algorithm {args.algorithm} has nothing to plan"
            )
        if engine == "external":
            print("chosen: external (forced; the external driver is unplanned)")
            return 0
        from repro import plan_execution

        plan = plan_execution(
            spec,
            len(points),
            int(points.shape[1]),
            n_workers=workers,
            forced=(
                engine if engine != "auto"
                else "parallel" if workers is not None else None
            ),
        )
        plan.format_table().print()
        print(
            f"chosen: {plan.chosen}"
            + (" (forced)" if plan.forced else " (planned)")
        )
        return 0
    print(
        f"joining {len(points)} points, d={points.shape[1]}, "
        f"eps={spec.epsilon}, metric={spec.metric.name}, "
        f"algorithm={args.algorithm}"
        + (f", workers={workers}" if workers else "")
        + (f", engine={engine}" if engine != "auto" else "")
    )
    tracing = bool(
        args.trace or args.trace_summary or args.profile or args.sample_memory
    )
    tracer = Tracer() if tracing else None
    started = time.perf_counter()
    with ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(trace.activate(tracer))
        with profiled_span(
            "cli-join",
            profile=args.profile,
            sample_memory=args.sample_memory,
            algorithm=args.algorithm,
            epsilon=args.epsilon,
            points=len(points),
            dims=int(points.shape[1]),
        ):
            result = similarity_join(
                points,
                epsilon=args.epsilon,
                metric=args.metric,
                algorithm=args.algorithm,
                leaf_size=args.leaf_size,
                n_workers=workers,
                task_timeout=getattr(args, "task_timeout", None),
                max_task_retries=getattr(args, "max_task_retries", None),
                cascade=args.cascade,
                filter_dims=args.filter_dims,
                engine=engine,
                return_result=True,
            )
    elapsed = time.perf_counter() - started
    _print_stats(result.stats)
    print(f"wall clock: {format_seconds(elapsed)}")
    if args.output:
        save_pairs(args.output, result.pairs)
        print(f"wrote pairs to {args.output}")
    if args.stats_json:
        payload = result.stats.as_dict()
        if result.plan is not None:
            payload["plan"] = result.plan.as_dict()
        with open(args.stats_json, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote stats to {args.stats_json}")
    if tracer is not None:
        spans = tracer.export()
        if args.trace:
            if args.trace_format == "chrome":
                write_chrome_trace(spans, args.trace)
            else:
                write_jsonl(spans, args.trace)
            print(
                f"wrote {len(spans)} trace spans to {args.trace} "
                f"({args.trace_format})"
            )
        if args.trace_summary:
            print()
            print(format_tree(spans))
    return 0


def _iter_update_lines(path: str):
    """Yield parsed JSONL updates from a file path or stdin (``-``)."""
    handle = sys.stdin if path == "-" else open(path)
    try:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise InvalidParameterError(
                    f"{path}:{lineno}: invalid JSON: {exc}"
                ) from exc
            yield lineno, row
    finally:
        if handle is not sys.stdin:
            handle.close()


def _emit_trace(tracer: Optional[Tracer], args: argparse.Namespace) -> None:
    if tracer is None:
        return
    spans = tracer.export()
    if args.trace:
        if args.trace_format == "chrome":
            write_chrome_trace(spans, args.trace)
        else:
            write_jsonl(spans, args.trace)
        print(
            f"wrote {len(spans)} trace spans to {args.trace} "
            f"({args.trace_format})"
        )
    if args.trace_summary:
        print()
        print(format_tree(spans))


def _run_join_stream(args: argparse.Namespace) -> int:
    spec = JoinSpec(
        epsilon=args.epsilon,
        metric=args.metric,
        leaf_size=args.leaf_size,
        cascade=args.cascade,
        filter_dims=args.filter_dims,
        delta_threshold=args.delta_threshold,
    )
    workers = args.workers
    engine = "parallel" if workers and workers > 1 else "serial"
    if args.persist:
        session = IncrementalJoin.open(
            args.persist,
            spec=spec,
            sync_mode=args.sync_mode,
            engine=engine,
            n_workers=workers,
            keep_generations=args.keep_generations,
        )
    else:
        session = IncrementalJoin(spec, engine=engine, n_workers=workers)
    resumed = session.last_update_seq > 0 or session.n_live > 0
    if resumed:
        print(
            f"resumed session at {args.persist}: {session.n_live} live "
            f"points, seq {session.last_update_seq}, "
            f"{session.stats.wal_records_replayed} WAL records replayed"
        )
    tracing = bool(args.trace or args.trace_summary)
    tracer = Tracer() if tracing else None
    added = []
    retracted = []

    def apply(label: str, op: str, payload) -> None:
        if op == "insert":
            delta = session.insert(np.asarray(payload, dtype=np.float64))
            if len(delta.added):
                added.append(delta.added)
            ids = (
                f"(ids {delta.ids[0]}..{delta.ids[-1]}) " if len(delta.ids) else ""
            )
            print(
                f"[{label}] insert {len(delta.ids)} points {ids}"
                f"+{len(delta.added)} pairs, delta {session.delta_size}, "
                f"est {format_si(int(round(session.estimated_join_size)))}"
            )
        else:
            delta = session.delete(payload)
            if len(delta.retracted):
                retracted.append(delta.retracted)
            print(
                f"[{label}] delete {len(delta.ids)} ids: "
                f"-{len(delta.retracted)} pairs, "
                f"est {format_si(int(round(session.estimated_join_size)))}"
            )

    started = time.perf_counter()
    with ExitStack() as stack:
        stack.callback(session.close)
        if tracer is not None:
            stack.enter_context(trace.activate(tracer))
        if not args.no_initial and not resumed:
            points = _load_points(args)
            print(
                f"seeding session with {len(points)} points, "
                f"d={points.shape[1]}, eps={spec.epsilon}, "
                f"metric={spec.metric.name}"
            )
            apply("seed", "insert", points)
        try:
            for lineno, row in _iter_update_lines(args.updates):
                try:
                    op, payload = normalize_update(row)
                    apply(str(lineno), op, payload)
                except InvalidParameterError as exc:
                    # One line — file, line, reason — not a traceback;
                    # everything applied so far stays applied (and, with
                    # --persist, journaled).
                    print(
                        f"error: {args.updates}:{lineno}: {exc}",
                        file=sys.stderr,
                    )
                    return 2
        except InvalidParameterError as exc:
            # Malformed JSON: the message already carries path:line.
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.persist:
            # The durable ground truth, correct also for resumed runs
            # where earlier batches predate this process's ledger.
            pairs = session.current_pairs()
        else:
            empty = np.empty((0, 2), dtype=np.int64)
            pairs = subtract_pairs(
                np.concatenate(added) if added else empty,
                np.concatenate(retracted) if retracted else empty,
            )
    elapsed = time.perf_counter() - started
    print(
        f"{session.stats.updates_applied} batches: {len(pairs)} surviving "
        f"pairs over {session.n_live} live points"
    )
    _print_stats(session.stats)
    print(f"wall clock: {format_seconds(elapsed)}")
    if args.output:
        save_pairs(args.output, pairs)
        print(f"wrote pairs to {args.output}")
    if args.stats_json:
        with open(args.stats_json, "w") as handle:
            json.dump(session.stats.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote stats to {args.stats_json}")
    _emit_trace(tracer, args)
    return 0


def _run_join_open(args: argparse.Namespace) -> int:
    tracing = bool(args.trace or args.trace_summary)
    tracer = Tracer() if tracing else None
    started = time.perf_counter()
    with ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(trace.activate(tracer))
        try:
            session = IncrementalJoin.open(
                args.path,
                sync_mode=args.sync_mode,
                keep_generations=args.keep_generations,
            )
        except (CorruptSnapshotError, InvalidParameterError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        stack.callback(session.close)
        stats = session.stats
        print(
            f"recovered session at {args.path}: {session.n_live} live "
            f"points (d={session.dims}), seq {session.last_update_seq}, "
            f"{stats.wal_records_replayed} WAL records replayed, "
            f"{stats.corrupt_frames_discarded} corrupt frames discarded"
        )
        pairs = session.current_pairs()
    elapsed = time.perf_counter() - started
    print(f"{len(pairs)} surviving pairs over {session.n_live} live points")
    _print_stats(stats)
    print(f"wall clock: {format_seconds(elapsed)}")
    if args.output:
        save_pairs(args.output, pairs)
        print(f"wrote pairs to {args.output}")
    if args.stats_json:
        with open(args.stats_json, "w") as handle:
            json.dump(stats.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote stats to {args.stats_json}")
    _emit_trace(tracer, args)
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import JoinServer

    tracer = Tracer() if args.trace else None

    async def run() -> None:
        server = JoinServer(
            args.host,
            args.port,
            max_predicted_pairs=args.max_predicted_pairs,
            max_inflight=args.max_inflight,
            max_pending=args.max_pending,
            default_deadline=args.deadline,
        )
        await server.start()
        print(
            f"serving on {args.host}:{server.port} "
            f"(coalescing per loop turn, "
            f"size budget {args.max_predicted_pairs or 'none'})",
            flush=True,
        )
        try:
            await server.serve_until_shutdown()
        finally:
            await server.stop()
            if args.metrics_json:
                with open(args.metrics_json, "w") as handle:
                    json.dump(
                        server.metrics.as_dict(), handle, indent=2, sort_keys=True
                    )
                    handle.write("\n")
                print(f"wrote metrics to {args.metrics_json}")

    with ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(trace.activate(tracer))
        try:
            asyncio.run(run())
        except KeyboardInterrupt:
            print("interrupted; sessions closed")
    if tracer is not None:
        spans = tracer.export()
        if args.trace_format == "chrome":
            write_chrome_trace(spans, args.trace)
        else:
            write_jsonl(spans, args.trace)
        print(f"wrote {len(spans)} trace spans to {args.trace}")
    return 0


def _explain_attach(path: str) -> int:
    """Offline ``query --explain``: say how a serve attach would open a dir.

    Opens the newest snapshot as a read-only memmapped view (no server,
    no materialization).  A fresh snapshot means the attach serves
    queries straight off it; a stale or damaged one means the attach
    recovers the full session instead, and the reason is printed.
    """
    from repro.errors import StorageError
    from repro.storage import SnapshotView

    try:
        view = SnapshotView.open(path)
    except StorageError as exc:
        print(f"{path}: snapshot view unavailable ({exc})")
        print("attach: recover — the full session is recovered instead")
        return 0
    try:
        print(
            f"{path}: snapshot {view.path} is fresh "
            f"({view.n_live} live points, d={view.dims}, "
            f"seq {view.last_update_seq}, {view.snapshot_bytes} bytes)"
        )
        print(
            "attach: view — queries run off the memmapped snapshot "
            "(zero materialization) until the first mutation"
        )
    finally:
        view.close()
    return 0


def _run_query(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import ServeClient

    if args.explain:
        if not args.path:
            print(
                "error: query --explain plans a persisted attach; "
                "it needs --path",
                file=sys.stderr,
            )
            return 2
        return _explain_attach(args.path)
    if args.port is None:
        print(
            "error: query needs --port (or --explain with --path for "
            "an offline plan)",
            file=sys.stderr,
        )
        return 2

    async def run() -> int:
        client = await ServeClient.connect(args.host, args.port)
        try:
            info = await client.attach(
                args.tenant,
                epsilon=args.epsilon,
                metric=args.metric,
                path=args.path,
                keep_generations=args.keep_generations,
            )
            print(
                f"attached {args.tenant!r}: {info['n_live']} live points, "
                f"eps={info['epsilon']}, "
                f"{'persisted' if info['persisted'] else 'in-memory'}"
            )
            if args.insert:
                points = load_points(args.insert)
                ids = await client.insert(args.tenant, points)
                print(f"inserted {len(ids)} points (ids {ids[0]}..{ids[-1]})")
            if args.range:
                queries = [
                    np.array([float(v) for v in coords.split(",")])
                    for coords in args.range
                ]
                answers = await asyncio.gather(
                    *[
                        client.range_query(args.tenant, q, eps=args.eps)
                        for q in queries
                    ]
                )
                for coords, ids in zip(args.range, answers):
                    preview = ", ".join(str(i) for i in ids[:8])
                    suffix = ", ..." if len(ids) > 8 else ""
                    print(f"range({coords}): {len(ids)} hits [{preview}{suffix}]")
            if args.pairs:
                pairs = await client.pairs(args.tenant)
                print(f"current pairs: {len(pairs)}")
            if args.stats:
                stats = await client.stats(args.tenant)
                stats.pop("id", None)
                stats.pop("ok", None)
                print(json.dumps(stats, indent=2, sort_keys=True))
            if args.shutdown:
                await client.shutdown()
                print("server shutting down")
        finally:
            await client.close()
        return 0

    try:
        return asyncio.run(run())
    except ConnectionRefusedError:
        print(
            f"error: no server listening on {args.host}:{args.port}",
            file=sys.stderr,
        )
        return 2


def _run_calibrate(args: argparse.Namespace) -> int:
    from repro.planner import (
        calibrate_and_save,
        default_profile_path,
        set_active_profile,
    )

    target = args.out or default_profile_path()
    if not args.force:
        print(f"checking cached profile at {target} ...")
    profile, path, ran = calibrate_and_save(path=args.out, force=args.force)
    set_active_profile(profile)
    if ran:
        print(f"calibrated this host; profile written to {path}")
    else:
        print(f"reusing cached profile at {path} (re-measure with --force)")
    table = Table(
        f"cost profile ({profile.source}, host {profile.host or 'n/a'})",
        ["constant", "value"],
    )
    for name, value in profile.as_dict().items():
        if name in ("version", "host", "source"):
            continue
        if name == "calibrated_at":
            value = time.strftime(
                "%Y-%m-%d %H:%M:%S", time.localtime(value)
            ) if value else "never"
        elif isinstance(value, float):
            # The per-unit constants live in the nano/microsecond range;
            # scientific notation keeps them distinguishable.
            value = f"{value:.3e} s"
        table.add_row(name, str(value))
    table.print()
    return 0


def _run_search(args: argparse.Namespace) -> int:
    points = _load_points(args)
    spec = JoinSpec(
        epsilon=args.epsilon,
        metric=args.metric,
        leaf_size=args.leaf_size,
        cascade=args.cascade,
        filter_dims=args.filter_dims,
    )
    started = time.perf_counter()
    tree = FlatEpsilonKdbTree.build(points, spec)
    build_seconds = time.perf_counter() - started
    print(
        f"built epsilon-kdB tree over {len(points)} points "
        f"(d={points.shape[1]}) in {format_seconds(build_seconds)}"
    )
    if args.query:
        queries = np.array(
            [[float(v) for v in q.split(",")] for q in args.query]
        )
    else:
        rng = np.random.default_rng(args.seed)
        queries = points[rng.choice(len(points), size=min(args.queries, len(points)), replace=False)]
    started = time.perf_counter()
    answers = tree.batch_range_query(queries)
    elapsed = time.perf_counter() - started
    for query, hits in zip(queries, answers):
        preview = ", ".join(str(h) for h in hits[:8])
        suffix = ", ..." if len(hits) > 8 else ""
        print(f"query {np.round(query[:4], 3).tolist()}...: "
              f"{len(hits)} hits [{preview}{suffix}]")
    print(
        f"{len(queries)} queries in {format_seconds(elapsed)} "
        f"({format_seconds(elapsed / max(1, len(queries)))} each)"
    )
    return 0


def _run_compare(args: argparse.Namespace) -> int:
    points = _load_points(args)
    spec = JoinSpec(
        epsilon=args.epsilon,
        metric=args.metric,
        leaf_size=args.leaf_size,
        cascade=args.cascade,
        filter_dims=args.filter_dims,
    )
    table = Table(
        f"all algorithms on {len(points)} points, d={points.shape[1]}, "
        f"eps={spec.epsilon}, metric={spec.metric.name}",
        ["algorithm", "time", "pairs", "dist comps", "node pairs"],
    )
    counts = set()
    for name in ALGORITHMS:
        if name in args.skip:
            continue
        sink = PairCounter()
        started = time.perf_counter()
        result = SELF_JOIN_REGISTRY[name](points, spec, sink=sink)
        elapsed = time.perf_counter() - started
        counts.add(sink.count)
        table.add_row(
            name,
            format_seconds(elapsed),
            format_si(sink.count),
            format_si(result.stats.distance_computations),
            format_si(result.stats.node_pairs_visited),
        )
    table.print()
    if len(counts) > 1:
        print("WARNING: algorithms disagree on the pair count!", file=sys.stderr)
        return 1
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Bare flags mean the (historical) join subcommand.
    if argv and argv[0].startswith("-"):
        argv = ["join", *argv]
    args = build_parser().parse_args(argv)
    if args.command == "compare":
        return _run_compare(args)
    if args.command == "search":
        return _run_search(args)
    if args.command == "join":
        return _run_join(args)
    if args.command == "join-stream":
        return _run_join_stream(args)
    if args.command == "join-open":
        return _run_join_open(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "query":
        return _run_query(args)
    if args.command == "calibrate":
        return _run_calibrate(args)
    build_parser().print_help()
    return 2


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
