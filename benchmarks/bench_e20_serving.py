"""E20 — async serving layer: coalescing vs per-request execution.

The serving front-end (:mod:`repro.serve`) answers concurrent range
queries either naively — one tree traversal per request, in arrival
order — or *coalesced*: requests for the same tenant and radius that
are submitted in one event-loop turn share one call to
:meth:`FlatEpsilonKdbTree.batch_range_query`, which amortizes the
descent over the whole batch.  This experiment measures what that buys
under concurrency, over a real TCP loopback with the JSON protocol in
the loop:

* **single client, no coalescing** — the floor: every request pays its
  own traversal and its own round trip, nothing overlaps.
* **N pipelined clients, no coalescing** — the naive concurrent server:
  requests interleave on the event loop but each still traverses alone.
* **N pipelined clients, coalescing on** — queries submitted in one
  loop turn merge into batched traversals (the measured coalesce width
  says how many, typically close to the offered concurrency).

Each configuration reports client-observed p50/p99 latency and
end-to-end throughput, plus the server's shed/queue counters; a final
configuration turns the admission size budget down until every query is
refused, showing the shed path costing microseconds, not traversals.
A sampled byte-identity check against a direct
:class:`~repro.core.incremental.IncrementalJoin` mirror guards the whole
sweep: coalescing must never change an answer.

Usage::

    python benchmarks/bench_e20_serving.py                 # full scale
    python benchmarks/bench_e20_serving.py --scale smoke   # seconds-sized
"""

from __future__ import annotations

import argparse
import asyncio
import os
import time

import numpy as np

from _harness import clustered, scale, write_record
from repro import JoinSpec
from repro.analysis import Table, format_seconds, format_si
from repro.core.incremental import IncrementalJoin
from repro.serve import JoinServer, ServeClient

DIMS = 8
EPSILON = 0.1
N_POINTS = scale(8_000)
N_CLIENTS = 6
QUERIES_PER_CLIENT = scale(150)

SMOKE_N_POINTS = 600
SMOKE_N_CLIENTS = 3
SMOKE_QUERIES_PER_CLIENT = 25


def _queries(points: np.ndarray, per_client: int, clients: int) -> np.ndarray:
    """Query points near the data (so answers are non-trivial), deterministic."""
    rng = np.random.default_rng(99)
    picks = rng.choice(len(points), size=per_client * clients, replace=True)
    return points[picks] + rng.normal(0.0, 0.01, size=(len(picks), points.shape[1]))


async def _drive(
    points: np.ndarray,
    queries: np.ndarray,
    clients: int,
    coalesce: bool,
    max_predicted_pairs=None,
) -> dict:
    """Run one configuration; return its measured row."""
    server = JoinServer(
        coalesce=coalesce,
        max_inflight=64,
        max_pending=1_000_000,
        max_predicted_pairs=max_predicted_pairs,
    )
    await server.start()
    # Setup outside the measured section: load the tenant directly.
    session = server.manager.attach(
        "bench", spec=JoinSpec(epsilon=EPSILON)
    )
    session.insert(points)

    per_client = len(queries) // clients
    latencies: list = []
    answers: dict = {}
    shed = 0

    async def run_client(worker: int) -> None:
        nonlocal shed
        client = await ServeClient.connect("127.0.0.1", server.port)
        lo = worker * per_client
        chunk = queries[lo : lo + per_client]

        async def one(offset: int, query: np.ndarray):
            nonlocal shed
            started = time.perf_counter()
            try:
                ids = await client.range_query("bench", query)
            except Exception:
                shed += 1
                return
            latencies.append(time.perf_counter() - started)
            answers[lo + offset] = ids

        await asyncio.gather(*[one(i, q) for i, q in enumerate(chunk)])
        await client.close()

    started = time.perf_counter()
    await asyncio.gather(*[run_client(w) for w in range(clients)])
    elapsed = time.perf_counter() - started

    width = server.metrics.histogram("serve.coalesce_width")
    row = {
        "clients": clients,
        "coalesce": coalesce,
        "queries": len(queries),
        "answered": len(latencies),
        "shed": shed,
        "wall_seconds": elapsed,
        "throughput_qps": len(queries) / elapsed if elapsed else 0.0,
        "latency_p50": float(np.percentile(latencies, 50)) if latencies else 0.0,
        "latency_p99": float(np.percentile(latencies, 99)) if latencies else 0.0,
        "coalesce_width_mean": (
            width.total / width.count if width.count else 0.0
        ),
        "coalesce_width_max": width.percentile(100) if width.count else 0.0,
        "server_shed": server.metrics.counter("serve.shed").value,
        "server_queued": server.metrics.counter("serve.queued").value,
    }
    # Byte-identity spot check: a sample of answers vs a direct mirror.
    if answers:
        mirror = IncrementalJoin(JoinSpec(epsilon=EPSILON))
        mirror.insert(points)
        sample = sorted(answers)[:: max(1, len(answers) // 25)]
        for index in sample:
            expected = mirror.range_query(queries[index])
            if answers[index].tobytes() != expected.tobytes():
                raise AssertionError(
                    f"served answer for query {index} diverged from the "
                    "direct session"
                )
    await server.stop()
    return row


def sweep(n_points=N_POINTS, n_clients=N_CLIENTS, per_client=QUERIES_PER_CLIENT):
    points = clustered(n_points, DIMS)
    queries = _queries(points, per_client, n_clients)

    async def run_all():
        rows = []
        configs = [
            ("1 client, no coalescing", 1, False, None),
            (f"{n_clients} clients, no coalescing", n_clients, False, None),
            (f"{n_clients} clients, coalescing on", n_clients, True, None),
            (
                f"{n_clients} clients, size budget 0 (all shed)",
                n_clients,
                False,
                0.0,
            ),
        ]
        for label, clients, coalesce, budget in configs:
            row = await _drive(
                points, queries, clients, coalesce, max_predicted_pairs=budget
            )
            row["label"] = label
            rows.append(row)
        return rows

    rows = asyncio.run(run_all())

    record = {
        "experiment": "e20_serving",
        "n_points": n_points,
        "dims": DIMS,
        "epsilon": EPSILON,
        "n_clients": n_clients,
        "queries_per_client": per_client,
        "series": rows,
    }
    table = Table(
        f"E20: serving {per_client * n_clients} range queries over "
        f"{format_si(n_points)} points (d={DIMS}, eps={EPSILON}, TCP loopback)",
        ["configuration", "wall", "qps", "p50", "p99", "width", "shed", "queued"],
    )
    for row in rows:
        table.add_row(
            row["label"],
            format_seconds(row["wall_seconds"]),
            format_si(int(row["throughput_qps"])),
            format_seconds(row["latency_p50"]),
            format_seconds(row["latency_p99"]),
            f"{row['coalesce_width_mean']:.1f}",
            str(row["server_shed"]),
            str(row["server_queued"]),
        )
    return table, record


def _default_out() -> str:
    return os.path.join(os.path.dirname(__file__), "results", "e20_serving.json")


def run_experiment():
    """Entry point for ``run_all.py``: full sweep, JSON recorded."""
    table, record = sweep()
    write_record(record, _default_out())
    return table


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale",
        choices=["smoke", "full"],
        default="full",
        help=f"smoke: {SMOKE_N_CLIENTS} clients x "
        f"{SMOKE_QUERIES_PER_CLIENT} queries over {SMOKE_N_POINTS} points "
        "(for CI)",
    )
    parser.add_argument("--out", help="results JSON path (default: results/)")
    args = parser.parse_args()
    if args.scale == "smoke":
        table, record = sweep(
            SMOKE_N_POINTS, SMOKE_N_CLIENTS, SMOKE_QUERIES_PER_CLIENT
        )
    else:
        table, record = sweep()
    write_record(record, args.out or _default_out())
    table.print()
    naive = record["series"][1]
    coalesced = record["series"][2]
    if coalesced["wall_seconds"]:
        print(
            f"\ncoalescing at {record['n_clients']} clients: "
            f"{naive['wall_seconds'] / coalesced['wall_seconds']:.2f}x "
            f"throughput of per-request execution "
            f"(mean batch width {coalesced['coalesce_width_mean']:.1f})"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
