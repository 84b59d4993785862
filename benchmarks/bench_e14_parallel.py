"""E14 — Stripe-parallel epsilon-kdB join: speedup vs worker count.

The parallel executor groups the root children of one flat tree (the
occupied cells of its first split dimension) into stripes and traverses
each stripe's children in a process pool.  This experiment sweeps the worker count on a
fixed self-join (default: 100k points, d=8) and records wall-clock
speedup over the ``n_workers=1`` serial path, which the executor falls
back to without spawning any processes.

Script mode writes the measured series to a JSON file
(``benchmarks/results/e14_parallel.json`` by default) so the speedup
numbers are recorded alongside the printed table::

    python benchmarks/bench_e14_parallel.py              # full size
    python benchmarks/bench_e14_parallel.py --smoke      # seconds-sized
    python benchmarks/bench_e14_parallel.py --workers 1 2 4 --out sweep.json
"""

from __future__ import annotations

import argparse
import os
import time

import pytest

from _harness import attach_info, clustered, scale, write_record
from repro import JoinSpec, PairCounter, parallel_self_join
from repro.analysis import Table, format_seconds, format_si

N = scale(100_000)
DIMS = 8
EPSILON = 0.05
WORKER_SWEEP = [1, 2, 4, 8]

SMOKE_N = 4000
SMOKE_WORKERS = [1, 2]


def measure(n_workers: int, n: int = N):
    points = clustered(n, DIMS)
    spec = JoinSpec(epsilon=EPSILON, n_workers=n_workers)
    sink = PairCounter()
    started = time.perf_counter()
    result = parallel_self_join(points, spec, sink=sink)
    elapsed = time.perf_counter() - started
    return result, elapsed, sink.count


@pytest.mark.parametrize("n_workers", WORKER_SWEEP)
def test_e14_worker_sweep(benchmark, n_workers):
    benchmark.group = f"E14 parallel join (N={N}, d={DIMS}, eps={EPSILON})"

    def run():
        result, elapsed, pairs = measure(n_workers)
        return {
            "seconds": elapsed,
            "pairs": pairs,
            "distance_computations": result.stats.distance_computations,
            "node_pairs": result.stats.node_pairs_visited,
            "stripes": result.stats.stripes,
            "workers_used": result.stats.workers_used,
            "duplicates_merged": result.stats.duplicate_pairs_merged,
        }

    row = benchmark.pedantic(run, rounds=1, iterations=1)
    attach_info(benchmark, row)
    benchmark.extra_info["stripes"] = row["stripes"]
    benchmark.extra_info["workers_used"] = row["workers_used"]


def sweep(workers=None, n: int = N):
    workers = list(workers or WORKER_SWEEP)
    table = Table(
        f"E14: parallel eps-kdB self-join speedup "
        f"(N={n}, d={DIMS}, eps={EPSILON}, {os.cpu_count()} cores)",
        ["workers", "stripes", "dups merged", "time", "speedup", "pairs"],
    )
    series = []
    baseline = None
    for n_workers in workers:
        result, elapsed, pairs = measure(n_workers, n=n)
        if baseline is None:
            baseline = elapsed
        speedup = baseline / elapsed if elapsed else float("inf")
        series.append(
            {
                "n_workers": n_workers,
                "seconds": elapsed,
                "speedup_vs_serial": speedup,
                "pairs": pairs,
                "stripes": result.stats.stripes,
                "workers_used": result.stats.workers_used,
                "serial_fallback": result.stats.workers_used == 0,
                "duplicate_pairs_merged": result.stats.duplicate_pairs_merged,
                "worker_seconds": result.stats.worker_seconds,
            }
        )
        table.add_row(
            n_workers,
            result.stats.stripes,
            format_si(result.stats.duplicate_pairs_merged),
            format_seconds(elapsed),
            f"{speedup:.2f}x",
            format_si(pairs),
        )
    cpu_count = os.cpu_count() or 1
    oversubscribed = [w for w in workers if w > cpu_count]
    record = {
        "experiment": "e14_parallel",
        "n": n,
        "dims": DIMS,
        "epsilon": EPSILON,
        "cpu_count": cpu_count,
        "series": series,
    }
    if oversubscribed:
        record["warning"] = (
            f"worker counts {oversubscribed} exceed the {cpu_count} "
            "available cores; their speedups measure oversubscription, "
            "not parallel scaling"
        )
    return table, record


def _default_out() -> str:
    return os.path.join(os.path.dirname(__file__), "results", "e14_parallel.json")


def run_experiment():
    """Entry point for ``run_all.py``: full sweep, JSON recorded."""
    table, record = sweep()
    write_record(record, _default_out())
    return table


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"tiny run ({SMOKE_N} points, workers {SMOKE_WORKERS}) for CI",
    )
    parser.add_argument(
        "--workers", type=int, nargs="+", help="worker counts to sweep"
    )
    parser.add_argument(
        "--out",
        default=_default_out(),
        help="JSON output path (default: benchmarks/results/e14_parallel.json)",
    )
    args = parser.parse_args()
    n = SMOKE_N if args.smoke else N
    workers = args.workers or (SMOKE_WORKERS if args.smoke else WORKER_SWEEP)
    table, record = sweep(workers=workers, n=n)
    table.print()
    write_record(record, args.out)
    print(f"recorded series in {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
