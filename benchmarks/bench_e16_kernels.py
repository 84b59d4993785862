"""E16 — Filter-cascade distance kernels vs the monolithic filter.

The leaf joins hand the distance filter a candidate list the band sweep
produced; at high ``d`` with uniform data (the paper's E2 setting at the
epsilon crossover ``0.1 * sqrt(d/16)``) nearly every candidate fails, and
the monolithic kernel gathers all ``d`` coordinates of every one of them
anyway.  This experiment isolates that filter: the same band-sweep
candidate set is pushed through the seed kernel
(``metric.within_rows``) and the cascade (:class:`KernelContext`),
verifying identical masks and recording the per-stage survivor funnel,
the coordinates actually touched, and the speedup.  An end-to-end
self-join with ``cascade=auto`` vs ``cascade=off`` closes the loop.

Usage::

    python benchmarks/bench_e16_kernels.py                 # full scale
    python benchmarks/bench_e16_kernels.py --scale smoke   # seconds-sized
    python benchmarks/bench_e16_kernels.py --dims 16 32
"""

from __future__ import annotations

import argparse
import os
import time

import numpy as np
import pytest

from _harness import attach_info, scale, uniform, write_record
from repro import JoinSpec
from repro.core import PairCounter, build_kernel_context, epsilon_kdb_self_join
from repro.core.result import JoinStats
from repro.core.sweep import iter_band_pairs_self
from repro.analysis import Table, format_seconds, format_si

DIM_SWEEP = [4, 6, 8, 16, 32, 64]
N = scale(20_000)
CANDIDATE_CAP = scale(1_500_000)
REPEATS = 3

SMOKE_DIMS = [4, 6, 8, 16]
SMOKE_N = 4_000
SMOKE_CAP = 150_000
SMOKE_REPEATS = 2


def crossover_epsilon(dims: int) -> float:
    """The E2 epsilon crossover: selectivity held constant across d."""
    return 0.1 * float(np.sqrt(dims / 16.0))


def band_candidates(points: np.ndarray, eps: float, cap: int):
    """Leaf-filter input: band-sweep candidates along dimension 0."""
    order = np.argsort(points[:, 0], kind="stable")
    values = points[order, 0]
    chunks_a, chunks_b = [], []
    total = 0
    for pos_a, pos_b in iter_band_pairs_self(values, eps):
        chunks_a.append(order[pos_a])
        chunks_b.append(order[pos_b])
        total += len(pos_a)
        if total >= cap:
            break
    if not chunks_a:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    rows_a = np.concatenate(chunks_a)[:cap]
    rows_b = np.concatenate(chunks_b)[:cap]
    return rows_a, rows_b


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def measure(dims: int, n: int = N, cap: int = CANDIDATE_CAP,
            repeats: int = REPEATS):
    eps = crossover_epsilon(dims)
    points = uniform(n, dims)
    rows_a, rows_b = band_candidates(points, eps, cap)
    spec = JoinSpec(epsilon=eps, cascade="auto")

    seed_seconds = _best_of(
        lambda: spec.metric.within_rows(points, points, rows_a, rows_b, eps),
        repeats,
    )
    seed_mask = spec.metric.within_rows(points, points, rows_a, rows_b, eps)

    context = build_kernel_context(spec, points, sort_dim=0)
    assert context is not None, "cascade must engage for every swept d"
    cascade_seconds = _best_of(
        lambda: context.within_rows(rows_a, rows_b), repeats
    )
    stats = JoinStats()
    cascade_mask = context.within_rows(rows_a, rows_b, stats)
    if not np.array_equal(seed_mask, cascade_mask):
        raise AssertionError(
            f"cascade mask diverged from the seed kernel at d={dims}"
        )

    return {
        "dims": dims,
        "epsilon": eps,
        "n": n,
        "candidates": int(len(rows_a)),
        "matches": int(seed_mask.sum()),
        "seed_within_rows_seconds": seed_seconds,
        "cascade_within_rows_seconds": cascade_seconds,
        "speedup": seed_seconds / cascade_seconds if cascade_seconds else 0.0,
        "filter_stages": context.plan.n_filters,
        "cascade_candidates": stats.cascade_candidates,
        "cascade_survivors": list(stats.cascade_survivors),
        "coordinates_touched": stats.coordinates_touched,
        "coordinates_monolithic": int(len(rows_a)) * dims,
    }


def measure_end_to_end(dims: int, n: int, repeats: int):
    eps = crossover_epsilon(dims)
    points = uniform(n, dims)
    row = {"dims": dims, "epsilon": eps, "n": n}
    for mode in ("off", "auto"):
        spec = JoinSpec(epsilon=eps, cascade=mode)

        def run():
            sink = PairCounter()
            epsilon_kdb_self_join(points, spec, sink=sink)
            return sink.count

        row[f"join_seconds_{mode}"] = _best_of(run, repeats)
        row[f"pairs_{mode}"] = run()
    assert row["pairs_off"] == row["pairs_auto"]
    row["join_speedup"] = (
        row["join_seconds_off"] / row["join_seconds_auto"]
        if row["join_seconds_auto"]
        else 0.0
    )
    return row


@pytest.mark.parametrize("dims", DIM_SWEEP)
def test_e16_kernel_sweep(benchmark, dims):
    benchmark.group = f"E16 cascade kernels (N={N}, crossover eps)"

    def run():
        row = measure(dims)
        return {
            "seconds": row["cascade_within_rows_seconds"],
            "seed_seconds": row["seed_within_rows_seconds"],
            "speedup": row["speedup"],
            "candidates": row["candidates"],
            "matches": row["matches"],
        }

    row = benchmark.pedantic(run, rounds=1, iterations=1)
    attach_info(benchmark, row)
    benchmark.extra_info["speedup"] = row["speedup"]


def sweep(dim_sweep=None, n: int = N, cap: int = CANDIDATE_CAP,
          repeats: int = REPEATS):
    dim_sweep = list(dim_sweep or DIM_SWEEP)
    table = Table(
        f"E16: cascade vs monolithic leaf filter "
        f"(N={n}, uniform, eps=0.1*sqrt(d/16))",
        ["d", "candidates", "survivors", "coords touched",
         "seed", "cascade", "speedup", "join speedup"],
    )
    series = []
    for dims in dim_sweep:
        row = measure(dims, n=n, cap=cap, repeats=repeats)
        row.update(measure_end_to_end(dims, n=n, repeats=repeats))
        series.append(row)
        funnel = " > ".join(format_si(s) for s in row["cascade_survivors"])
        table.add_row(
            dims,
            format_si(row["candidates"]),
            funnel,
            f"{format_si(row['coordinates_touched'])}"
            f"/{format_si(row['coordinates_monolithic'])}",
            format_seconds(row["seed_within_rows_seconds"]),
            format_seconds(row["cascade_within_rows_seconds"]),
            f"{row['speedup']:.2f}x",
            f"{row['join_speedup']:.2f}x",
        )
    record = {
        "experiment": "e16_kernels",
        "n": n,
        "candidate_cap": cap,
        "repeats": repeats,
        "series": series,
    }
    return table, record


def _default_out() -> str:
    return os.path.join(os.path.dirname(__file__), "results", "e16_kernels.json")


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
        help=f"smoke: {SMOKE_N} points, dims {SMOKE_DIMS} (for CI)",
    )
    parser.add_argument(
        "--dims", type=int, nargs="+", help="dimensionalities to sweep"
    )
    parser.add_argument(
        "--out",
        default=_default_out(),
        help="JSON output path (default: benchmarks/results/e16_kernels.json)",
    )
    args = parser.parse_args()
    smoke = args.scale == "smoke"
    table, record = sweep(
        dim_sweep=args.dims or (SMOKE_DIMS if smoke else DIM_SWEEP),
        n=SMOKE_N if smoke else N,
        cap=SMOKE_CAP if smoke else CANDIDATE_CAP,
        repeats=SMOKE_REPEATS if smoke else REPEATS,
    )
    table.print()
    write_record(record, args.out)
    print(f"recorded series in {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
