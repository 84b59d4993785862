"""E21 — Work-queue tile size over the leaf candidate stream.

The traversals feed band-sweep candidates into a
:class:`~repro.core.kernels.LeafBatchQueue`, which filters them one
tile at a time (the batching scheme of Gowanlock & Karsin's GPU
self-join).  This experiment re-feeds one band-sweep candidate set (the
one E16 uses, at the E2 crossover epsilon) through the queue in uneven
leaf-sized pieces at several tile sizes, so the measurement includes the
queue's copy and flush overhead — the number a join actually pays — and
verifies that every tile size emits the identical pair stream.

Usage::

    python benchmarks/bench_e21_backends.py                 # full scale
    python benchmarks/bench_e21_backends.py --scale smoke   # seconds-sized
    python benchmarks/bench_e21_backends.py --dims 16
"""

from __future__ import annotations

import argparse
import os
import time

import numpy as np
import pytest

from _harness import attach_info, scale, uniform, write_record
from bench_e16_kernels import band_candidates, crossover_epsilon
from repro import JoinSpec
from repro.analysis import Table, format_seconds, format_si
from repro.core.kernels import DEFAULT_TILE_ROWS, LeafBatchQueue, build_kernel_context

TILE_SWEEP = [4_096, 16_384, DEFAULT_TILE_ROWS, 262_144]
TILE_DIMS = 32
N = scale(20_000)
CANDIDATE_CAP = scale(1_500_000)
REPEATS = 3

SMOKE_TILES = [4_096, DEFAULT_TILE_ROWS]
SMOKE_DIMS = 16
SMOKE_N = 4_000
SMOKE_CAP = 150_000
SMOKE_REPEATS = 2


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def measure_tiles(dims: int = TILE_DIMS, tile_sweep=None, n: int = N,
                  cap: int = CANDIDATE_CAP, repeats: int = REPEATS):
    """Sweep the work-queue tile size at fixed d."""
    eps = crossover_epsilon(dims)
    points = uniform(n, dims)
    rows_a, rows_b = band_candidates(points, eps, cap)
    context = build_kernel_context(
        JoinSpec(epsilon=eps, cascade="auto"), points, sort_dim=0
    )
    assert context is not None, "the cascade must engage for the swept d"
    # Feed in uneven leaf-sized chunks, like the band sweep does.
    bounds = np.unique(
        np.random.default_rng(0).integers(0, len(rows_a), size=200)
    )
    chunks = [
        (rows_a[lo:hi], rows_b[lo:hi])
        for lo, hi in zip(np.r_[0, bounds], np.r_[bounds, len(rows_a)])
        if hi > lo
    ]

    rows = []
    reference = None
    for tile_rows in (tile_sweep or TILE_SWEEP):
        kept = []

        def run():
            kept.clear()
            queue = LeafBatchQueue(
                context.within_rows,
                lambda a, b: kept.append((a, b)),
                tile_rows=tile_rows,
            )
            for chunk_a, chunk_b in chunks:
                queue.add(chunk_a, chunk_b)
            queue.flush()

        seconds = _best_of(run, repeats)
        run()
        emitted = (
            np.concatenate([a for a, _ in kept]) if kept else np.empty(0),
            np.concatenate([b for _, b in kept]) if kept else np.empty(0),
        )
        if reference is None:
            reference = emitted
        elif not (
            np.array_equal(emitted[0], reference[0])
            and np.array_equal(emitted[1], reference[1])
        ):
            raise AssertionError(
                f"tile_rows={tile_rows} changed the emitted pair stream"
            )
        rows.append({
            "tile_rows": tile_rows,
            "dims": dims,
            "epsilon": eps,
            "candidates": int(len(rows_a)),
            "seconds": seconds,
            "pairs": int(len(emitted[0])),
        })
    return rows


@pytest.mark.parametrize("tile_rows", TILE_SWEEP)
def test_e21_tile_sweep(benchmark, tile_rows):
    benchmark.group = f"E21 work-queue tiles (N={N}, d={TILE_DIMS})"

    def run():
        (row,) = measure_tiles(tile_sweep=[tile_rows], repeats=1)
        return row

    row = benchmark.pedantic(run, rounds=1, iterations=1)
    attach_info(benchmark, row)


def sweep(dims: int = TILE_DIMS, tile_sweep=None, n: int = N,
          cap: int = CANDIDATE_CAP, repeats: int = REPEATS):
    tile_series = measure_tiles(
        dims=dims, tile_sweep=tile_sweep, n=n, cap=cap, repeats=repeats
    )
    table = Table(
        f"E21: work-queue tile size (N={n}, uniform, d={dims}, "
        f"eps=0.1*sqrt(d/16))",
        ["tile rows", "candidates", "seconds", "pairs"],
    )
    for row in tile_series:
        table.add_row(
            format_si(row["tile_rows"]),
            format_si(row["candidates"]),
            format_seconds(row["seconds"]),
            format_si(row["pairs"]),
        )
    record = {
        "experiment": "e21_tiles",
        "n": n,
        "candidate_cap": cap,
        "repeats": repeats,
        "tile_series": tile_series,
    }
    return table, record


def _default_out() -> str:
    return os.path.join(
        os.path.dirname(__file__), "results", "e21_backends.json"
    )


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
        help=f"smoke: {SMOKE_N} points at d={SMOKE_DIMS} (for CI)",
    )
    parser.add_argument("--dims", type=int, help="dimensionality of the sweep")
    parser.add_argument(
        "--out",
        default=_default_out(),
        help="JSON output path (default: benchmarks/results/e21_backends.json)",
    )
    args = parser.parse_args()
    smoke = args.scale == "smoke"
    table, record = sweep(
        dims=args.dims or (SMOKE_DIMS if smoke else TILE_DIMS),
        tile_sweep=SMOKE_TILES if smoke else TILE_SWEEP,
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
