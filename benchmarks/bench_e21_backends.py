"""E21 — The frontier's tile budget over the leaf candidate stream.

The traversal hands the cascade kernel its band windows in row groups of
about ``repro.core.kernels.DEFAULT_TILE_ROWS`` candidates per call (the
batching scheme of Gowanlock & Karsin's GPU self-join).  This
experiment runs one self-join (the E16 data at the E2 crossover
epsilon) over one prebuilt tree at several budgets, so the measurement
is what a join actually pays — window expansion, the stages and the
per-call overhead — and verifies that every budget emits the identical
pairs.

Usage::

    python benchmarks/bench_e21_backends.py                 # full scale
    python benchmarks/bench_e21_backends.py --scale smoke   # seconds-sized
    python benchmarks/bench_e21_backends.py --dims 16
"""

from __future__ import annotations

import argparse
import os

import numpy as np
import pytest

from _harness import attach_info, scale, uniform, write_record
from bench_e16_kernels import crossover_epsilon
from repro import JoinSpec
from repro.analysis import Table, format_seconds, format_si
from repro.core import FlatEpsilonKdbTree, epsilon_kdb_self_join, kernels

TILE_SWEEP = [4_096, 16_384, kernels.DEFAULT_TILE_ROWS, 262_144]
TILE_DIMS = 32
N = scale(20_000)
REPEATS = 3

SMOKE_TILES = [4_096, kernels.DEFAULT_TILE_ROWS]
SMOKE_DIMS = 16
SMOKE_N = 4_000
SMOKE_REPEATS = 2


def measure_tiles(dims: int = TILE_DIMS, tile_sweep=None, n: int = N,
                  repeats: int = REPEATS):
    """Sweep the frontier's tile budget at fixed d."""
    eps = crossover_epsilon(dims)
    points = uniform(n, dims)
    spec = JoinSpec(epsilon=eps, cascade="auto")
    tree = FlatEpsilonKdbTree.build(points, spec)
    default = kernels.DEFAULT_TILE_ROWS
    rows = []
    reference = None
    try:
        for tile_rows in (tile_sweep or TILE_SWEEP):
            kernels.DEFAULT_TILE_ROWS = tile_rows
            results = [
                epsilon_kdb_self_join(points, spec, tree=tree)
                for _ in range(repeats)
            ]
            best = min(results, key=lambda result: result.join_seconds)
            if reference is None:
                reference = best.pairs
            elif not np.array_equal(best.pairs, reference):
                raise AssertionError(
                    f"tile budget {tile_rows} changed the emitted pairs"
                )
            rows.append({
                "tile_rows": tile_rows,
                "dims": dims,
                "epsilon": eps,
                "candidates": int(best.stats.distance_computations),
                "seconds": best.join_seconds,
                "kernel_seconds": best.stats.kernel_seconds,
                "pairs": int(len(best.pairs)),
            })
    finally:
        kernels.DEFAULT_TILE_ROWS = default
    return rows


@pytest.mark.parametrize("tile_rows", TILE_SWEEP)
def test_e21_tile_sweep(benchmark, tile_rows):
    benchmark.group = f"E21 frontier tile budget (N={N}, d={TILE_DIMS})"

    def run():
        (row,) = measure_tiles(tile_sweep=[tile_rows], repeats=1)
        return row

    row = benchmark.pedantic(run, rounds=1, iterations=1)
    attach_info(benchmark, row)


def sweep(dims: int = TILE_DIMS, tile_sweep=None, n: int = N,
          repeats: int = REPEATS):
    tile_series = measure_tiles(
        dims=dims, tile_sweep=tile_sweep, n=n, repeats=repeats
    )
    table = Table(
        f"E21: frontier tile budget (N={n}, uniform, d={dims}, "
        f"eps=0.1*sqrt(d/16))",
        ["tile rows", "candidates", "join", "kernel", "pairs"],
    )
    for row in tile_series:
        table.add_row(
            format_si(row["tile_rows"]),
            format_si(row["candidates"]),
            format_seconds(row["seconds"]),
            format_seconds(row["kernel_seconds"]),
            format_si(row["pairs"]),
        )
    record = {
        "experiment": "e21_tiles",
        "n": n,
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
        repeats=SMOKE_REPEATS if smoke else REPEATS,
    )
    table.print()
    write_record(record, args.out)
    print(f"recorded series in {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
