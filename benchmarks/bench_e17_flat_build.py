"""E17 — flat vectorized build vs the pointer build, and an epsilon sweep.

Extends E11's build-cost question: the paper's bet is that the ε-kdB
tree is cheap enough to build per join, and the flat build (radix
cell-coding + stable whole-array sorts + CSR leaf layout,
:class:`~repro.core.flat_build.FlatEpsilonKdbTree`) makes it cheaper
still by replacing per-point and per-node Python work with a handful
of whole-array passes.  Measured here:

* construction time of *three* builds of the same leaf partition over
  the same clustered workload.  The flat build also sorts every leaf by
  the sweep dimension; the pointer builds stop at the partition (their
  per-leaf sort, ``finalize()``, was deleted with the pointer traversal,
  so records before that change include it):

  - ``pointer`` — the per-point ``insert`` loop over an
    ``EpsilonKdbTree.empty`` tree, i.e. the pointer-based build path
    the flat build replaces (one Python descent per point);
  - ``pointer_bulk`` — ``EpsilonKdbTree.build``, the recursive bulk
    build (one NumPy partition per node);
  - ``flat`` — the vectorized flat build.

  The headline ``speedup`` compares flat against the per-point loop;
  ``speedup_vs_bulk`` records the gain over the already-vectorized
  per-node recursion, which is the fairer lower bound.
* peak RSS of each build series, sampled by
  :class:`repro.obs.MemorySampler` and stamped into the results JSON;
* an epsilon sweep with one fresh build per threshold, split into
  build and total time.

Usage::

    python benchmarks/bench_e17_flat_build.py                 # full scale
    python benchmarks/bench_e17_flat_build.py --scale smoke   # seconds-sized
"""

from __future__ import annotations

import argparse
import os
import time

import pytest

from _harness import clustered, scale, write_record
from repro import JoinSpec, epsilon_sweep
from repro.analysis import Table, format_seconds, format_si
from repro.core.epsilon_kdb import EpsilonKdbTree
from repro.core.flat_build import FlatEpsilonKdbTree
from repro.obs import MemorySampler

SIZES = [scale(25_000), scale(50_000), scale(100_000)]
DIMS = 16
EPSILON = 0.1
REPEATS = 3
SWEEP_EPSILONS = [0.06, 0.08, 0.1, 0.12]

SMOKE_SIZES = [2_000, 4_000]
SMOKE_REPEATS = 1


def _build_pointer(points, spec):
    """The per-point pointer build: one tree descent per inserted row."""
    tree = EpsilonKdbTree.empty(points, spec)
    for index in range(len(points)):
        tree.insert(index)
    return tree


def _build_pointer_bulk(points, spec):
    return EpsilonKdbTree.build(points, spec)


def _build_flat(points, spec):
    return FlatEpsilonKdbTree.build(points, spec)


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def measure(n: int, repeats: int = REPEATS):
    """One series point: all three build times plus structural cross-checks."""
    points = clustered(n, DIMS)
    spec = JoinSpec(epsilon=EPSILON)

    sampler = MemorySampler(interval=0.01).start()
    pointer_seconds = _best_of(lambda: _build_pointer(points, spec), repeats)
    sampler.stop()
    pointer_rss = sampler.peak_bytes

    sampler = MemorySampler(interval=0.01).start()
    bulk_seconds = _best_of(lambda: _build_pointer_bulk(points, spec), repeats)
    sampler.stop()
    bulk_rss = sampler.peak_bytes

    sampler = MemorySampler(interval=0.01).start()
    flat_seconds = _best_of(lambda: _build_flat(points, spec), repeats)
    sampler.stop()
    flat_rss = sampler.peak_bytes

    flat = _build_flat(points, spec)
    pointer = _build_pointer(points, spec)
    bulk = _build_pointer_bulk(points, spec)
    if flat.describe() != bulk.describe():
        raise AssertionError(f"flat and bulk builds disagree at n={n}")
    if pointer.describe() != bulk.describe():
        raise AssertionError(f"insert and bulk builds disagree at n={n}")

    return {
        "n": n,
        "pointer_build_seconds": pointer_seconds,
        "pointer_bulk_seconds": bulk_seconds,
        "flat_build_seconds": flat_seconds,
        "speedup": pointer_seconds / flat_seconds if flat_seconds else 0.0,
        "speedup_vs_bulk": bulk_seconds / flat_seconds if flat_seconds else 0.0,
        "flat_sort_seconds": flat.build_sort_seconds,
        "nodes": flat.n_nodes,
        "leaves": flat.n_leaves,
        "pointer_peak_rss_bytes": int(pointer_rss),
        "pointer_bulk_peak_rss_bytes": int(bulk_rss),
        "flat_peak_rss_bytes": int(flat_rss),
    }


def measure_sweep(n: int):
    """Epsilon sweep: one fresh flat build per threshold."""
    points = clustered(n, DIMS)
    started = time.perf_counter()
    swept = epsilon_sweep(points, SWEEP_EPSILONS)
    total_seconds = time.perf_counter() - started
    return {
        "n": n,
        "epsilons": list(SWEEP_EPSILONS),
        "pairs": [int(r.stats.pairs_emitted) for r in swept],
        "build_seconds": sum(r.build_seconds for r in swept),
        "total_seconds": total_seconds,
    }


@pytest.mark.parametrize("n", SIZES)
def test_e17_flat_vs_pointer_build(benchmark, n):
    benchmark.group = f"E17 flat vs pointer build (d={DIMS}, eps={EPSILON})"

    def run():
        return measure(n)

    row = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["pointer_build_seconds"] = row["pointer_build_seconds"]
    benchmark.extra_info["pointer_bulk_seconds"] = row["pointer_bulk_seconds"]
    benchmark.extra_info["flat_build_seconds"] = row["flat_build_seconds"]
    benchmark.extra_info["speedup"] = row["speedup"]
    benchmark.extra_info["speedup_vs_bulk"] = row["speedup_vs_bulk"]


def sweep(sizes=None, repeats: int = REPEATS):
    sizes = list(sizes or SIZES)
    table = Table(
        f"E17: flat vs pointer epsilon-kdB build (clusters, d={DIMS}, "
        f"eps={EPSILON})",
        ["N", "nodes", "pointer", "bulk", "flat", "speedup", "vs bulk", "flat RSS"],
    )
    series = []
    for n in sizes:
        row = measure(n, repeats=repeats)
        series.append(row)
        table.add_row(
            n,
            format_si(row["nodes"]),
            format_seconds(row["pointer_build_seconds"]),
            format_seconds(row["pointer_bulk_seconds"]),
            format_seconds(row["flat_build_seconds"]),
            f"{row['speedup']:.1f}x",
            f"{row['speedup_vs_bulk']:.1f}x",
            format_si(row["flat_peak_rss_bytes"]) + "B",
        )
    sweep_row = measure_sweep(sizes[-1])
    record = {
        "experiment": "e17_flat_build",
        "dims": DIMS,
        "epsilon": EPSILON,
        "repeats": repeats,
        "series": series,
        "epsilon_sweep": sweep_row,
    }
    return table, record


def _default_out() -> str:
    return os.path.join(os.path.dirname(__file__), "results", "e17_flat_build.json")


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
        help=f"smoke: sizes {SMOKE_SIZES} with 1 repeat (for CI)",
    )
    parser.add_argument("--out", help="results JSON path (default: results/)")
    args = parser.parse_args()
    if args.scale == "smoke":
        table, record = sweep(sizes=SMOKE_SIZES, repeats=SMOKE_REPEATS)
    else:
        table, record = sweep()
    write_record(record, args.out or _default_out())
    table.print()
    sweep_row = record["epsilon_sweep"]
    print(
        f"epsilon sweep over {sweep_row['epsilons']} at N={sweep_row['n']}: "
        f"build {format_seconds(sweep_row['build_seconds'])} of "
        f"{format_seconds(sweep_row['total_seconds'])} total"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
