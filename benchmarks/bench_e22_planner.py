"""E22 — Planner regret and the zero-materialization query path.

Two questions about the cost-based execution planner:

1. **Cold first-query latency** (the memmap path's reason to exist):
   against a persisted tenant, how fast is the first range query when
   the attach maps the snapshot read-only (:class:`SnapshotView`)
   versus fully materializing the session (recovery: array copies, WAL
   replay, sketch rebuild)?  Target: >= 10x at 50k points, with
   byte-identical answers.

2. **Planner regret**: over a matrix of (n, d, eps) workloads, run
   the serial, parallel and external engines, crown the measured best
   (the oracle), and compare the planner's serial-vs-parallel choice.
   Regret is ``measured(chosen) / measured(best)``; target <= 2x on
   every cell.  Every engine's pairs are byte-compared against the
   serial oracle while we are at it, so the regret table doubles as an
   equivalence sweep.

A persisted attach is not planned: it serves from the snapshot view
whenever the snapshot is fresh, and part 1 measures that choice.

Usage::

    python benchmarks/bench_e22_planner.py                 # full scale
    python benchmarks/bench_e22_planner.py --scale smoke   # seconds-sized
"""

from __future__ import annotations

import argparse
import os
import shutil
import tempfile
import time

import numpy as np

from _harness import scale, uniform, write_record
from repro import JoinSpec, plan_execution, similarity_join
from repro.analysis import Table, format_seconds
from repro.core.incremental import IncrementalJoin
from repro.planner import CostProfile, set_active_profile
from repro.storage import SnapshotView

#: Engines each regret cell runs; the planner picks between the first two.
ENGINES = ("serial", "parallel", "external")
PLANNED = ("serial", "parallel")

#: (points, dims, epsilon) per regret cell; epsilon tracks d so every
#: cell produces a non-trivial but bounded candidate load.
MATRIX = [
    (scale(4_000), 8, 0.10),
    (scale(4_000), 16, 0.30),
    (scale(20_000), 8, 0.05),
    (scale(20_000), 16, 0.20),
]
COLD_N = scale(50_000)
COLD_DIMS = 48
COLD_EPS = 0.05
#: The cold metric is the *first* query after attach — open cost
#: included, nothing amortized — so it is a single probe.
FIRST_QUERIES = 1
COLD_REPEATS = 3

SMOKE_MATRIX = [(2_000, 8, 0.10), (2_000, 16, 0.30)]
SMOKE_COLD_N = 8_000


def _persisted_dir(base: str, n: int, dims: int, eps: float) -> str:
    """Build a compacted persisted session and return its directory."""
    path = os.path.join(base, f"sess_{n}_{dims}")
    with IncrementalJoin.open(path, spec=JoinSpec(epsilon=eps)) as join:
        join.insert(uniform(n, dims))
        join.compact()
    return path


def measure_cold_first_query(n: int, dims: int, eps: float,
                             n_queries: int = FIRST_QUERIES,
                             repeats: int = COLD_REPEATS) -> dict:
    """Part 1: attach-and-first-query, memmapped view vs full recovery.

    Each timed sample is a *fresh* open plus the first query — nothing
    amortized across queries.  A throwaway tiny session warms both code
    paths first (imports, kernel-backend probe) so the samples measure
    the data structures, not process start-up; the reported figure is
    the median of ``repeats`` samples per path.
    """
    queries = uniform(n_queries, dims, seed=9)
    base = tempfile.mkdtemp(prefix="e22_cold_")
    try:
        warm_path = _persisted_dir(os.path.join(base, "warm"), 200, dims, eps)
        warm_query = uniform(1, dims, seed=1)
        warm_view = SnapshotView.open(warm_path)
        warm_view.batch_range_query(warm_query)
        warm_view.close()
        warm_sess = IncrementalJoin.open(warm_path)
        warm_sess.batch_range_query(warm_query)
        warm_sess.close()

        path = _persisted_dir(base, n, dims, eps)

        view_samples = []
        view_answers = None
        snapshot_bytes = 0
        for _ in range(repeats):
            started = time.perf_counter()
            view = SnapshotView.open(path)
            view_answers = view.batch_range_query(queries)
            view_samples.append(time.perf_counter() - started)
            snapshot_bytes = view.snapshot_bytes
            view.close()

        sess_samples = []
        full_answers = None
        for _ in range(repeats):
            started = time.perf_counter()
            session = IncrementalJoin.open(path)
            full_answers = session.batch_range_query(queries)
            sess_samples.append(time.perf_counter() - started)
            session.close()

        view_seconds = float(np.median(view_samples))
        materialize_seconds = float(np.median(sess_samples))

        for got, want in zip(view_answers, full_answers):
            if not np.array_equal(got, want):
                raise AssertionError("view answers diverged from recovery")
    finally:
        shutil.rmtree(base, ignore_errors=True)
    return {
        "n": n,
        "dims": dims,
        "epsilon": eps,
        "queries": n_queries,
        "repeats": repeats,
        "snapshot_bytes": int(snapshot_bytes),
        "view_seconds": view_seconds,
        "materialize_seconds": materialize_seconds,
        "speedup": materialize_seconds / view_seconds,
    }


def measure_regret_cell(n: int, dims: int, eps: float) -> dict:
    """Part 2: every engine on one workload, vs the plan."""
    points = uniform(n, dims)
    measured = {}
    reference = None
    for strategy in ENGINES:
        started = time.perf_counter()
        pairs = similarity_join(points, epsilon=eps, engine=strategy)
        measured[strategy] = time.perf_counter() - started
        if reference is None:
            reference = pairs
        elif not np.array_equal(pairs, reference):
            raise AssertionError(
                f"{strategy} pairs diverged at n={n} d={dims} eps={eps}"
            )
    plan = plan_execution(JoinSpec(epsilon=eps), n, dims, strategies=PLANNED)
    best = min(measured, key=measured.get)
    return {
        "n": n,
        "dims": dims,
        "epsilon": eps,
        "chosen": plan.chosen,
        "predicted_seconds": plan.predicted_cost,
        "oracle": best,
        "measured": measured,
        "regret": measured[plan.chosen] / measured[best],
        "pairs": int(len(reference)),
    }


def _default_out() -> str:
    return os.path.join(
        os.path.dirname(__file__), "results", "e22_planner.json"
    )


def sweep(matrix=None, cold_n: int = COLD_N):
    # Measured regret must reflect the shipped defaults, not whatever
    # profile a developer machine happens to have calibrated.
    set_active_profile(CostProfile())
    try:
        cold = measure_cold_first_query(cold_n, COLD_DIMS, COLD_EPS)
        cells = [measure_regret_cell(n, d, e) for n, d, e in (matrix or MATRIX)]
    finally:
        set_active_profile(None)

    cold_table = Table(
        f"E22a — cold first query, {cold['n']} points d={cold['dims']} "
        f"({cold['queries']} queries)",
        ["path", "seconds", "speedup"],
    )
    cold_table.add_row(
        "snapshot view (memmap)", format_seconds(cold["view_seconds"]), ""
    )
    cold_table.add_row(
        "full materialization",
        format_seconds(cold["materialize_seconds"]),
        f"{cold['speedup']:.1f}x slower",
    )

    regret_table = Table(
        "E22b — planner regret per (n, d, eps) cell",
        ["n", "d", "eps", "chosen", "oracle", "regret"],
    )
    for cell in cells:
        regret_table.add_row(
            str(cell["n"]),
            str(cell["dims"]),
            f"{cell['epsilon']:g}",
            cell["chosen"],
            cell["oracle"],
            f"{cell['regret']:.2f}x",
        )

    record = {
        "experiment": "e22_planner",
        "cold_first_query": cold,
        "regret_cells": cells,
        "max_regret": max(cell["regret"] for cell in cells),
    }
    return (cold_table, regret_table), record


def run_experiment():
    tables, record = sweep()
    write_record(record, _default_out())
    return tables


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale",
        choices=["smoke", "full"],
        default="full",
        help=f"smoke: {SMOKE_COLD_N} cold points, 2 regret cells (for CI)",
    )
    parser.add_argument(
        "--out",
        default=_default_out(),
        help="JSON output path (default: benchmarks/results/e22_planner.json)",
    )
    args = parser.parse_args()
    smoke = args.scale == "smoke"
    tables, record = sweep(
        matrix=SMOKE_MATRIX if smoke else None,
        cold_n=SMOKE_COLD_N if smoke else COLD_N,
    )
    for table in tables:
        table.print()
    write_record(record, args.out)
    print(f"recorded series in {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
