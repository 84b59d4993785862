"""E18 — incremental streaming join vs per-batch full rebuilds.

The paper's join is a batch operation: any change to the input means
rebuilding the ε-kdB tree and re-running the whole join.  The
incremental engine (:class:`~repro.core.incremental.IncrementalJoin`)
amortizes that: each update batch joins only against the delta buffer
and the compacted base, emitting exactly the new (or retracted) pairs.
Measured here, on a clustered workload streamed as insert/delete
batches over a pre-seeded base:

* per-batch wall clock of the incremental session vs a from-scratch
  ``epsilon_kdb_self_join`` over the current live point set (the only
  way to get the same answer without the engine), and the cumulative
  speedup;
* the one-pass join-size sketch vs the true pair count after every
  batch — the estimate/truth ratio must stay within the documented
  factor-of-:data:`ESTIMATOR_BOUND` band (the sketch counts same-cell
  pairs of one randomly-shifted grid, a constant-factor proxy for the
  epsilon join size; see docs/streaming.md);
* exactness: the accumulated emitted-minus-retracted pairs are compared
  byte-for-byte against the final from-scratch join — the run aborts on
  any divergence.

Usage::

    python benchmarks/bench_e18_incremental.py                 # full scale
    python benchmarks/bench_e18_incremental.py --scale smoke   # seconds-sized
"""

from __future__ import annotations

import argparse
import os
import time

import numpy as np
import pytest

from _harness import clustered, scale, write_record
from repro import JoinSpec
from repro.analysis import Table, format_seconds, format_si
from repro.core import epsilon_kdb_self_join
from repro.core.incremental import IncrementalJoin, subtract_pairs

BASE_N = scale(15_000)
BATCH_N = scale(500)
N_BATCHES = 8
DIMS = 8
EPSILON = 0.25
DELETE_EVERY = 3  # every 3rd batch deletes instead of inserting

SMOKE_BASE_N = 1_200
SMOKE_BATCH_N = 150
SMOKE_BATCHES = 4

#: Documented estimator band: estimate/truth stays within this factor on
#: the E18 workload (empirically ~1-4x; the sketch counts same-cell
#: pairs, which over-counts the epsilon ball by a data-dependent but
#: bounded constant).
ESTIMATOR_BOUND = 10.0

_EMPTY_PAIRS = np.empty((0, 2), dtype=np.int64)


def _accumulate(store, pairs):
    if len(pairs):
        store.append(pairs)


def measure(base_n: int, batch_n: int, n_batches: int):
    """One streaming run; returns the per-batch series and totals."""
    spec = JoinSpec(epsilon=EPSILON)
    stream = clustered(base_n + n_batches * batch_n, DIMS)
    base, rest = stream[:base_n], stream[base_n:]
    rng = np.random.default_rng(18)

    session = IncrementalJoin(spec)
    added, retracted = [], []
    delta = session.insert(base)
    _accumulate(added, delta.added)

    series = []
    incremental_total = 0.0
    rebuild_total = 0.0
    offset = 0
    for index in range(n_batches):
        if index > 0 and index % DELETE_EVERY == 0:
            live = session.live_ids()
            victims = rng.choice(live, size=batch_n // 2, replace=False)
            op = "delete"
            started = time.perf_counter()
            delta = session.delete(victims)
            incremental_seconds = time.perf_counter() - started
            _accumulate(retracted, delta.retracted)
        else:
            batch = rest[offset : offset + batch_n]
            offset += batch_n
            op = "insert"
            started = time.perf_counter()
            delta = session.insert(batch)
            incremental_seconds = time.perf_counter() - started
            _accumulate(added, delta.added)

        live_points = session.live_points()
        started = time.perf_counter()
        scratch = epsilon_kdb_self_join(live_points, spec)
        rebuild_seconds = time.perf_counter() - started

        truth = len(scratch.pairs)
        estimate = session.estimated_join_size
        ratio = estimate / truth if truth else float("nan")
        incremental_total += incremental_seconds
        rebuild_total += rebuild_seconds
        series.append(
            {
                "batch": index,
                "op": op,
                "live_points": int(session.n_live),
                "incremental_seconds": incremental_seconds,
                "rebuild_seconds": rebuild_seconds,
                "true_pairs": truth,
                "estimated_pairs": estimate,
                "estimate_ratio": ratio,
            }
        )
        if truth and not (1 / ESTIMATOR_BOUND <= ratio <= ESTIMATOR_BOUND):
            raise AssertionError(
                f"estimator left its documented band at batch {index}: "
                f"estimate {estimate:.0f} vs true {truth} "
                f"(ratio {ratio:.2f}, bound {ESTIMATOR_BOUND}x)"
            )

    # Exactness: accumulated deltas == from-scratch join over survivors.
    net = subtract_pairs(
        np.concatenate(added) if added else _EMPTY_PAIRS,
        np.concatenate(retracted) if retracted else _EMPTY_PAIRS,
    )
    live_ids = session.live_ids()
    expected = live_ids[scratch.pairs]
    expected = expected[np.lexsort((expected[:, 1], expected[:, 0]))]
    if net.tobytes() != expected.tobytes():
        raise AssertionError(
            "accumulated incremental deltas diverged from the batch join"
        )

    stats = session.stats
    return {
        "base_n": base_n,
        "batch_n": batch_n,
        "n_batches": n_batches,
        "incremental_total_seconds": incremental_total,
        "rebuild_total_seconds": rebuild_total,
        "speedup": rebuild_total / incremental_total if incremental_total else 0.0,
        "compactions": stats.compactions,
        "pairs_emitted": stats.pairs_emitted,
        "pairs_retracted": stats.pairs_retracted,
        "estimator_bound": ESTIMATOR_BOUND,
        "max_estimate_ratio": max(
            (r["estimate_ratio"] for r in series if r["true_pairs"]),
            default=float("nan"),
        ),
        "min_estimate_ratio": min(
            (r["estimate_ratio"] for r in series if r["true_pairs"]),
            default=float("nan"),
        ),
        "series": series,
    }


@pytest.mark.parametrize("batch_n", [SMOKE_BATCH_N])
def test_e18_incremental_stream(benchmark, batch_n):
    benchmark.group = f"E18 incremental vs rebuild (d={DIMS}, eps={EPSILON})"

    def run():
        return measure(SMOKE_BASE_N, batch_n, SMOKE_BATCHES)

    record = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["speedup"] = record["speedup"]
    benchmark.extra_info["compactions"] = record["compactions"]
    benchmark.extra_info["max_estimate_ratio"] = record["max_estimate_ratio"]


def sweep(base_n=BASE_N, batch_n=BATCH_N, n_batches=N_BATCHES):
    record = measure(base_n, batch_n, n_batches)
    record["experiment"] = "e18_incremental"
    record["dims"] = DIMS
    record["epsilon"] = EPSILON
    table = Table(
        f"E18: incremental stream vs full rebuild (clusters, d={DIMS}, "
        f"eps={EPSILON}, base={base_n}, batch={batch_n})",
        ["batch", "op", "live", "incremental", "rebuild", "speedup", "est/true"],
    )
    for row in record["series"]:
        speedup = (
            row["rebuild_seconds"] / row["incremental_seconds"]
            if row["incremental_seconds"]
            else 0.0
        )
        table.add_row(
            row["batch"],
            row["op"],
            format_si(row["live_points"]),
            format_seconds(row["incremental_seconds"]),
            format_seconds(row["rebuild_seconds"]),
            f"{speedup:.1f}x",
            f"{row['estimate_ratio']:.2f}",
        )
    return table, record


def _default_out() -> str:
    return os.path.join(
        os.path.dirname(__file__), "results", "e18_incremental.json"
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
        help=f"smoke: base {SMOKE_BASE_N}, {SMOKE_BATCHES} batches of "
        f"{SMOKE_BATCH_N} (for CI)",
    )
    parser.add_argument("--out", help="results JSON path (default: results/)")
    args = parser.parse_args()
    if args.scale == "smoke":
        table, record = sweep(SMOKE_BASE_N, SMOKE_BATCH_N, SMOKE_BATCHES)
    else:
        table, record = sweep()
    write_record(record, args.out or _default_out())
    table.print()
    print(
        f"stream total: incremental "
        f"{format_seconds(record['incremental_total_seconds'])} vs rebuild "
        f"{format_seconds(record['rebuild_total_seconds'])} "
        f"({record['speedup']:.1f}x), {record['compactions']} compactions, "
        f"estimate/true in [{record['min_estimate_ratio']:.2f}, "
        f"{record['max_estimate_ratio']:.2f}] (bound {ESTIMATOR_BOUND:.0f}x)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
