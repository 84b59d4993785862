"""E19 — crash-consistent persistence: cold re-open vs rebuild, WAL cost.

The persistence layer (``repro.storage.snapshot`` + ``repro.storage.wal``)
turns an :class:`~repro.core.incremental.IncrementalJoin` session into an
on-disk artifact: checksummed snapshots published at every compaction plus
a write-ahead log of the update batches since.  Two costs matter and are
measured here on a clustered workload:

* **cold re-open vs rebuild** — wall clock of
  ``IncrementalJoin.open(path)`` over an already-compacted index (header
  + CRC validation, memmap the arrays, replay an empty WAL) against the
  only alternative that yields the same session: a fresh insert of the
  full point set plus a compaction.  The re-open does no tree build and
  no pair emission, so the gap widens with n; the snapshot size is
  recorded alongside so bytes/point stays interpretable.
* **WAL-append overhead** — the per-batch insert cost of a persisted
  session under each ``sync_mode`` (``always`` fsyncs every append,
  ``batch`` flushes but defers fsync, ``off`` leaves flushing to the
  OS) relative to a non-persisted baseline session streaming the exact
  same batches.  Compaction is disabled (huge ``delta_threshold``) so
  the deltas isolate pure journaling cost rather than snapshot publishes.
* **re-open with a k-record tail** — the same re-open over a compacted
  index whose journal holds k update records since the snapshot (insert
  batches alternating with deletes of half as many live ids), for
  k = 0, 6, 24.  Replay applies each record's state transition and runs
  no join, so the extra cost per record is an append to the delta
  buffer plus a sketch update, not three sub-joins.

Usage::

    python benchmarks/bench_e19_persistence.py                 # full scale
    python benchmarks/bench_e19_persistence.py --scale smoke   # seconds-sized
"""

from __future__ import annotations

import argparse
import os
import shutil
import tempfile
import time

import numpy as np
import pytest

from _harness import clustered, scale, write_record
from repro import JoinSpec
from repro.analysis import Table, format_seconds, format_si
from repro.core.incremental import IncrementalJoin

REOPEN_SWEEP = [scale(10_000), scale(25_000), scale(50_000)]
WAL_BASE_N = scale(5_000)
WAL_BATCH_N = scale(400)
WAL_BATCHES = 10
DIMS = 8
EPSILON = 0.1

#: Journal tails (update records since the last snapshot) to re-open.
TAIL_SWEEP = [0, 6, 24]
TAIL_BASE_N = scale(10_000)
TAIL_BATCH_N = scale(200)
#: Re-opens per tail length; the median is reported.
TAIL_REOPENS = 7

SMOKE_REOPEN_SWEEP = [1_000, 2_500]
SMOKE_TAIL_BASE_N = 1_000
SMOKE_TAIL_BATCH_N = 50
SMOKE_WAL_BASE_N = 800
SMOKE_WAL_BATCH_N = 100
SMOKE_WAL_BATCHES = 4

#: sync_mode sweep for the WAL-overhead half; ``None`` is the
#: non-persisted baseline every other row is normalized against.
SYNC_MODES = [None, "off", "batch", "always"]

#: Large enough that no insert in the WAL sweep triggers auto-compaction,
#: so the measured deltas are journaling cost, not snapshot publishes.
NO_COMPACT_THRESHOLD = 10_000_000


def measure_reopen(n: int) -> dict:
    """Persist an n-point compacted index, then time re-open vs rebuild."""
    points = clustered(n, DIMS)
    spec = JoinSpec(epsilon=EPSILON)
    workdir = tempfile.mkdtemp(prefix="e19-reopen-")
    path = os.path.join(workdir, "index")
    try:
        started = time.perf_counter()
        with IncrementalJoin.open(path, spec=spec) as session:
            session.insert(points)
            session.compact()
        build_seconds = time.perf_counter() - started

        started = time.perf_counter()
        with IncrementalJoin.open(path) as session:
            reopen_seconds = time.perf_counter() - started
            stats = session.stats
            if session.n_live != n:
                raise AssertionError(
                    f"re-opened session lost points: {session.n_live} != {n}"
                )
            record = {
                "n": n,
                "build_seconds": build_seconds,
                "reopen_seconds": reopen_seconds,
                "speedup": build_seconds / reopen_seconds
                if reopen_seconds
                else 0.0,
                "snapshot_bytes": stats.snapshot_bytes,
                "bytes_per_point": stats.snapshot_bytes / n,
                "recovery_seconds": stats.recovery_seconds,
                "wal_records_replayed": stats.wal_records_replayed,
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return record


def measure_tail_reopen(base_n: int, batch_n: int, k: int) -> dict:
    """Re-open a compacted ``base_n``-point index with a k-record tail."""
    stream = clustered(base_n + k * batch_n, DIMS)
    spec = JoinSpec(epsilon=EPSILON, delta_threshold=NO_COMPACT_THRESHOLD)
    rng = np.random.default_rng(k)
    workdir = tempfile.mkdtemp(prefix="e19-tail-")
    path = os.path.join(workdir, "index")
    try:
        with IncrementalJoin.open(path, spec=spec) as session:
            session.insert(stream[:base_n])
            session.compact()
            row = base_n
            for index in range(k):
                if index % 2 == 0:
                    session.insert(stream[row : row + batch_n])
                    row += batch_n
                else:
                    live = session.live_ids()
                    session.delete(rng.choice(live, size=batch_n // 2, replace=False))
            expected = session.current_pairs()
        times = []
        for _ in range(TAIL_REOPENS):
            started = time.perf_counter()
            with IncrementalJoin.open(path) as reopened:
                times.append(time.perf_counter() - started)
                stats = reopened.stats
        if stats.wal_records_replayed != k:
            raise AssertionError(
                f"re-open replayed {stats.wal_records_replayed} records, expected {k}"
            )
        if reopened.current_pairs().tobytes() != expected.tobytes():
            raise AssertionError("re-opened session's pairs differ from the writer's")
        return {
            "base_n": base_n,
            "batch_n": batch_n,
            "tail_records": k,
            "reopen_seconds": float(np.median(times)),
            "distance_computations": stats.distance_computations,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_wal_overhead(base_n: int, batch_n: int, n_batches: int) -> list:
    """Stream identical batches under each sync_mode; return per-mode rows."""
    stream = clustered(base_n + n_batches * batch_n, DIMS)
    base, rest = stream[:base_n], stream[base_n:]
    spec = JoinSpec(epsilon=EPSILON, delta_threshold=NO_COMPACT_THRESHOLD)

    rows = []
    for mode in SYNC_MODES:
        workdir = None
        if mode is None:
            session = IncrementalJoin(spec)
        else:
            workdir = tempfile.mkdtemp(prefix="e19-wal-")
            session = IncrementalJoin.open(
                os.path.join(workdir, "index"), spec=spec, sync_mode=mode
            )
        try:
            session.insert(base)
            total = 0.0
            for index in range(n_batches):
                batch = rest[index * batch_n : (index + 1) * batch_n]
                started = time.perf_counter()
                session.insert(batch)
                total += time.perf_counter() - started
            rows.append(
                {
                    "sync_mode": mode or "none",
                    "insert_total_seconds": total,
                    "seconds_per_batch": total / n_batches,
                }
            )
        finally:
            session.close()
            if workdir is not None:
                shutil.rmtree(workdir, ignore_errors=True)

    baseline = rows[0]["insert_total_seconds"]
    for row in rows:
        row["overhead_vs_baseline"] = (
            row["insert_total_seconds"] / baseline if baseline else 0.0
        )
    return rows


@pytest.mark.parametrize("n", [SMOKE_REOPEN_SWEEP[-1]])
def test_e19_cold_reopen(benchmark, n):
    benchmark.group = f"E19 cold re-open vs rebuild (d={DIMS}, eps={EPSILON})"

    def run():
        return measure_reopen(n)

    record = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["speedup"] = record["speedup"]
    benchmark.extra_info["snapshot_bytes"] = record["snapshot_bytes"]


def sweep(reopen_sweep=None, wal_base_n=WAL_BASE_N, wal_batch_n=WAL_BATCH_N,
          wal_batches=WAL_BATCHES, tail_base_n=TAIL_BASE_N,
          tail_batch_n=TAIL_BATCH_N):
    reopen_sweep = reopen_sweep or REOPEN_SWEEP
    reopen_series = [measure_reopen(n) for n in reopen_sweep]
    wal_series = measure_wal_overhead(wal_base_n, wal_batch_n, wal_batches)
    tail_series = [
        measure_tail_reopen(tail_base_n, tail_batch_n, k) for k in TAIL_SWEEP
    ]
    no_tail = tail_series[0]["reopen_seconds"]
    for row in tail_series:
        k = row["tail_records"]
        row["seconds_per_record"] = (row["reopen_seconds"] - no_tail) / k if k else 0.0

    record = {
        "experiment": "e19_persistence",
        "dims": DIMS,
        "epsilon": EPSILON,
        "reopen_series": reopen_series,
        "wal_base_n": wal_base_n,
        "wal_batch_n": wal_batch_n,
        "wal_batches": wal_batches,
        "wal_series": wal_series,
        "tail_series": tail_series,
    }

    reopen_table = Table(
        f"E19a: cold re-open vs insert+compact rebuild (clusters, d={DIMS}, "
        f"eps={EPSILON})",
        ["n", "rebuild", "re-open", "speedup", "snapshot", "bytes/pt"],
    )
    for row in reopen_series:
        reopen_table.add_row(
            format_si(row["n"]),
            format_seconds(row["build_seconds"]),
            format_seconds(row["reopen_seconds"]),
            f"{row['speedup']:.0f}x",
            format_si(row["snapshot_bytes"]) + "B",
            f"{row['bytes_per_point']:.0f}",
        )

    wal_table = Table(
        f"E19b: WAL-append overhead per insert batch (base={wal_base_n}, "
        f"{wal_batches} batches of {wal_batch_n})",
        ["sync_mode", "stream total", "per batch", "vs no persist"],
    )
    for row in wal_series:
        wal_table.add_row(
            row["sync_mode"],
            format_seconds(row["insert_total_seconds"]),
            format_seconds(row["seconds_per_batch"]),
            f"{row['overhead_vs_baseline']:.2f}x",
        )

    tail_table = Table(
        f"E19c: re-open with a k-record journal tail (base={tail_base_n}, "
        f"insert batches of {tail_batch_n} alternating with deletes of "
        f"{tail_batch_n // 2})",
        ["tail records", "re-open", "per record", "distance computations"],
    )
    for row in tail_series:
        tail_table.add_row(
            str(row["tail_records"]),
            format_seconds(row["reopen_seconds"]),
            format_seconds(row["seconds_per_record"]) if row["tail_records"] else "—",
            str(row["distance_computations"]),
        )
    return [reopen_table, wal_table, tail_table], record


def _default_out() -> str:
    return os.path.join(
        os.path.dirname(__file__), "results", "e19_persistence.json"
    )


def run_experiment():
    """Entry point for ``run_all.py``: full sweep, JSON recorded."""
    tables, record = sweep()
    write_record(record, _default_out())
    for table in tables[:-1]:
        table.print()
        print()
    return tables[-1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale",
        choices=["smoke", "full"],
        default="full",
        help=f"smoke: re-open at n={SMOKE_REOPEN_SWEEP}, WAL stream of "
        f"{SMOKE_WAL_BATCHES} batches of {SMOKE_WAL_BATCH_N}, tails over "
        f"a {SMOKE_TAIL_BASE_N}-point base (for CI)",
    )
    parser.add_argument("--out", help="results JSON path (default: results/)")
    args = parser.parse_args()
    if args.scale == "smoke":
        tables, record = sweep(
            SMOKE_REOPEN_SWEEP,
            SMOKE_WAL_BASE_N,
            SMOKE_WAL_BATCH_N,
            SMOKE_WAL_BATCHES,
            SMOKE_TAIL_BASE_N,
            SMOKE_TAIL_BATCH_N,
        )
    else:
        tables, record = sweep()
    write_record(record, args.out or _default_out())
    for table in tables:
        table.print()
        print()
    fastest = record["reopen_series"][-1]
    print(
        f"cold re-open at n={fastest['n']}: "
        f"{format_seconds(fastest['reopen_seconds'])} vs rebuild "
        f"{format_seconds(fastest['build_seconds'])} "
        f"({fastest['speedup']:.0f}x); WAL overhead "
        + ", ".join(
            f"{r['sync_mode']} {r['overhead_vs_baseline']:.2f}x"
            for r in record["wal_series"][1:]
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
