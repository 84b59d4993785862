"""End-to-end crash-recovery smoke: SIGKILL a live session, reopen, compare.

Unlike the fault-injection tests (which simulate crashes in-process via
:class:`~repro.core.config.FaultPlan`), this script kills a *real*
subprocess with ``SIGKILL`` — no ``atexit``, no ``finally``, no flush on
the way down — at two different points:

* ``stream``  — mid-way through a deterministic insert/delete stream;
* ``compact`` — immediately around a snapshot publish (the kill races
  the ``compact()`` call, so over CI runs it lands before, inside, and
  after the publish; every landing must satisfy the same contract).

After each kill the parent re-opens the directory and checks the
durability contract:

1. the recovered ``last_update_seq`` covers at least every update the
   child acknowledged on stdout before dying;
2. the recovered pair set is byte-identical to a never-crashed oracle
   session that applied exactly the recovered prefix of the stream;
3. the remaining updates apply cleanly on top, and the final pair set is
   byte-identical to an uninterrupted end-to-end run.

The recovery is traced, and the script fails if the trace holds a
``delta-join`` span: replay applies logged batches and runs no join.
Span JSONL plus a summary JSON (with the replay time per WAL record)
land in ``--out`` so CI can archive them.

Usage::

    PYTHONPATH=src python scripts/recovery_smoke.py --out recovery-smoke/
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

import numpy as np

from repro import JoinSpec
from repro.core.incremental import IncrementalJoin
from repro.obs import Tracer, trace, write_jsonl

DIMS = 6
EPSILON = 0.25
BATCH_N = 120
N_BATCHES = 10

#: Stream mode: the parent kills after this acknowledgement line.
STREAM_KILL_AFTER = 4
#: Compact mode: updates applied before the raced explicit compact().
COMPACT_PREFIX = 5


def make_updates():
    """The deterministic update stream both parent and child replay."""
    rng = np.random.default_rng(7)
    updates = []
    next_id = 0
    for index in range(N_BATCHES):
        if index in (3, 7):
            updates.append(("delete", list(range(next_id - 20, next_id - 10))))
        else:
            updates.append(("insert", rng.random((BATCH_N, DIMS))))
            next_id += BATCH_N
    return updates


def apply_update(session, update):
    op, payload = update
    if op == "insert":
        session.insert(payload)
    else:
        session.delete(payload)


def make_spec(mode: str) -> JoinSpec:
    # Stream mode lets auto-compaction fire naturally; compact mode
    # disables it so the explicit, parent-raced compact() is the only
    # snapshot publish in play.
    threshold = 10_000_000 if mode == "compact" else 300
    return JoinSpec(epsilon=EPSILON, delta_threshold=threshold)


def child(path: str, mode: str) -> int:
    updates = make_updates()
    session = IncrementalJoin.open(path, spec=make_spec(mode))
    if mode == "stream":
        for index, update in enumerate(updates):
            apply_update(session, update)
            print(f"applied {index + 1}", flush=True)
            time.sleep(0.05)
    else:
        for update in updates[:COMPACT_PREFIX]:
            apply_update(session, update)
        print(f"applied {COMPACT_PREFIX}", flush=True)
        print("compacting", flush=True)
        session.compact()
        for index, update in enumerate(updates[COMPACT_PREFIX:]):
            apply_update(session, update)
            print(f"applied {COMPACT_PREFIX + index + 1}", flush=True)
            time.sleep(0.05)
    # Reached only if the parent never killed us: that is a harness bug.
    print("child survived the whole stream", file=sys.stderr)
    return 3


def sorted_pairs(pairs: np.ndarray) -> np.ndarray:
    if len(pairs) == 0:
        return pairs
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


def oracle_state(updates, upto: int):
    """Pair bytes + live count after the first ``upto`` updates, no disk."""
    session = IncrementalJoin(make_spec("stream"))
    for update in updates[:upto]:
        apply_update(session, update)
    return sorted_pairs(session.current_pairs()), session.n_live


def run_scenario(mode: str, out_dir: str) -> dict:
    workdir = tempfile.mkdtemp(prefix=f"recovery-smoke-{mode}-")
    path = os.path.join(workdir, "index")
    updates = make_updates()
    try:
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--child", mode, path],
            stdout=subprocess.PIPE,
            text=True,
        )
        kill_line = (
            f"applied {STREAM_KILL_AFTER}" if mode == "stream" else "compacting"
        )
        acked = 0
        for line in proc.stdout:
            line = line.strip()
            if line.startswith("applied "):
                acked = int(line.split()[1])
            if line == kill_line:
                proc.send_signal(signal.SIGKILL)
                break
        proc.wait(timeout=30)
        if proc.returncode != -signal.SIGKILL:
            raise AssertionError(
                f"{mode}: child exited {proc.returncode} instead of dying "
                "to SIGKILL — the harness never killed it"
            )

        tracer = Tracer()
        started = time.perf_counter()
        with trace.activate(tracer):
            session = IncrementalJoin.open(path)
        reopen_seconds = time.perf_counter() - started
        try:
            recovered_seq = session.last_update_seq
            if recovered_seq < acked:
                raise AssertionError(
                    f"{mode}: durability violated — child acknowledged "
                    f"{acked} updates but recovery replayed {recovered_seq}"
                )
            expected_pairs, expected_live = oracle_state(updates, recovered_seq)
            got = sorted_pairs(session.current_pairs())
            if got.tobytes() != expected_pairs.tobytes():
                raise AssertionError(
                    f"{mode}: recovered pairs diverged from the oracle at "
                    f"seq {recovered_seq}"
                )
            if session.n_live != expected_live:
                raise AssertionError(
                    f"{mode}: recovered {session.n_live} live points, "
                    f"oracle has {expected_live}"
                )

            for update in updates[recovered_seq:]:
                apply_update(session, update)
            session.compact()
            final = sorted_pairs(session.current_pairs())
        finally:
            stats = session.stats
            session.close()

        full_pairs, full_live = oracle_state(updates, len(updates))
        if final.tobytes() != full_pairs.tobytes():
            raise AssertionError(
                f"{mode}: post-recovery continuation diverged from the "
                "uninterrupted run"
            )

        spans = tracer.export()
        names = {s["name"] for s in spans}
        if "recover" not in names:
            raise AssertionError(f"{mode}: no recover span traced: {names}")
        # Replay applies each logged batch's state transition; the pairs
        # were reported when the batch was first applied, so no join
        # (and no delta-join span) may run while recovering.
        if "delta-join" in names:
            raise AssertionError(
                f"{mode}: recovery replayed {stats.wal_records_replayed} "
                "WAL records through a join (delta-join span traced)"
            )
        replay_seconds = sum(s["duration"] for s in spans if s["name"] == "replay")
        write_jsonl(spans, os.path.join(out_dir, f"recover_{mode}.jsonl"))
        return {
            "mode": mode,
            "acknowledged_before_kill": acked,
            "recovered_seq": recovered_seq,
            "final_seq": len(updates),
            "final_pairs": int(len(final)),
            "final_live": int(full_live),
            "wal_records_replayed": stats.wal_records_replayed,
            "corrupt_frames_discarded": stats.corrupt_frames_discarded,
            "snapshot_bytes": stats.snapshot_bytes,
            "reopen_seconds": reopen_seconds,
            "replay_seconds": replay_seconds,
            "replay_seconds_per_record": (
                replay_seconds / stats.wal_records_replayed
                if stats.wal_records_replayed
                else None
            ),
            "recover_spans": int(len(spans)),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--child",
        nargs=2,
        metavar=("MODE", "PATH"),
        help="internal: run the to-be-killed session (mode: stream|compact)",
    )
    parser.add_argument("--out", default="recovery-smoke")
    args = parser.parse_args()

    if args.child:
        mode, path = args.child
        return child(path, mode)

    os.makedirs(args.out, exist_ok=True)
    results = [run_scenario(mode, args.out) for mode in ("stream", "compact")]
    summary_path = os.path.join(args.out, "summary.json")
    with open(summary_path, "w") as handle:
        json.dump({"scenarios": results}, handle, indent=2)
        handle.write("\n")
    for result in results:
        print(
            f"{result['mode']}: killed after ack {result['acknowledged_before_kill']}, "
            f"recovered seq {result['recovered_seq']} "
            f"({result['wal_records_replayed']} WAL records, "
            f"{result['corrupt_frames_discarded']} frames discarded), "
            f"continued to seq {result['final_seq']} — "
            f"{result['final_pairs']} pairs byte-identical to the "
            f"uninterrupted run"
        )
    print(f"summary: {summary_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
