"""``stream-persist``: one closed-loop caller drives a persisted session.

The caller opens ``IncrementalJoin.open(dir, spec, sync_mode="batch")``,
loads a base and compacts.  An explicit ``compact()`` and a fixed tail
of batches make the reopen target: the closed directory is copied, and
the copy is reopened repeatedly, so every reopen replays the same
write-ahead log records.  The stream resumes through a reopen of its
own directory and alternates inserts of new points with deletes of
random live ids; the reopens of the copy are spread between its steps.

Layers on the path: ``core.incremental`` (delta probe, retraction,
compaction) -> ``storage.wal`` / ``storage.snapshot``, plus recovery.
No serving layer runs.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import time
from typing import Dict

import numpy as np

from common import (
    DIMS, WORK, CheckFailed, Samples, bytes_written, draw_points,
    epsilon_for_output, figure, median, op_count, peak_rss_mb, timed,
)

PAIRS_PER_POINT = 1.33
#: Update batches journaled after the final explicit compaction; every
#: reopen replays exactly these records.
TAIL_BATCHES = 6
SYNC_MODE = "batch"
#: Repetitions of each storage probe in the traced run.
PROBES = 10


def _digest(pairs: np.ndarray) -> str:
    return hashlib.blake2b(np.ascontiguousarray(pairs).tobytes(), digest_size=16).hexdigest()


class _Stream:
    """The session under test plus the input pool it draws from."""

    def __init__(self, seed: int, base: int, batch: int, steps: int, eps: float,
                 directory: str):
        from repro import IncrementalJoin, JoinSpec

        self.rng = np.random.default_rng(seed)
        # Every point the stream will insert, drawn up front.
        self.pool = draw_points(base + steps * batch, self.rng)
        self.batch = batch
        self.eps = eps
        self.spec = JoinSpec(epsilon=self.eps)
        shutil.rmtree(directory, ignore_errors=True)
        self.directory = directory
        self.session = IncrementalJoin.open(directory, spec=self.spec, sync_mode=SYNC_MODE)
        self.session.insert(self.pool[:base])
        self.session.compact()
        self.next_row = base

    def new_points(self) -> np.ndarray:
        if self.next_row + self.batch > len(self.pool):
            raise CheckFailed("the stream ran out of pre-drawn points")
        rows = self.pool[self.next_row:self.next_row + self.batch]
        self.next_row += self.batch
        return rows

    def victims(self) -> np.ndarray:
        live = self.session.live_ids()
        return self.rng.choice(live, size=self.batch // 2, replace=False)


def run(seed: int, seconds: float, trace: bool, base: int, batch: int, setups: int,
        step_s: float, reopen_s: float) -> Dict:
    """``step_s`` (one insert plus one delete) and ``reopen_s`` (one
    reopen plus its check) are nominal costs that set how many of each
    fit in ``seconds``."""
    from repro import IncrementalJoin, epsilon_kdb_self_join
    from repro.obs import Tracer, trace as obs_trace

    untraced_steps = op_count(seconds, 0.35 if trace else 0.55, step_s, minimum=10)
    traced_steps = op_count(seconds, 0.15, step_s, minimum=6) if trace else 0
    reopens = op_count(seconds, 0.3 if trace else 0.45, reopen_s, minimum=3)
    # One discarded warm-up step, the tail, then the measured steps.
    steps = 1 + TAIL_BATCHES // 2 + untraced_steps + traced_steps

    eps = epsilon_for_output(base, PAIRS_PER_POINT)
    setup_s = []
    stream = None
    for k in range(setups):
        if stream is not None:
            stream.session.close()
            shutil.rmtree(stream.directory, ignore_errors=True)
        stream, took = timed(_Stream, seed, base, batch, steps, eps,
                             os.path.join(WORK, f"stream-{k}"))
        setup_s.append(took)

    inserts, deletes = Samples("ms"), Samples("ms")
    traced_inserts, paired_inserts = Samples("ms"), Samples("ms")
    compaction_inserts = Samples("ms")
    counts = {"attempted": 0, "failed": 0}
    io = {"user": 0, "written": 0}

    def step(insert_times: Samples) -> None:
        session = stream.session
        points = stream.new_points()
        written = bytes_written()
        before = session.stats.compactions
        _, took = timed(session.insert, points)
        insert_times.add(took * 1e3)
        if session.stats.compactions > before:
            compaction_inserts.add(took * 1e3)
        ids = stream.victims()
        _, took = timed(session.delete, ids)
        deletes.add(took * 1e3)
        io["written"] += bytes_written() - written
        io["user"] += points.nbytes + ids.nbytes
        counts["attempted"] += 2

    step(Samples("ms"))  # warm-up, discarded

    # The reopen target: an explicit compaction, then a fixed tail of
    # journaled batches.  A copy of the closed directory is reopened
    # between stream steps, so the reopen samples span the whole run as
    # the insert samples do, and every reopen replays the same tail.
    _, compact_s = timed(stream.session.compact)
    for _ in range(TAIL_BATCHES // 2):
        step(inserts)
    digest = _digest(stream.session.current_pairs())
    stream.session.close()
    target = stream.directory + "-reopen"
    shutil.rmtree(target, ignore_errors=True)
    shutil.copytree(stream.directory, target)

    reopen = Samples("ms")
    replayed = set()

    def reopen_target(times: Samples):
        started = time.perf_counter()
        again = IncrementalJoin.open(target)
        again.close()
        times.add((time.perf_counter() - started) * 1e3)
        replayed.add(again.stats.wal_records_replayed)
        counts["attempted"] += 1
        if _digest(again.current_pairs()) != digest:
            raise CheckFailed("current_pairs() differs after a reopen")
        return again

    reopen_target(Samples("ms"))  # warm-up, discarded
    # The stream itself resumes through a reopen, replaying the tail.
    stream.session = IncrementalJoin.open(stream.directory)
    if _digest(stream.session.current_pairs()) != digest:
        raise CheckFailed("the resumed stream lost pairs")

    stride = max(1, untraced_steps // reopens)
    for i in range(untraced_steps):
        step(inserts)
        if i % stride == stride - 1 and len(reopen) < reopens:
            again = reopen_target(reopen)
    while len(reopen) < reopens:
        again = reopen_target(reopen)
    if replayed != {TAIL_BATCHES}:
        raise CheckFailed(f"reopens replayed {replayed} records, expected {TAIL_BATCHES}")
    # Traced and untraced steps alternate, so both see the same session size.
    tracer = Tracer()
    for i in range(traced_steps):
        if i % 2:
            step(paired_inserts)
        else:
            with obs_trace.activate(tracer):
                step(traced_inserts)

    session = stream.session
    pairs = session.current_pairs()
    stats = session.stats
    session.close()
    # The live set equals a fresh batch join over the surviving points.
    counts["attempted"] += 1
    ids = session.live_ids()
    fresh = epsilon_kdb_self_join(session.live_points(), stream.spec).pairs
    fresh = np.sort(ids[fresh], axis=1)
    fresh = fresh[np.lexsort((fresh[:, 1], fresh[:, 0]))]
    if not np.array_equal(fresh, pairs):
        raise CheckFailed("the session's pairs differ from a fresh join of its live points")

    figures = {
        "setup_s": {**figure(median(setup_s), "s", len(setup_s)), "samples": setup_s},
        "insert_p50_ms": inserts.figure(50),
        "insert_p90_ms": inserts.figure(90),
        "delete_p50_ms": deletes.figure(50),
        "delete_p90_ms": deletes.figure(90),
        "reopen_ms": reopen.figure(50),
        "write_amp": figure(io["written"] / io["user"], "ratio"),
        "peak_rss_mb": figure(peak_rss_mb(), "MB"),
    }
    roles = {
        "setup_s": figures["setup_s"]["value"],
        "latency_ms": inserts.percentile(50),
        "tail_ms": inserts.percentile(90),
        "stressed_ms": reopen.percentile(50),
        "peak_rss_mb": figures["peak_rss_mb"]["value"],
    }
    config = {
        "base": base, "batch": batch, "delete_batch": batch // 2, "dims": DIMS,
        "epsilon": stream.eps, "sync_mode": SYNC_MODE, "tail_batches": TAIL_BATCHES,
        "live_pairs": int(len(pairs)),
    }
    layers = {}
    if trace:
        layers = _layers(stream, target, again, stats, pairs, compact_s, reopen,
                         compaction_inserts, traced_inserts, paired_inserts)
    shutil.rmtree(stream.directory, ignore_errors=True)
    shutil.rmtree(target, ignore_errors=True)
    samples = {"insert_ms": inserts.values, "delete_ms": deletes.values,
               "reopen_ms": reopen.values}
    return {"counts": counts, "figures": figures, "roles": roles, "layers": layers,
            "config": config, "samples": samples}


def _layers(stream, target, reopened, stats, pairs, compact_s, reopen, compaction_inserts,
            traced_inserts, paired_inserts) -> Dict[str, float]:
    """Storage and recovery split, timed through each layer's own API."""
    from repro import FlatEpsilonKdbTree
    from repro.storage.snapshot import list_snapshots, load_snapshot
    from repro.storage.wal import WriteAheadLog

    side = os.path.join(WORK, "side-wal.ekdb")
    wal = WriteAheadLog(side, sync_mode=SYNC_MODE)
    wal_ms, load_ms, build_ms = [], [], []
    user = 0
    seq = 0
    _, newest = list_snapshots(target)[-1]
    live = reopened.live_points()
    for _ in range(PROBES):
        for _ in range(8):
            seq += 1
            start = (seq * stream.batch) % (len(stream.pool) - stream.batch)
            points = stream.pool[start:start + stream.batch]
            started = time.perf_counter()
            wal.append_insert(seq, points)
            wal.sync()
            wal_ms.append((time.perf_counter() - started) * 1e3)
            user += points.nbytes
        _, took = timed(load_snapshot, newest)
        load_ms.append(took * 1e3)
        tree, took = timed(FlatEpsilonKdbTree.build, live, stream.spec)
        build_ms.append(took * 1e3)
    wal.close()
    wal_bytes = os.path.getsize(side)
    os.remove(side)
    snap_bytes = os.path.getsize(newest)
    _, arrays = load_snapshot(newest)
    snap_points = len(arrays["base_ids"]) + len(arrays["delta_ids"])
    return {
        "flat_build.build_ms": median(build_ms),
        "flat_build.nodes": tree.n_nodes,
        "kernels.kernel_s": stats.kernel_seconds / max(1, stats.updates_applied),
        "kernels.distance_computations": stats.distance_computations,
        "kernels.blocks": stats.kernel_blocks,
        "kernels.useful_frac": stats.pairs_emitted / max(1, stats.distance_computations),
        "incremental.compact_ms": compact_s * 1e3,
        "incremental.compactions": stats.compactions,
        "incremental.compaction_insert_ms": (compaction_inserts.percentile(50)
                                             if len(compaction_inserts) else 0.0),
        "incremental.pairs_emitted": stats.pairs_emitted,
        "incremental.pairs_retracted": stats.pairs_retracted,
        "incremental.sketch_rel_error": (abs(stats.estimated_join_size - len(pairs))
                                         / max(1, len(pairs))),
        "wal.append_ms": median(wal_ms),
        "wal.bytes_per_user_byte": wal_bytes / user,
        "snapshot.load_ms": median(load_ms),
        "snapshot.bytes_per_point": snap_bytes / max(1, snap_points),
        "snapshot.bytes_per_user_byte": snap_bytes / max(1, snap_points * (DIMS + 1) * 8),
        "recovery.replay_records": reopened.stats.wal_records_replayed,
        "recovery.replay_ms": reopen.percentile(50) - median(load_ms),
        "obs.trace_overhead_frac": (traced_inserts.percentile(50)
                                    / paired_inserts.percentile(50) - 1.0),
    }
