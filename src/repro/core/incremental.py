"""Incremental streaming similarity joins over a mutable point set.

The batch entry points answer one join over a frozen array; a live
serving system instead sees a *stream* of updates and wants the result
pairs each update adds or removes, without rebuilding the structure per
batch ("Dynamic Enumeration of Similarity Joins", PAPERS.md).

:class:`IncrementalJoin` keeps the classic LSM shape:

* a **base** structure — a :class:`~repro.core.flat_build.FlatEpsilonKdbTree`
  over the points at the last compaction, with a tombstone bit per row;
* a **delta buffer** — points inserted since, joined by brute tree
  probes rather than indexed.

``insert(points)`` emits exactly the pairs the batch creates, as three
disjoint sub-joins through the existing cascade kernels: within the
batch (self-join), batch vs the live delta (two-set join), and batch vs
the base via a probe of the base tree (the batch rows descend it as
fragments of the join frontier, :func:`~repro.core.join.flat_probe`;
no tree is built over the batch).  ``delete(ids)`` is symmetric and emits the pairs it
retracts.  When the delta outgrows ``spec.resolved_delta_threshold`` (or
on an explicit :meth:`~IncrementalJoin.compact`), live rows are merged
into a freshly built base tree; the swap happens only after the build
succeeds, so an injected :class:`~repro.errors.TransientIoError`
mid-compaction leaves the session state untouched.

The correctness contract — enforced by the stateful hypothesis suite and
the differential matrix — is exact enumeration: after any prefix of any
update stream, the accumulated emitted pairs minus the retracted pairs
are byte-identical to a from-scratch batch join over the surviving
points.

:class:`JoinSizeSketch` adds the one-pass size estimator of Rafiei &
Deng (PAPERS.md): points hash by their randomly-shifted epsilon-cell
into ``2**sketch_bits`` counters, whose collision count yields an
unbiased estimate of the number of same-cell pairs — a constant-factor
proxy for the join size, cheap enough to maintain per update batch.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.config import JoinSpec, validate_points
from repro.core.epsilon_kdb import Grid
from repro.core.flat_build import FlatEpsilonKdbTree, live_batch_range_query
from repro.core.join import epsilon_kdb_join, epsilon_kdb_self_join, flat_probe
from repro.core.resilience import FaultPlan, retry_transient
from repro.core.result import JoinResult, JoinStats, sort_pairs, sorted_unique
from repro.errors import (
    AdmissionError,
    CorruptSnapshotError,
    InvalidParameterError,
    StorageError,
    TransientIoError,
)
from repro.obs import trace
from repro.storage.snapshot import (
    list_snapshots,
    load_snapshot,
    prune_snapshots,
    write_snapshot,
)
from repro.storage.wal import (
    OP_INSERT,
    WAL_FILENAME,
    WriteAheadLog,
    encode_delete,
    encode_insert,
    scan_wal,
)

#: Transient-failure retry budget for the compaction build.
DEFAULT_IO_RETRIES = 2

#: Seed of the sketch's random shift and hash multipliers; fixed so two
#: sessions over the same stream report the same estimates.
DEFAULT_SKETCH_SEED = 0x5EED

_EMPTY_IDS = np.empty(0, dtype=np.int64)
_EMPTY_PAIRS = np.empty((0, 2), dtype=np.int64)


def _canonical_id_pairs(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Orient id pairs ``lo < hi`` and sort lexicographically."""
    return sort_pairs(np.minimum(left, right), np.maximum(left, right))


def subtract_pairs(pairs: np.ndarray, remove: np.ndarray) -> np.ndarray:
    """Canonical set difference of two duplicate-free pair arrays.

    ``remove`` must be a subset of ``pairs`` (the session guarantees a
    retracted pair was emitted before, and emitted exactly once — ids
    are never reused).  Stacking ``pairs`` with two copies of ``remove``
    makes every removed row appear three times and every kept row once,
    so one ``np.unique`` pass both filters and canonicalizes.
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    remove = np.asarray(remove, dtype=np.int64).reshape(-1, 2)
    stacked = np.concatenate([pairs, remove, remove])
    uniq, counts = np.unique(stacked, axis=0, return_counts=True)
    return uniq[counts == 1]


class JoinSizeSketch:
    """One-pass estimator of the self-join size of a dynamic point set.

    Each point hashes by its cell in a randomly shifted grid of width
    ``cell_width`` (the spec's per-coordinate band) into one of
    ``2**bits`` counters.  The sketch maintains ``n`` and the number of
    same-bucket pairs ``S`` incrementally under both inserts and
    deletes; :meth:`estimate` removes the expected hash-collision mass,
    giving an unbiased estimate of the number of *same-cell* pairs.
    Two points within distance ``epsilon`` land in the same shifted cell
    with probability ``prod_k(1 - |x_k - y_k| / w)`` — a constant factor
    of the join size for a fixed dimensionality, which is all admission
    control needs (the documented empirical bound is measured by
    benchmark E18).
    """

    def __init__(
        self,
        cell_width: float,
        bits: int = 12,
        seed: int = DEFAULT_SKETCH_SEED,
    ):
        if not np.isfinite(cell_width) or cell_width <= 0:
            raise InvalidParameterError(
                f"cell_width must be a positive finite number, got {cell_width!r}"
            )
        self.cell_width = float(cell_width)
        self.n_buckets = 1 << int(bits)
        self._seed = int(seed)
        self._shift: Optional[np.ndarray] = None
        self._mults: Optional[np.ndarray] = None
        self.counts = np.zeros(self.n_buckets, dtype=np.int64)
        self.n = 0
        self._same_bucket_pairs = 0

    def _buckets(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=np.float64)
        d = points.shape[1]
        if self._shift is None:
            rng = np.random.default_rng(self._seed)
            self._shift = rng.uniform(0.0, self.cell_width, size=d)
            self._mults = rng.integers(1, 2**62, size=d, dtype=np.int64) | 1
        elif len(self._shift) != d:
            raise InvalidParameterError(
                f"sketch was built for {len(self._shift)}-dimensional points, got {d}"
            )
        cells = np.floor((points + self._shift) / self.cell_width).astype(np.int64)
        with np.errstate(over="ignore"):
            h = (cells * self._mults).sum(axis=1, dtype=np.int64)
            h = h * np.int64(-7046029254386353131)  # 64-bit Fibonacci mix
            h ^= h >> np.int64(32)
        return h & np.int64(self.n_buckets - 1)

    def add(self, points: np.ndarray) -> None:
        buckets = self._buckets(points)
        delta = np.bincount(buckets, minlength=self.n_buckets)
        self._same_bucket_pairs += int(
            (self.counts * delta).sum() + (delta * (delta - 1) // 2).sum()
        )
        self.counts += delta
        self.n += len(buckets)

    def remove(self, points: np.ndarray) -> None:
        """Inverse of :meth:`add` for points previously added."""
        buckets = self._buckets(points)
        delta = np.bincount(buckets, minlength=self.n_buckets)
        self.counts -= delta
        if (self.counts < 0).any():
            self.counts += delta
            raise InvalidParameterError(
                "sketch.remove() saw points that were never added"
            )
        self._same_bucket_pairs -= int(
            (self.counts * delta).sum() + (delta * (delta - 1) // 2).sum()
        )
        self.n -= len(buckets)

    def estimate(self) -> float:
        """Unbiased estimate of the same-cell pair count (clamped at 0)."""
        if self.n < 2:
            return 0.0
        buckets = float(self.n_buckets)
        total_pairs = self.n * (self.n - 1) / 2.0
        unbiased = (self._same_bucket_pairs - total_pairs / buckets) / (
            1.0 - 1.0 / buckets
        )
        return max(0.0, unbiased)


@dataclass
class UpdateDelta:
    """Result of one ``insert``/``delete`` batch.

    Attributes:
        ids: ids assigned to the batch (insert) or removed (delete).
        added: canonical ``(k, 2)`` id pairs the batch created.
        retracted: canonical ``(k, 2)`` id pairs the batch removed.
    """

    ids: np.ndarray = field(default_factory=lambda: _EMPTY_IDS.copy())
    added: np.ndarray = field(default_factory=lambda: _EMPTY_PAIRS.copy())
    retracted: np.ndarray = field(default_factory=lambda: _EMPTY_PAIRS.copy())


class IncrementalJoin:
    """A long-lived self-join session over a mutable point set.

    Points carry monotonically increasing int64 ids assigned by
    :meth:`insert` (never reused); all emitted pairs are id pairs with
    ``lo < hi``, lexicographically sorted.  See the module docstring for
    the base/delta architecture and the exactness contract.

    Args:
        spec: join parameters; ``spec.delta_threshold`` (via
            :meth:`~repro.core.config.JoinSpec.resolved_delta_threshold`)
            sets the auto-compaction trigger and ``spec.sketch_bits``
            sizes the join-size sketch.
        engine: ``"serial"`` (default) runs every sub-join in process;
            ``"parallel"`` routes the batch-vs-base probe (the dominant
            cost) through
            :class:`~repro.core.parallel.ParallelJoinExecutor`.  Both
            engines emit byte-identical deltas.
        fault_plan: a :class:`~repro.core.resilience.FaultPlan` whose
            ``io_fault`` sites fire once per compaction *attempt*
            (ordinals count attempts, so a retried compaction consumes
            the next ordinal); its storage-corruption faults fire at the
            WAL-append and snapshot-publish sites of a persisted
            session.
        io_retries: transient-failure retry budget per compaction.
        use_processes / n_workers: forwarded to the parallel executor.

    When ``spec.persist_path`` is set the session is durable: every
    update batch is journaled to a write-ahead log *before* it mutates
    session state, every compaction publishes a checksummed snapshot
    (and truncates the log), and :meth:`open` recovers the exact session
    from the last durable snapshot plus the log suffix — including after
    a crash, a torn write, or a corrupted file (see docs/persistence.md).
    The constructor only ever *creates* a persisted session; a directory
    that already holds one must go through :meth:`open`.
    """

    def __init__(
        self,
        spec: JoinSpec,
        *,
        engine: str = "serial",
        fault_plan: Optional[FaultPlan] = None,
        io_retries: int = DEFAULT_IO_RETRIES,
        use_processes: bool = True,
        n_workers: Optional[int] = None,
    ):
        if engine not in ("serial", "parallel"):
            raise InvalidParameterError(
                f'engine must be "serial" or "parallel", got {engine!r}'
            )
        if int(io_retries) < 0:
            raise InvalidParameterError(
                f"io_retries must be >= 0, got {io_retries!r}"
            )
        self.spec = spec
        self.engine = engine
        self.stats = JoinStats()
        self._fault_plan = fault_plan
        self._io_retries = int(io_retries)
        self._use_processes = use_processes
        self._n_workers = n_workers
        self._executor = None
        self._dims: Optional[int] = None
        self._sketch: Optional[JoinSizeSketch] = None
        self._next_id = 0
        self._compact_attempts = 0
        self._base_points = np.empty((0, 0), dtype=np.float64)
        self._base_ids = _EMPTY_IDS.copy()
        self._base_alive = np.empty(0, dtype=bool)
        self._base_tree: Optional[FlatEpsilonKdbTree] = None
        self._delta_points = np.empty((0, 0), dtype=np.float64)
        self._delta_ids = _EMPTY_IDS.copy()
        self._delta_alive = np.empty(0, dtype=bool)
        self._persist_dir: Optional[str] = spec.persist_path
        self._wal: Optional[WriteAheadLog] = None
        self._snapshot_seq = -1
        self._update_seq = 0
        self._replaying = False
        if self._persist_dir is not None:
            self._init_fresh_storage()

    # ------------------------------------------------------------------
    # persistence lifecycle
    # ------------------------------------------------------------------
    def _init_fresh_storage(self) -> None:
        """Create the session directory, journal and initial snapshot.

        The seq-0 snapshot of the empty session guarantees a durable
        prefix exists from the first moment, so recovery always has a
        consistent state to fall back to.
        """
        self.spec.fingerprint()  # reject unserializable metrics up front
        os.makedirs(self._persist_dir, exist_ok=True)
        wal_path = os.path.join(self._persist_dir, WAL_FILENAME)
        if list_snapshots(self._persist_dir) or os.path.exists(wal_path):
            raise InvalidParameterError(
                f"{self._persist_dir!r} already holds a persisted session; "
                "recover it with IncrementalJoin.open() instead"
            )
        self._wal = WriteAheadLog(
            wal_path, sync_mode=self.spec.sync_mode, fault_plan=self._fault_plan
        )
        self._publish_snapshot()

    @classmethod
    def open(
        cls,
        path: str,
        *,
        spec: Optional[JoinSpec] = None,
        sync_mode: Optional[str] = None,
        engine: str = "serial",
        fault_plan: Optional[FaultPlan] = None,
        io_retries: int = DEFAULT_IO_RETRIES,
        use_processes: bool = True,
        n_workers: Optional[int] = None,
        keep_generations: Optional[int] = None,
    ) -> "IncrementalJoin":
        """Open (or create) the persisted session stored at ``path``.

        If ``path`` holds no session yet, ``spec`` is required and a
        fresh persisted session is created.  Otherwise the session is
        *recovered*: the newest snapshot that passes its magic, length
        and checksum validation is memmapped back (falling back across
        generations when a file is damaged), the write-ahead log's
        durable prefix is replayed on top — each logged batch's state
        transition is applied, and no join runs, since its pairs were
        reported when it was first applied — and any torn or corrupted
        suffix is discarded — counted in
        ``stats.corrupt_frames_discarded``.  A ``spec`` passed alongside
        an existing session must match the persisted structural
        fingerprint; runtime knobs (engine, workers, ``sync_mode``,
        ``keep_generations``) may differ freely.  Raises
        :class:`~repro.errors.CorruptSnapshotError` only when every
        snapshot generation fails validation.
        """
        path = str(path)
        snaps = list_snapshots(path)
        if not snaps:
            if spec is None:
                raise InvalidParameterError(
                    f"{path!r} holds no persisted session and no spec was "
                    "given to create one"
                )
            fresh = replace(
                spec,
                persist_path=path,
                sync_mode=sync_mode if sync_mode is not None else spec.sync_mode,
            )
            if keep_generations is not None:
                fresh = replace(fresh, keep_generations=keep_generations)
            return cls(
                fresh,
                engine=engine,
                fault_plan=fault_plan,
                io_retries=io_retries,
                use_processes=use_processes,
                n_workers=n_workers,
            )
        started = time.perf_counter()
        with trace.span("recover", path=path, snapshots=len(snaps)) as span:
            meta = arrays = None
            chosen_path = None
            discarded = 0
            for seq, snap_path in reversed(snaps):
                try:
                    meta, arrays = load_snapshot(snap_path)
                    chosen_path = snap_path
                    break
                except StorageError:
                    discarded += 1
            if meta is None:
                raise CorruptSnapshotError(
                    f"all {len(snaps)} snapshot generations in {path!r} "
                    "failed validation; no durable state survives"
                )
            disk_spec = JoinSpec.from_structural_dict(meta["spec"])
            if spec is not None and spec.fingerprint() != disk_spec.fingerprint():
                raise InvalidParameterError(
                    "the given spec does not match the persisted session "
                    f"(fingerprint {spec.fingerprint()} != "
                    f"{disk_spec.fingerprint()}); open without a spec to "
                    "use the stored one"
                )
            run_sync = sync_mode
            if run_sync is None:
                run_sync = spec.sync_mode if spec is not None else disk_spec.sync_mode
            mem_spec = replace(
                spec if spec is not None else disk_spec,
                persist_path=None,
                sync_mode=run_sync,
            )
            session = cls(
                mem_spec,
                engine=engine,
                fault_plan=fault_plan,
                io_retries=io_retries,
                use_processes=use_processes,
                n_workers=n_workers,
            )
            session.spec = replace(mem_spec, persist_path=path)
            if keep_generations is not None:
                session.spec = replace(
                    session.spec, keep_generations=keep_generations
                )
            session._persist_dir = path
            # Never reuse a seq already on disk, even a corrupt one.
            session._snapshot_seq = snaps[-1][0]
            session._restore_state(meta, arrays)
            session.stats.snapshot_bytes = max(
                session.stats.snapshot_bytes, os.path.getsize(chosen_path)
            )
            # Scan the journal, keeping only the contiguous run that
            # chains onto the snapshot's watermark.  Records at or below
            # the watermark are already folded in (a crash between
            # snapshot publish and log truncation leaves them behind);
            # a gap means the records presuppose state that died with a
            # newer, unrecoverable snapshot — everything from the gap on
            # is discarded.
            wal_path = os.path.join(path, WAL_FILENAME)
            records, valid_bytes, wal_discarded = scan_wal(wal_path)
            discarded += wal_discarded
            replayable = []
            expected = int(meta["wal_seq"]) + 1
            for rec in records:
                if rec.seq < expected:
                    continue
                if rec.seq != expected:
                    discarded += 1
                    break
                replayable.append(rec)
                expected += 1
            # Keep an intact journal as it is.  Rewrite it only when
            # records that must not be replayed again sit inside it
            # (stale ones at or below the watermark, or everything after
            # a gap) or its header is gone; otherwise cut a damaged
            # suffix off at the durable prefix.  The rewrite runs with
            # fault hooks disabled: these records already survived their
            # own append faults.
            wal = WriteAheadLog(wal_path, sync_mode=run_sync, fault_plan=None)
            if len(replayable) != len(records) or (wal_discarded and not records):
                wal.reset()
                for rec in replayable:
                    if rec.op == OP_INSERT:
                        wal.append(encode_insert(rec.seq, rec.points), rec.seq)
                    else:
                        wal.append(encode_delete(rec.seq, rec.ids), rec.seq)
            elif wal_discarded:
                wal.truncate_to(valid_bytes)
            wal.sync()
            wal.fault_plan = fault_plan
            session._wal = wal
            # Replay applies each logged batch's state transition and
            # nothing else: the pairs a batch created or retracted were
            # reported when it was first applied, so recovery runs no
            # join.  Compaction still fires at the same record as it did
            # for the writer, but ``_replaying`` keeps it from publishing.
            session._replaying = True
            try:
                with trace.span("replay", records=len(replayable)):
                    for rec in replayable:
                        if rec.op == OP_INSERT:
                            session._apply_insert(rec.points)
                        elif len(rec.ids):
                            session._apply_delete(*session._live_rows(rec.ids))
                        else:
                            # A log written before empty deletes became
                            # no-ops holds one; it still consumes its seq.
                            session._update_seq += 1
            finally:
                session._replaying = False
            session.stats.wal_records_replayed += len(replayable)
            session.stats.corrupt_frames_discarded += discarded
            span.set_attribute("replayed", len(replayable))
            span.set_attribute("discarded", discarded)
            span.set_attribute("recovered_seq", session._update_seq)
        session.stats.recovery_seconds += time.perf_counter() - started
        return session

    @property
    def last_update_seq(self) -> int:
        """Sequence number of the most recent durable update batch."""
        return self._update_seq

    def close(self) -> None:
        """Flush and close the write-ahead log (no-op when memory-only)."""
        if self._wal is not None and not self._wal.closed:
            self._wal.close()

    def __enter__(self) -> "IncrementalJoin":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _publish_snapshot(self) -> None:
        """Write, fsync and atomically publish the next snapshot generation."""
        self._snapshot_seq += 1
        meta, arrays = self._snapshot_state()
        _, nbytes = write_snapshot(
            self._persist_dir,
            self._snapshot_seq,
            meta,
            arrays,
            fault_plan=self._fault_plan,
            fsync=self.spec.sync_mode != "off",
        )
        prune_snapshots(self._persist_dir, keep=self.spec.keep_generations)
        self.stats.snapshot_bytes = max(self.stats.snapshot_bytes, nbytes)

    def _snapshot_state(self) -> Tuple[dict, dict]:
        """The session's full durable state as (metadata, named arrays)."""
        meta: dict = {
            "snap_seq": self._snapshot_seq,
            "wal_seq": self._update_seq,
            "next_id": self._next_id,
            "dims": self._dims,
            "spec": self.spec.structural_dict(),
            "spec_fingerprint": self.spec.fingerprint(),
            "tree": None,
            "sketch": None,
        }
        arrays: dict = {
            "base_ids": self._base_ids,
            "base_alive": self._base_alive,
            "delta_points": self._delta_points,
            "delta_ids": self._delta_ids,
            "delta_alive": self._delta_alive,
        }
        tree = self._base_tree
        if tree is not None:
            meta["tree"] = {
                "epsilon": tree.spec.epsilon,
                "grid": {
                    "lo": [float(v) for v in tree.grid.lo],
                    "hi": [float(v) for v in tree.grid.hi],
                    "eps": float(tree.grid.eps),
                    "n_cells": [int(v) for v in tree.grid.n_cells],
                },
            }
            arrays["points_flat"] = tree.points_flat
            arrays["perm"] = tree.perm
            arrays["digits"] = tree.digits
            arrays["packed_nodes"] = tree.packed_nodes()
        if self._sketch is not None:
            meta["sketch"] = {
                "n": self._sketch.n,
                "same_bucket_pairs": self._sketch._same_bucket_pairs,
            }
            arrays["sketch_counts"] = self._sketch.counts
        return meta, arrays

    def _restore_state(self, meta: dict, arrays: dict) -> None:
        """Adopt a loaded snapshot's state (arrays may be memmap views)."""
        self._dims = meta["dims"]
        self._next_id = int(meta["next_id"])
        self._update_seq = int(meta["wal_seq"])
        dims = self._dims or 0
        if self._dims is not None:
            sketch = JoinSizeSketch(
                self.spec.band_width, bits=self.spec.sketch_bits
            )
            sketch.n = int(meta["sketch"]["n"])
            sketch._same_bucket_pairs = int(meta["sketch"]["same_bucket_pairs"])
            sketch.counts = np.array(arrays["sketch_counts"], dtype=np.int64)
            self._sketch = sketch
            self.stats.estimated_join_size = max(
                self.stats.estimated_join_size, sketch.estimate()
            )
        self._base_ids = np.asarray(arrays["base_ids"], dtype=np.int64)
        # Tombstone and delta-alive bits are mutated in place; snapshot
        # views are read-only, so take writable copies.
        self._base_alive = np.array(arrays["base_alive"], dtype=bool)
        self._delta_points = np.asarray(arrays["delta_points"], dtype=np.float64)
        self._delta_ids = np.asarray(arrays["delta_ids"], dtype=np.int64)
        self._delta_alive = np.array(arrays["delta_alive"], dtype=bool)
        if meta["tree"] is not None:
            grid_meta = meta["tree"]["grid"]
            grid = Grid(
                lo=np.asarray(grid_meta["lo"], dtype=np.float64),
                hi=np.asarray(grid_meta["hi"], dtype=np.float64),
                eps=float(grid_meta["eps"]),
                n_cells=np.asarray(grid_meta["n_cells"], dtype=np.int64),
            )
            # The stored grid alone makes the tree exact: a tree built
            # at a coarser epsilon (older snapshots) keeps its wider
            # cells, which only over-approximate the adjacency rule.
            tree = FlatEpsilonKdbTree.from_arrays(
                np.asarray(arrays["points_flat"], dtype=np.float64),
                np.asarray(arrays["perm"], dtype=np.int64),
                np.asarray(arrays["digits"], dtype=np.int64),
                np.asarray(arrays["packed_nodes"], dtype=np.int64),
                self.spec,
                grid,
            )
            self._base_tree = tree
            # Input-order base points via the inverse permutation (one
            # vectorized gather; no sorting, no build spans).
            inverse = np.empty(len(tree.perm), dtype=np.int64)
            inverse[tree.perm] = np.arange(len(tree.perm), dtype=np.int64)
            self._base_points = np.ascontiguousarray(tree.points_flat[inverse])
        else:
            self._base_tree = None
            self._base_points = np.empty((0, dims), dtype=np.float64)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def n_live(self) -> int:
        return int(self._base_alive.sum()) + int(self._delta_alive.sum())

    @property
    def dims(self) -> Optional[int]:
        """Dimensionality, or ``None`` before the first insert."""
        return self._dims

    @property
    def delta_size(self) -> int:
        """Live rows currently in the delta buffer."""
        return int(self._delta_alive.sum())

    @property
    def estimated_join_size(self) -> float:
        return self._sketch.estimate() if self._sketch is not None else 0.0

    def live_ids(self) -> np.ndarray:
        """Ids of the surviving points, ascending."""
        return np.sort(
            np.concatenate(
                [self._base_ids[self._base_alive], self._delta_ids[self._delta_alive]]
            )
        )

    def live_points(self) -> np.ndarray:
        """Surviving points in ascending id order (oracle ordering)."""
        ids = np.concatenate(
            [self._base_ids[self._base_alive], self._delta_ids[self._delta_alive]]
        )
        points = np.concatenate(
            [
                self._base_points[self._base_alive].reshape(-1, self._dims or 0),
                self._delta_points[self._delta_alive].reshape(-1, self._dims or 0),
            ]
        )
        return points[np.argsort(ids)]

    def __len__(self) -> int:
        return self.n_live

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def insert(self, points: np.ndarray) -> UpdateDelta:
        """Add a batch; return its ids and the pairs it created.

        Batches containing NaN or infinite coordinates are rejected up
        front with :class:`~repro.errors.InvalidParameterError` — before
        any journaling or state mutation, so an invalid batch can never
        reach the grid internals or poison a persisted session's log.
        With ``spec.admission_threshold`` set, a batch whose
        sketch-predicted join size exceeds the threshold is refused with
        :class:`~repro.errors.AdmissionError`, likewise before any
        journaling (counted in ``stats.batches_rejected``).
        """
        points = self._admit_insert(points)
        ids = np.arange(self._next_id, self._next_id + len(points), dtype=np.int64)
        added = self._insert_pairs(points, ids)
        self.stats.pairs_emitted += len(added)
        self._apply_insert(points)
        return UpdateDelta(ids=ids, added=added)

    def delete(self, ids: Union[Sequence[int], np.ndarray]) -> UpdateDelta:
        """Remove points by id; return the pairs that retracts.

        An empty batch is a no-op and journals nothing.
        """
        ids = np.asarray(ids, dtype=np.int64).ravel()
        if not len(ids):
            return UpdateDelta()
        base_rows, delta_rows = self._live_rows(ids)
        if self._wal is not None:
            # Journal only after the whole batch validated: a rejected
            # delete leaves no trace in the log, so replay can apply
            # every journaled record unconditionally.
            self._wal.append_delete(self._update_seq + 1, ids)
        # Tombstone first so the probes below only see survivors.
        removed_points, removed_ids = self._apply_delete(base_rows, delta_rows)
        retracted = self._delete_pairs(removed_points, removed_ids)
        self.stats.pairs_retracted += len(retracted)
        return UpdateDelta(ids=np.sort(ids), retracted=retracted)

    # An update runs in three steps: admit and journal the batch, compute
    # the pairs it creates or retracts (the three sub-joins), and apply
    # its state transition.  Recovery replays a logged batch through the
    # last step alone.
    def _admit_insert(self, points: np.ndarray) -> np.ndarray:
        """Validate an insert batch, run admission control, journal it."""
        points = validate_points(points, "insert batch")
        if self._dims is not None and points.shape[1] != self._dims:
            raise InvalidParameterError(
                f"session holds {self._dims}-dimensional points, "
                f"got a batch with {points.shape[1]}"
            )
        if self._sketch is None or self._dims is None:
            # Created ahead of the admission probe; before the first
            # successful insert the session is empty, so a fresh sketch
            # is always the correct state to probe against.
            self._sketch = JoinSizeSketch(
                self.spec.band_width, bits=self.spec.sketch_bits
            )
        threshold = self.spec.admission_threshold
        if threshold is not None and len(points):
            # Admission probe: add -> estimate -> remove is exact on the
            # sketch's integer counters, so a refused batch leaves the
            # sketch — and, because nothing is journaled yet, the whole
            # session — untouched.
            self._sketch.add(points)
            predicted = self._sketch.estimate()
            self._sketch.remove(points)
            if predicted > threshold:
                self.stats.batches_rejected += 1
                raise AdmissionError(
                    f"insert batch of {len(points)} points refused: "
                    f"sketch-predicted join size {predicted:.0f} exceeds "
                    f"the admission threshold {threshold:.0f}"
                )
        if self._wal is not None:
            # Journal first: once the append returns, the batch is the
            # log's problem — a crash anywhere after this point replays
            # it on recovery.
            self._wal.append_insert(self._update_seq + 1, points)
        return points

    def _insert_pairs(self, points: np.ndarray, ids: np.ndarray) -> np.ndarray:
        """Pairs an insert batch creates, before the batch is applied."""
        n_new = len(points)
        parts: List[np.ndarray] = []
        with trace.span(
            "delta-join",
            op="insert",
            batch=n_new,
            delta=self.delta_size,
            base=int(self._base_alive.sum()),
        ) as span:
            if n_new >= 2:
                result = self._absorb(epsilon_kdb_self_join(points, self.spec))
                if len(result.pairs):
                    parts.append(ids[result.pairs])
            delta_live = self._delta_alive.nonzero()[0]
            if n_new and len(delta_live):
                result = self._absorb(
                    epsilon_kdb_join(
                        points, self._delta_points[delta_live], self.spec
                    )
                )
                if len(result.pairs):
                    parts.append(
                        np.column_stack(
                            [
                                ids[result.pairs[:, 0]],
                                self._delta_ids[delta_live[result.pairs[:, 1]]],
                            ]
                        )
                    )
            if n_new:
                left, right = self._probe_base(points)
                if len(left):
                    keep = self._base_alive[right]
                    parts.append(
                        np.column_stack(
                            [ids[left[keep]], self._base_ids[right[keep]]]
                        )
                    )
            added = self._combine(parts)
            span.set_attribute("pairs_added", len(added))
        return added

    def _apply_insert(self, points: np.ndarray) -> None:
        """Append a journaled batch to the delta buffer under fresh ids.

        Updates the sketch, the seq and the counters, and compacts when
        the delta outgrows its threshold.
        """
        if self._dims is None:
            self._dims = points.shape[1]
            self._base_points = np.empty((0, self._dims), dtype=np.float64)
            self._delta_points = np.empty((0, self._dims), dtype=np.float64)
            self._sketch = JoinSizeSketch(
                self.spec.band_width, bits=self.spec.sketch_bits
            )
        n_new = len(points)
        with trace.span("estimate", op="insert", points=n_new):
            if n_new:
                self._sketch.add(points)
            self.stats.estimated_join_size = self._sketch.estimate()
        self._delta_points = np.concatenate([self._delta_points, points])
        self._delta_ids = np.concatenate(
            [
                self._delta_ids,
                np.arange(self._next_id, self._next_id + n_new, dtype=np.int64),
            ]
        )
        self._delta_alive = np.concatenate(
            [self._delta_alive, np.ones(n_new, dtype=bool)]
        )
        self._next_id += n_new
        self._update_seq += 1
        self.stats.updates_applied += 1
        threshold = self.spec.resolved_delta_threshold(len(self._base_points))
        if self.delta_size > threshold:
            self.compact()
        self.stats.delta_size = self.delta_size

    def _live_rows(self, ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Validate a non-empty delete batch; return its (base, delta) rows."""
        if len(sorted_unique(ids)) < len(ids):
            raise InvalidParameterError("delete() ids contain duplicates")
        side, row = self._locate(ids)
        if (side < 0).any():
            missing = ids[side < 0][0]
            raise InvalidParameterError(f"unknown point id {int(missing)}")
        alive = np.zeros(len(ids), dtype=bool)
        alive[side == 0] = self._base_alive[row[side == 0]]
        alive[side == 1] = self._delta_alive[row[side == 1]]
        if not alive.all():
            dead = ids[~alive][0]
            raise InvalidParameterError(f"point id {int(dead)} is already deleted")
        return row[side == 0], row[side == 1]

    def _apply_delete(
        self, base_rows: np.ndarray, delta_rows: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Tombstone a journaled delete; return the removed (points, ids).

        Updates the sketch, the seq and the counters.
        """
        removed_points = np.concatenate(
            [self._base_points[base_rows], self._delta_points[delta_rows]]
        )
        removed_ids = np.concatenate(
            [self._base_ids[base_rows], self._delta_ids[delta_rows]]
        )
        self._base_alive[base_rows] = False
        self._delta_alive[delta_rows] = False
        with trace.span("estimate", op="delete", points=len(removed_ids)):
            self._sketch.remove(removed_points)
            self.stats.estimated_join_size = self._sketch.estimate()
        self._update_seq += 1
        self.stats.updates_applied += 1
        self.stats.delta_size = self.delta_size
        return removed_points, removed_ids

    def _delete_pairs(
        self, removed_points: np.ndarray, removed_ids: np.ndarray
    ) -> np.ndarray:
        """Pairs a delete retracts, once its rows are tombstoned."""
        parts: List[np.ndarray] = []
        with trace.span(
            "delta-join",
            op="delete",
            batch=len(removed_ids),
            delta=self.delta_size,
            base=int(self._base_alive.sum()),
        ) as span:
            if len(removed_points) >= 2:
                result = self._absorb(
                    epsilon_kdb_self_join(removed_points, self.spec)
                )
                if len(result.pairs):
                    parts.append(removed_ids[result.pairs])
            delta_live = self._delta_alive.nonzero()[0]
            if len(delta_live):
                result = self._absorb(
                    epsilon_kdb_join(
                        removed_points, self._delta_points[delta_live], self.spec
                    )
                )
                if len(result.pairs):
                    parts.append(
                        np.column_stack(
                            [
                                removed_ids[result.pairs[:, 0]],
                                self._delta_ids[delta_live[result.pairs[:, 1]]],
                            ]
                        )
                    )
            left, right = self._probe_base(removed_points)
            if len(left):
                keep = self._base_alive[right]
                parts.append(
                    np.column_stack(
                        [removed_ids[left[keep]], self._base_ids[right[keep]]]
                    )
                )
            retracted = self._combine(parts)
            span.set_attribute("pairs_retracted", len(retracted))
        return retracted

    def compact(self) -> None:
        """Merge live rows into a fresh base tree (atomic on failure).

        The new base is built *before* any session state changes, so a
        :class:`~repro.errors.TransientIoError` that exhausts the retry
        budget propagates with the session exactly as it was.
        """
        live_base = int(self._base_alive.sum())
        dead_base = len(self._base_alive) - live_base
        if self.delta_size == 0 and dead_base == 0 and (
            self._base_tree is not None or live_base == 0
        ):
            return  # nothing to fold in
        with trace.span(
            "compact", base=live_base, delta=self.delta_size, tombstones=dead_base
        ):
            new_points = np.ascontiguousarray(
                np.concatenate(
                    [
                        self._base_points[self._base_alive],
                        self._delta_points[self._delta_alive],
                    ]
                )
            )
            new_ids = np.concatenate(
                [self._base_ids[self._base_alive], self._delta_ids[self._delta_alive]]
            )
            tree: Optional[FlatEpsilonKdbTree] = None
            if len(new_points):
                tree = retry_transient(
                    lambda: self._build_base(new_points),
                    self._io_retries,
                    on_retry=self._count_retry,
                )
            # Point of no return: every failure path has already raised.
            self._base_points = new_points
            self._base_ids = new_ids
            self._base_alive = np.ones(len(new_points), dtype=bool)
            self._base_tree = tree
            self._delta_points = np.empty(
                (0, self._dims or 0), dtype=np.float64
            )
            self._delta_ids = _EMPTY_IDS.copy()
            self._delta_alive = np.empty(0, dtype=bool)
            self.stats.compactions += 1
            self.stats.delta_size = 0
            if tree is not None:
                self.stats.build_nodes += tree.n_nodes
                self.stats.build_sort_seconds += tree.build_sort_seconds
        if self._persist_dir is not None and not self._replaying:
            # Publish-then-reset: a crash after the publish but before
            # the reset leaves stale low-seq WAL records, which recovery
            # skips because their seq is at or below the snapshot's
            # durable watermark.  A compaction during replay publishes
            # nothing: the records it folds in are still in the journal.
            self._publish_snapshot()
            if self._wal is not None:
                self._wal.reset()

    def current_pairs(self) -> np.ndarray:
        """Canonical ``(lo_id, hi_id)`` pairs among the live points.

        A pure query: it mutates no session state and journals nothing.
        When the whole session lives in a fully-live base (the state
        right after a compaction, and the state a cold re-open restores)
        the existing base tree answers directly — in particular a join
        over a freshly re-opened persisted session performs no tree
        construction.
        """
        if self._dims is None or self.n_live < 2:
            return _EMPTY_PAIRS.copy()
        if (
            self._base_tree is not None
            and self.delta_size == 0
            and bool(self._base_alive.all())
        ):
            result = epsilon_kdb_self_join(
                self._base_points, self.spec, tree=self._base_tree
            )
            return _canonical_id_pairs(
                self._base_ids[result.pairs[:, 0]],
                self._base_ids[result.pairs[:, 1]],
            )
        ids = self.live_ids()
        result = epsilon_kdb_self_join(self.live_points(), self.spec)
        return _canonical_id_pairs(
            ids[result.pairs[:, 0]], ids[result.pairs[:, 1]]
        )

    def range_query(
        self, point: np.ndarray, eps: Optional[float] = None
    ) -> np.ndarray:
        """Ids of live points within ``eps`` of ``point``, ascending.

        Equivalent to ``batch_range_query(point[None])[0]`` — the same
        code path, so a coalesced batch answer is byte-identical to the
        per-query answer.
        """
        point = np.asarray(point, dtype=np.float64)
        if point.ndim != 1:
            raise InvalidParameterError(
                f"query point must be 1-D, got shape {point.shape}"
            )
        return self.batch_range_query(point[np.newaxis, :], eps=eps)[0]

    def batch_range_query(
        self, queries: np.ndarray, eps: Optional[float] = None
    ) -> List[np.ndarray]:
        """Ids of live points within ``eps`` of each query row.

        A pure query (no journaling, no mutation): one leaf-directed
        pass over the base tree for the whole batch plus a vectorized
        sweep of the delta buffer, with tombstoned rows filtered out
        (:func:`~repro.core.flat_build.live_batch_range_query`).
        Returns one ascending int64 id array per query — byte-identical,
        per query, to a brute-force scan of :meth:`live_points`.
        ``eps`` defaults to the spec epsilon and may not exceed it (the
        base tree's cells are sized for the spec).
        """
        return live_batch_range_query(
            queries,
            eps,
            spec=self.spec,
            dims=self._dims,
            tree=self._base_tree,
            base_ids=self._base_ids,
            base_alive=self._base_alive,
            delta_points=self._delta_points,
            delta_ids=self._delta_ids,
            delta_alive=self._delta_alive,
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _build_base(self, new_points: np.ndarray):
        """One compaction build attempt (a fault-injection site)."""
        attempt = self._compact_attempts
        self._compact_attempts += 1
        if self._fault_plan is not None and self._fault_plan.io_fault(attempt):
            self.stats.faults_injected += 1
            raise TransientIoError(
                f"injected compaction fault (attempt ordinal {attempt})"
            )
        return FlatEpsilonKdbTree.build(new_points, self.spec)

    def _count_retry(self, attempt: int) -> None:
        self.stats.storage_retries += 1

    def _locate(self, ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Map ids to (side, row): side 0 = base, 1 = delta, -1 = unknown."""
        side = np.full(len(ids), -1, dtype=np.int8)
        row = np.zeros(len(ids), dtype=np.int64)
        for which, id_array in ((0, self._base_ids), (1, self._delta_ids)):
            if not len(id_array):
                continue
            pos = np.searchsorted(id_array, ids)
            pos_clipped = np.minimum(pos, len(id_array) - 1)
            found = id_array[pos_clipped] == ids
            side[found] = which
            row[found] = pos_clipped[found]
        return side, row

    def _probe_base(self, query: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Join a query batch against *all* base rows (caller filters alive).

        Returns aligned ``(query_index, base_row)`` arrays.  The batch
        rows descend the base tree as one frontier
        (:func:`~repro.core.join.flat_probe`, no batch tree), rows outside
        the base bounding box included: ``Grid.cell_of`` clips them into
        the box's edge cells, which are at least one band wide, so every
        base row within epsilon shares or neighbours their clipped cell.
        The parallel engine takes the two-set entry point instead.
        """
        tree_b = self._base_tree
        if tree_b is None or not len(query):
            return _EMPTY_IDS.copy(), _EMPTY_IDS.copy()
        if self.engine == "parallel":
            result = self._absorb(
                self._get_executor().join(query, self._base_points)
            )
            return result.pairs[:, 0], result.pairs[:, 1]
        left, right, stats = flat_probe(tree_b, query, self.spec)
        self._absorb(JoinResult(stats=stats))
        return left, right

    def _get_executor(self):
        if self._executor is None:
            # Imported here: parallel imports the join module tree.
            from repro.core.parallel import ParallelJoinExecutor

            self._executor = ParallelJoinExecutor(
                self.spec,
                n_workers=self._n_workers,
                use_processes=self._use_processes,
            )
        return self._executor

    def _absorb(self, result: JoinResult) -> JoinResult:
        """Fold a sub-join's counters into the session stats.

        ``pairs_emitted`` is zeroed first: sub-joins count raw
        (pre-tombstone-filter) pairs, while the session counts the
        canonical deltas it actually reports.
        """
        stats = result.stats
        stats.pairs_emitted = 0
        self.stats.merge(stats)
        return result

    @staticmethod
    def _combine(parts: List[np.ndarray]) -> np.ndarray:
        if not parts:
            return _EMPTY_PAIRS.copy()
        stacked = np.concatenate(parts)
        return _canonical_id_pairs(stacked[:, 0], stacked[:, 1])


def normalize_update(update) -> Tuple[str, object]:
    """Coerce one update to ``(op, payload)``.

    Accepts ``("insert", points)`` / ``("delete", ids)`` pairs and
    ``{"op": "insert", "points": ...}`` / ``{"op": "delete", "ids": ...}``
    mappings (the CLI's JSONL row shape).
    """
    if isinstance(update, dict):
        op = update.get("op")
        if op == "insert":
            if "points" not in update:
                raise InvalidParameterError('insert update requires a "points" key')
            return "insert", update["points"]
        if op == "delete":
            if "ids" not in update:
                raise InvalidParameterError('delete update requires an "ids" key')
            return "delete", update["ids"]
        raise InvalidParameterError(
            f'update "op" must be "insert" or "delete", got {op!r}'
        )
    if isinstance(update, (tuple, list)) and len(update) == 2:
        op, payload = update
        if op in ("insert", "delete"):
            return op, payload
    raise InvalidParameterError(
        "each update must be ('insert', points), ('delete', ids) or the "
        f"equivalent mapping, got {update!r}"
    )


def apply_update_stream(
    session: IncrementalJoin, updates: Sequence
) -> Tuple[np.ndarray, np.ndarray]:
    """Apply a sequence of updates; return accumulated (added, retracted)."""
    added: List[np.ndarray] = []
    retracted: List[np.ndarray] = []
    for update in updates:
        op, payload = normalize_update(update)
        if op == "insert":
            delta = session.insert(np.asarray(payload, dtype=np.float64))
        else:
            delta = session.delete(payload)
        if len(delta.added):
            added.append(delta.added)
        if len(delta.retracted):
            retracted.append(delta.retracted)
    added_all = np.concatenate(added) if added else _EMPTY_PAIRS.copy()
    retracted_all = (
        np.concatenate(retracted) if retracted else _EMPTY_PAIRS.copy()
    )
    return added_all, retracted_all
