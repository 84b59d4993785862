"""Zero-materialization queries over a persisted snapshot.

:class:`SnapshotView` answers ``range_query`` / ``batch_range_query``
straight off the read-only memmapped CSR arrays of a snapshot file — no
:class:`~repro.core.incremental.IncrementalJoin` construction, no WAL
replay machinery, and no array copies on the in-grid query path: the
flat tree is rebuilt *structurally* with
:meth:`~repro.core.flat_build.FlatEpsilonKdbTree.from_arrays` over the
memmap views themselves, and the traversal only ever reads them.

The view is strictly read-only and strictly as-of the snapshot: if the
session's write-ahead log holds records newer than the snapshot's
watermark, opening raises :class:`~repro.errors.StaleSnapshotError` and
the caller falls back to full recovery (which replays the log).  A
serve tenant attaches through this path whenever the snapshot is
fresh — E19 measured the snapshot re-open 2937× faster than a rebuild,
and E22 measures this view against full session materialization.

Import discipline: this module sits *below* :mod:`repro.core.incremental`
— it may import :mod:`~repro.core.config`, :mod:`~repro.core.epsilon_kdb`
and :mod:`~repro.core.flat_build` (all earlier in the core import
order), never :mod:`~repro.core.join` or :mod:`~repro.core.incremental`.
"""

from __future__ import annotations

import os
from dataclasses import replace
from typing import List, Optional

import numpy as np

from repro.core.config import JoinSpec
from repro.core.epsilon_kdb import Grid
from repro.core.flat_build import FlatEpsilonKdbTree, live_batch_range_query
from repro.errors import (
    CorruptSnapshotError,
    InvalidParameterError,
    StaleSnapshotError,
    StorageError,
)
from repro.obs import trace
from repro.storage.snapshot import list_snapshots, load_snapshot
from repro.storage.wal import WAL_FILENAME, scan_wal

__all__ = ["SnapshotView"]

_EMPTY_IDS = np.empty(0, dtype=np.int64)


class SnapshotView:
    """Read-only range queries over one memmapped snapshot generation.

    Construct with :meth:`open`; query with :meth:`range_query` /
    :meth:`batch_range_query`, which are byte-identical, per query, to
    the same calls on the fully materialized
    :class:`~repro.core.incremental.IncrementalJoin` session recovered
    from the same directory (a brute-force-oracle-backed guarantee the
    test suite enforces).
    """

    def __init__(
        self,
        meta: dict,
        arrays: dict,
        *,
        path: str,
        snapshot_bytes: int,
    ):
        self.path = path
        self.snapshot_bytes = int(snapshot_bytes)
        self.spec = JoinSpec.from_structural_dict(meta["spec"])
        self._dims = meta["dims"]
        self.last_update_seq = int(meta["wal_seq"])
        # All of these stay memmap views — nothing below copies them.
        self._base_ids = np.asarray(arrays["base_ids"], dtype=np.int64)
        self._base_alive = np.asarray(arrays["base_alive"], dtype=bool)
        self._delta_points = np.asarray(arrays["delta_points"], dtype=np.float64)
        self._delta_ids = np.asarray(arrays["delta_ids"], dtype=np.int64)
        self._delta_alive = np.asarray(arrays["delta_alive"], dtype=bool)
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
            # cascade="off": the filter-cascade kernels build a paired
            # store over *all* points on first use — a full packed
            # copy of the dataset, i.e. exactly the
            # materialization this view exists to skip.  The direct
            # leaf path instead fancy-indexes only candidate rows out
            # of the memmap, touching just the pages a query needs.
            # Results are byte-identical either way.
            self._tree: Optional[FlatEpsilonKdbTree] = (
                FlatEpsilonKdbTree.from_arrays(
                    np.asarray(arrays["points_flat"], dtype=np.float64),
                    np.asarray(arrays["perm"], dtype=np.int64),
                    np.asarray(arrays["digits"], dtype=np.int64),
                    np.asarray(arrays["packed_nodes"], dtype=np.int64),
                    replace(self.spec, cascade="off"),
                    grid,
                )
            )
        else:
            self._tree = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def open(cls, path: str, validate: bool = False) -> "SnapshotView":
        """Map the newest valid snapshot under ``path`` (a session dir).

        Falls back across generations when a snapshot file fails its
        structural validation, exactly like
        :meth:`~repro.core.incremental.IncrementalJoin.open`.  Raises
        :class:`~repro.errors.CorruptSnapshotError` when no generation
        survives, and :class:`~repro.errors.StaleSnapshotError` when the
        write-ahead log holds committed records newer than the chosen
        snapshot — the view cannot replay them, so serving from it would
        silently drop updates.

        By default the per-array CRC pass is skipped: checksumming pages
        the whole file in, costing O(file size) where the map itself is
        O(1) — the exact overhead this class exists to avoid.  Magic,
        version, header CRC, exact file size and array bounds are always
        checked (torn/truncated files are still rejected); pass
        ``validate=True`` to also verify every array byte, or recover
        the session, which always does.
        """
        path = str(path)
        with trace.span("snapshot-view.open", path=path):
            if os.path.isdir(path):
                directory = path
                snaps = list_snapshots(path)
                if not snaps:
                    raise StorageError(
                        f"{path!r} holds no snapshot to map; run a "
                        "persisted session there first"
                    )
                candidates = [snap_path for _, snap_path in reversed(snaps)]
            else:
                directory = os.path.dirname(path) or "."
                candidates = [path]
            meta = arrays = chosen = None
            for snap_path in candidates:
                try:
                    meta, arrays = load_snapshot(
                        snap_path, validate_arrays=validate
                    )
                    chosen = snap_path
                    break
                except StorageError:
                    continue
            if meta is None:
                raise CorruptSnapshotError(
                    f"all {len(candidates)} snapshot generation(s) under "
                    f"{path!r} failed validation"
                )
            watermark = int(meta["wal_seq"])
            records, _, _ = scan_wal(os.path.join(directory, WAL_FILENAME))
            newer = sum(1 for rec in records if rec.seq > watermark)
            if newer:
                raise StaleSnapshotError(
                    f"write-ahead log at {directory!r} holds {newer} "
                    f"record(s) past snapshot watermark {watermark}; "
                    "a SnapshotView cannot replay them — recover the "
                    "session instead"
                )
            return cls(
                meta,
                arrays,
                path=chosen,
                snapshot_bytes=os.path.getsize(chosen),
            )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def n_live(self) -> int:
        return int(self._base_alive.sum()) + int(self._delta_alive.sum())

    @property
    def dims(self) -> Optional[int]:
        return self._dims

    @property
    def epsilon(self) -> float:
        return self.spec.epsilon

    def close(self) -> None:
        """Drop the array references so the mappings can be reclaimed."""
        self._tree = None
        self._base_ids = _EMPTY_IDS
        self._base_alive = np.empty(0, dtype=bool)
        self._delta_points = np.empty((0, self._dims or 0))
        self._delta_ids = _EMPTY_IDS
        self._delta_alive = np.empty(0, dtype=bool)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def range_query(
        self, point: np.ndarray, eps: Optional[float] = None
    ) -> np.ndarray:
        """Ids of live points within ``eps`` of ``point``, ascending."""
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

        The same answer :class:`IncrementalJoin.batch_range_query` gives
        for the recovered session, through the same
        :func:`~repro.core.flat_build.live_batch_range_query`: a
        leaf-directed pass over the memmapped base tree for every query,
        a blocked brute scan of any persisted delta rows, tombstones
        filtered, one ascending int64 id array per query.
        """
        return live_batch_range_query(
            queries,
            eps,
            spec=self.spec,
            dims=self._dims,
            tree=self._tree,
            base_ids=self._base_ids,
            base_alive=self._base_alive,
            delta_points=self._delta_points,
            delta_ids=self._delta_ids,
            delta_alive=self._delta_alive,
            owner="snapshot",
        )
