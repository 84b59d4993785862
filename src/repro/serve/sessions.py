"""Per-tenant session state for the serving layer.

A *tenant* is one named dataset with its own engine state and an
``asyncio.Lock`` that serializes mutations.  Reads (range queries, mini-joins, pair enumeration) go
straight to the engine without the lock: the engine is synchronous
numpy code, so a read that has started runs to completion before the
event loop can schedule a mutation — tasks only interleave at ``await``
points.

A tenant attached from a persisted directory starts in one of two
modes: a **zero-materialization**
:class:`~repro.storage.view.SnapshotView` answering range queries
straight off the memmapped snapshot arrays whenever the newest valid
snapshot is fresh, or a fully recovered :class:`IncrementalJoin` when
the write-ahead log holds newer records.  The view does strictly less
work than recovery (no array copies, no WAL machinery); the first
mutating operation — insert, delete, compact, pairs, mini-join —
*promotes* the tenant by materializing the real session underneath, so
clients never see the difference beyond latency.

:class:`SessionManager` owns the tenant table.  ``attach`` is
idempotent: re-attaching an existing tenant returns the live session
(a spec, if supplied, must match), which is what lets many concurrent
clients share one tenant's index.
"""

from __future__ import annotations

import asyncio
from dataclasses import replace
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core.config import JoinSpec
from repro.core.incremental import IncrementalJoin, UpdateDelta
from repro.core.join import epsilon_kdb_join
from repro.core.parallel import parallel_join
from repro.core.result import JoinStats
from repro.errors import InvalidParameterError, StorageError
from repro.obs import trace
from repro.planner import ExecutionPlan, plan_execution
from repro.storage.snapshot import list_snapshots
from repro.storage.view import SnapshotView

__all__ = ["SessionManager", "TenantSession"]


class TenantSession:
    """One tenant's engine session plus its serving-side bookkeeping.

    Exactly one of ``join`` / ``view`` is set at a time.  The
    session-level accessors (``spec``, ``n_live``, ``dims``, ...) hide
    which mode is active; mutating callers ``await materialize()``
    first, which swaps the view for a recovered session under the lock.
    """

    def __init__(
        self,
        name: str,
        join: Optional[IncrementalJoin] = None,
        *,
        view: Optional[SnapshotView] = None,
        opener: Optional[Callable[[], IncrementalJoin]] = None,
        on_promote: Optional[Callable[["TenantSession"], None]] = None,
    ):
        if (join is None) == (view is None):
            raise InvalidParameterError(
                "a TenantSession takes exactly one of join/view"
            )
        if view is not None and opener is None:
            raise InvalidParameterError(
                "a view-backed TenantSession needs an opener to "
                "materialize from"
            )
        self.name = name
        self.join = join
        self.view = view
        self._opener = opener
        self._on_promote = on_promote
        self.lock = asyncio.Lock()
        self.last_plan: Optional[ExecutionPlan] = None
        # Serving-side stats for view mode (a recovered join brings its
        # own).
        self._view_stats = JoinStats()
        if view is not None:
            self._view_stats.snapshot_bytes = view.snapshot_bytes

    # ------------------------------------------------------------------
    # mode-independent accessors
    # ------------------------------------------------------------------
    @property
    def is_view(self) -> bool:
        """True while queries are served off the memmapped snapshot."""
        return self.join is None

    def _engine(self):
        # Not `join or view`: an empty IncrementalJoin is falsy
        # (defines __len__), so truthiness would mis-dispatch.
        return self.join if self.join is not None else self.view

    @property
    def spec(self) -> JoinSpec:
        return self._engine().spec

    @property
    def n_live(self) -> int:
        return self._engine().n_live

    @property
    def dims(self) -> Optional[int]:
        return self._engine().dims

    @property
    def delta_size(self) -> int:
        return self.join.delta_size if self.join is not None else 0

    @property
    def estimated_join_size(self) -> float:
        # The view keeps no sketch; admission control falls back to the
        # analytic output model when this is 0.
        return self.join.estimated_join_size if self.join is not None else 0.0

    @property
    def last_update_seq(self) -> int:
        return self._engine().last_update_seq

    @property
    def stats(self) -> JoinStats:
        return self.join.stats if self.join is not None else self._view_stats

    @property
    def persisted(self) -> bool:
        if self.join is not None:
            return self.join.spec.persist_path is not None
        return True  # a view only ever comes from a persisted directory

    async def materialize(self) -> IncrementalJoin:
        """Promote a view-backed tenant to a full recovered session.

        Idempotent and cheap once promoted.  Taken under the session
        lock so concurrent mutations promote exactly once; the view's
        stats carry over into the recovered session's.
        """
        if self.join is not None:
            return self.join
        async with self.lock:
            if self.join is None:
                with trace.span("serve.promote", tenant=self.name):
                    join = self._opener()
                view, self.view = self.view, None
                self.join = join
                join.stats.merge(self._view_stats)
                if view is not None:
                    view.close()
                if self._on_promote is not None:
                    self._on_promote(self)
        return self.join

    # ------------------------------------------------------------------
    # reads (work in both modes)
    # ------------------------------------------------------------------
    def range_query(
        self, point: np.ndarray, eps: Optional[float] = None
    ) -> np.ndarray:
        return self._engine().range_query(point, eps=eps)

    def batch_range_query(
        self, queries: np.ndarray, eps: Optional[float] = None
    ) -> List[np.ndarray]:
        return self._engine().batch_range_query(queries, eps=eps)

    def mini_join(
        self, batch: np.ndarray, eps: Optional[float] = None
    ) -> np.ndarray:
        """Join a probe batch against the live points, in session ids.

        Returns ``(k, 2)`` int64 pairs ``(batch row, live point id)``,
        sorted by batch row then id — the two-set analogue of
        :meth:`IncrementalJoin.batch_range_query`.  The execution
        strategy (serial vs parallel two-set join) is planned per
        request from the batch size, the live-set size, and the
        session's join-size sketch; both strategies emit byte-identical
        pairs.  Requires a materialized session.
        """
        if self.join is None:
            raise InvalidParameterError(
                f"tenant {self.name!r} is view-backed; materialize() "
                "before mini_join"
            )
        spec = self.join.spec
        if eps is None:
            eps = spec.epsilon
        eps = float(eps)
        if not np.isfinite(eps) or eps <= 0:
            raise InvalidParameterError(
                f"mini_join radius must be a positive finite number, got {eps!r}"
            )
        live = self.join.live_points()
        ids = self.join.live_ids()
        if len(live) == 0 or len(batch) == 0:
            return np.empty((0, 2), dtype=np.int64)
        join_spec = replace(spec, epsilon=eps, persist_path=None)
        plan = plan_execution(
            join_spec,
            len(batch),
            live.shape[1],
            n2=len(live),
            sketch_estimate=self.join.estimated_join_size or None,
            strategies=("serial", "parallel"),
        )
        self.last_plan = plan
        if plan.chosen == "parallel":
            result = parallel_join(batch, live, join_spec)
        else:
            result = epsilon_kdb_join(batch, live, join_spec)
        pairs = result.pairs
        if len(pairs) == 0:
            return np.empty((0, 2), dtype=np.int64)
        # live_points() is ascending-id order, so column 1 row indices
        # map to session ids by a single gather.
        mapped = np.column_stack([pairs[:, 0], ids[pairs[:, 1]]])
        order = np.lexsort((mapped[:, 1], mapped[:, 0]))
        return np.ascontiguousarray(mapped[order])

    # ------------------------------------------------------------------
    # mutations (caller must materialize() first)
    # ------------------------------------------------------------------
    def insert(self, points: np.ndarray) -> UpdateDelta:
        return self.join.insert(points)

    def delete(self, ids: np.ndarray) -> UpdateDelta:
        return self.join.delete(ids)

    def close(self) -> None:
        if self.join is not None:
            self.join.close()
        elif self.view is not None:
            self.view.close()


class SessionManager:
    """Tenant table: attach/get/detach plus orderly close of everything."""

    def __init__(self, metrics=None) -> None:
        self._tenants: Dict[str, TenantSession] = {}
        self.metrics = metrics

    def __contains__(self, name: str) -> bool:
        return name in self._tenants

    def __len__(self) -> int:
        return len(self._tenants)

    def names(self) -> List[str]:
        return sorted(self._tenants)

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc()

    def attach(
        self,
        name: str,
        *,
        spec: Optional[JoinSpec] = None,
        path: Optional[str] = None,
        keep_generations: Optional[int] = None,
        sync_mode: Optional[str] = None,
    ) -> TenantSession:
        """Open (or return) the tenant ``name``.

        A ``path`` opens/creates a persisted session: when the directory
        already holds a fresh snapshot generation, the tenant maps it
        read-only as a :class:`SnapshotView` (zero materialization); a
        stale view (WAL ahead of the snapshot) or a corrupt newest
        generation falls back to :meth:`IncrementalJoin.open`.  Without
        a path the session is in-memory and ``spec`` is required.
        Re-attaching an existing tenant returns the live session; a spec
        passed alongside must match its structural fingerprint.
        """
        if not name or not isinstance(name, str):
            raise InvalidParameterError(
                f"tenant name must be a non-empty string, got {name!r}"
            )
        existing = self._tenants.get(name)
        if existing is not None:
            if (
                spec is not None
                and spec.fingerprint() != existing.spec.fingerprint()
            ):
                raise InvalidParameterError(
                    f"tenant {name!r} is already attached with a different "
                    "spec; detach it first to change structural parameters"
                )
            return existing
        session: Optional[TenantSession] = None
        if path is not None:
            def opener() -> IncrementalJoin:
                return IncrementalJoin.open(
                    path,
                    spec=spec,
                    sync_mode=sync_mode,
                    keep_generations=keep_generations,
                )

            session = self._try_view_attach(name, spec, path, opener)
            if session is None:
                session = TenantSession(name, opener())
        else:
            if spec is None:
                raise InvalidParameterError(
                    f"attaching in-memory tenant {name!r} requires a spec"
                )
            if keep_generations is not None:
                spec = replace(spec, keep_generations=keep_generations)
            session = TenantSession(name, IncrementalJoin(spec))
        self._tenants[name] = session
        return session

    def _try_view_attach(
        self,
        name: str,
        spec: Optional[JoinSpec],
        path: str,
        opener: Callable[[], IncrementalJoin],
    ) -> Optional[TenantSession]:
        """Attach ``name`` as a SnapshotView when the snapshot is fresh.

        Returns ``None`` (→ materialize instead) when the directory
        holds no snapshot yet or the view would be stale or corrupt.  A
        structural-spec mismatch raises, mirroring
        :meth:`IncrementalJoin.open`.
        """
        if not list_snapshots(path):
            return None
        try:
            view = SnapshotView.open(path)
        except StorageError:
            # Stale (WAL ahead) or damaged newest generation: recovery
            # handles both (replay / generation fallback).
            self._count("serve.view_fallback")
            return None
        if spec is not None and spec.fingerprint() != view.spec.fingerprint():
            view.close()
            raise InvalidParameterError(
                "the given spec does not match the persisted session "
                f"(fingerprint {spec.fingerprint()} != "
                f"{view.spec.fingerprint()}); attach without a spec to "
                "use the stored one"
            )
        return TenantSession(
            name,
            view=view,
            opener=opener,
            on_promote=lambda s: self._count("serve.tenant_promoted"),
        )

    def get(self, name: str) -> TenantSession:
        session = self._tenants.get(name)
        if session is None:
            raise InvalidParameterError(f"unknown tenant {name!r}; attach it first")
        return session

    def detach(self, name: str) -> None:
        session = self._tenants.pop(name, None)
        if session is None:
            raise InvalidParameterError(f"unknown tenant {name!r}")
        session.close()

    def close_all(self) -> None:
        """Close every session (flushing journals); used at shutdown."""
        for name in list(self._tenants):
            self._tenants.pop(name).close()
