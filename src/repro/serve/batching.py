"""Query coalescing: merge concurrent range queries into batched passes.

Point lookups against a shared index are the serving layer's hot path,
and :meth:`FlatEpsilonKdbTree.batch_range_query` answers ``Q`` queries
in one leaf-directed traversal for far less than ``Q`` times the cost
of one.  The coalescer exploits that: the first query for a
``(tenant, radius)`` key opens a batch and schedules it with
``loop.call_soon``; every query for the same key submitted before that
callback runs joins the batch, and one batched traversal then answers
all of them.  Requests that arrived while the loop was busy (an
insert, a mini-join, the previous batch) are parsed in the same turn,
so batches widen with load while a lone query waits for nothing.

Because a single :meth:`~TenantSession.range_query` is itself a batch
of one, a coalesced answer is byte-identical to the answer the same
query would have gotten alone — batching changes latency, never
results (asserted in ``tests/test_serve.py``).

``coalesce=False`` runs each submit's own traversal synchronously; that
is the per-request baseline the E20 benchmark compares against.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.obs.metrics import MetricsRegistry
from repro.serve.sessions import TenantSession

__all__ = ["QueryCoalescer"]


class _Batch:
    """Queries accumulated for one (tenant, radius) key in one loop turn."""

    __slots__ = ("session", "eps", "points", "futures", "submitted")

    def __init__(self, session: TenantSession, eps: Optional[float]):
        self.session = session
        self.eps = eps
        self.points: List[np.ndarray] = []
        self.futures: List[asyncio.Future] = []
        self.submitted: List[float] = []


class QueryCoalescer:
    """Batches concurrent range queries per (tenant, radius) key."""

    def __init__(
        self, coalesce: bool = True, metrics: Optional[MetricsRegistry] = None
    ):
        self.coalesce = coalesce
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._pending: Dict[Tuple[str, Optional[float]], _Batch] = {}

    async def submit(
        self,
        session: TenantSession,
        point: np.ndarray,
        eps: Optional[float] = None,
    ) -> np.ndarray:
        """Answer one range query, possibly coalesced with concurrent ones."""
        if not self.coalesce:
            self.metrics.histogram("serve.coalesce_width").observe(1)
            return session.range_query(point, eps=eps)
        loop = asyncio.get_running_loop()
        key = (session.name, eps)
        batch = self._pending.get(key)
        if batch is None:
            batch = self._pending[key] = _Batch(session, eps)
            loop.call_soon(self._run, key, batch)
        future: asyncio.Future = loop.create_future()
        batch.points.append(np.asarray(point, dtype=np.float64))
        batch.futures.append(future)
        batch.submitted.append(time.perf_counter())
        return await future

    def _run(self, key, batch: _Batch) -> None:
        """Execute one batched traversal and resolve every waiter."""
        del self._pending[key]
        started = time.perf_counter()
        wait = self.metrics.histogram("serve.coalesce_wait_seconds")
        for submitted in batch.submitted:
            wait.observe(started - submitted)
        self.metrics.histogram("serve.coalesce_width").observe(len(batch.futures))
        try:
            queries = np.stack(batch.points)
            results = batch.session.batch_range_query(queries, eps=batch.eps)
        except Exception as exc:  # propagate to every waiter, not the loop
            for future in batch.futures:
                if not future.done():
                    future.set_exception(exc)
            return
        for future, ids in zip(batch.futures, results):
            if not future.done():
                future.set_result(ids)
