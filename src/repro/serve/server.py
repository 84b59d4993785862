"""Asyncio TCP server for multi-tenant similarity-join serving.

One :class:`JoinServer` accepts any number of client connections, each
carrying a stream of length-prefixed JSON requests (see
:mod:`repro.serve.protocol`).  Every request becomes its own asyncio
task, so slow operations on one connection never head-of-line-block
another; responses are written under a per-connection lock and carry
the request's ``id``, so clients may pipeline freely.

The request path composes the serving subsystems in order: a
per-request **deadline** (``deadline_ms`` field, or the server-wide
default) wraps everything; the :class:`AdmissionController` sheds
size-budget violations and queues or sheds on the concurrency budget;
reads go through the :class:`QueryCoalescer`; mutations take the
tenant's lock and run through :class:`IncrementalJoin`'s journaled
insert/delete.  Each request runs inside a ``serve.request`` trace
span and feeds the latency histogram, so the existing JSONL /
Chrome-trace exporters and the metrics registry see the serving layer
with no extra plumbing.

Shutdown is graceful: the listener closes first, in-flight request
tasks drain (a pending coalesced batch runs in its own loop callback,
so its waiters get real answers, not cancellations), and every tenant
session closes — which fsyncs journals, so a restarted server
re-attaches persisted tenants byte-identically.
"""

from __future__ import annotations

import asyncio
import math
import time
from typing import Any, Dict, Optional, Set

from repro.core.config import JoinSpec
from repro.errors import AdmissionError, InvalidParameterError, ReproError
from repro.obs import trace
from repro.obs.metrics import MetricsRegistry
from repro.serve.admission import AdmissionController
from repro.serve.batching import QueryCoalescer
from repro.serve.protocol import (
    REQUEST_OPS,
    ProtocolError,
    decode_ids,
    decode_points,
    decode_positive,
    error_response,
    read_frame,
    write_frame,
)
from repro.serve.sessions import SessionManager

__all__ = ["JoinServer"]

#: JoinSpec fields an ``attach`` request may set.  Deliberately the
#: structural + streaming knobs; operational fields like
#: ``persist_path`` have dedicated request fields.
_ATTACH_SPEC_FIELDS = (
    "epsilon",
    "metric",
    "leaf_size",
    "delta_threshold",
    "sketch_bits",
    "admission_threshold",
)


class JoinServer:
    """Serve similarity-join sessions over TCP to concurrent tenants."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        coalesce: bool = True,
        max_predicted_pairs: Optional[float] = None,
        max_inflight: int = 8,
        max_pending: int = 64,
        default_deadline: Optional[float] = None,
        metrics: Optional[MetricsRegistry] = None,
        manager: Optional[SessionManager] = None,
    ):
        self.host = host
        self.port = port
        self.default_deadline = default_deadline
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.manager = (
            manager
            if manager is not None
            else SessionManager(metrics=self.metrics)
        )
        self.admission = AdmissionController(
            max_predicted_pairs=max_predicted_pairs,
            max_inflight=max_inflight,
            max_pending=max_pending,
            metrics=self.metrics,
        )
        self.coalescer = QueryCoalescer(coalesce, metrics=self.metrics)
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Set[asyncio.StreamWriter] = set()
        self._handlers: Set[asyncio.Task] = set()
        self._tasks: Set[asyncio.Task] = set()
        self._stop_requested = asyncio.Event()
        self._stopped = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting connections; resolves ``self.port``."""
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_until_shutdown(self) -> None:
        """Run until a ``shutdown`` request arrives, then stop gracefully."""
        if self._server is None:
            await self.start()
        await self._stop_requested.wait()
        await self.stop()

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, drain, close sessions."""
        if self._stopped:
            return
        self._stopped = True
        if self._server is not None:
            self._server.close()
        # Drain in-flight request tasks before touching connections so
        # every accepted request still gets its response.
        while self._tasks:
            pending = [t for t in self._tasks if t is not asyncio.current_task()]
            if not pending:
                break
            await asyncio.gather(*pending, return_exceptions=True)
        # Closing the connections unblocks handler loops parked in
        # read_frame; await them explicitly — before 3.12 wait_closed()
        # does not cover handler tasks, and leaving one parked lets the
        # event-loop teardown cancel it mid-read (a noisy traceback).
        for writer in list(self._connections):
            writer.close()
        handlers = [t for t in self._handlers if t is not asyncio.current_task()]
        if handlers:
            await asyncio.gather(*handlers, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()
        self.manager.close_all()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        write_lock = asyncio.Lock()
        self._connections.add(writer)
        handler = asyncio.current_task()
        if handler is not None:
            self._handlers.add(handler)
            handler.add_done_callback(self._handlers.discard)
        try:
            while True:
                try:
                    request = await read_frame(reader)
                except (ProtocolError, ConnectionError, OSError) as exc:
                    # Framing is broken (or the peer vanished); report
                    # once if possible, then hang up.
                    try:
                        async with write_lock:
                            await write_frame(
                                writer, error_response(None, "protocol", str(exc))
                            )
                    except (ConnectionError, OSError):
                        pass
                    break
                if request is None:
                    break
                task = asyncio.ensure_future(
                    self._serve_request(request, writer, write_lock)
                )
                self._tasks.add(task)
                task.add_done_callback(self._tasks.discard)
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve_request(
        self,
        request: Dict[str, Any],
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        request_id = request.get("id")
        op = request.get("op")
        started = time.perf_counter()
        self.metrics.counter("serve.requests").inc()
        try:
            if op not in REQUEST_OPS:
                raise ProtocolError(f"unknown op {op!r}")
            deadline = decode_positive(request.get("deadline_ms"), "deadline_ms")
            deadline = self.default_deadline if deadline is None else deadline / 1e3
            with trace.span("serve.request", op=op, tenant=request.get("tenant")):
                handler = self._dispatch(request, op)
                if deadline is not None:
                    response = await asyncio.wait_for(handler, timeout=deadline)
                else:
                    response = await handler
            response["id"] = request_id
            response["ok"] = True
        except AdmissionError as exc:
            response = error_response(request_id, "admission", str(exc))
        except asyncio.TimeoutError:
            self.metrics.counter("serve.deadline_exceeded").inc()
            response = error_response(
                request_id, "deadline", f"{op} missed its deadline"
            )
        except ProtocolError as exc:
            response = error_response(request_id, "protocol", str(exc))
        except InvalidParameterError as exc:
            response = error_response(request_id, "invalid", str(exc))
        except ReproError as exc:
            response = error_response(request_id, type(exc).__name__, str(exc))
        except Exception as exc:  # never let a handler bug kill the connection
            response = error_response(
                request_id, "internal", f"{type(exc).__name__}: {exc}"
            )
        self.metrics.histogram("serve.latency_seconds").observe(
            time.perf_counter() - started
        )
        try:
            async with write_lock:
                await write_frame(writer, response)
        except (ConnectionError, OSError):
            pass  # client went away; nothing to tell it

    def _dispatch(self, request: Dict[str, Any], op: str):
        return getattr(self, f"_op_{op}")(request)

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    async def _op_ping(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return {"pong": True, "tenants": self.manager.names()}

    def _tenant(self, request: Dict[str, Any]):
        name = request.get("tenant")
        if not isinstance(name, str) or not name:
            raise ProtocolError("request needs a non-empty 'tenant' field")
        return self.manager.get(name)

    async def _op_attach(self, request: Dict[str, Any]) -> Dict[str, Any]:
        name = request.get("tenant")
        if not isinstance(name, str) or not name:
            raise ProtocolError("attach needs a non-empty 'tenant' field")
        spec = None
        spec_fields = {
            key: request[key]
            for key in _ATTACH_SPEC_FIELDS
            if request.get(key) is not None
        }
        if spec_fields:
            if "epsilon" not in spec_fields:
                raise ProtocolError("attach spec fields require 'epsilon'")
            spec = JoinSpec(**spec_fields)
        session = self.manager.attach(
            name,
            spec=spec,
            path=request.get("path"),
            keep_generations=request.get("keep_generations"),
            sync_mode=request.get("sync_mode"),
        )
        return {
            "tenant": name,
            "n_live": session.n_live,
            "dims": session.dims,
            "epsilon": session.spec.epsilon,
            "last_update_seq": session.last_update_seq,
            "persisted": session.persisted,
            # "view" while queries run off the memmapped snapshot; flips
            # to "session" on the first mutating operation.
            "mode": "view" if session.is_view else "session",
        }

    async def _op_insert(self, request: Dict[str, Any]) -> Dict[str, Any]:
        session = self._tenant(request)
        points = decode_points(request.get("points"))
        await session.materialize()
        async with self.admission.slot():
            async with session.lock:
                delta = session.insert(points)
        return {
            "ids": delta.ids.tolist(),
            "n_live": session.n_live,
            "seq": session.last_update_seq,
        }

    async def _op_delete(self, request: Dict[str, Any]) -> Dict[str, Any]:
        session = self._tenant(request)
        ids = decode_ids(request.get("ids"))
        await session.materialize()
        async with self.admission.slot():
            async with session.lock:
                delta = session.delete(ids)
        return {
            "removed": delta.ids.tolist(),
            "n_live": session.n_live,
            "seq": session.last_update_seq,
        }

    async def _op_range_query(self, request: Dict[str, Any]) -> Dict[str, Any]:
        session = self._tenant(request)
        point = decode_points([request.get("point")], "point")[0]
        eps = decode_positive(request.get("eps"), "eps")
        self.admission.check_size(session, 1, "range_query")
        async with self.admission.slot():
            ids = await self.coalescer.submit(session, point, eps=eps)
        return {"ids": ids.tolist()}

    async def _op_mini_join(self, request: Dict[str, Any]) -> Dict[str, Any]:
        session = self._tenant(request)
        points = decode_points(request.get("points"))
        eps = decode_positive(request.get("eps"), "eps")
        self.admission.check_size(session, len(points), "mini_join")
        await session.materialize()
        async with self.admission.slot():
            pairs = session.mini_join(points, eps=eps)
        if session.last_plan is not None:
            self.metrics.counter(
                f"serve.plan.{session.last_plan.chosen}"
            ).inc()
        return {"pairs": pairs.tolist(), "count": len(pairs)}

    async def _op_pairs(self, request: Dict[str, Any]) -> Dict[str, Any]:
        session = self._tenant(request)
        join = await session.materialize()
        async with self.admission.slot():
            pairs = join.current_pairs()
        return {"pairs": pairs.tolist(), "count": len(pairs)}

    async def _op_compact(self, request: Dict[str, Any]) -> Dict[str, Any]:
        session = self._tenant(request)
        join = await session.materialize()
        async with self.admission.slot():
            async with session.lock:
                join.compact()
        return {"n_live": session.n_live}

    async def _op_stats(self, request: Dict[str, Any]) -> Dict[str, Any]:
        response: Dict[str, Any] = {"server": self.metrics.as_dict()}
        response["server"]["queue_depth"] = self.admission.queue_depth
        for prefix, name in (
            ("latency", "serve.latency_seconds"),
            ("coalesce_wait", "serve.coalesce_wait_seconds"),
        ):
            histogram = self.metrics.histogram(name)
            for q in (50, 99):
                value = histogram.percentile(q)
                # JSON has no NaN: an empty histogram reports null.
                response["server"][f"{prefix}_p{q}"] = (
                    None if math.isnan(value) else value
                )
        name = request.get("tenant")
        if name is not None:
            session = self.manager.get(name)
            response["tenant"] = {
                "name": name,
                "n_live": session.n_live,
                "dims": session.dims,
                "delta_size": session.delta_size,
                "estimated_join_size": session.estimated_join_size,
                "last_update_seq": session.last_update_seq,
                "mode": "view" if session.is_view else "session",
                "stats": session.stats.as_dict(),
            }
        return response

    async def _op_detach(self, request: Dict[str, Any]) -> Dict[str, Any]:
        name = request.get("tenant")
        if not isinstance(name, str) or not name:
            raise ProtocolError("detach needs a non-empty 'tenant' field")
        self.manager.detach(name)
        return {"tenant": name, "detached": True}

    async def _op_shutdown(self, request: Dict[str, Any]) -> Dict[str, Any]:
        self._stop_requested.set()
        return {"stopping": True}
