"""Async serving layer: multi-tenant similarity-join sessions over TCP.

The batch engine answers "join these two files"; this package answers
"keep many evolving datasets resident and answer questions about them
concurrently".  Pieces, each its own module:

* :mod:`repro.serve.protocol` — length-prefixed JSON wire format.
* :mod:`repro.serve.sessions` — per-tenant
  :class:`~repro.core.incremental.IncrementalJoin` sessions behind a
  :class:`SessionManager`.
* :mod:`repro.serve.batching` — :class:`QueryCoalescer`, merging the
  range queries submitted in one event-loop turn into a single batched
  tree traversal.
* :mod:`repro.serve.admission` — :class:`AdmissionController`,
  sketch-based size budgets plus a bounded request queue.
* :mod:`repro.serve.server` — :class:`JoinServer`, the asyncio TCP
  front-end composing all of the above.
* :mod:`repro.serve.client` — :class:`ServeClient`, a pipelined async
  client returning engine-dtype numpy arrays.

Typical use (see ``docs/serving.md`` for the full tour)::

    server = JoinServer()
    await server.start()
    client = await ServeClient.connect(server.host, server.port)
    await client.attach("logs", epsilon=0.1)
    ids = await client.insert("logs", points)
    hits = await client.range_query("logs", points[0])
"""

from repro.serve.admission import AdmissionController
from repro.serve.batching import QueryCoalescer
from repro.serve.client import RemoteError, ServeClient
from repro.serve.protocol import MAX_FRAME_BYTES, ProtocolError
from repro.serve.server import JoinServer
from repro.serve.sessions import SessionManager, TenantSession

__all__ = [
    "AdmissionController",
    "JoinServer",
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "QueryCoalescer",
    "RemoteError",
    "ServeClient",
    "SessionManager",
    "TenantSession",
]
