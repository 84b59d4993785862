"""Wire protocol for the similarity-join server: length-prefixed JSON.

Every message — request or response — is one *frame*: a 4-byte
big-endian unsigned length followed by that many bytes of UTF-8 JSON.
JSON keeps the protocol debuggable (``nc`` + a hex editor suffice) and
the length prefix makes framing trivial and strict: a frame longer than
:data:`MAX_FRAME_BYTES` is refused before any allocation, so a garbage
prefix cannot make the server try to buffer gigabytes.

Requests are objects with an ``op`` (one of :data:`REQUEST_OPS`), an
optional client-chosen ``id`` echoed back verbatim, and op-specific
fields.  Responses always carry ``ok``; failures add a machine-readable
``code`` (see :func:`error_response`) plus a human ``error`` string.
Array payloads (points, ids, pairs) travel as nested JSON lists and are
converted back to the engine's ``float64``/``int64`` dtypes at the
boundary, so a round trip through the wire is byte-identical to calling
the engine directly.

The codec functions are synchronous and pure (property-tested in
``tests/test_serve.py``); :func:`read_frame`/:func:`write_frame` are
thin asyncio wrappers over them.
"""

from __future__ import annotations

import asyncio
import json
import math
import struct
from typing import Any, Dict, Optional

import numpy as np

from repro.errors import ReproError

__all__ = [
    "MAX_FRAME_BYTES",
    "REQUEST_OPS",
    "ProtocolError",
    "decode_frame",
    "decode_ids",
    "decode_points",
    "decode_positive",
    "encode_frame",
    "error_response",
    "read_frame",
    "write_frame",
]

#: Hard ceiling on a single frame's JSON payload.  Large enough for a
#: ~million-point insert batch, small enough that a corrupt length
#: prefix fails fast instead of exhausting memory.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Operations the server understands.
REQUEST_OPS = (
    "ping",
    "attach",
    "insert",
    "delete",
    "range_query",
    "mini_join",
    "pairs",
    "stats",
    "compact",
    "detach",
    "shutdown",
)

_HEADER = struct.Struct(">I")


class ProtocolError(ReproError, RuntimeError):
    """A frame violated the wire format (bad length, not JSON, not an object)."""


def encode_frame(obj: Dict[str, Any]) -> bytes:
    """Serialize one message to its on-wire bytes (header + JSON body)."""
    body = json.dumps(obj, separators=(",", ":"), allow_nan=False).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(body)} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
        )
    return _HEADER.pack(len(body)) + body


def decode_frame(data: bytes) -> Dict[str, Any]:
    """Parse one frame *body* (the JSON bytes after the header)."""
    try:
        obj = json.loads(data.decode("utf-8"))
    except ValueError as exc:  # bad UTF-8, bad JSON, or an over-long integer
        raise ProtocolError(f"frame body is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError(
            f"frame body must be a JSON object, got {type(obj).__name__}"
        )
    return obj


async def read_frame(reader: asyncio.StreamReader) -> Optional[Dict[str, Any]]:
    """Read one complete frame; ``None`` on a clean EOF between frames.

    EOF in the *middle* of a frame (header or body truncated) raises
    :class:`ProtocolError` — the peer died mid-message.
    """
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("connection closed mid-header") from exc
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame header declares {length} bytes, above the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError(
            f"connection closed mid-frame ({len(exc.partial)}/{length} bytes)"
        ) from exc
    return decode_frame(body)


async def write_frame(writer: asyncio.StreamWriter, obj: Dict[str, Any]) -> None:
    """Write one frame and drain the transport."""
    writer.write(encode_frame(obj))
    await writer.drain()


def error_response(request_id: Any, code: str, message: str) -> Dict[str, Any]:
    """Build the standard failure envelope.

    ``code`` values used by the server: ``"admission"`` (request shed by
    the admission controller), ``"deadline"`` (per-request deadline
    expired), ``"protocol"`` (malformed request), ``"invalid"``
    (engine-level parameter error), ``"unknown_tenant"``, and
    ``"internal"`` for anything unexpected.
    """
    return {"id": request_id, "ok": False, "code": code, "error": message}


def decode_points(value: Any, name: str = "points") -> np.ndarray:
    """Convert a JSON nested list to a float64 ``(n, d)`` point array."""
    try:
        points = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"{name} is not a numeric array: {exc}") from exc
    if points.ndim == 1 and len(points) == 0:
        points = points.reshape(0, 0)
    if points.ndim != 2:
        raise ProtocolError(
            f"{name} must be a list of equal-length rows, got ndim={points.ndim}"
        )
    return points


def decode_positive(value: Any, name: str) -> Optional[float]:
    """Convert an optional JSON number to a finite float above zero.

    ``None`` (field absent) passes through.  A bool, a string, a list, a
    non-finite value (Python's ``json`` accepts ``NaN`` and ``Infinity``)
    or a value at or below zero is a :class:`ProtocolError`.
    """
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError(f"{name} must be a number, got {type(value).__name__}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not (math.isfinite(number) and number > 0):
        raise ProtocolError(f"{name} must be finite and positive, got {value!r}")
    return number


def decode_ids(value: Any, name: str = "ids") -> np.ndarray:
    """Convert a JSON list to an int64 id array."""
    try:
        ids = np.asarray(value, dtype=np.int64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ProtocolError(f"{name} is not an integer array: {exc}") from exc
    if ids.ndim != 1:
        raise ProtocolError(f"{name} must be a flat list, got ndim={ids.ndim}")
    return ids
