"""Named metrics: counters, gauges, and histograms behind one registry.

:class:`MetricsRegistry` is the single consistent sink the scattered
counters feed through: :class:`~repro.core.result.JoinStats` fields
(including the resilience counters) ingest generically via
:meth:`MetricsRegistry.ingest_stats`, and the simulated disk reports
physical I/O through an optional per-store registry
(``PageStore(metrics=...)``).  Instruments are created lazily on first
use and are thread-safe; :meth:`MetricsRegistry.as_dict` renders the
whole registry as plain JSON-ready data.
"""

from __future__ import annotations

import dataclasses
import math
import threading
from typing import Any, Dict, List

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease ({amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value

    def as_dict(self) -> Dict[str, Any]:
        return {"type": "counter", "value": self._value}


class Gauge:
    """Last-set value (e.g. workers in use, a boolean flag as 0/1)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value: float = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    @property
    def value(self) -> float:
        return self._value

    def as_dict(self) -> Dict[str, Any]:
        return {"type": "gauge", "value": self._value}


class Histogram:
    """Distribution of observed values (all observations retained).

    Sized for the cardinalities this library produces — per-stripe task
    times, per-phase durations — not for unbounded production firehoses.
    """

    __slots__ = ("name", "_values", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._values: List[float] = []
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self._values.append(float(value))

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def total(self) -> float:
        return sum(self._values)

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile; ``q`` in [0, 100]. NaN when empty."""
        with self._lock:
            values = sorted(self._values)
        if not values:
            return math.nan
        rank = max(1, math.ceil(q / 100.0 * len(values)))
        return values[min(rank, len(values)) - 1]

    def as_dict(self) -> Dict[str, Any]:
        with self._lock:
            values = list(self._values)
        summary: Dict[str, Any] = {"type": "histogram", "count": len(values)}
        if values:
            summary.update(
                total=sum(values),
                min=min(values),
                max=max(values),
                mean=sum(values) / len(values),
            )
        return summary


class MetricsRegistry:
    """Lazily-created named instruments, one namespace per registry."""

    def __init__(self) -> None:
        self._instruments: Dict[str, Any] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, kind):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = self._instruments[name] = kind(name)
            elif not isinstance(instrument, kind):
                raise TypeError(
                    f"metric {name!r} is a {type(instrument).__name__}, "
                    f"not a {kind.__name__}"
                )
            return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __len__(self) -> int:
        return len(self._instruments)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._instruments)

    def as_dict(self) -> Dict[str, Any]:
        """Every instrument rendered as JSON-ready data, sorted by name."""
        with self._lock:
            items = sorted(self._instruments.items())
        return {name: instrument.as_dict() for name, instrument in items}

    # ------------------------------------------------------------------
    def ingest_stats(self, stats, prefix: str = "join.") -> None:
        """Feed a dataclass of counters (e.g. ``JoinStats``) generically.

        Field mapping: ints increment counters, bools set 0/1 gauges,
        floats set gauges, numeric lists feed histograms, and non-empty
        strings set a ``<name>.<value>`` marker gauge to 1 (so e.g.
        ``planned_strategy="serial"`` surfaces as
        ``join.planned_strategy.serial``) — so new ``JoinStats`` fields
        flow through without touching this code.
        When the dataclass renders itself via ``as_dict`` (as
        ``JoinStats`` does, expanding per-stage cascade survivor counts
        into ``cascade_survivors_stage{N}`` keys), that expanded view is
        ingested instead of the raw fields.
        """
        as_dict = getattr(stats, "as_dict", None)
        if callable(as_dict):
            items = list(as_dict().items())
        else:
            items = [
                (field.name, getattr(stats, field.name))
                for field in dataclasses.fields(stats)
            ]
        for key, value in items:
            name = prefix + key
            if isinstance(value, bool):
                self.gauge(name).set(1.0 if value else 0.0)
            elif isinstance(value, int):
                self.counter(name).inc(value)
            elif isinstance(value, float):
                self.gauge(name).set(value)
            elif isinstance(value, (list, tuple)):
                histogram = self.histogram(name)
                for item in value:
                    if isinstance(item, (int, float)):
                        histogram.observe(item)
            elif isinstance(value, str):
                if value:
                    self.gauge(f"{name}.{value}").set(1.0)
