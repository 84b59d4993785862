"""Exception hierarchy for the repro package.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch one type at an API boundary.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class InvalidParameterError(ReproError, ValueError):
    """A caller supplied a parameter outside its valid domain.

    Raised for things like a non-positive ``epsilon``, an unknown metric
    name, a malformed points array, or mismatched dimensionalities between
    the two sides of a join.
    """


class ConfigError(InvalidParameterError):
    """A configuration knob holds an unknown or inconsistent value.

    A specialization of :class:`InvalidParameterError` for mode strings
    and strategy selectors (``cascade``, ``engine``, ...): the
    message always lists the valid values.  Raised both at
    :class:`~repro.core.config.JoinSpec` validation time and again at
    the point of use (e.g. :func:`~repro.core.kernels.build_kernel_context`),
    so a spec mutated after construction cannot silently fall through to
    a default behavior.
    """


class DomainError(ReproError, ValueError):
    """Points fall outside the declared grid domain.

    The epsilon-kdB grid is defined over a bounding box that must cover
    every point a tree indexes; a tree build refuses points outside it.
    (Query rows may lie anywhere: cells clip them into the box's edge
    cells, which keeps the adjacent-cell rule exact.)
    """


class StorageError(ReproError, RuntimeError):
    """Misuse of the simulated paged-storage layer.

    Examples: unpinning a page that is not pinned, requesting a page past
    the end of a file, or evicting with every buffer frame pinned.
    """


class TransientIoError(StorageError):
    """A page read failed in a way that is expected to succeed on retry.

    Models the flaky-device / interrupted-syscall class of failure.  The
    external-memory joins retry these a bounded number of times (counted
    in ``JoinStats.storage_retries``) before giving up and re-raising.
    """


class CorruptSnapshotError(StorageError):
    """No durable snapshot prefix survives on disk.

    Recovery tolerates a damaged write-ahead-log suffix and falls back
    across snapshot generations; this error surfaces only when *every*
    snapshot file fails its magic/version/length/checksum validation, so
    there is no consistent state to resume from.
    """


class StaleSnapshotError(StorageError):
    """A snapshot exists but the write-ahead log is ahead of it.

    The zero-materialization :class:`~repro.storage.view.SnapshotView`
    answers queries straight off the memmapped snapshot arrays and
    cannot replay WAL records; when the session directory holds journal
    entries newer than the snapshot's watermark, serving from the view
    would silently ignore committed updates.  Callers catch this and
    fall back to a full :class:`~repro.core.incremental.IncrementalJoin`
    recovery, which replays the log.
    """


class SessionCrashError(ReproError, RuntimeError):
    """The session process was (deliberately) crashed mid-operation.

    Raised by injected storage faults that model a process dying between
    two durability steps — e.g. after a torn write-ahead-log append, or
    after writing a snapshot temp file but before its atomic publish.
    Real crashes never surface as an exception; tests catch this one,
    discard the in-memory session, and re-open from disk.
    """


class WorkerCrashError(ReproError, RuntimeError):
    """A parallel stripe task died (or was deliberately crashed).

    Raised inside a worker by injected faults, and by the parallel
    executor when a stripe task has exhausted its retry budget —
    including the final in-process attempt in the parent.
    """


class AdmissionError(ReproError, RuntimeError):
    """A request was refused because its predicted output exceeds a budget.

    Raised by :class:`~repro.core.incremental.IncrementalJoin` when
    ``spec.admission_threshold`` is set and the join-size sketch predicts
    an insert would push the session past it, and by the serving layer's
    admission controller for queries whose predicted result size exceeds
    the configured budget.  Admission happens *before* any journaling or
    state mutation, so a refused request leaves the session untouched.
    """


class TaskTimeoutError(ReproError, TimeoutError):
    """A parallel stripe task exceeded its ``task_timeout`` deadline.

    Timed-out tasks are re-dispatched (counted in
    ``JoinStats.tasks_timed_out``); this error surfaces only when the
    retry budget is exhausted as well.
    """
