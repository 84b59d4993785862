"""Pluggable kernel backends for the leaf-join hot path.

The filter-cascade of :mod:`repro.core.kernels` splits into three stages:
*plan* the cascade (:func:`repro.core.kernels.plan_cascade`), *filter* a
candidate block (drop row pairs whose distance exceeds epsilon), and
*emit* the surviving pairs through the traversal's sink.  The middle
stage is where essentially all join time goes, and it is the only stage
whose implementation is interchangeable: this module defines the
:class:`KernelBackend` protocol for it and ships two implementations.

* :class:`NumpyBackend` — the default; the vectorized cascade that used
  to live inside :class:`~repro.core.kernels.KernelContext`.
* :class:`NumbaBackend` — optional; compiles the pre-filter stages and
  the short-circuit L_p reduction as a single nopython pass over the
  tile.  ``numba`` is imported lazily and the backend degrades to
  :class:`NumpyBackend` when it is absent, so the package has no hard
  dependency on it.

Exactness discipline (shared by every backend): pre-filters and the
short-circuit reduction may only drop rows using *slacked* thresholds
(see ``kernels._relative_slack``), and every survivor is re-checked with
the exact monolithic computation — the same numpy reduction, natural
dimension order, C-contiguous rows — before the mask is produced.  A
backend therefore cannot change which pairs a join emits, only how fast
the losers are discarded; the cross-backend differential tests assert
byte-identical output for every engine.

:class:`LeafBatchQueue` is the batched leaf-pair work-queue the
traversals feed (following the batching scheme of Gowanlock & Karsin's
GPU self-join): instead of filtering each leaf's candidate list in its
own tiny dispatch, candidates accumulate into reusable index buffers
and are filtered one backend-sized tile at a time.
"""

from __future__ import annotations

import logging
import os
from typing import Callable, Optional

import numpy as np

from repro.errors import ConfigError
from repro.obs import trace

__all__ = [
    "DEFAULT_TILE_ROWS",
    "KernelBackend",
    "LeafBatchQueue",
    "NumbaBackend",
    "NumpyBackend",
    "VALID_KERNEL_BACKENDS",
    "available_kernel_backends",
    "numba_available",
    "resolve_kernel_backend",
]

logger = logging.getLogger("repro.kernels")

#: Values ``JoinSpec.kernel_backend`` accepts.
VALID_KERNEL_BACKENDS = ("auto", "numpy", "numba")

#: Candidate row pairs per work-queue tile.  Large enough that the
#: cascade always engages on full tiles and per-tile dispatch overhead
#: vanishes; small enough that a tile's gathered coordinates stay
#: cache-friendly and the two int64 index buffers cost at most
#: ~1 MiB.  The tile size is a property of the queue, not of the
#: backend: both backends see identical tiles, so the per-stage survivor
#: counters match exactly across backends.  This constant is the
#: fallback; ``repro calibrate`` sweeps tile sizes and stores the
#: fastest in the host's :class:`~repro.planner.profile.CostProfile`,
#: which queues constructed without an explicit ``tile_rows`` adopt.
DEFAULT_TILE_ROWS = 65_536

#: Environment override consulted when ``kernel_backend="auto"`` — the
#: CI matrix uses it to force ``numba`` (or prove the numpy fallback)
#: without touching every test's spec.
_ENV_BACKEND = "REPRO_KERNEL_BACKEND"


def _abs_column_diff(
    col_a: np.ndarray, col_b: np.ndarray, rows_a: np.ndarray, rows_b: np.ndarray
) -> np.ndarray:
    """``|col_a[rows_a] - col_b[rows_b]|`` as one fresh ``(m,)`` array."""
    diff = np.take(col_a, rows_a) - np.take(col_b, rows_b)
    return np.abs(diff, out=diff)


def gather_rows(cols: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``(m, d)`` C-contiguous rows in natural dimension order."""
    return np.ascontiguousarray(cols[:, rows].T)


class KernelBackend:
    """One interchangeable implementation of the candidate-block filter.

    A backend receives one tile of aligned candidate row pairs (indices
    already translated into the column stores' global row space) plus
    the :class:`~repro.core.kernels.KernelContext` holding the plan,
    column stores and thresholds, and returns the boolean keep-mask.
    Implementations must be *exact*: the mask must equal the monolithic
    ``metric.within_rows`` verdict bit for bit.
    """

    #: Stable identifier recorded in ``JoinStats.kernel_backend``.
    name: str = "abstract"

    def filter_chunk(
        self,
        context,
        rows_a: np.ndarray,
        rows_b: np.ndarray,
        stats=None,
    ) -> np.ndarray:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<KernelBackend {self.name}>"


class NumpyBackend(KernelBackend):
    """Pure-numpy cascade: staged compaction with blocked reduction."""

    name = "numpy"

    def filter_chunk(
        self,
        context,
        rows_a: np.ndarray,
        rows_b: np.ndarray,
        stats=None,
    ) -> np.ndarray:
        plan = context.plan
        metric = context.metric
        cols_a = context.cols_a
        cols_b = context.cols_b
        n = len(rows_a)
        emit_events = trace.is_enabled()
        touched = 0
        # ``alive`` maps the compacted candidate arrays back to chunk
        # positions; ``acc`` is the per-row partial distance key.
        alive = np.arange(n, dtype=np.int64)
        acc = np.zeros(n, dtype=cols_a.dtype)
        survivors = []

        # Stage 1..n_filters: single-dimension pre-filters.
        for stage in range(plan.n_filters):
            dim = plan.order[stage]
            diff = _abs_column_diff(cols_a[dim], cols_b[dim], rows_a, rows_b)
            touched += diff.size
            keep = np.flatnonzero(diff <= context.filter_bound)
            rows_a = rows_a[keep]
            rows_b = rows_b[keep]
            alive = alive[keep]
            # The filter dimension's contribution is already computed;
            # folding it into the accumulator tightens later pruning.
            acc = metric.accumulate_abs_column(acc[keep], diff[keep], dim)
            survivors.append(len(keep))
            if emit_events:
                trace.add_event(
                    "cascade-stage",
                    stage=stage + 1,
                    kind="pre-filter",
                    dim=int(dim),
                    candidates=int(len(diff)),
                    survivors=int(len(keep)),
                )

        # Blocked short-circuit reduction over the remaining dimensions:
        # each column is gathered, subtracted and folded into the key on
        # its own, so every temporary is one contiguous column, and rows
        # are pruned once per block.
        remaining = plan.order[plan.n_filters:]
        reduction_in = len(rows_a)
        for start in range(0, len(remaining), plan.block_dims):
            if not len(rows_a):
                break
            block_dims = remaining[start:start + plan.block_dims]
            for dim in block_dims:
                acc = metric.accumulate_abs_column(
                    acc, _abs_column_diff(cols_a[dim], cols_b[dim], rows_a, rows_b), dim
                )
            touched += len(rows_a) * len(block_dims)
            keep = np.flatnonzero(acc <= context.prune_key)
            if len(keep) < len(rows_a):
                rows_a = rows_a[keep]
                rows_b = rows_b[keep]
                alive = alive[keep]
                acc = acc[keep]

        # Exact final check: reproduce the monolithic kernel's
        # computation (natural dimension order, C-contiguous rows) on
        # the few survivors, so boundary decisions match bit for bit.
        mask = np.zeros(n, dtype=bool)
        final_survivors = 0
        if len(rows_a):
            diff = np.abs(gather_rows(cols_a, rows_a) - gather_rows(cols_b, rows_b))
            touched += diff.size
            exact = metric._reduce_abs_diff(diff) <= context.exact_key
            mask[alive[exact]] = True
            final_survivors = int(np.count_nonzero(exact))
        survivors.append(final_survivors)
        if emit_events:
            trace.add_event(
                "cascade-stage",
                stage=plan.n_filters + 1,
                kind="reduction",
                candidates=int(reduction_in),
                survivors=final_survivors,
            )
        if stats is not None:
            for stage, count in enumerate(survivors):
                stats.cascade_survivors[stage] += count
            stats.coordinates_touched += touched
        return mask


# ----------------------------------------------------------------------
# numba backend
# ----------------------------------------------------------------------
def numba_available() -> bool:
    """Whether the optional ``numba`` package can be imported."""
    try:
        import importlib.util

        return importlib.util.find_spec("numba") is not None
    except Exception:  # pragma: no cover - importlib metadata breakage
        return False


#: Metric dispatch codes for the nopython pass (matching repro.metrics):
#: 0 = weighted max (Chebyshev), 1 = L1, 2 = L2, 3 = generic power p.
_P_INF, _P_ONE, _P_TWO, _P_GENERIC = 0, 1, 2, 3

_NUMBA_PASS = None


def _compile_survivor_pass():
    """Compile (once per process) the nopython cascade survivor pass.

    The compiled function runs stages 1 and 2 of the cascade — the
    per-dimension pre-filters and the per-row short-circuit accumulation
    with the *slacked* prune threshold — and writes the positions of the
    rows that survive into a preallocated buffer.  The exact final check
    deliberately stays in numpy (:meth:`NumbaBackend.filter_chunk`): it
    is the step that defines bit-exactness, so it must be the *same
    code* for every backend.

    All floating-point scalars arrive pre-cast to the column dtype, so
    each comparison is performed in exactly the precision numpy's weak
    scalar promotion would use — this is what makes the per-stage
    survivor counters identical across backends, not just the masks.
    """
    global _NUMBA_PASS
    if _NUMBA_PASS is not None:
        return _NUMBA_PASS
    import numba

    @numba.njit(nogil=True)
    def survivor_pass(
        cols_a,
        cols_b,
        rows_a,
        rows_b,
        order,
        n_filters,
        weights,
        p_code,
        p,
        filter_bound,
        prune_key,
        survivors,
        stage_counts,
    ):
        n = rows_a.shape[0]
        dims = order.shape[0]
        zero = filter_bound - filter_bound
        n_survivors = 0
        touched = 0
        for i in range(n):
            ra = rows_a[i]
            rb = rows_b[i]
            acc = zero
            alive = True
            for stage in range(n_filters):
                dim = order[stage]
                diff = abs(cols_a[dim, ra] - cols_b[dim, rb])
                touched += 1
                if diff > filter_bound:
                    alive = False
                    break
                stage_counts[stage] += 1
                if p_code == _P_INF:
                    term = weights[dim] * diff
                    if term > acc:
                        acc = term
                elif p_code == _P_ONE:
                    acc += weights[dim] * diff
                elif p_code == _P_TWO:
                    acc += weights[dim] * (diff * diff)
                else:
                    acc += weights[dim] * diff ** p
            if not alive:
                continue
            for stage in range(n_filters, dims):
                dim = order[stage]
                diff = abs(cols_a[dim, ra] - cols_b[dim, rb])
                touched += 1
                if p_code == _P_INF:
                    term = weights[dim] * diff
                    if term > acc:
                        acc = term
                elif p_code == _P_ONE:
                    acc += weights[dim] * diff
                elif p_code == _P_TWO:
                    acc += weights[dim] * (diff * diff)
                else:
                    acc += weights[dim] * diff ** p
                if acc > prune_key:
                    alive = False
                    break
            if alive:
                survivors[n_survivors] = i
                n_survivors += 1
        return n_survivors, touched

    _NUMBA_PASS = survivor_pass
    return survivor_pass


def _metric_code(metric) -> Optional[int]:
    """Dispatch code for the nopython pass, or ``None`` if unsupported."""
    from repro.metrics import ChebyshevMetric, LpMetric, WeightedLpMetric

    if isinstance(metric, ChebyshevMetric):
        return _P_INF
    if isinstance(metric, (LpMetric, WeightedLpMetric)):
        if metric.p == np.inf:
            return _P_INF
        if metric.p == 1.0:
            return _P_ONE
        if metric.p == 2.0:
            return _P_TWO
        return _P_GENERIC
    return None


class NumbaBackend(KernelBackend):
    """Nopython cascade + short-circuit L_p over the candidate tile.

    The survivor pass short-circuits per *dimension* (numpy can only
    prune per block of dimensions), so it touches strictly fewer
    coordinates; survivors then take the identical numpy exact check.
    Tiles whose column dtype or metric the compiled pass does not
    support fall back to :class:`NumpyBackend` row for row, keeping the
    backend universally safe to select.
    """

    name = "numba"

    def __init__(self) -> None:
        self._fallback = NumpyBackend()
        # Per-(dtype, metric) weight vectors; ones for unweighted
        # metrics so the pass has a single code path.
        self._weight_cache: dict = {}

    def _weights_for(self, metric, dims: int, dtype: np.dtype) -> np.ndarray:
        key = (id(metric), dims, dtype)
        cached = self._weight_cache.get(key)
        if cached is None:
            weights = getattr(metric, "weights", None)
            if weights is None:
                cached = np.ones(dims, dtype=dtype)
            else:
                cached = np.ascontiguousarray(weights, dtype=dtype)
            self._weight_cache[key] = cached
        return cached

    def filter_chunk(
        self,
        context,
        rows_a: np.ndarray,
        rows_b: np.ndarray,
        stats=None,
    ) -> np.ndarray:
        cols_a = context.cols_a
        cols_b = context.cols_b
        p_code = _metric_code(context.metric)
        if p_code is None or cols_a.dtype not in (np.float32, np.float64):
            return self._fallback.filter_chunk(context, rows_a, rows_b, stats)
        survivor_pass = _compile_survivor_pass()
        plan = context.plan
        n = len(rows_a)
        dtype = cols_a.dtype.type
        order = np.asarray(plan.order, dtype=np.int64)
        weights = self._weights_for(context.metric, len(plan.order), cols_a.dtype)
        survivors = np.empty(n, dtype=np.int64)
        stage_counts = np.zeros(max(plan.n_filters, 1), dtype=np.int64)
        p = context.metric.p if p_code == _P_GENERIC else 2.0
        n_survivors, touched = survivor_pass(
            cols_a,
            cols_b,
            np.ascontiguousarray(rows_a, dtype=np.int64),
            np.ascontiguousarray(rows_b, dtype=np.int64),
            order,
            plan.n_filters,
            weights,
            p_code,
            dtype(p),
            dtype(context.filter_bound),
            dtype(context.prune_key),
            survivors,
            stage_counts,
        )
        alive = survivors[:n_survivors]
        # Exact final check — the same numpy computation every backend
        # runs, so boundary decisions match the monolithic kernel bit
        # for bit.
        mask = np.zeros(n, dtype=bool)
        final_survivors = 0
        if n_survivors:
            diff = np.abs(
                gather_rows(cols_a, rows_a[alive])
                - gather_rows(cols_b, rows_b[alive])
            )
            touched += diff.size
            exact = context.metric._reduce_abs_diff(diff) <= context.exact_key
            mask[alive[exact]] = True
            final_survivors = int(np.count_nonzero(exact))
        if trace.is_enabled():
            trace.add_event(
                "cascade-chunk",
                backend=self.name,
                candidates=int(n),
                reduction_survivors=int(n_survivors),
                survivors=final_survivors,
            )
        if stats is not None:
            for stage in range(plan.n_filters):
                stats.cascade_survivors[stage] += int(stage_counts[stage])
            stats.cascade_survivors[-1] += final_survivors
            stats.coordinates_touched += int(touched)
        return mask


# ----------------------------------------------------------------------
# backend selection
# ----------------------------------------------------------------------
_INSTANCES: dict = {}
_AUTO_LOGGED = False
_FALLBACK_WARNED = False


def _instance(name: str) -> KernelBackend:
    backend = _INSTANCES.get(name)
    if backend is None:
        backend = _INSTANCES[name] = (
            NumbaBackend() if name == "numba" else NumpyBackend()
        )
    return backend


def available_kernel_backends() -> tuple:
    """Backend names usable in this environment, default first."""
    names = ["numpy"]
    if numba_available():
        names.append("numba")
    return tuple(names)


def resolve_kernel_backend(name: str = "auto") -> KernelBackend:
    """Resolve a ``kernel_backend`` spec value to a backend instance.

    ``"auto"`` prefers numba when it is importable (the compiled cascade
    wins from roughly d >= 16) and may be overridden by the
    ``REPRO_KERNEL_BACKEND`` environment variable — which is how the CI
    matrix forces one backend across a whole test run.  An explicit
    ``"numba"`` on a machine without numba falls back to numpy with a
    one-time warning rather than failing: backend choice is a runtime
    performance knob and never affects results.
    """
    global _AUTO_LOGGED, _FALLBACK_WARNED
    if name not in VALID_KERNEL_BACKENDS:
        raise ConfigError(
            f"unknown kernel backend {name!r}: valid values are "
            f"{', '.join(repr(v) for v in VALID_KERNEL_BACKENDS)}"
        )
    if name == "auto":
        env = os.environ.get(_ENV_BACKEND, "").strip().lower()
        if env:
            if env not in ("numpy", "numba"):
                raise ConfigError(
                    f"invalid {_ENV_BACKEND}={env!r}: valid values are "
                    "'numpy', 'numba'"
                )
            name = env
        else:
            name = "numba" if numba_available() else "numpy"
        if not _AUTO_LOGGED:
            _AUTO_LOGGED = True
            logger.info("kernel_backend=auto resolved to %r", name)
    if name == "numba" and not numba_available():
        if not _FALLBACK_WARNED:
            _FALLBACK_WARNED = True
            logger.warning(
                "kernel_backend='numba' requested but numba is not "
                "installed; falling back to the numpy backend"
            )
        name = "numpy"
    return _instance(name)


# ----------------------------------------------------------------------
# batched leaf-pair work-queue
# ----------------------------------------------------------------------
class LeafBatchQueue:
    """Accumulate per-leaf candidate pairs; filter in backend-sized tiles.

    The leaf sort-merge sweeps produce many small candidate lists (one
    per band per leaf); filtering each individually pays per-call
    dispatch and — below ``MIN_CASCADE_ROWS`` — forfeits the cascade
    entirely.  The queue copies incoming candidate indices into two
    int64 tile buffers and invokes ``filter_rows`` exactly once per
    full tile (plus once for the remainder at ``flush``), emitting the
    surviving pairs through ``emit``.  The buffers grow on demand (by
    doubling) up to one tile, so a small probe — a single range query —
    never allocates a whole tile.

    Exactness: every backend's verdict is a pure per-row function, so
    regrouping candidates across leaves cannot change any verdict — only
    the number of backend invocations.  Callers **must** call
    :meth:`flush` before consuming their sink.
    """

    __slots__ = ("_filter_rows", "_emit", "tile_rows", "_buf_a", "_buf_b", "_fill")

    def __init__(
        self,
        filter_rows: Callable[[np.ndarray, np.ndarray], np.ndarray],
        emit: Callable[[np.ndarray, np.ndarray], None],
        tile_rows: Optional[int] = None,
    ):
        if tile_rows is None:
            # The calibrated host profile carries the auto-tuned tile
            # size (function-level import: planner.profile is stdlib-only
            # and must never import core at module level, so the
            # dependency points this way, lazily).
            from repro.planner.profile import active_tile_rows

            tile_rows = active_tile_rows()
        if tile_rows < 1:
            raise ConfigError(f"tile_rows must be >= 1, got {tile_rows!r}")
        self._filter_rows = filter_rows
        self._emit = emit
        self.tile_rows = int(tile_rows)
        self._buf_a = np.empty(0, dtype=np.int64)
        self._buf_b = np.empty(0, dtype=np.int64)
        self._fill = 0

    def add(self, rows_a: np.ndarray, rows_b: np.ndarray) -> None:
        """Enqueue one leaf's aligned candidate row pairs."""
        n = len(rows_a)
        pos = 0
        while pos < n:
            take = min(self.tile_rows - self._fill, n - pos)
            stop = self._fill + take
            if stop > len(self._buf_a):
                self._grow(stop)
            self._buf_a[self._fill:stop] = rows_a[pos:pos + take]
            self._buf_b[self._fill:stop] = rows_b[pos:pos + take]
            self._fill = stop
            pos += take
            if self._fill == self.tile_rows:
                self.flush()

    def _grow(self, need: int) -> None:
        size = min(self.tile_rows, max(need, 2 * len(self._buf_a)))
        for name in ("_buf_a", "_buf_b"):
            grown = np.empty(size, dtype=np.int64)
            grown[:self._fill] = getattr(self, name)[:self._fill]
            setattr(self, name, grown)

    def flush(self) -> None:
        """Filter and emit everything currently buffered."""
        if not self._fill:
            return
        left = self._buf_a[:self._fill]
        right = self._buf_b[:self._fill]
        mask = self._filter_rows(left, right)
        # Boolean indexing copies, so the emitted arrays do not alias
        # the tile buffers the next fill cycle overwrites.
        self._emit(left[mask], right[mask])
        self._fill = 0

    @property
    def pending(self) -> int:
        """Buffered candidate pairs not yet filtered."""
        return self._fill
