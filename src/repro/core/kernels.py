"""Filter-cascade distance kernels for the leaf-join hot path.

The paper's cost model (and experiments E2/E5) show that once the
epsilon-kdB tree has pruned by adjacency, the join is dominated by full
``d``-dimensional distance computations over band-sweep candidates.  The
monolithic kernel (:meth:`repro.metrics.Metric.within_rows`) gathers all
``d`` coordinates of every candidate pair and reduces them in one pass;
at high ``d`` almost all of that work is wasted on pairs that a single
coordinate already disqualifies.

This module replaces that check with a staged cascade, evaluated over
a structure-of-arrays (column-major) copy of the points so each stage
touches only the columns it needs.  Dimensions run in selectivity order
(widest spread first, preferring unsplit non-sort dimensions, which
adjacency and the band sweep have not constrained yet):

1. **Pre-filter stages** (``filter_dims``, none by default) — one
   per-dimension ``|a - b| <= coordinate_bound(eps)`` mask each.
2. **Blocked short-circuit reduction** — the metric's distance key is
   folded one column at a time, and after every block of
   ``DEFAULT_BLOCK_DIMS`` (two) columns the rows whose partial key
   already exceeds ``key(eps)`` (plus a conservative rounding slack)
   are dropped.  Each stage's survivors are one keep index, applied
   with one ``take`` per array when the next stage starts; the last
   block's index goes straight to the final check.
3. **Exact final check** — survivors are re-checked with the *same*
   computation the monolithic kernel performs (natural dimension order,
   C-contiguous rows), so the emitted mask is bit-identical to
   ``cascade="off"``: the pre-filters and the slacked short-circuit only
   ever drop rows whose computed distance key is strictly above the
   threshold.

One :class:`KernelContext` is built per join (a single ``(d, n)``
transpose copy plus an ``O(d log d)`` ordering), reused across every
leaf, and — via :class:`KernelSource` — shared zero-copy with the
parallel executor's worker processes through the existing shared-memory
path in :mod:`repro.core.parallel`.

:class:`LeafBatchQueue` is the batched leaf-pair work-queue the
traversals feed (following the batching scheme of Gowanlock & Karsin's
GPU self-join): instead of filtering each leaf's candidate list in its
own tiny dispatch, candidates accumulate into reusable index buffers
and are filtered one tile at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import JoinSpec
from repro.core.result import JoinStats
from repro.errors import ConfigError, InvalidParameterError
from repro.obs import trace

#: Candidate row pairs per work-queue tile.  Large enough that the
#: cascade always engages on full tiles and per-tile dispatch overhead
#: vanishes; small enough that a tile's gathered coordinates stay
#: cache-friendly and the two int64 index buffers cost at most
#: ~1 MiB.  E21's tile sweep measured it fastest; queues constructed
#: without an explicit ``tile_rows`` use it.
DEFAULT_TILE_ROWS = 65_536

#: Dimensions accumulated per short-circuit reduction block.  Where one
#: coordinate alone rejects few candidates (clustered data), pruning
#: after every second column beats pruning after every column, whose
#: compactions cost more than the columns they skip, and pruning after
#: all of them, which gathers every column for nearly every row.
DEFAULT_BLOCK_DIMS = 2

#: Rows processed per chunk, mirroring ``repro.metrics.lp._ROW_CHUNK``:
#: candidate lists of any length never gather more than this many rows
#: per cascade stage.
_ROW_CHUNK = 262_144

#: Below this many candidate rows the cascade's per-stage staging costs
#: more than it saves (measured crossover ~512 rows for d in 8..32), so
#: the exact final check runs directly.  Dense leaves still hand the
#: cascade candidate lists far above this.
MIN_CASCADE_ROWS = 512

#: Relative slack applied to pruning thresholds (never to the final
#: check).  Partial keys are accumulated in a different association
#: order than the monolithic kernel's reduction, so they can exceed the
#: monolithic value by a few ulps; pruning only above
#: ``threshold * (1 + slack)`` guarantees every row the monolithic
#: kernel would accept reaches the exact final check.  The floor of
#: 1e-9 is ~a million float64 ulps — far above any realistic
#: accumulation error, while still tight enough to prune essentially
#: everything a strict comparison would.
_MIN_RELATIVE_SLACK = 1e-9


def _relative_slack(dtype: np.dtype, dims: int) -> float:
    """Dtype-aware pruning slack: generous for float32, 1e-9 for float64."""
    if np.issubdtype(dtype, np.floating):
        return max(_MIN_RELATIVE_SLACK, float(np.finfo(dtype).eps) * 8 * dims)
    return _MIN_RELATIVE_SLACK


def gather_rows(cols: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``(m, d)`` C-contiguous rows in natural dimension order."""
    return np.ascontiguousarray(cols[:, rows].T)


@dataclass(frozen=True)
class KernelPlan:
    """Picklable description of one join's cascade configuration.

    ``order`` lists every dimension in selectivity order (pre-filter
    candidates first, the band-sweep sort dimension last); the first
    ``n_filters`` entries run as single-dimension pre-filter stages and
    the rest feed the blocked reduction.
    """

    order: Tuple[int, ...]
    n_filters: int
    block_dims: int = DEFAULT_BLOCK_DIMS

    @property
    def n_stages(self) -> int:
        """Pre-filter stages plus the one reduction/final stage."""
        return self.n_filters + 1

    @property
    def stages(self) -> Tuple[Tuple[int, ...], ...]:
        """Dimension groups in evaluation order: each pre-filter on its
        own, then the reduction blocks of ``block_dims`` columns."""
        order, first = self.order, self.n_filters
        return tuple((dim,) for dim in order[:first]) + tuple(
            order[start:start + self.block_dims]
            for start in range(first, len(order), self.block_dims)
        )


@dataclass(frozen=True)
class KernelSource:
    """Pre-built column stores for :func:`build_kernel_context`.

    The parallel executor ships one global ``(d, n)`` structure-of-arrays
    copy per side to every worker through shared memory; a stripe task
    wraps it in a source, so no per-stripe transpose copies are made.
    Rows of the stores are the rows the traversal hands the kernel.
    """

    cols_a: np.ndarray
    cols_b: Optional[np.ndarray] = None


def plan_cascade(
    spec: JoinSpec,
    spreads: np.ndarray,
    split_dims: Sequence[int] = (),
    sort_dim: Optional[int] = None,
    block_dims: int = DEFAULT_BLOCK_DIMS,
) -> KernelPlan:
    """Choose the dimension ordering and stage split for one join.

    Selectivity heuristic: a pre-filter on dimension ``k`` removes the
    largest fraction of candidates when the data's spread along ``k`` is
    widest relative to the filter width (which is the same for every
    dimension), and when no other structure has constrained ``k`` yet.
    Dimensions therefore sort: unsplit non-sort dimensions first (widest
    spread first), then split dimensions (adjacency already bounds them
    to about two cell widths), then the sort dimension last (the band
    sweep has fully filtered it).
    """
    dims = len(spreads)
    if dims < 2:
        raise InvalidParameterError(
            f"the cascade needs at least 2 dimensions, got {dims}"
        )
    split = {int(d) for d in split_dims}

    def rank(k: int):
        if sort_dim is not None and k == sort_dim:
            klass = 2
        elif k in split:
            klass = 1
        else:
            klass = 0
        return (klass, -float(spreads[k]), k)

    order = tuple(sorted(range(dims), key=rank))
    n_filters = spec.resolved_filter_dims(dims)
    return KernelPlan(order=order, n_filters=n_filters, block_dims=block_dims)


class KernelContext:
    """Per-join cascade state: column stores, plan, and thresholds.

    ``within_rows(rows_a, rows_b, stats)`` is a drop-in replacement for
    ``metric.within_rows(points_a, points_b, rows_a, rows_b, eps)`` with
    bit-identical output; ``stats`` (optional) receives the per-stage
    candidate/survivor counters.

    The context owns the plan, thresholds, column stores, the
    small-batch direct path and chunking; each chunk is filtered by
    :func:`filter_chunk`.
    """

    __slots__ = (
        "plan",
        "metric",
        "eps",
        "cols_a",
        "cols_b",
        "exact_key",
        "prune_key",
        "filter_bound",
    )

    def __init__(
        self,
        plan: KernelPlan,
        spec: JoinSpec,
        cols_a: np.ndarray,
        cols_b: Optional[np.ndarray] = None,
    ):
        if cols_a.ndim != 2 or cols_a.shape[0] != len(plan.order):
            raise InvalidParameterError(
                f"cols_a must be (d, n) with d={len(plan.order)}, "
                f"got shape {cols_a.shape}"
            )
        self.plan = plan
        self.metric = spec.metric
        self.eps = spec.epsilon
        self.cols_a = cols_a
        self.cols_b = cols_a if cols_b is None else cols_b
        slack = _relative_slack(cols_a.dtype, len(plan.order))
        self.exact_key = spec.metric.key(spec.epsilon)
        self.prune_key = self.exact_key * (1.0 + slack)
        self.filter_bound = spec.metric.coordinate_bound(spec.epsilon) * (
            1.0 + slack
        )

    @property
    def dims(self) -> int:
        return len(self.plan.order)

    # ------------------------------------------------------------------
    def within_rows(
        self,
        rows_a: np.ndarray,
        rows_b: np.ndarray,
        stats: Optional[JoinStats] = None,
    ) -> np.ndarray:
        """Cascaded boolean mask over aligned candidate row pairs."""
        rows_a = np.asarray(rows_a)
        rows_b = np.asarray(rows_b)
        n = rows_a.shape[0]
        if rows_b.shape[0] != n:
            raise InvalidParameterError(
                "row index arrays must have equal length: "
                f"{n} != {rows_b.shape[0]}"
            )
        if stats is not None:
            stats.cascade_candidates += int(n)
            if not stats.cascade_survivors:
                stats.cascade_survivors = [0] * self.plan.n_stages
        if n < MIN_CASCADE_ROWS:
            return self._direct(rows_a, rows_b, stats)
        out = np.empty(n, dtype=bool)
        for start in range(0, n, _ROW_CHUNK):
            stop = min(start + _ROW_CHUNK, n)
            out[start:stop] = filter_chunk(
                self, rows_a[start:stop], rows_b[start:stop], stats
            )
        return out

    def _direct(
        self,
        rows_a: np.ndarray,
        rows_b: np.ndarray,
        stats: Optional[JoinStats],
    ) -> np.ndarray:
        """Small-batch path: the exact final check with no staging.

        Identical to the monolithic kernel's computation, so the result
        is trivially exact.  The pre-filter stages record pass-through
        survivor counts (they did not run, so they dropped nothing),
        which keeps the per-stage funnel monotone and fixed-length when
        direct and cascaded batches merge.
        """
        diff = np.abs(
            gather_rows(self.cols_a, rows_a) - gather_rows(self.cols_b, rows_b)
        )
        mask = self.metric._reduce_abs_diff(diff) <= self.exact_key
        if stats is not None:
            n = len(rows_a)
            for stage in range(self.plan.n_filters):
                stats.cascade_survivors[stage] += n
            stats.cascade_survivors[-1] += int(np.count_nonzero(mask))
            stats.coordinates_touched += diff.size
        return mask

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<KernelContext d={self.dims} filters={self.plan.n_filters} "
            f"metric={self.metric.name}>"
        )


def filter_chunk(
    context: KernelContext,
    rows_a: np.ndarray,
    rows_b: np.ndarray,
    stats: Optional[JoinStats] = None,
) -> np.ndarray:
    """Keep-mask of one tile of candidate row pairs: staged compaction.

    ``rows_a`` / ``rows_b`` are already translated into the column
    stores' global row space.  The mask equals the monolithic
    ``metric.within_rows`` verdict bit for bit.
    """
    plan = context.plan
    metric = context.metric
    cols_a = context.cols_a
    cols_b = context.cols_b
    n = len(rows_a)
    emit_events = trace.is_enabled()
    touched = 0
    survivors = []
    reduction_in = 0
    # ``keep`` indexes the rows that passed the last prune; it is
    # applied (with one ``take`` per array) when the next stage starts.
    # ``alive`` maps the compacted rows back to chunk positions (None
    # until the first compaction); ``acc`` is the per-row partial key.
    keep = alive = acc = None
    for stage, dims in enumerate(plan.stages):
        if keep is not None and len(keep) < len(rows_a):
            rows_a = rows_a.take(keep)
            rows_b = rows_b.take(keep)
            acc = acc.take(keep)
            alive = keep if alive is None else alive.take(keep)
        pre_filter = stage < plan.n_filters
        if stage == plan.n_filters:
            reduction_in = len(rows_a)
        # Each column is gathered, subtracted and folded into the key on
        # its own, so every temporary is one contiguous column.  A
        # pre-filter stage also drops rows whose single-coordinate gap
        # already exceeds the bound; a reduction block prunes on the key.
        for dim in dims:
            diff = cols_a[dim].take(rows_a) - cols_b[dim].take(rows_b)
            if pre_filter or not metric.squared_key:
                np.abs(diff, out=diff)
            if pre_filter:
                keep = np.flatnonzero(diff <= context.filter_bound)
            acc = metric.accumulate_abs_column(acc, diff, dim)
        touched += len(rows_a) * len(dims)
        if not pre_filter:
            keep = np.flatnonzero(acc <= context.prune_key)
            if not len(keep):
                break
        else:
            survivors.append(len(keep))
            if emit_events:
                trace.add_event(
                    "cascade-stage",
                    stage=stage + 1,
                    kind="pre-filter",
                    dim=int(dims[0]),
                    candidates=int(len(rows_a)),
                    survivors=int(len(keep)),
                )

    # Exact final check on the last block's keep index: reproduce the
    # monolithic kernel's computation (natural dimension order,
    # C-contiguous rows) on the few survivors, so boundary decisions
    # match bit for bit.
    rows_a = rows_a.take(keep)
    rows_b = rows_b.take(keep)
    diff = np.abs(gather_rows(cols_a, rows_a) - gather_rows(cols_b, rows_b))
    touched += diff.size
    exact = metric._reduce_abs_diff(diff) <= context.exact_key
    mask = np.zeros(n, dtype=bool)
    mask[(keep if alive is None else alive.take(keep))[exact]] = True
    survivors.append(int(np.count_nonzero(exact)))
    if emit_events:
        trace.add_event(
            "cascade-stage",
            stage=plan.n_filters + 1,
            kind="reduction",
            candidates=int(reduction_in),
            survivors=survivors[-1],
        )
    if stats is not None:
        for stage, count in enumerate(survivors):
            stats.cascade_survivors[stage] += count
        stats.coordinates_touched += touched
    return mask


def build_kernel_context(
    spec: JoinSpec,
    points_a: np.ndarray,
    points_b: Optional[np.ndarray] = None,
    grid=None,
    split_dims: Sequence[int] = (),
    sort_dim: Optional[int] = None,
    source: Optional[KernelSource] = None,
) -> Optional[KernelContext]:
    """Build the per-join cascade context, or ``None`` when disabled.

    Dimension spreads come from the grid's bounding box when available
    (already computed at ``Grid.fit`` time), else from the data.  When a
    :class:`KernelSource` is supplied its column stores are used as-is
    (the parallel workers' zero-copy path); otherwise one ``(d, n)``
    transpose copy per side is made here.
    """
    if spec.cascade not in ("auto", "on", "off"):
        # Specs are validated at construction, but a spec mutated via
        # ``dataclasses.replace`` (or built from an untrusted dict) can
        # reach here with an arbitrary string; refusing it beats
        # silently joining without the cascade.
        raise ConfigError(
            f"unknown cascade mode {spec.cascade!r}: valid modes are "
            "'auto', 'on', 'off'"
        )
    dims = points_a.shape[1]
    if not spec.cascade_enabled(dims):
        return None
    with trace.span("kernel-plan", dims=dims) as span:
        if grid is not None:
            spreads = np.asarray(grid.hi, dtype=np.float64) - np.asarray(
                grid.lo, dtype=np.float64
            )
        else:
            lo = points_a.min(axis=0) if len(points_a) else np.zeros(dims)
            hi = points_a.max(axis=0) if len(points_a) else np.zeros(dims)
            if points_b is not None and len(points_b):
                lo = np.minimum(lo, points_b.min(axis=0))
                hi = np.maximum(hi, points_b.max(axis=0))
            spreads = hi - lo
        plan = plan_cascade(
            spec, spreads, split_dims=split_dims, sort_dim=sort_dim
        )
        if source is not None:
            context = KernelContext(
                plan,
                spec,
                cols_a=source.cols_a,
                cols_b=source.cols_b,
            )
        else:
            cols_a = np.ascontiguousarray(points_a.T)
            cols_b = (
                np.ascontiguousarray(points_b.T) if points_b is not None else None
            )
            context = KernelContext(plan, spec, cols_a=cols_a, cols_b=cols_b)
        span.set_attribute("filters", plan.n_filters)
        span.set_attribute("order", list(plan.order))
    return context


class LeafBatchQueue:
    """Accumulate per-leaf candidate pairs; filter them in fixed-size tiles.

    The leaf sort-merge sweeps produce many small candidate lists (one
    per band per leaf); filtering each individually pays per-call
    dispatch and — below ``MIN_CASCADE_ROWS`` — forfeits the cascade
    entirely.  The queue copies incoming candidate indices into two
    int64 tile buffers and invokes ``filter_rows`` exactly once per
    full tile (plus once for the remainder at ``flush``), emitting the
    surviving pairs through ``emit``.  The buffers grow on demand (by
    doubling) up to one tile, so a small probe — a single range query —
    never allocates a whole tile.

    Exactness: the filter's verdict is a pure per-row function, so
    regrouping candidates across leaves cannot change any verdict — only
    the number of filter invocations.  Callers **must** call
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
            tile_rows = DEFAULT_TILE_ROWS
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
