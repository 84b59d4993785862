"""Filter-cascade distance kernels for the leaf-join hot path.

The paper's cost model (and experiments E2/E5) show that once the
epsilon-kdB tree has pruned by adjacency, the join is dominated by full
``d``-dimensional distance checks on band-sweep candidates.  On
low-contrast data no single coordinate rejects many of them, so the
lever is the cost of each check.  This module makes that cost small in
three ways.

**The paired store.**  Each side of a join keeps one compact copy of its
points: every element packs two dimensions of the plan's order into one
complex number (``complex64``, or ``complex128`` under the precision
rule below), so one ``take`` fetches a whole two-column block.  To build
it (:meth:`PairedLayout.pack`) a coordinate is clipped into the grid box,
shifted by the box's lower corner and multiplied by a power of two that
fits the widest span into ``[0, 1]``, then rounded to the store's float
type.  An odd last dimension leaves its partner slot zero.  Flat trees
cache their store per layout, so repeated probes of one tree (session
inserts, served range queries) pack only the queries.

**The stages.**  Dimensions run in selectivity order (widest spread
first, preferring unsplit non-sort dimensions, which adjacency and the
band sweep have not constrained yet):

1. *Pre-filter stages* (``filter_dims``, none by default): one
   per-dimension ``|a - b| <= bound`` test each, read from the pair that
   holds the dimension.
2. *Blocked short-circuit reduction*: the metric's key is folded one
   pair at a time, and after every ``DEFAULT_BLOCK_DIMS`` (two) columns
   the rows whose partial key already exceeds the prune key are
   dropped.  A stage's survivors are one index, applied with ``take``.
3. *Exact final check*: the survivors' original rows are gathered and
   reduced by the same computation the monolithic kernel performs
   (:meth:`repro.metrics.Metric.within_rows`: natural dimension order,
   C-contiguous rows), so the verdict equals ``cascade="off"`` bit for
   bit.

**The margin.**  A stage may drop a row only once it has proved that the
monolithic check rejects it.  Let ``E`` bound the error of one stored
coordinate in scaled units: ``2**-53`` for the shift in float64 (the
multiplication by a power of two is exact) plus ``2**-25`` for rounding a
value in ``[0, 1]`` to float32.  Then:

* clipping into a box never widens a per-coordinate gap (it is
  1-Lipschitz), so a stored gap is at most ``s * gap + 2E``;
* by Minkowski's inequality the stored distance of a pair within ``r``
  is at most :meth:`~repro.metrics.Metric.prune_radius`
  ``(s * r, 2E, d)``: ``s*r + d**(1/p) * 2E`` for L_p, ``s*r + 2E`` for
  L_inf and ``s*r + (sum w)**(1/p) * 2E`` for weighted L_p;
* the store's float subtractions, powers, weights and sums of at most
  ``d`` nonnegative terms stay within a relative ``(1 + gamma)`` of the
  exact values, plus an absolute underflow term;
* the monolithic check itself accepts only pairs within
  ``r = eps * (1 + rho)``, ``rho`` its own rounding in the points'
  dtype, as long as ``key(eps)`` sits far from that dtype's underflow
  and overflow (otherwise no stage prunes at all).

All of it folds into one prune key (and one per-coordinate bound) per
join, so the hot loop gains no operation.

**The precision rule.**  Float32 halves the bytes each take moves, but it
resolves only about ``2**-24`` of the span: when ``eps`` is tiny next to
the span, the margin swamps it and the prune keeps rows a float64 stage
would drop.  The store is therefore float32 only when the certified
float32 radius exceeds ``s * eps`` by at most ``2**-10`` (about span/eps
below ``2**14 / d**(1/p)``); the survivor count then moves by well under
0.1%.  Otherwise it is ``complex128``.  The stage code is the same for
both.

**Windows in, pairs out.**  The frontier hands :meth:`filter_windows`
its band windows directly: per source row a ``[start, end)`` window of
target rows.  Source values come from ``np.repeat`` over one small
gather per source row, target values from one ``take`` over the window
indices, and the survivors leave as index arrays.  :meth:`within_rows`
runs the same stages on aligned row pairs (the sort-merge baseline and
E16 use it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import JoinSpec
from repro.core.result import JoinStats
from repro.errors import ConfigError, InvalidParameterError
from repro.obs import trace

#: Candidate row pairs per kernel call: the frontier cuts each level's
#: band windows into row groups of about this many candidates, so a
#: join's candidates are never materialized at once.  Large enough that
#: per-call overhead vanishes; small enough that a call's gathered
#: values stay cache-friendly.
DEFAULT_TILE_ROWS = 65_536

#: Dimensions accumulated per short-circuit reduction block.  Where one
#: coordinate alone rejects few candidates (clustered data), pruning
#: after every pair beats pruning after every column, whose compactions
#: cost more than the columns they skip, and pruning after all of them,
#: which gathers every column for nearly every row.
DEFAULT_BLOCK_DIMS = 2

#: Rows processed per chunk by :meth:`KernelContext.within_rows`,
#: mirroring ``repro.metrics.lp._ROW_CHUNK``.
_ROW_CHUNK = 262_144

#: Below this many candidates the stages' fixed costs exceed what they
#: save, so the exact final check runs directly.
MIN_CASCADE_ROWS = 512

#: Precision rule: the store is float32 only while the certified float32
#: prune radius exceeds ``s * eps`` by at most this fraction.
_FLOAT32_WIDENING = 2.0**-10

#: Error of one stored coordinate from the float64 shift, in scaled
#: units (``2**-53`` relative to a value of at most 1, plus underflow).
_SHIFT_ERROR = 2.0**-52

#: Error of rounding a scaled coordinate in ``[0, 1]`` to float32.
_FLOAT32_ROUNDING = 2.0**-25

#: How far ``key(eps)`` must stay from the points' dtype underflow and
#: overflow for the monolithic check's rounding to be purely relative.
_RANGE_MARGIN = 2.0**64


def _float_of(dtype: np.dtype) -> np.dtype:
    """The real dtype a complex store's values view as."""
    return np.dtype(np.float32 if np.dtype(dtype) == np.complex64 else np.float64)


def _round_up(value: float, dtype: np.dtype):
    """``value`` as a ``dtype`` scalar no smaller than ``value``."""
    rounded = np.dtype(dtype).type(value)
    if float(rounded) < value:
        rounded = np.nextafter(rounded, np.dtype(dtype).type(np.inf))
    return rounded


def _relative_rounding(metric, dims: int, dtype: np.dtype) -> float:
    """Generous relative bound on a key computed in ``dtype``: the
    subtraction, the power (``p`` roundings' worth), the weight and a
    sum of ``dims`` terms each contribute a few units of roundoff."""
    power = float(getattr(metric, "p", 1.0))
    power = power if math.isfinite(power) else 1.0
    return 16.0 * (dims + 8) * max(power, 1.0) * float(np.finfo(dtype).eps)


@dataclass(frozen=True)
class KernelPlan:
    """Picklable description of one join's cascade configuration.

    ``order`` lists every dimension in selectivity order (pre-filter
    candidates first, the band-sweep sort dimension last); consecutive
    entries share one element of the paired store.  The first
    ``n_filters`` entries run as single-dimension pre-filter stages and
    the rest feed the blocked reduction, which prunes after every
    ``block_dims`` columns (rounded up to whole pairs).
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
        own, then the reduction blocks."""
        return tuple(
            tuple(dim for _, _, dims in units for dim in dims)
            for _, units in self._units()
        )

    def _units(self) -> List[Tuple[bool, Tuple[Tuple[int, Tuple[int, ...], Tuple[int, ...]], ...]]]:
        """``(pre-filter?, ((pair, slots, dimensions), ...))`` per stage:
        which store pairs each stage reads, which of their two slots, and
        the dimensions those slots hold."""
        order, first = self.order, self.n_filters
        stages = [
            (True, ((pos // 2, (pos % 2,), (order[pos],)),)) for pos in range(first)
        ]
        units = []
        for pair in range(first // 2, (len(order) + 1) // 2):
            slots = tuple(
                slot for slot in (0, 1) if first <= 2 * pair + slot < len(order)
            )
            units.append((pair, slots, tuple(order[2 * pair + slot] for slot in slots)))
        per = max(1, -(-self.block_dims // 2))
        stages += [(False, tuple(units[i:i + per])) for i in range(0, len(units), per)]
        return stages


@dataclass(frozen=True)
class PairedLayout:
    """How coordinates map into a paired store (see the module docstring).

    Pair ``j`` holds dimensions ``order[2j]`` (real part) and
    ``order[2j + 1]`` (imaginary part); each coordinate is clipped into
    ``[lo, hi]``, shifted by ``lo`` and multiplied by ``scale``.
    """

    order: Tuple[int, ...]
    lo: Tuple[float, ...]
    hi: Tuple[float, ...]
    scale: float
    dtype: str

    def pack(self, points: np.ndarray) -> np.ndarray:
        """``(pairs, n)`` store of ``points`` (rows are ``points`` rows)."""
        order = list(self.order)
        if len(order) % 2:
            order.append(order[-1])
        values = np.clip(
            np.asarray(points, dtype=np.float64)[:, order],
            np.asarray(self.lo)[order],
            np.asarray(self.hi)[order],
        )
        values -= np.asarray(self.lo)[order]
        values *= self.scale
        if len(self.order) % 2:
            values[:, -1] = 0.0
        slots = values.astype(_float_of(self.dtype)).reshape(
            len(points), len(order) // 2, 2
        )
        return np.ascontiguousarray(slots.transpose(1, 0, 2)).view(self.dtype)[..., 0]


@dataclass(frozen=True)
class KernelSource:
    """Pre-built paired stores for :func:`build_kernel_context`.

    The parallel executor ships one store per side to every worker
    through shared memory; a stripe task wraps it in a source, so no
    worker packs its own.  Rows of the stores are the rows the traversal
    hands the kernel.
    """

    store_a: np.ndarray
    store_b: Optional[np.ndarray] = None


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


def plan_store(
    plan: KernelPlan,
    spec: JoinSpec,
    lo: np.ndarray,
    hi: np.ndarray,
    points_dtype=np.float64,
) -> Optional[Tuple[PairedLayout, object, object]]:
    """The store layout and its certified ``(prune key, filter bound)``.

    Returns ``None`` when no stage may prune: ``key(eps)`` lies too close
    to the points' dtype underflow or overflow for the monolithic
    check's own rounding to be bounded relatively, or the box is not
    finite.  The margin and the precision rule are explained in the
    module docstring.
    """
    metric = spec.metric
    dims = len(plan.order)
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    span = float(np.max(hi - lo)) if dims else 0.0
    info = np.finfo(points_dtype)
    eps = float(spec.epsilon)
    key = metric.key(eps)
    # Key of the all-ones gap vector, plus one per term: the absolute
    # underflow a computed key can carry, in units of the smallest
    # subnormal.
    unit = metric.key(metric.prune_radius(0.0, 1.0, dims)) + dims
    if not (
        math.isfinite(span)
        and key >= unit * float(info.smallest_subnormal) * _RANGE_MARGIN
        and key * _RANGE_MARGIN <= float(info.max)
    ):
        return None
    # A power of two (exact to multiply by) fitting the span into [0, 1].
    exponent = math.frexp(span)[1] if span > 0 else 0
    scale = math.ldexp(1.0, -max(exponent, -1000))
    accepted = scale * eps * (1.0 + _relative_rounding(metric, dims, points_dtype))
    for dtype, rounding in ((np.complex64, _FLOAT32_ROUNDING), (np.complex128, 0.0)):
        values = _float_of(dtype)
        ones = metric._reduce_abs_diff(np.ones((1, dims), dtype=values))
        if not np.isfinite(ones).all():
            continue
        error = 2.0 * (_SHIFT_ERROR + rounding)
        radius = metric.prune_radius(accepted, error, dims)
        if dtype is np.complex64 and not (
            radius <= scale * eps * (1.0 + _FLOAT32_WIDENING)
        ):
            continue
        slack = 1.0 + _relative_rounding(metric, dims, values)
        prune_key = metric.key(radius) * slack + 4.0 * unit * float(
            np.finfo(values).smallest_subnormal
        )
        bound = (metric.coordinate_bound(accepted) + error) * slack
        layout = PairedLayout(
            order=tuple(int(k) for k in plan.order),
            lo=tuple(float(v) for v in lo),
            hi=tuple(float(v) for v in hi),
            scale=scale,
            dtype=np.dtype(dtype).name,
        )
        return layout, _round_up(prune_key, values), _round_up(bound, values)
    return None


class KernelContext:
    """Per-join cascade state: plan, paired stores and thresholds.

    ``cols_a`` / ``cols_b`` are the two sides' coordinates, one row per
    dimension (``points.T`` views; ``cols_b=None`` for a self-join): the
    exact final check reads them, and the paired stores are packed from
    them unless ``stores`` (matching ``store_plan``'s layout) is given.
    ``store_plan`` is :func:`plan_store`'s result; by default it is fitted
    to the data's own bounding box.

    :meth:`filter_windows` turns band windows into surviving pairs;
    :meth:`within_rows` is a drop-in replacement for
    ``metric.within_rows(points_a, points_b, rows_a, rows_b, eps)`` with
    bit-identical output.  Both take an optional ``stats`` that receives
    the per-stage candidate/survivor counters.
    """

    __slots__ = (
        "plan",
        "metric",
        "eps",
        "exact_key",
        "points_a",
        "points_b",
        "layout",
        "store_a",
        "store_b",
        "prune_key",
        "filter_bound",
        "_units",
    )

    def __init__(
        self,
        plan: KernelPlan,
        spec: JoinSpec,
        cols_a: np.ndarray,
        cols_b: Optional[np.ndarray] = None,
        store_plan=False,
        stores: Optional[Tuple[np.ndarray, Optional[np.ndarray]]] = None,
    ):
        for cols in (cols_a, cols_b):
            if cols is not None and (cols.ndim != 2 or cols.shape[0] != len(plan.order)):
                raise InvalidParameterError(
                    f"coordinates must be (d, n) with d={len(plan.order)}, "
                    f"got shape {cols.shape}"
                )
        self.plan = plan
        self.metric = spec.metric
        self.eps = spec.epsilon
        self.exact_key = spec.metric.key(spec.epsilon)
        self.points_a = cols_a.T
        self.points_b = self.points_a if cols_b is None else cols_b.T
        self._units = plan._units()
        if store_plan is False:
            both = (
                self.points_a if cols_b is None
                else np.concatenate([self.points_a, self.points_b])
            )
            empty = not len(both)
            store_plan = plan_store(
                plan,
                spec,
                np.zeros(len(plan.order)) if empty else both.min(axis=0),
                np.zeros(len(plan.order)) if empty else both.max(axis=0),
                np.result_type(self.points_a, self.points_b),
            )
        self.layout = self.store_a = self.store_b = None
        self.prune_key = self.filter_bound = None
        if store_plan is not None:
            self.layout, self.prune_key, self.filter_bound = store_plan
            if stores is None:
                stores = (
                    self.layout.pack(self.points_a),
                    None if cols_b is None else self.layout.pack(self.points_b),
                )
            self.store_a = stores[0]
            self.store_b = self.store_a if stores[1] is None else stores[1]

    @property
    def dims(self) -> int:
        return len(self.plan.order)

    def with_side_a(self, points_a: np.ndarray) -> "KernelContext":
        """This context with side ``a`` replaced by ``points_a`` (packed
        with the same layout): how a cached probe context meets each new
        query batch."""
        other = object.__new__(KernelContext)
        for slot in KernelContext.__slots__:
            setattr(other, slot, getattr(self, slot))
        other.points_a = points_a
        if self.layout is not None:
            other.store_a = self.layout.pack(points_a)
        return other

    # ------------------------------------------------------------------
    def filter_windows(
        self,
        rows: np.ndarray,
        start: np.ndarray,
        end: np.ndarray,
        swap: bool = False,
        stats: Optional[JoinStats] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Surviving ``(a rows, b rows)`` of band windows.

        Source row ``rows[i]`` is a candidate partner of every target row
        in ``[start[i], end[i])``.  Sources are side ``a`` and targets
        side ``b``, or the reverse when ``swap``.
        """
        counts = end - start
        stops = np.cumsum(counts)
        total = int(stops[-1]) if len(stops) else 0
        # Candidate k of window i sits at stops[i] - counts[i] + k.
        targets = np.arange(total, dtype=np.int64) + np.repeat(
            start - (stops - counts), counts
        )
        store_s, store_t = (
            (self.store_b, self.store_a) if swap else (self.store_a, self.store_b)
        )
        sources, targets, _, survivors, touched = self._stages(
            stats, total, store_s, store_t, rows, targets, counts
        )
        left, right = (targets, sources) if swap else (sources, targets)
        exact = self._final(left, right, stats, total, survivors, touched)
        return left.take(exact), right.take(exact)

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
        mask = np.zeros(n, dtype=bool)
        for start in range(0, n, _ROW_CHUNK):
            stop = min(start + _ROW_CHUNK, n)
            left, right, alive, survivors, touched = self._stages(
                stats,
                stop - start,
                self.store_a,
                self.store_b,
                rows_a[start:stop],
                rows_b[start:stop],
                positions=np.arange(start, stop),
            )
            exact = self._final(left, right, stats, stop - start, survivors, touched)
            mask[alive.take(exact)] = True
        if stats is not None and not n:
            self._record(stats, 0, [], 0)
        return mask

    # ------------------------------------------------------------------
    def _stages(
        self,
        stats: Optional[JoinStats],
        total: int,
        store_s: Optional[np.ndarray],
        store_t: Optional[np.ndarray],
        sources: np.ndarray,
        targets: np.ndarray,
        counts: Optional[np.ndarray] = None,
        positions: Optional[np.ndarray] = None,
    ):
        """Run the pre-filter and reduction stages.

        ``sources`` holds one row per candidate, or (with ``counts``)
        one row per window, repeated ``counts`` times.  Returns the
        surviving ``(sources, targets, positions)`` with the per-stage
        survivor counts and the coordinates read.  Small batches, and
        contexts whose ``eps`` admits no certified prune, skip straight
        to the exact check (pre-filter stages record pass-through
        counts, keeping the funnel monotone and fixed-length).
        """
        if stats is not None:
            stats.cascade_candidates += total
        n_filters = self.plan.n_filters
        if self.layout is None or total < MIN_CASCADE_ROWS:
            if counts is not None:
                sources = np.repeat(sources, counts)
            return sources, targets, positions, [total] * n_filters, 0
        metric = self.metric
        values = _float_of(store_s.dtype)
        emit_events = trace.is_enabled()
        survivors: List[int] = []
        touched = 0
        acc = None
        for stage, (pre_filter, units) in enumerate(self._units):
            alive = len(targets)
            for pair, slots, dims in units:
                if counts is None:
                    diff = store_s[pair].take(sources)
                else:
                    diff = np.repeat(store_s[pair].take(sources), counts)
                np.subtract(diff, store_t[pair].take(targets), out=diff)
                gaps = diff.view(values)
                if pre_filter or not metric.squared_key:
                    np.abs(gaps, out=gaps)
                if len(slots) == 2:
                    acc = metric.accumulate_abs_pair(acc, gaps, dims)
                else:
                    column = gaps[slots[0]::2]
                    if pre_filter:
                        keep = np.flatnonzero(column <= self.filter_bound)
                    acc = metric.accumulate_abs_column(acc, column, dims[0])
                touched += alive * len(slots)
            if not pre_filter:
                keep = np.flatnonzero(acc <= self.prune_key)
            if len(keep) < alive:
                if counts is not None:
                    sources, counts = np.repeat(sources, counts), None
                sources = sources.take(keep)
                targets = targets.take(keep)
                acc = acc.take(keep)
                if positions is not None:
                    positions = positions.take(keep)
            if pre_filter:
                survivors.append(len(keep))
                if emit_events:
                    trace.add_event(
                        "cascade-stage",
                        stage=stage + 1,
                        kind="pre-filter",
                        dim=int(units[0][2][0]),
                        candidates=int(alive),
                        survivors=int(len(keep)),
                    )
            elif not len(keep):
                break
        if counts is not None:
            sources = np.repeat(sources, counts)
        return sources, targets, positions, survivors, touched

    def _final(
        self,
        rows_a: np.ndarray,
        rows_b: np.ndarray,
        stats: Optional[JoinStats],
        total: int,
        survivors: List[int],
        touched: int,
    ) -> np.ndarray:
        """Exact check of the stages' survivors: positions that pass.

        Reproduces the monolithic kernel's computation (natural dimension
        order, C-contiguous rows) so boundary decisions match bit for bit.
        """
        diff = np.abs(
            self.points_a.take(rows_a, axis=0) - self.points_b.take(rows_b, axis=0)
        )
        exact = np.flatnonzero(self.metric._reduce_abs_diff(diff) <= self.exact_key)
        if trace.is_enabled():
            trace.add_event(
                "cascade-stage",
                stage=self.plan.n_filters + 1,
                kind="reduction",
                candidates=int(survivors[-1]) if survivors else total,
                survivors=len(exact),
            )
        if stats is not None:
            self._record(stats, len(exact), survivors, touched + diff.size)
        return exact

    def _record(self, stats: JoinStats, emitted: int, survivors, touched) -> None:
        if not stats.cascade_survivors:
            stats.cascade_survivors = [0] * self.plan.n_stages
        counts = list(survivors) + [0] * (self.plan.n_filters - len(survivors))
        for stage, count in enumerate(counts + [emitted]):
            stats.cascade_survivors[stage] += int(count)
        stats.coordinates_touched += int(touched)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<KernelContext d={self.dims} filters={self.plan.n_filters} "
            f"metric={self.metric.name} store={getattr(self.layout, 'dtype', None)}>"
        )


def build_kernel_context(
    spec: JoinSpec,
    points_a: np.ndarray,
    points_b: Optional[np.ndarray] = None,
    grid=None,
    split_dims: Sequence[int] = (),
    sort_dim: Optional[int] = None,
    source: Optional[KernelSource] = None,
    trees: Sequence = (),
) -> Optional[KernelContext]:
    """Build the per-join cascade context, or ``None`` when disabled.

    Dimension spreads and the store's box come from the grid when
    available (already computed at ``Grid.fit`` time), else from the
    data.  The paired stores come from ``source`` (pre-packed, the
    parallel workers' zero-copy path; it must have been packed with the
    layout this call picks for the same inputs), else from the cache of
    each side's flat tree in ``trees``, else they are packed here.
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
            lo = np.asarray(grid.lo, dtype=np.float64)
            hi = np.asarray(grid.hi, dtype=np.float64)
        else:
            both = points_a if points_b is None else np.concatenate([points_a, points_b])
            lo = both.min(axis=0) if len(both) else np.zeros(dims)
            hi = both.max(axis=0) if len(both) else np.zeros(dims)
        plan = plan_cascade(spec, hi - lo, split_dims=split_dims, sort_dim=sort_dim)
        dtype = np.result_type(points_a, points_b if points_b is not None else points_a)
        store_plan = plan_store(plan, spec, lo, hi, dtype)
        stores = None
        if source is not None:
            stores = (source.store_a, source.store_b)
        elif trees and store_plan is not None:
            stores = tuple(
                None if tree is None else tree.paired_store(store_plan[0])
                for tree in trees
            )
        context = KernelContext(
            plan,
            spec,
            points_a.T,
            None if points_b is None else points_b.T,
            store_plan=store_plan,
            stores=stores,
        )
        span.set_attribute("filters", plan.n_filters)
        span.set_attribute("order", list(plan.order))
    return context


def tree_kernel_context(
    spec: JoinSpec, tree_a, tree_b=None, source: Optional[KernelSource] = None
) -> Optional[KernelContext]:
    """Cascade context of a join over flat trees (``tree_b=None``: a
    self-join) on their shared grid, reading each tree's cached store."""
    split = set(tree_a.split_dims())
    if tree_b is not None:
        split |= set(tree_b.split_dims())
    return build_kernel_context(
        spec,
        tree_a.points_flat,
        None if tree_b is None else tree_b.points_flat,
        grid=tree_a.grid,
        split_dims=tuple(sorted(split)),
        sort_dim=tree_a.sort_dim,
        source=source,
        trees=(tree_a, tree_b),
    )
