"""External-memory epsilon-kdB self-join.

The paper's extension for data larger than main memory: stripe the first
dimension into runs of epsilon-wide cells such that each stripe fits the
memory budget, partition the file into stripe files (plus, per stripe, a
*band file* holding its points that lie within epsilon of the stripe's
lower boundary), then join each stripe in memory against itself and
against the next stripe's band.  Because every stripe is at least epsilon
wide, a qualifying pair either falls inside one stripe or spans two
adjacent stripes with the upper point inside the lower band — so each
pair is found exactly once.

I/O pattern: two read scans (domain pass + histogram pass is folded into
one scan each), one partition write pass, and one join read pass over the
stripes and bands.  All of it is counted by the simulated
:class:`~repro.storage.pages.PageStore`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import JoinSpec, validate_point_sets, validate_points
from repro.core.epsilon_kdb import _MAX_CELLS, Grid
from repro.core.join import epsilon_kdb_join, epsilon_kdb_self_join
from repro.core.resilience import retry_transient
from repro.core.result import JoinStats, PairCollector, PairSink
from repro.errors import InvalidParameterError
from repro.obs import trace
from repro.storage.pages import IoCounters, PageStore, PointFile

#: Default retry budget per page read for transient storage faults.
DEFAULT_IO_RETRIES = 3


@dataclass
class ExternalJoinReport:
    """Outcome of one external-memory join run."""

    stats: JoinStats = field(default_factory=JoinStats)
    io: IoCounters = field(default_factory=IoCounters)
    stripes: int = 0
    peak_memory_points: int = 0
    memory_budget_points: int = 0
    pairs: np.ndarray = field(
        default_factory=lambda: np.empty((0, 2), dtype=np.int64)
    )

    @property
    def budget_respected(self) -> bool:
        """Whether every stripe (plus its band) fit the declared budget."""
        return self.peak_memory_points <= self.memory_budget_points


class _MappedSink(PairSink):
    """Translate stripe-local pair indices to global ones before emitting."""

    def __init__(self, target: PairSink, map_left: np.ndarray, map_right: np.ndarray):
        self._target = target
        self._map_left = map_left
        self._map_right = map_right

    def emit(self, left: np.ndarray, right: np.ndarray) -> None:
        global_left = self._map_left[left]
        global_right = self._map_right[right]
        lo = np.minimum(global_left, global_right)
        hi = np.maximum(global_left, global_right)
        self._target.emit(lo, hi)

    @property
    def count(self) -> int:
        return self._target.count


def _resilient_pages(pfile: PointFile, stats: JoinStats, io_retries: int):
    """Yield each page of ``pfile``, retrying transient read faults.

    Each retry re-issues the physical read (a new read ordinal on the
    store, so an injected transient fault does not repeat) and is counted
    in ``stats.storage_retries``.
    """

    def bump(_attempt: int) -> None:
        stats.storage_retries += 1

    for position in range(pfile.num_pages):
        yield retry_transient(
            lambda position=position: pfile.read_page_rows(position),
            io_retries,
            on_retry=bump,
        )


def _resilient_read_all(
    pfile: PointFile, stats: JoinStats, io_retries: int
) -> np.ndarray:
    """Materialize ``pfile`` with per-page transient-fault retry."""
    pages = list(_resilient_pages(pfile, stats, io_retries))
    if not pages:
        return np.empty((0, pfile.dims))
    return np.vstack(pages)


def plan_stripes(
    cells: np.ndarray, counts: np.ndarray, capacity: int
) -> List[slice]:
    """Greedily group consecutive occupied cells into stripes that fit ``capacity``.

    ``cells`` are the sorted distinct ids of the occupied cells and
    ``counts`` their point counts; each stripe is returned as a
    half-open slice of *positions* in ``cells``, so the work grows with
    the number of occupied cells, never with the span of the domain.
    The join pass holds one stripe *plus* the next stripe's boundary
    band in memory at once, and that band lies in the cell right after
    the stripe's last one — so the plan reserves that cell's count when
    it is occupied (a gap of one empty cell means no pair crosses).  A
    single cell larger than the capacity becomes a stripe of its own
    (the budget violation is surfaced in the report, not hidden).
    """
    cells = np.asarray(cells, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    occupied = len(cells)
    reserve = np.zeros(occupied, dtype=np.int64)
    if occupied > 1:
        adjacent = cells[1:] == cells[:-1] + 1
        reserve[:-1] = np.where(adjacent, counts[1:], 0)
    stripes: List[slice] = []
    start = 0
    running = 0
    for position in range(occupied):
        count = int(counts[position])
        if running and running + count + int(reserve[position]) > capacity:
            stripes.append(slice(start, position))
            start = position
            running = 0
        running += count
    stripes.append(slice(start, occupied))
    return stripes


def merge_cell_counts(
    cells: Sequence[np.ndarray], counts: Sequence[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray]:
    """Sum partial ``(cells, counts)`` histograms over the union of their cells."""
    merged, inverse = np.unique(np.concatenate(cells), return_inverse=True)
    totals = np.bincount(inverse, weights=np.concatenate(counts), minlength=len(merged))
    return merged, totals.astype(np.int64)


def _stripe_relations(
    relations: List[PointFile],
    spec: JoinSpec,
    memory_points: int,
    stats: JoinStats,
    io_retries: int,
) -> Tuple[int, List[List[PointFile]], List[List[PointFile]]]:
    """Domain, histogram and partition passes shared by both joins.

    Every relation is striped on dimension 0 with *shared* boundaries
    planned from the combined histogram of occupied cells (memory at
    join time holds both sides).  Returns the stripe count and, per
    relation, its stripe files and lower-boundary band files.  Stripe
    ``k``'s band holds its points within one cell width of the lower
    edge of the cell after stripe ``k - 1``'s last occupied cell (an
    upper bound on every point of stripe ``k - 1``), so when that cell
    is empty the band is too.
    """
    store = relations[0].store
    dims = relations[0].dims - 1

    def pages(relation):
        return _resilient_pages(relation, stats, io_retries)

    # Pass 1: striping domain over every relation.
    with trace.span("domain-pass"):
        lo = math.inf
        hi = -math.inf
        for relation in relations:
            for page in pages(relation):
                lo = min(lo, float(page[:, 0].min()))
                hi = max(hi, float(page[:, 0].max()))
    # Dimension-0 cells come from a one-dimensional Grid.  Cells must be
    # at least one band wide; below span / 2**50 they widen to that, so
    # cell ids fit the grid's cap and a tiny epsilon still spreads the
    # points over many cells (each stripe's memory depends on it).
    grid = Grid.fit(
        np.empty((0, 1)),
        max(spec.band_width, (hi - lo) / _MAX_CELLS),
        lo=np.array([lo]),
        hi=np.array([hi]),
    )
    eps = grid.eps

    def cells_of(page: np.ndarray) -> np.ndarray:
        return grid.cell_of(page[:, 0], 0)

    # Pass 2: sparse histogram of the occupied dimension-0 cells.
    with trace.span("histogram-pass") as histogram_span:
        page_cells: List[np.ndarray] = []
        page_counts: List[np.ndarray] = []
        for relation in relations:
            for page in pages(relation):
                cells, counts = np.unique(cells_of(page), return_counts=True)
                page_cells.append(cells)
                page_counts.append(counts)
        cells, counts = merge_cell_counts(page_cells, page_counts)
        histogram_span.set_attribute("cells", len(cells))

    stripes = plan_stripes(cells, counts, int(memory_points))
    first_cell = cells[[span.start for span in stripes]]
    lower_cell = np.concatenate(
        [cells[:1], cells[[span.stop - 1 for span in stripes[:-1]]] + 1]
    )
    band_top = lo + lower_cell * eps + eps

    # Pass 3: partition each relation into stripe and band files.
    stripe_files: List[List[PointFile]] = []
    band_files: List[List[PointFile]] = []
    with trace.span("partition-pass", stripes=len(stripes)):
        for relation in relations:
            stripe_files.append([PointFile(store, dims + 1) for _ in stripes])
            band_files.append([PointFile(store, dims + 1) for _ in stripes])
            for page in pages(relation):
                owners = (
                    np.searchsorted(first_cell, cells_of(page), side="right") - 1
                )
                for sid in np.unique(owners):
                    rows = page[owners == sid]
                    stripe_files[-1][sid].append_rows(rows)
                    in_band = rows[:, 0] <= band_top[sid]
                    if in_band.any():
                        band_files[-1][sid].append_rows(rows[in_band])
            for pfile in stripe_files[-1] + band_files[-1]:
                pfile.close_append()
    return len(stripes), stripe_files, band_files


def external_self_join(
    points: np.ndarray,
    spec: JoinSpec,
    memory_points: int,
    store: Optional[PageStore] = None,
    sink: Optional[PairSink] = None,
    page_rows: int = 256,
    io_retries: int = DEFAULT_IO_RETRIES,
) -> ExternalJoinReport:
    """Self-join ``points`` through the simulated disk.

    ``memory_points`` is the budget: the maximum number of points the
    algorithm is allowed to hold in memory at once.  ``points`` are first
    written to the store (that load is *not* counted; the paper's setting
    starts with the relation already on disk).

    Every page read retries up to ``io_retries`` times on
    :class:`~repro.errors.TransientIoError` (counted in
    ``stats.storage_retries``); a fault that persists past the budget
    propagates.
    """
    if int(io_retries) < 0:
        raise InvalidParameterError(
            f"io_retries must be >= 0, got {io_retries!r}"
        )
    io_retries = int(io_retries)
    points = validate_points(points)
    if memory_points < 2:
        raise InvalidParameterError(
            f"memory_points must be >= 2, got {memory_points}"
        )
    report = ExternalJoinReport(memory_budget_points=int(memory_points))
    collect = sink is None
    if collect:
        sink = PairCollector()
    n, dims = points.shape
    if n < 2:
        return report
    if store is None:
        store = PageStore(page_rows=page_rows)

    # Load the relation onto "disk" with the original index as an extra
    # column, then reset the counters: the algorithm's I/O starts here.
    with trace.span("load-relation", points=n):
        augmented = np.column_stack([points, np.arange(n, dtype=np.float64)])
        relation = PointFile.from_points(store, augmented)
    baseline_io = store.counters.snapshot()
    baseline_faults = store.fault_plan.injected if store.fault_plan else 0

    n_stripes, (stripe_files,), (band_files,) = _stripe_relations(
        [relation], spec, memory_points, report.stats, io_retries
    )
    report.stripes = n_stripes

    # Pass 4: join each stripe with itself and with the next stripe's band.
    with trace.span("join-pass", stripes=n_stripes):
        for sid in range(n_stripes):
            with trace.span("stripe", stripe=sid) as stripe_span:
                stripe_rows = _resilient_read_all(
                    stripe_files[sid], report.stats, io_retries
                )
                stripe_points = stripe_rows[:, :dims]
                stripe_map = stripe_rows[:, dims].astype(np.int64)
                in_memory = len(stripe_rows)
                if len(stripe_points) >= 2:
                    mapped = _MappedSink(sink, stripe_map, stripe_map)
                    local = epsilon_kdb_self_join(stripe_points, spec, sink=mapped)
                    report.stats.merge(local.stats)
                if sid + 1 < n_stripes and band_files[sid + 1].num_rows:
                    band_rows = _resilient_read_all(
                        band_files[sid + 1], report.stats, io_retries
                    )
                    in_memory += len(band_rows)
                    band_points = band_rows[:, :dims]
                    band_map = band_rows[:, dims].astype(np.int64)
                    if len(stripe_points) and len(band_points):
                        mapped = _MappedSink(sink, stripe_map, band_map)
                        local = epsilon_kdb_join(
                            stripe_points, band_points, spec, sink=mapped
                        )
                        report.stats.merge(local.stats)
                stripe_span.set_attribute("points_in_memory", in_memory)
            report.peak_memory_points = max(report.peak_memory_points, in_memory)

    report.io = store.counters.delta(baseline_io)
    report.stats.pages_read = report.io.reads
    report.stats.pages_written = report.io.writes
    report.stats.pairs_emitted = sink.count
    if store.fault_plan is not None:
        report.stats.faults_injected = (
            store.fault_plan.injected - baseline_faults
        )
    if collect:
        pairs = sink.pairs()
        if len(pairs):
            order = np.lexsort((pairs[:, 1], pairs[:, 0]))
            pairs = pairs[order]
        report.pairs = pairs
    return report


class _SidedSink(PairSink):
    """Translate local pair indices to global ones, preserving sides."""

    def __init__(self, target: PairSink, map_left: np.ndarray, map_right: np.ndarray):
        self._target = target
        self._map_left = map_left
        self._map_right = map_right

    def emit(self, left: np.ndarray, right: np.ndarray) -> None:
        self._target.emit(self._map_left[left], self._map_right[right])

    @property
    def count(self) -> int:
        return self._target.count


def external_join(
    points_r: np.ndarray,
    points_s: np.ndarray,
    spec: JoinSpec,
    memory_points: int,
    store: Optional[PageStore] = None,
    sink: Optional[PairSink] = None,
    page_rows: int = 256,
    io_retries: int = DEFAULT_IO_RETRIES,
) -> ExternalJoinReport:
    """Two-set join R against S through the simulated disk.

    Both relations are striped on dimension 0 with *shared* stripe
    boundaries planned from their combined histogram, so stripe ``k`` of
    R only needs stripe ``k`` of S plus the epsilon band at each side's
    next stripe: ``(R_k x S_k)``, ``(R_k x Sband_{k+1})`` and
    ``(Rband_{k+1} x S_k)`` together cover every qualifying pair exactly
    once.  Reported pairs are ``(r_index, s_index)`` with sides
    preserved, like :func:`repro.core.join.epsilon_kdb_join`.  Page
    reads retry transient faults up to ``io_retries`` times, as in
    :func:`external_self_join`.
    """
    if int(io_retries) < 0:
        raise InvalidParameterError(
            f"io_retries must be >= 0, got {io_retries!r}"
        )
    io_retries = int(io_retries)
    points_r, points_s = validate_point_sets(points_r, points_s)
    if memory_points < 2:
        raise InvalidParameterError(
            f"memory_points must be >= 2, got {memory_points}"
        )
    report = ExternalJoinReport(memory_budget_points=int(memory_points))
    collect = sink is None
    if collect:
        sink = PairCollector()
    if len(points_r) == 0 or len(points_s) == 0:
        return report
    if store is None:
        store = PageStore(page_rows=page_rows)
    dims = points_r.shape[1]

    relations = []
    with trace.span(
        "load-relation", points_r=len(points_r), points_s=len(points_s)
    ):
        for label, points in (("r", points_r), ("s", points_s)):
            augmented = np.column_stack(
                [points, np.arange(len(points), dtype=np.float64)]
            )
            relations.append(PointFile.from_points(store, augmented))
    baseline_io = store.counters.snapshot()
    baseline_faults = store.fault_plan.injected if store.fault_plan else 0

    n_stripes, stripe_files, band_files = _stripe_relations(
        relations, spec, memory_points, report.stats, io_retries
    )
    report.stripes = n_stripes

    # Pass 4: per stripe, R_k x S_k, R_k x Sband_{k+1}, Rband_{k+1} x S_k.
    def load(pfile):
        rows = _resilient_read_all(pfile, report.stats, io_retries)
        return rows[:, :dims], rows[:, dims].astype(np.int64)

    def join_sides(left, left_map, right, right_map):
        if len(left) and len(right):
            mapped = _SidedSink(sink, left_map, right_map)
            local = epsilon_kdb_join(left, right, spec, sink=mapped)
            report.stats.merge(local.stats)

    with trace.span("join-pass", stripes=n_stripes):
        for sid in range(n_stripes):
            with trace.span("stripe", stripe=sid) as stripe_span:
                r_points, r_map = load(stripe_files[0][sid])
                s_points, s_map = load(stripe_files[1][sid])
                in_memory = len(r_points) + len(s_points)
                join_sides(r_points, r_map, s_points, s_map)
                if sid + 1 < n_stripes:
                    if band_files[1][sid + 1].num_rows:
                        sband_points, sband_map = load(band_files[1][sid + 1])
                        in_memory += len(sband_points)
                        join_sides(r_points, r_map, sband_points, sband_map)
                    if band_files[0][sid + 1].num_rows:
                        rband_points, rband_map = load(band_files[0][sid + 1])
                        in_memory += len(rband_points)
                        join_sides(rband_points, rband_map, s_points, s_map)
                stripe_span.set_attribute("points_in_memory", in_memory)
            report.peak_memory_points = max(report.peak_memory_points, in_memory)

    report.io = store.counters.delta(baseline_io)
    report.stats.pages_read = report.io.reads
    report.stats.pages_written = report.io.writes
    report.stats.pairs_emitted = sink.count
    if store.fault_plan is not None:
        report.stats.faults_injected = (
            store.fault_plan.injected - baseline_faults
        )
    if collect:
        pairs = sink.pairs()
        if len(pairs):
            order = np.lexsort((pairs[:, 1], pairs[:, 0]))
            pairs = pairs[order]
        report.pairs = pairs
    return report
