"""Z-order (space-filling curve) similarity join.

The sort-based alternative to hierarchical indexes that the era's
literature proposed (Orenstein's Z-ordering, later the UB-tree): map
each point's ε-cell to a **Morton code** by interleaving the bits of its
cell coordinates, sort the relation once by code, and answer all cell
lookups with binary search in the sorted code array — the sorted array
*is* the index.

The join then mirrors the ε-grid logic: a cell joins itself and its
3^k − 1 neighbors (per-coordinate cell difference ≤ 1 is necessary for
any L_p match), but neighbor groups are located by ``searchsorted`` on
Morton codes instead of a hash directory.  Compared to the hash grid
this trades O(1) probes for O(log n) probes in exchange for a fully
sort-based, directory-free layout — the property that made Z-ordering
attractive for disk-resident data.

Only the first ``zorder_dims`` dimensions are encoded (neighbor
enumeration is 3^k); remaining dimensions are handled by the full
distance check, exactly like the grid baseline.
"""

from __future__ import annotations

import itertools
import time
from typing import Optional, Tuple

import numpy as np

from repro.baselines._common import emit_block_pairs
from repro.core.config import JoinSpec, validate_point_sets, validate_points
from repro.core.result import JoinResult, JoinStats, PairCollector, PairSink
from repro.errors import InvalidParameterError

#: Default number of leading dimensions interleaved into the code.
DEFAULT_ZORDER_DIMS = 3

#: Total bit budget for a code (fits comfortably in int64).
_CODE_BITS = 60


def morton_encode(cells: np.ndarray, bits: int) -> np.ndarray:
    """Interleave the bits of per-dimension cell coordinates.

    ``cells`` is an ``(n, k)`` non-negative int array with every value
    below ``2**bits``.  Returns ``(n,)`` int64 Morton codes where bit
    ``b`` of dimension ``d`` lands at position ``b * k + d`` — the
    standard bit-interleaving that makes lexicographic code order follow
    the Z-curve.
    """
    cells = np.asarray(cells, dtype=np.int64)
    if cells.ndim != 2:
        raise InvalidParameterError(
            f"cells must be 2-D (n, k), got shape {cells.shape}"
        )
    n, dims = cells.shape
    if bits < 1 or bits * dims > _CODE_BITS:
        raise InvalidParameterError(
            f"bits * dims must be in [1, {_CODE_BITS}], got {bits} * {dims}"
        )
    if n and (cells.min() < 0 or cells.max() >= (1 << bits)):
        raise InvalidParameterError(
            f"cell coordinates must lie in [0, 2**{bits})"
        )
    codes = np.zeros(n, dtype=np.int64)
    for bit in range(bits):
        for dim in range(dims):
            codes |= ((cells[:, dim] >> bit) & 1) << (bit * dims + dim)
    return codes


def morton_decode(codes: np.ndarray, dims: int, bits: int) -> np.ndarray:
    """Inverse of :func:`morton_encode`; returns ``(n, dims)`` cells."""
    codes = np.asarray(codes, dtype=np.int64)
    cells = np.zeros((len(codes), dims), dtype=np.int64)
    for bit in range(bits):
        for dim in range(dims):
            cells[:, dim] |= ((codes >> (bit * dims + dim)) & 1) << bit
    return cells


class _ZIndex:
    """A relation sorted by Morton code, with binary-search cell lookup."""

    def __init__(self, points: np.ndarray, eps: float, zdims: int,
                 lo: np.ndarray, bits: int):
        self.points = points
        self.zdims = zdims
        self.bits = bits
        cells = np.floor((points[:, :zdims] - lo) / eps).astype(np.int64)
        np.clip(cells, 0, (1 << bits) - 1, out=cells)
        codes = morton_encode(cells, bits)
        self.order = np.argsort(codes, kind="stable")
        self.codes = codes[self.order]
        self.cells = cells[self.order]
        # Group boundaries: one run per distinct occupied cell.
        if len(self.codes):
            change = np.flatnonzero(np.diff(self.codes)) + 1
            self.starts = np.concatenate([[0], change])
            self.stops = np.concatenate([change, [len(self.codes)]])
        else:
            self.starts = np.empty(0, dtype=np.int64)
            self.stops = np.empty(0, dtype=np.int64)

    def group_count(self) -> int:
        return len(self.starts)

    def group(self, position: int) -> np.ndarray:
        """Original point indices of the ``position``-th occupied cell."""
        return self.order[self.starts[position] : self.stops[position]]

    def group_cell(self, position: int) -> np.ndarray:
        return self.cells[self.starts[position]]

    def lookup(self, cell: np.ndarray) -> Optional[np.ndarray]:
        """Binary-search the sorted codes for one cell's point group."""
        if np.any(cell < 0) or np.any(cell >= (1 << self.bits)):
            return None
        code = int(morton_encode(cell.reshape(1, -1), self.bits)[0])
        left = int(np.searchsorted(self.codes, code, side="left"))
        right = int(np.searchsorted(self.codes, code, side="right"))
        if left == right:
            return None
        return self.order[left:right]

    def lookup_batch(self, cells: np.ndarray):
        """Vectorized lookup of many cells at once.

        Returns aligned ``(lefts, rights)`` position ranges into the
        sorted order (``lefts[i] == rights[i]`` means cell ``i`` is
        empty or out of range).  One encode and two searchsorted calls
        replace a Python-level probe per cell.
        """
        cells = np.asarray(cells, dtype=np.int64)
        in_range = np.all((cells >= 0) & (cells < (1 << self.bits)), axis=1)
        codes = np.zeros(len(cells), dtype=np.int64)
        if in_range.any():
            codes[in_range] = morton_encode(cells[in_range], self.bits)
        lefts = np.searchsorted(self.codes, codes, side="left")
        rights = np.searchsorted(self.codes, codes, side="right")
        lefts = np.where(in_range, lefts, 0)
        rights = np.where(in_range, rights, 0)
        return lefts.astype(np.int64), rights.astype(np.int64)


def _resolve(points: np.ndarray, eps: float, zorder_dims: Optional[int],
             lo: np.ndarray, hi: np.ndarray) -> Tuple[int, int]:
    dims = points.shape[1]
    if zorder_dims is None:
        zdims = min(dims, DEFAULT_ZORDER_DIMS)
    else:
        if not 1 <= zorder_dims <= dims:
            raise InvalidParameterError(
                f"zorder_dims must be in [1, {dims}], got {zorder_dims}"
            )
        zdims = zorder_dims
    span = float(np.max(hi[:zdims] - lo[:zdims]))
    cells_needed = max(2, int(span / eps) + 2)
    bits = max(1, int(np.ceil(np.log2(cells_needed))))
    bits = min(bits, _CODE_BITS // zdims)
    return zdims, bits


def zorder_self_join(
    points: np.ndarray,
    spec: JoinSpec,
    sink: Optional[PairSink] = None,
    zorder_dims: Optional[int] = None,
) -> JoinResult:
    """Self-join via a Morton-code-sorted relation.

    Note: when ``2**bits`` cells cannot cover the domain (huge spans at
    tiny ε within the 60-bit code budget), coordinates clip into the
    last cell; clipping only ever *adds* candidates, so results stay
    exact.
    """
    points = validate_points(points)
    collect = sink is None
    if collect:
        sink = PairCollector()
    stats = JoinStats()
    result = JoinResult(stats=stats)
    if len(points) < 2:
        return result
    started = time.perf_counter()
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    zdims, bits = _resolve(points, spec.band_width, zorder_dims, lo, hi)
    index = _ZIndex(points, spec.band_width, zdims, lo[:zdims], bits)
    built = time.perf_counter()
    positive_offsets = [
        np.array(offset)
        for offset in itertools.product((-1, 0, 1), repeat=zdims)
        if offset > (0,) * zdims
    ]
    group_cells = index.cells[index.starts] if index.group_count() else None
    for position in range(index.group_count()):
        members = index.group(position)
        stats.node_pairs_visited += 1
        emit_block_pairs(
            points, points, members, members, spec.metric, spec.epsilon,
            sink, stats, self_mode=True, same_group=True,
        )
    for offset in positive_offsets:
        if group_cells is None:
            break
        lefts, rights = index.lookup_batch(group_cells + offset)
        for position in np.flatnonzero(rights > lefts):
            members = index.group(position)
            neighbors = index.order[lefts[position] : rights[position]]
            stats.node_pairs_visited += 1
            emit_block_pairs(
                points, points, members, neighbors, spec.metric,
                spec.epsilon, sink, stats, self_mode=True,
            )
    finished = time.perf_counter()
    result.build_seconds = built - started
    result.join_seconds = finished - built
    result.stats.pairs_emitted = sink.count
    if collect:
        result.pairs = sink.sorted_pairs()
    return result


def zorder_join(
    points_r: np.ndarray,
    points_s: np.ndarray,
    spec: JoinSpec,
    sink: Optional[PairSink] = None,
    zorder_dims: Optional[int] = None,
) -> JoinResult:
    """Two-set join: sort S by Morton code, probe with R's cells."""
    points_r, points_s = validate_point_sets(points_r, points_s)
    collect = sink is None
    if collect:
        sink = PairCollector()
    stats = JoinStats()
    result = JoinResult(stats=stats)
    if len(points_r) == 0 or len(points_s) == 0:
        return result
    started = time.perf_counter()
    lo = np.minimum(points_r.min(axis=0), points_s.min(axis=0))
    hi = np.maximum(points_r.max(axis=0), points_s.max(axis=0))
    both = np.vstack([lo, hi])
    zdims, bits = _resolve(
        np.empty((0, points_r.shape[1])), spec.band_width, zorder_dims,
        both[0], both[1],
    )
    index_r = _ZIndex(points_r, spec.band_width, zdims, lo[:zdims], bits)
    index_s = _ZIndex(points_s, spec.band_width, zdims, lo[:zdims], bits)
    built = time.perf_counter()
    offsets = [
        np.array(offset)
        for offset in itertools.product((-1, 0, 1), repeat=zdims)
    ]
    group_cells = (
        index_r.cells[index_r.starts] if index_r.group_count() else None
    )
    for offset in offsets:
        if group_cells is None:
            break
        lefts, rights = index_s.lookup_batch(group_cells + offset)
        for position in np.flatnonzero(rights > lefts):
            members = index_r.group(position)
            neighbors = index_s.order[lefts[position] : rights[position]]
            stats.node_pairs_visited += 1
            emit_block_pairs(
                points_r, points_s, members, neighbors, spec.metric,
                spec.epsilon, sink, stats, self_mode=False,
            )
    finished = time.perf_counter()
    result.build_seconds = built - started
    result.join_seconds = finished - built
    result.stats.pairs_emitted = sink.count
    if collect:
        result.pairs = sink.sorted_pairs()
    return result
