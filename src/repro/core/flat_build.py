"""Flat vectorized epsilon-kdB build: radix cell-coding + CSR layout.

The pointer build (:mod:`repro.core.epsilon_kdb`) recurses node by node,
argsorting each node's cell digits separately and allocating one Python
object per node.  This module builds the *same* partition in a handful
of whole-array operations, doing work proportional to the tree's
*actual* depth rather than to the number of nodes:

1. **radix-sort** — the points are sorted once by the leaf sweep
   dimension, as a two-pass 16-bit LSD radix argsort over a monotone
   32-bit quantization of the values (:func:`_value_order`; NumPy's
   stable sort is several times faster on 16-bit keys than on 64-bit
   ones).  Every later sort is stable and permutes rows only within
   their node, so this value order survives to the bottom: leaves come
   out sorted by the sweep dimension with ties in input order, with no
   final within-leaf sort.
2. **leaf-partition** — one pass per tree level, touching only rows
   whose node is still above ``leaf_size``: compute that level's cell
   digit ``floor(x[:, dim] / eps)``, stable-sort the active rows by a
   packed ``(node id, digit)`` key (a 16-bit key whenever it fits),
   mark the positions where a new child node begins, and retire every
   node that now fits ``leaf_size``.  The loop stops as soon as no
   oversized node remains, so shallow trees never pay for deep levels.
3. **csr-layout** — nodes become rows of flat ``int64`` arrays (depth,
   ``[start, stop)`` row range, cell digit, leaf flag, first child,
   child count), depth-major, children contiguous and digit-ordered;
   the per-level digits are gathered into a ``(depth, n)`` matrix over
   the final permutation so the traversal reads cells by code
   arithmetic.  Leaves are zero-copy contiguous slices.

The resulting :class:`FlatEpsilonKdbTree` partitions points into exactly
the same leaves as the pointer build :meth:`EpsilonKdbTree.build` for the
same spec and grid (property-tested in ``tests/test_flat_build.py``).  It
is the only tree joins and range queries run on.

A tree built at a coarse epsilon still answers any finer join (its cells
are at least as wide as required; see ``epsilon_kdb_self_join``'s
``tree=``), but nothing caches trees across joins: the build costs a few
milliseconds, while the coarse tree's too-wide cells cost far more
traversal than the build they save (E17).
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import JoinSpec, validate_points
from repro.core.epsilon_kdb import Grid, TreeDescription
from repro.core.kernels import tree_kernel_context
from repro.core.result import sorted_unique
from repro.errors import InvalidParameterError
from repro.obs import trace

__all__ = ["FlatEpsilonKdbTree", "live_batch_range_query"]

# Guard for packing (node id, digit) into one int64 radix key; above this
# the build falls back to a two-key lexsort instead of overflowing.
_PACKED_KEY_LIMIT = 2**62


def _value_order(values: np.ndarray) -> np.ndarray:
    """Stable argsort of finite float64 values via 16-bit radix passes.

    NumPy's stable argsort is several times faster on 16-bit keys than
    on any 64-bit dtype, so the sort runs as a two-pass LSD radix over a
    monotone 32-bit quantization of the values: stable-sort by the low
    16 bits, then by the high 16 bits.  Distinct values that collide in
    the same 32-bit bucket (a handful per hundred thousand rows) are
    repaired afterwards with an exact within-bucket sort, so the result
    matches ``np.argsort(values, kind="stable")`` bit for bit.
    """
    n = len(values)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    vmin = values.min()
    span = values.max() - vmin
    if span <= 0:  # all values equal: stable order is input order
        return np.arange(n, dtype=np.int64)
    # Monotone nondecreasing in the value, and span * scale cannot
    # round above uint32 range (|rounding| < 1 ulp per operation).
    scale = 4294967295.0 / span
    quant = ((values - vmin) * scale).astype(np.uint32)
    low = np.argsort(quant.astype(np.uint16), kind="stable")
    high = (quant >> np.uint32(16))[low].astype(np.uint16)
    order = low[np.argsort(high, kind="stable")]
    bucket = quant[order]
    ties = np.flatnonzero(bucket[1:] == bucket[:-1])
    if len(ties):
        # Consecutive tie positions form runs of equal buckets; rows in
        # a run are in input order (stability), so one exact stable sort
        # per run restores the true (value, input index) order.
        run_break = np.flatnonzero(np.diff(ties) > 1)
        starts = ties[np.concatenate([[0], run_break + 1])]
        stops = ties[np.concatenate([run_break, [len(ties) - 1]])] + 2
        for start, stop in zip(starts, stops):
            rows = order[start:stop]
            order[start:stop] = rows[np.argsort(values[rows], kind="stable")]
    return order


class FlatEpsilonKdbTree:
    """An epsilon-kdB tree as flat arrays over a permuted point array.

    Attributes:
        points_flat: ``(n, d)`` C-contiguous copy of the input points in
            leaf-contiguous order; row ``r`` is input row ``perm[r]``.
        perm: ``(n,)`` int64 permutation mapping flat rows back to the
            caller's point indices.
        digits: ``(levels, n)`` int64 cell digits of the flat rows, one
            row per usable split level (``level_dims`` names the split
            dimension of each level).
        sort_values: ``(n,)`` contiguous sort-dimension coordinates of
            the flat rows; ascending within every leaf.
        node_depth / node_start / node_stop / node_digit / node_leaf /
        node_first_child / node_n_children: the CSR node table, one
            entry per node, depth-major with the root at index 0.
            Children of a node are the contiguous id range
            ``[first_child, first_child + n_children)`` in ascending
            digit order; leaves have ``n_children == 0``.
        build_sort_seconds: wall-clock spent in the stable radix
            argsorts (the dominant build cost; surfaced in
            ``JoinStats``).

    The traversal's search arrays (:meth:`sweep_index`,
    :meth:`child_index`) are derived on first use and cached.
    """

    def __init__(
        self,
        points: np.ndarray,
        spec: JoinSpec,
        grid: Grid,
        perm: np.ndarray,
        digits: np.ndarray,
        node_table: Dict[str, np.ndarray],
        build_sort_seconds: float = 0.0,
        points_flat: Optional[np.ndarray] = None,
        value_rank: Optional[np.ndarray] = None,
    ):
        self.points = points
        self.spec = spec
        self.grid = grid
        self.split_order = spec.resolved_split_order(points.shape[1])
        self.sort_dim = spec.resolved_sort_dim(points.shape[1])
        self.level_dims = np.array(
            [dim for dim in self.split_order if grid.n_cells[dim] > 1],
            dtype=np.int64,
        )
        self.perm = perm
        self.points_flat = (
            np.ascontiguousarray(points[perm]) if points_flat is None else points_flat
        )
        self.digits = digits
        self.sort_values = np.ascontiguousarray(self.points_flat[:, self.sort_dim])
        self.node_depth = node_table["depth"]
        self.node_start = node_table["start"]
        self.node_stop = node_table["stop"]
        self.node_digit = node_table["digit"]
        self.node_leaf = node_table["leaf"]
        self.node_first_child = node_table["first_child"]
        self.node_n_children = node_table["n_children"]
        self.build_sort_seconds = float(build_sort_seconds)
        # Each flat row's position in the stable value order of
        # ``sort_values`` (known from the build's first sort; ``None``
        # for shipped or loaded trees, which derive it on first use).
        self._value_rank = value_rank
        self._sweep_index: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._child_index: Optional[Tuple[np.ndarray, np.ndarray, int]] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        points: np.ndarray,
        spec: JoinSpec,
        grid: Optional[Grid] = None,
    ) -> "FlatEpsilonKdbTree":
        """Vectorized bulk build; same partition as the pointer build."""
        points = validate_points(points)
        if grid is None:
            grid = Grid.fit(points, spec.band_width)
        else:
            grid.validate(points)
        n = len(points)
        split_order = spec.resolved_split_order(points.shape[1])
        level_dims = [int(dim) for dim in split_order if grid.n_cells[dim] > 1]
        levels = len(level_dims)

        sort_seconds = 0.0
        with trace.span("radix-sort", points=n):
            # One stable sort by the leaf sweep dimension.  All later
            # sorts are stable and permute rows only within their node,
            # so this order survives to the leaves: ascending value,
            # ties in input order.
            started = time.perf_counter()
            order = _value_order(
                np.ascontiguousarray(
                    points[:, spec.resolved_sort_dim(points.shape[1])]
                )
            )
            sort_seconds += time.perf_counter() - started
            # Input row -> position in that value order; the traversal's
            # rank-keyed band windows need it (see ``sweep_index``).
            value_rank = np.empty(n, dtype=np.int64)
            value_rank[order] = np.arange(n, dtype=np.int64)

        # Per-position partition labels over the *final* permutation
        # (node starts never move once created: every sort below is a
        # permutation within existing nodes).  ``change_depth[p]`` is
        # the shallowest level at which the row at position p diverges
        # from the row at p-1 (0 for position 0, ``levels + 1`` when it
        # never does); ``leaf_depth[p]`` is the depth at which the
        # pointer build stops splitting that row's node.
        change_depth = np.full(n, levels + 1, dtype=np.int64)
        leaf_depth = np.zeros(n, dtype=np.int64)
        boundary = np.zeros(n, dtype=bool)
        if n:
            change_depth[0] = 0
            boundary[0] = True
        codes_rows = []
        with trace.span("leaf-partition", points=n, levels=levels):
            # Positions of rows whose node is still above leaf_size;
            # everything else has settled and is never touched again.
            active = (
                np.arange(n, dtype=np.int64)
                if levels and n > spec.leaf_size
                else np.empty(0, dtype=np.int64)
            )
            depth = 0
            while len(active) and depth < levels:
                dim = level_dims[depth]
                # Full-column digits: settled rows need this level's
                # digit too when a deeper neighbor probes them.
                codes_full = grid.cell_of(points[:, dim], dim)
                codes_rows.append(codes_full)
                suborder = order[active]
                digit = codes_full[suborder]
                starts_here = boundary[active]
                node = np.cumsum(starts_here) - 1
                n_cells = np.int64(grid.n_cells[dim])
                # Python ints: the product may exceed int64 at tiny eps.
                n_keys = (int(node[-1]) + 1) * int(n_cells)
                started = time.perf_counter()
                if n_keys <= 1 << 16:
                    # (node, digit) fits a 16-bit key: NumPy's stable
                    # argsort is ~10x faster on uint16 than on int64.
                    key = (node * n_cells + digit).astype(np.uint16)
                    refine = np.argsort(key, kind="stable")
                elif n_keys < _PACKED_KEY_LIMIT:
                    refine = np.argsort(node * n_cells + digit, kind="stable")
                else:
                    refine = np.lexsort((digit, node))
                sort_seconds += time.perf_counter() - started
                suborder = suborder[refine]
                order[active] = suborder
                digit = digit[refine]
                diverged = np.empty(len(active), dtype=bool)
                diverged[0] = True
                diverged[1:] = digit[1:] != digit[:-1]
                fresh = diverged & ~starts_here
                if fresh.any():
                    opened = active[fresh]
                    boundary[opened] = True
                    change_depth[opened] = depth + 1
                starts_here |= diverged
                child_start = np.flatnonzero(starts_here)
                child_sizes = np.diff(np.append(child_start, len(active)))
                depth += 1
                fits = child_sizes <= spec.leaf_size
                if fits.any():
                    settled = np.repeat(fits, child_sizes)
                    leaf_depth[active[settled]] = depth
                    active = active[~settled]
            if len(active):
                # Splittable dimensions exhausted: oversized leaves.
                leaf_depth[active] = levels

        with trace.span("csr-layout"):
            perm = order
            points_flat = np.take(points, perm, axis=0)
            digits = np.empty((len(codes_rows), n), dtype=np.int64)
            for pos, codes_full in enumerate(codes_rows):
                digits[pos] = codes_full[perm]
            node_table = cls._node_table(digits, change_depth, leaf_depth, n)

        return cls(
            points,
            spec,
            grid,
            perm,
            digits,
            node_table,
            build_sort_seconds=sort_seconds,
            points_flat=points_flat,
            value_rank=value_rank[perm],
        )

    @staticmethod
    def _node_table(
        codes_sorted: np.ndarray,
        change_depth: np.ndarray,
        leaf_depth: np.ndarray,
        n: int,
    ) -> Dict[str, np.ndarray]:
        """Depth-major CSR node arrays from the partition labels."""
        max_depth = int(leaf_depth.max()) if n else 0
        starts_by_depth = [np.zeros(1, dtype=np.int64)]
        stops_by_depth = [np.full(1, n, dtype=np.int64)]
        digit_by_depth = [np.zeros(1, dtype=np.int64)]
        leaf_by_depth = [np.array([max_depth == 0])]
        for depth in range(1, max_depth + 1):
            idx = np.flatnonzero(leaf_depth >= depth)
            is_start = np.empty(len(idx), dtype=bool)
            is_start[0] = True
            is_start[1:] = (idx[1:] != idx[:-1] + 1) | (
                change_depth[idx[1:]] <= depth
            )
            start_pos = np.flatnonzero(is_start)
            starts = idx[start_pos]
            ends_pos = np.append(start_pos[1:] - 1, len(idx) - 1)
            stops = idx[ends_pos] + 1
            starts_by_depth.append(starts)
            stops_by_depth.append(stops)
            digit_by_depth.append(codes_sorted[depth - 1, starts])
            leaf_by_depth.append(leaf_depth[starts] == depth)
        counts = [len(starts) for starts in starts_by_depth]
        offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        total = int(offsets[-1])
        first_child = np.full(total, -1, dtype=np.int64)
        n_children = np.zeros(total, dtype=np.int64)
        for depth in range(len(counts) - 1):
            child_starts = starts_by_depth[depth + 1]
            lo = np.searchsorted(child_starts, starts_by_depth[depth])
            hi = np.searchsorted(child_starts, stops_by_depth[depth])
            row = slice(int(offsets[depth]), int(offsets[depth]) + counts[depth])
            n_children[row] = hi - lo
            linked = offsets[depth + 1] + lo
            linked[hi == lo] = -1
            first_child[row] = linked
        return {
            "depth": np.concatenate(
                [
                    np.full(counts[depth], depth, dtype=np.int64)
                    for depth in range(len(counts))
                ]
            ),
            "start": np.concatenate(starts_by_depth),
            "stop": np.concatenate(stops_by_depth),
            "digit": np.concatenate(digit_by_depth),
            "leaf": np.concatenate(leaf_by_depth),
            "first_child": first_child,
            "n_children": n_children,
        }

    # ------------------------------------------------------------------
    # shipping (shared-memory transport for the parallel executor)
    # ------------------------------------------------------------------
    def packed_nodes(self) -> np.ndarray:
        """Node table as one ``(7, n_nodes)`` int64 array for shipping."""
        return np.vstack(
            [
                self.node_depth,
                self.node_start,
                self.node_stop,
                self.node_digit,
                self.node_leaf.astype(np.int64),
                self.node_first_child,
                self.node_n_children,
            ]
        )

    @classmethod
    def from_arrays(
        cls,
        points_flat: np.ndarray,
        perm: np.ndarray,
        digits: np.ndarray,
        packed_nodes: np.ndarray,
        spec: JoinSpec,
        grid: Grid,
    ) -> "FlatEpsilonKdbTree":
        """Reconstruct a tree from shipped arrays (no copies, no sort)."""
        node_table = {
            "depth": packed_nodes[0],
            "start": packed_nodes[1],
            "stop": packed_nodes[2],
            "digit": packed_nodes[3],
            "leaf": packed_nodes[4] != 0,
            "first_child": packed_nodes[5],
            "n_children": packed_nodes[6],
        }
        return cls(
            points_flat,
            spec,
            grid,
            perm,
            digits,
            node_table,
            points_flat=points_flat,
        )

    # ------------------------------------------------------------------
    # traversal indices
    # ------------------------------------------------------------------
    def sweep_index(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(sorted_values, rank_key)`` for rank-keyed band windows.

        ``sorted_values`` is ``sort_values`` in stable ascending order and
        ``rank_key[r] = leaf_start(r) * (n + 1) + rank(r)``, where
        ``rank(r)`` is row ``r``'s position in that order.  Leaves are
        contiguous and value-sorted, so ``rank_key`` is strictly
        increasing, and the rows of the leaf starting at flat row ``s``
        whose values lie in ``sorted_values[lo:hi]`` are the flat rows
        ``searchsorted(rank_key, s * (n + 1) + lo)`` up to the same
        search at ``hi``: one band window per (row, leaf) pair for any
        number of pairs, in two whole-array ``searchsorted`` calls.
        """
        if self._sweep_index is None:
            n = len(self.perm)
            rank = self._value_rank
            if rank is None:
                order = _value_order(self.sort_values)
                sorted_values = self.sort_values[order]
                rank = np.empty(n, dtype=np.int64)
                rank[order] = np.arange(n, dtype=np.int64)
            else:
                sorted_values = np.empty_like(self.sort_values)
                sorted_values[rank] = self.sort_values
            # An empty tree's root leaf starts at n: no rows to label.
            starts = self.node_start[self.node_leaf & (self.node_start < n)]
            leaf_start = np.zeros(n, dtype=np.int64)
            leaf_start[starts] = starts
            np.maximum.accumulate(leaf_start, out=leaf_start)
            self._sweep_index = (sorted_values, leaf_start * (n + 1) + rank)
            self._value_rank = None
        return self._sweep_index

    def child_index(self) -> Tuple[np.ndarray, np.ndarray, int]:
        """``(child_key, digit_values, stride)`` for adjacent-child windows.

        ``digit_values`` is the sorted distinct node digits and
        ``child_key[c] = parent(c) * stride + rank(digit(c))``, where
        ``rank`` is a digit's position in ``digit_values``.  Children are
        contiguous and digit-ordered and parents are laid out
        depth-major, so ``child_key`` is strictly increasing: the
        children of node ``t`` with digits in ``[lo, hi]`` are one
        ``searchsorted`` window at ``t * stride`` plus the ranks of
        ``lo`` and ``hi``.  Ranks stay below ``stride <= n_nodes + 1``
        whatever the cell count, so keys cannot overflow and windows
        never cross parents.
        """
        if self._child_index is None:
            digit_values = sorted_unique(self.node_digit)
            rank = np.searchsorted(digit_values, self.node_digit)
            stride = len(digit_values) + 1
            parent = np.full(self.n_nodes, -1, dtype=np.int64)
            inner = np.flatnonzero(self.node_n_children)
            # Child id ranges of successive parents tile ids 1..n_nodes-1.
            parent[1:] = np.repeat(inner, self.node_n_children[inner])
            self._child_index = (parent * stride + rank, digit_values, stride)
        return self._child_index

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def range_query(
        self, point: np.ndarray, eps: Optional[float] = None
    ) -> np.ndarray:
        """Indices of points within ``eps`` of ``point`` (sorted).

        The tree is built for a specific grid width, so only radii up to
        the build epsilon are answerable (the default is exactly the
        build epsilon); larger radii would need pairs from non-adjacent
        cells and raise :class:`InvalidParameterError`.  Distance uses the
        spec's metric, inclusive of the boundary.  Implemented as a batch
        of one so single and coalesced queries share one code path.
        """
        point = np.asarray(point, dtype=np.float64)
        dims = self.points_flat.shape[1] if self.points_flat.ndim == 2 else 0
        if point.shape != (dims,):
            raise InvalidParameterError(
                f"query point must have shape ({dims},), got {point.shape}"
            )
        return self.batch_range_query(point[np.newaxis, :], eps=eps)[0]

    def batch_range_query(
        self, queries: np.ndarray, eps: Optional[float] = None
    ) -> List[np.ndarray]:
        """Answer ``Q`` range queries in one leaf-directed pass.

        All queries descend the tree level by level as fragments of the
        join traversal's frontier (:func:`repro.core.join.flat_probe`):
        each (query, node) pair moves to the children within one cell of
        the query's own cell, every (query, leaf) pair becomes one
        rank-keyed band window, and the candidates are filtered in tiles
        by the same cascade the joins use.  The result is one ascending
        int64 index array per query, **byte-identical** to ``Q``
        sequential :meth:`range_query` calls.

        As there, ``eps`` defaults to the build epsilon and may not
        exceed it.
        """
        if eps is None:
            eps = self.spec.epsilon
        eps = float(eps)
        if eps > self.spec.epsilon:
            raise InvalidParameterError(
                f"query radius {eps} exceeds the build epsilon "
                f"{self.spec.epsilon}; rebuild the tree for larger radii"
            )
        queries = validate_points(queries, "queries")
        dims = self.points_flat.shape[1] if self.points_flat.ndim == 2 else 0
        if queries.shape[1] != dims:
            raise InvalidParameterError(
                f"query points must have {dims} dimensions, "
                f"got {queries.shape[1]}"
            )
        if len(queries) == 0:
            return []
        # Imported here: the traversal module imports this one.
        from repro.core.join import flat_probe

        query_spec = (
            self.spec
            if eps == self.spec.epsilon
            else replace(self.spec, epsilon=eps, persist_path=None)
        )
        left, right, _ = flat_probe(self, queries, query_spec)
        # One global (query, index) sort replaces Q per-query sorts; each
        # point lives in exactly one leaf and each leaf is visited at
        # most once per query, so no dedup is needed.
        order = np.lexsort((right, left))
        left = left[order]
        right = right[order]
        bounds = np.searchsorted(left, np.arange(len(queries) + 1, dtype=np.int64))
        return [
            np.ascontiguousarray(right[bounds[i]:bounds[i + 1]])
            for i in range(len(queries))
        ]

    def paired_store(self, layout) -> np.ndarray:
        """The kernels' paired store of the flat points under ``layout``
        (a :class:`~repro.core.kernels.PairedLayout`), cached.

        Built on first use and kept for the tree's lifetime, so repeated
        probes of one tree (session inserts, the serving layer's
        coalesced range queries) pack it once.  Only the latest layout is
        kept: a tree meets one grid, and almost always one ``eps``.
        """
        cached = getattr(self, "_paired_store", None)
        if cached is None or cached[0] != layout:
            cached = self._paired_store = (layout, layout.pack(self.points_flat))
        return cached[1]

    def probe_kernel(self, spec: JoinSpec, queries: np.ndarray):
        """Cascade context for probing this tree with ``queries``.

        The plan, thresholds and this tree's side are cached per spec
        (so a one-query range query builds no plan); only the queries
        are packed per call.  ``None`` when the cascade is off.
        """
        key = (spec.metric, spec.epsilon, spec.cascade, spec.filter_dims)
        cached = getattr(self, "_probe_kernel", None)
        if cached is None or cached[0] != key:
            cached = self._probe_kernel = (key, tree_kernel_context(spec, self, self))
        template = cached[1]
        return None if template is None else template.with_side_a(queries)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def root_children(self) -> slice:
        """Node ids of the root's children, in digit order (empty for a
        leaf root).  Their digits are the occupied cells of the first
        split dimension."""
        first = int(self.node_first_child[0])
        return slice(first, first + int(self.node_n_children[0]))

    @property
    def n_nodes(self) -> int:
        return int(len(self.node_depth))

    @property
    def n_leaves(self) -> int:
        return int(self.node_leaf.sum())

    def leaf_slices(self):
        """Yield every leaf's ``(start, stop)`` flat-row range."""
        for node in np.flatnonzero(self.node_leaf):
            yield int(self.node_start[node]), int(self.node_stop[node])

    def split_dims(self) -> tuple:
        """Dimensions actually split by at least one internal node, sorted."""
        internal = ~self.node_leaf
        if not internal.any():
            return ()
        depths = sorted_unique(self.node_depth[internal])
        return tuple(sorted(int(self.level_dims[d]) for d in depths))

    def describe(self) -> TreeDescription:
        """Structural summary; matches the pointer build's exactly."""
        leaf_sizes = (self.node_stop - self.node_start)[self.node_leaf]
        return TreeDescription(
            points=int(len(self.perm)),
            dims=int(self.points_flat.shape[1]) if self.points_flat.ndim == 2 else 0,
            internal_nodes=int((~self.node_leaf).sum()),
            leaves=self.n_leaves,
            max_depth=int(self.node_depth.max()) if self.n_nodes else 0,
            max_leaf_size=int(leaf_sizes.max()) if len(leaf_sizes) else 0,
            split_dims_used=len(self.split_dims()),
        )

    def __len__(self) -> int:
        return int(len(self.perm))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FlatEpsilonKdbTree points={len(self.perm)} nodes={self.n_nodes} "
            f"leaves={self.n_leaves}>"
        )


def live_batch_range_query(
    queries: np.ndarray,
    eps: Optional[float],
    *,
    spec: JoinSpec,
    dims: Optional[int],
    tree: Optional[FlatEpsilonKdbTree],
    base_ids: np.ndarray,
    base_alive: np.ndarray,
    delta_points: np.ndarray,
    delta_ids: np.ndarray,
    delta_alive: np.ndarray,
    owner: str = "session",
) -> List[np.ndarray]:
    """Ids of live points within ``eps`` of each query row.

    The range query of a session split into a base set indexed by
    ``tree`` (rows aligned with ``base_ids``/``base_alive``) and an
    unindexed delta buffer, shared by
    :meth:`~repro.core.incremental.IncrementalJoin.batch_range_query`
    and :meth:`~repro.storage.view.SnapshotView.batch_range_query`: one
    leaf-directed tree pass for every query (``Grid.cell_of`` clips a
    query outside the grid box into the box's edge cells, which are at
    least one band wide, so the pass stays exact) and a blocked brute
    scan of the delta buffer, tombstoned rows filtered out.  Returns one
    ascending int64 id array per query.

    ``eps`` defaults to ``spec.epsilon`` and may not exceed it (the
    tree's cells are sized for the spec); ``owner`` names the caller in
    error messages.
    """
    queries = validate_points(queries, "queries")
    if eps is None:
        eps = spec.epsilon
    eps = float(eps)
    if not np.isfinite(eps) or eps <= 0:
        raise InvalidParameterError(
            f"query radius must be a positive finite number, got {eps!r}"
        )
    if eps > spec.epsilon:
        raise InvalidParameterError(
            f"query radius {eps} exceeds the {owner} epsilon {spec.epsilon}"
        )
    n_q = len(queries)
    if dims is None:
        return [np.empty(0, dtype=np.int64) for _ in range(n_q)]
    if queries.shape[1] != dims:
        raise InvalidParameterError(
            f"{owner} holds {dims}-dimensional points, "
            f"got queries with {queries.shape[1]}"
        )
    parts: List[List[np.ndarray]] = [[] for _ in range(n_q)]
    all_rows = np.arange(n_q, dtype=np.int64)
    if tree is not None and n_q:
        answers = tree.batch_range_query(queries, eps=eps)
        for pos, hits in enumerate(answers):
            if len(hits):
                alive = hits[base_alive[hits]]
                if len(alive):
                    parts[pos].append(base_ids[alive])
    if len(delta_points):
        _brute_range(
            queries, all_rows, delta_points, delta_ids, delta_alive,
            eps, spec.metric, parts,
        )
    out: List[np.ndarray] = []
    for bucket in parts:
        if not bucket:
            out.append(np.empty(0, dtype=np.int64))
        elif len(bucket) == 1:
            out.append(np.sort(bucket[0]))
        else:
            out.append(np.sort(np.concatenate(bucket)))
    return out


def _brute_range(
    queries: np.ndarray,
    rows: np.ndarray,
    points: np.ndarray,
    ids: np.ndarray,
    alive: np.ndarray,
    eps: float,
    metric,
    parts: List[List[np.ndarray]],
) -> None:
    """Scan ``points[alive]`` for each ``queries[rows]``; fill ``parts``.

    Vectorized in blocks of query rows so the broadcast diff tensor
    stays bounded regardless of batch width.
    """
    live = np.flatnonzero(alive)
    if not len(live) or not len(rows):
        return
    block = points[live]
    chunk = max(1, 262144 // len(live))
    for start in range(0, len(rows), chunk):
        sub = rows[start:start + chunk]
        diffs = np.abs(queries[sub][:, np.newaxis, :] - block[np.newaxis, :, :])
        keep = metric.within_gap(
            diffs.reshape(-1, diffs.shape[2]), eps
        ).reshape(len(sub), len(live))
        for local, q in enumerate(sub):
            hit = keep[local]
            if hit.any():
                parts[q].append(ids[live[hit]])
