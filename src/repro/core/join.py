"""Similarity-join traversals over epsilon-kdB trees.

The traversal applies the paper's adjacent-cell rule: inside a split
dimension, a qualifying pair (distance <= epsilon under any L_p) must
fall into the same or adjacent cells, so a node's child ``i`` only ever
joins children ``i-1``, ``i`` and ``i+1`` of the other node.  Leaf-level
joins are vectorized sort-merge sweeps along one unsplit dimension with a
full-distance filter.

Every join entry point builds a :class:`FlatEpsilonKdbTree` and runs one
level-synchronous frontier (:class:`_Frontier`) over it: both joins, the
parallel stripe ranges, the incremental base probe and range queries.

Self-joins emit each unordered pair once with ``left < right``; two-set
joins emit ``(r_index, s_index)`` with sides preserved.
"""

from __future__ import annotations

import time
from typing import List, Optional, Tuple

import numpy as np

from repro.core.config import JoinSpec, validate_point_sets, validate_points
from repro.core.epsilon_kdb import Grid
from repro.core.flat_build import FlatEpsilonKdbTree
from repro.core import kernels
from repro.core.kernels import KernelContext, tree_kernel_context
from repro.core.result import (
    JoinResult,
    JoinStats,
    PairCollector,
    PairSink,
    sorted_unique,
)
from repro.core.sweep import _expand_windows
from repro.errors import InvalidParameterError
from repro.obs import trace


class _JoinContext:
    """State threaded through one traversal."""

    __slots__ = (
        "points_a",
        "points_b",
        "eps",
        "band",
        "metric",
        "sink",
        "stats",
        "self_mode",
        "adjacency_pruning",
        "kernel",
        "perm_a",
        "perm_b",
        "tile_rows",
    )

    def __init__(
        self,
        points_a: np.ndarray,
        points_b: np.ndarray,
        spec: JoinSpec,
        sink: PairSink,
        self_mode: bool,
        kernel: Optional[KernelContext] = None,
        perm_a: Optional[np.ndarray] = None,
        perm_b: Optional[np.ndarray] = None,
    ):
        self.points_a = points_a
        self.points_b = points_b
        self.eps = spec.epsilon
        self.band = spec.band_width
        self.metric = spec.metric
        self.sink = sink
        self.stats = JoinStats()
        self.self_mode = self_mode
        self.adjacency_pruning = spec.adjacency_pruning
        self.kernel = kernel
        # Flat trees traverse permuted row ids; the perms translate them
        # back to caller indices at emit time (None = identity).
        self.perm_a = perm_a
        self.perm_b = perm_b
        # Candidates per kernel call (read at join time, so a test can
        # pin it).
        self.tile_rows = kernels.DEFAULT_TILE_ROWS
        self.stats.kernel_tile_rows = self.tile_rows

    def filter_windows(
        self, rows: np.ndarray, start: np.ndarray, end: np.ndarray, swap: bool
    ) -> None:
        """Filter one group of band windows and emit the survivors.

        Source row ``rows[i]`` meets target rows ``[start[i], end[i])``;
        sources are side a, or side b when ``swap``.  Without a cascade
        the windows are expanded and checked by the monolithic kernel.
        """
        started = time.perf_counter()
        if self.kernel is not None:
            left, right = self.kernel.filter_windows(rows, start, end, swap, self.stats)
        else:
            pos, targets = _expand_windows(start, end)
            sources = rows.take(pos)
            left, right = (targets, sources) if swap else (sources, targets)
            keep = np.flatnonzero(
                self.metric.within_rows(
                    self.points_a,
                    self.points_a if self.self_mode else self.points_b,
                    left,
                    right,
                    self.eps,
                )
            )
            left, right = left.take(keep), right.take(keep)
        self.stats.kernel_seconds += time.perf_counter() - started
        self._emit(left, right)

    def finish(self) -> None:
        """Count the kernel's work in tiles of ``tile_rows`` candidates."""
        self.stats.kernel_blocks = -(-self.stats.distance_computations // self.tile_rows)

    def _emit(self, left: np.ndarray, right: np.ndarray) -> None:
        if not len(left):
            return
        if self.perm_a is not None:
            left = self.perm_a[left]
        if self.perm_b is not None:
            right = self.perm_b[right]
        if self.self_mode:
            lo = np.minimum(left, right)
            hi = np.maximum(left, right)
            self.sink.emit(lo, hi)
        else:
            self.sink.emit(left, right)
        self.stats.pairs_emitted += int(len(left))


# ----------------------------------------------------------------------
# flat-tree frontier traversal
# ----------------------------------------------------------------------
# Flat trees are traversed level-synchronously: every step advances the
# whole frontier one tree level with whole-array operations.  Three
# kinds of entry share the frontier, all at the same depth:
#
# * self nodes (self-joins): a node joined with itself;
# * node pairs ``(a, b)``: one node of each side, joined synchronously;
# * fragments ``(row, node)``: a leaf row of one side (or an external
#   query row) descending the other side's subtree, kept only under the
#   children whose cell is adjacent to the row's own cell.
#
# Counters: one node-pair visit per self node, per node pair and per
# (source group, target node) fragment group — a group being one
# leaf's rows (or one query row) under one node — and one leaf join per
# swept (leaf, leaf) group.  Every (row, leaf) pair at the bottom
# becomes one band window from two rank-keyed ``searchsorted`` calls
# (see :meth:`FlatEpsilonKdbTree.sweep_index`) that make exactly the
# comparisons ``band_pairs_cross`` / ``band_pairs_self`` make on the
# leaf's value-sorted rows; windows go to the kernel in row groups of
# about one tile of candidates (``_JoinContext.filter_windows``).
# Row ids are positions in each tree's leaf-contiguous permuted array;
# ``_JoinContext.perm_a/perm_b`` translate back to caller indices.
_EMPTY_ROWS = np.empty(0, dtype=np.int64)
_ROOT = np.zeros(1, dtype=np.int64)


class _TreeSide:
    """One flat tree as the traversal sees it: nodes, rows, search keys."""

    def __init__(self, tree: FlatEpsilonKdbTree):
        self.tree = tree
        self.leaf = tree.node_leaf
        self.first = tree.node_first_child
        self.count = tree.node_n_children
        self.start = tree.node_start
        self.stop = tree.node_stop
        self.digit = tree.node_digit
        self.sorted_values, self.rank_key = tree.sweep_index()
        self.child_key, self.digit_values, self.child_stride = tree.child_index()
        self.stride = len(tree.perm) + 1
        # As a fragment source: sweep values, and one group per leaf.
        self.values = tree.sort_values
        self.n_groups = self.stride

    def children(
        self, nodes: np.ndarray, digits: Optional[np.ndarray]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Child-id windows: all children, or those within one cell of ``digits``."""
        if digits is None:
            lo = self.first[nodes]
            return lo, lo + self.count[nodes]
        base = nodes * self.child_stride
        lo = np.searchsorted(self.digit_values, digits - 1, side="left")
        hi = np.searchsorted(self.digit_values, digits + 1, side="right")
        return (
            np.searchsorted(self.child_key, base + lo, side="left"),
            np.searchsorted(self.child_key, base + hi, side="left"),
        )

    def leaf_windows(
        self, leaves: np.ndarray, lo: np.ndarray, hi: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Flat-row window of the rows of each leaf ranked in ``[lo, hi)``."""
        base = self.start[leaves] * self.stride
        return (
            np.searchsorted(self.rank_key, base + lo, side="left"),
            np.searchsorted(self.rank_key, base + hi, side="left"),
        )

    def leaf_rows(self, leaves: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(position in leaves, row)`` for every row of every leaf."""
        return _expand_windows(self.start[leaves], self.stop[leaves])

    # -- as a fragment source ------------------------------------------
    def digits_at(self, depth: int, rows: np.ndarray) -> np.ndarray:
        tree = self.tree
        if depth < len(tree.digits):
            return tree.digits[depth][rows]
        # A leaf shallower than the other side's internal node: the
        # build stopped computing digits at this tree's own depth.
        dim = int(tree.level_dims[depth])
        return tree.grid.cell_of(tree.points_flat[rows, dim], dim)

    def groups(self, rows: np.ndarray) -> np.ndarray:
        """Source group of each row: the first flat row of its leaf."""
        return self.rank_key[rows] // self.stride


class _QueryRows:
    """External query rows as a fragment source (each row its own group)."""

    def __init__(self, queries: np.ndarray, tree: FlatEpsilonKdbTree):
        self.queries = queries
        self.grid = tree.grid
        self.level_dims = tree.level_dims
        self.values = np.ascontiguousarray(queries[:, tree.sort_dim])
        self.n_groups = len(queries)

    def digits_at(self, depth: int, rows: np.ndarray) -> np.ndarray:
        dim = int(self.level_dims[depth])
        return self.grid.cell_of(self.queries[rows, dim], dim)

    def groups(self, rows: np.ndarray) -> np.ndarray:
        return rows


class _Level:
    """The frontier entries of one depth."""

    __slots__ = ("selfs", "pairs_a", "pairs_b", "frags")

    def __init__(self, selfs=(), pairs=((), ()), frags=None):
        self.selfs: List[np.ndarray] = list(selfs)
        self.pairs_a: List[np.ndarray] = list(pairs[0])
        self.pairs_b: List[np.ndarray] = list(pairs[1])
        # Per orientation: (rows, nodes) chunks; orientation 0 holds
        # a-side rows under b-side nodes, orientation 1 the reverse.
        self.frags: List[List[Tuple[np.ndarray, np.ndarray]]] = (
            [[], []] if frags is None else frags
        )

    def empty(self) -> bool:
        return not (
            self.selfs or self.pairs_a or self.frags[0] or self.frags[1]
        )


def _cat(chunks: List[np.ndarray]) -> np.ndarray:
    if not chunks:
        return _EMPTY_ROWS
    return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)


class _Frontier:
    """Level-synchronous traversal of one join, feeding one kernel.

    ``side_a`` / ``side_b`` are the two trees (the same object for a
    self-join); ``source_a`` is what descends ``side_b`` in orientation
    0 — ``side_a`` itself, or external query rows for a probe.
    """

    def __init__(self, ctx: _JoinContext, side_a, side_b, source_a=None):
        self.ctx = ctx
        self.stats = ctx.stats
        self.sides = (side_a, side_b)
        self.sources = (source_a if source_a is not None else side_a, side_b)
        # Index each orientation's targets: 0 searches b, 1 searches a.
        self.targets = (side_b, side_a)
        self.pruning = ctx.adjacency_pruning
        self.budget = ctx.tile_rows
        self._rank_bounds: List[Optional[Tuple[np.ndarray, np.ndarray]]] = [None, None]

    def run(self, level: _Level, depth: int) -> None:
        while not level.empty():
            nxt = _Level()
            selfs = _cat(level.selfs)
            if len(selfs):
                self._self_nodes(selfs, nxt)
            pairs_a = _cat(level.pairs_a)
            if len(pairs_a):
                self._node_pairs(pairs_a, _cat(level.pairs_b), depth, nxt)
            for orient in (0, 1):
                chunks = level.frags[orient]
                if chunks:
                    rows = _cat([rows for rows, _ in chunks])
                    nodes = _cat([nodes for _, nodes in chunks])
                    self._fragments(orient, rows, nodes, depth, nxt)
            level = nxt
            depth += 1

    # ------------------------------------------------------------------
    def _self_nodes(self, nodes: np.ndarray, nxt: _Level) -> None:
        side = self.sides[0]
        self.stats.node_pairs_visited += len(nodes)
        leaf = side.leaf[nodes]
        if leaf.any():
            self._sweep_self(nodes[leaf])
        inner = nodes[~leaf]
        if not len(inner):
            return
        first = side.first[inner]
        stop = first + side.count[inner]
        parent, children = _expand_windows(first, stop)
        nxt.selfs.append(children)
        # Sibling crosses: adjacent cells only, or every later sibling.
        sibling_stop = stop[parent]
        if self.pruning:
            left = children[children + 1 < sibling_stop]
            left = left[side.digit[left + 1] == side.digit[left] + 1]
            right = left + 1
        else:
            pos, right = _expand_windows(children + 1, sibling_stop)
            left = children[pos]
        nxt.pairs_a.append(left)
        nxt.pairs_b.append(right)

    def _node_pairs(
        self, a: np.ndarray, b: np.ndarray, depth: int, nxt: _Level
    ) -> None:
        side_a, side_b = self.sides
        self.stats.node_pairs_visited += len(a)
        leaf_a = side_a.leaf[a]
        leaf_b = side_b.leaf[b]
        both = leaf_a & leaf_b
        if both.any():
            self.stats.leaf_joins += int(np.count_nonzero(both))
            pos, rows = side_a.leaf_rows(a[both])
            self._sweep(0, rows, b[both][pos])
        inner = ~(leaf_a | leaf_b)
        if inner.any():
            tree_a, tree_b = side_a.tree, side_b.tree
            if int(tree_a.level_dims[depth]) != int(tree_b.level_dims[depth]):
                raise InvalidParameterError(
                    "cross-joined internal nodes disagree on split dimension; "
                    "the two trees were not built with a shared grid and order"
                )
            inner_a = a[inner]
            pos, child_a = _expand_windows(
                side_a.first[inner_a], side_a.first[inner_a] + side_a.count[inner_a]
            )
            lo, hi = side_b.children(
                b[inner][pos], side_a.digit[child_a] if self.pruning else None
            )
            pos, child_b = _expand_windows(lo, hi)
            nxt.pairs_a.append(child_a[pos])
            nxt.pairs_b.append(child_b)
        # A leaf against an internal node: the leaf's rows descend.
        for orient, mask, leaves, nodes in (
            (0, leaf_a & ~leaf_b, a, b),
            (1, leaf_b & ~leaf_a, b, a),
        ):
            if mask.any():
                pos, rows = self.sources[orient].leaf_rows(leaves[mask])
                nxt.frags[orient].append(
                    self._descend(orient, rows, nodes[mask][pos], depth)
                )

    def _fragments(
        self, orient: int, rows: np.ndarray, nodes: np.ndarray, depth: int,
        nxt: _Level,
    ) -> None:
        source = self.sources[orient]
        target = self.targets[orient]
        groups = sorted_unique(nodes * source.n_groups + source.groups(rows))
        self.stats.node_pairs_visited += len(groups)
        self.stats.leaf_joins += int(
            np.count_nonzero(target.leaf[groups // source.n_groups])
        )
        leaf = target.leaf[nodes]
        if leaf.any():
            self._sweep(orient, rows[leaf], nodes[leaf])
        if not leaf.all():
            inner = ~leaf
            nxt.frags[orient].append(
                self._descend(orient, rows[inner], nodes[inner], depth)
            )

    def _descend(
        self, orient: int, rows: np.ndarray, nodes: np.ndarray, depth: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Fragment rows under internal ``nodes`` -> (row, child) entries."""
        digits = (
            self.sources[orient].digits_at(depth, rows) if self.pruning else None
        )
        lo, hi = self.targets[orient].children(nodes, digits)
        pos, children = _expand_windows(lo, hi)
        return rows[pos], children

    # ------------------------------------------------------------------
    def _bounds(self, orient: int) -> Tuple[np.ndarray, np.ndarray]:
        """Per source row: the ``[lo, hi)`` target ranks its band covers.

        Orientation 0 makes ``band_pairs_cross``'s comparisons with the
        source on the left (``v - band`` left, ``v + band`` right).  In
        orientation 1 the source is on the right: a target row ``a``
        qualifies when ``v_a - band <= v <= v_a + band``, which over
        the shifted (still rank-ordered) target values is again one
        rank range.  Computed once per source row, not per leaf.
        """
        bounds = self._rank_bounds[orient]
        if bounds is None:
            values = self.sources[orient].values
            ranked = self.targets[orient].sorted_values
            band = self.ctx.band
            if orient == 0:
                lo = np.searchsorted(ranked, values - band, side="left")
                hi = np.searchsorted(ranked, values + band, side="right")
            else:
                lo = np.searchsorted(ranked + band, values, side="left")
                hi = np.searchsorted(ranked - band, values, side="right")
            bounds = self._rank_bounds[orient] = (lo, hi)
        return bounds

    def _sweep_self(self, leaves: np.ndarray) -> None:
        """Band-sweep each leaf against itself (``band_pairs_self``)."""
        side = self.sides[0]
        self.stats.leaf_joins += len(leaves)
        pos, rows = side.leaf_rows(leaves)
        hi = self._bounds(0)[1][rows]
        end = np.searchsorted(
            side.rank_key, side.start[leaves][pos] * side.stride + hi, side="left"
        )
        self._enqueue(rows, rows + 1, end, swap=False)

    def _sweep(self, orient: int, rows: np.ndarray, leaves: np.ndarray) -> None:
        """Band-sweep fragment rows against the target leaves."""
        lo, hi = self._bounds(orient)
        start, end = self.targets[orient].leaf_windows(leaves, lo[rows], hi[rows])
        self._enqueue(rows, start, end, swap=orient == 1)

    def _enqueue(
        self, rows: np.ndarray, start: np.ndarray, end: np.ndarray, swap: bool
    ) -> None:
        """Hand windows to the kernel, about a tile of candidates at a time.

        Row groups are cut where their candidate total reaches the tile
        budget (a single wider window goes alone), so a join's
        candidates are never materialized at once.
        """
        counts = end - start
        stops = np.cumsum(counts)
        if not len(stops) or not stops[-1]:
            return
        self.stats.distance_computations += int(stops[-1])
        lo = 0
        while lo < len(counts):
            done = int(stops[lo] - counts[lo])
            hi = max(
                int(np.searchsorted(stops, done + self.budget, side="right")), lo + 1
            )
            if int(stops[hi - 1]) > done:
                self.ctx.filter_windows(rows[lo:hi], start[lo:hi], end[lo:hi], swap)
            lo = hi


def _flat_join(
    tree_a: FlatEpsilonKdbTree,
    tree_b: FlatEpsilonKdbTree,
    spec: JoinSpec,
    sink: PairSink,
    kernel: Optional[KernelContext],
    level: _Level,
    depth: int,
) -> JoinStats:
    """Run the frontier from ``level``; ``tree_a is tree_b`` for a self-join."""
    self_mode = tree_a is tree_b
    ctx = _JoinContext(
        tree_a.points_flat,
        tree_b.points_flat,
        spec,
        sink,
        self_mode=self_mode,
        kernel=kernel,
        perm_a=tree_a.perm,
        perm_b=tree_b.perm,
    )
    side_a = _TreeSide(tree_a)
    side_b = side_a if self_mode else _TreeSide(tree_b)
    _Frontier(ctx, side_a, side_b).run(level, depth)
    ctx.finish()
    return ctx.stats


def flat_probe(
    tree: FlatEpsilonKdbTree, queries: np.ndarray, spec: JoinSpec
) -> Tuple[np.ndarray, np.ndarray, JoinStats]:
    """Join external query rows against a flat tree.

    Returns aligned ``(query_index, caller_row)`` arrays — ``caller_row``
    indexes the points the tree was built over — plus the traversal
    counters.  Each query row descends the tree as its own fragment
    under the adjacent-cell rule on its own cells (``Grid.cell_of``
    clips, so a query outside the tree's box is still exact: clipping
    only widens its candidate set).  This serves both
    :meth:`FlatEpsilonKdbTree.batch_range_query` (``spec`` carries the
    query radius) and the incremental session's base probe.
    """
    sink = PairCollector()
    kernel = tree.probe_kernel(spec, queries)
    ctx = _JoinContext(
        queries,
        tree.points_flat,
        spec,
        sink,
        self_mode=False,
        kernel=kernel,
        perm_b=tree.perm,
    )
    # Probes always apply the adjacent-cell rule; only the join
    # ablation turns it off.
    ctx.adjacency_pruning = True
    side = _TreeSide(tree)
    rows = np.arange(len(queries), dtype=np.int64)
    level = _Level(frags=[[(rows, np.zeros(len(queries), dtype=np.int64))], []])
    _Frontier(ctx, None, side, source_a=_QueryRows(queries, tree)).run(level, 0)
    ctx.finish()
    left, right = sink.arrays()
    return left, right, ctx.stats


def _flat_self_join_range(
    tree: FlatEpsilonKdbTree,
    spec: JoinSpec,
    child_lo: int,
    child_hi: int,
    sink: PairSink,
    kernel: Optional[KernelContext] = None,
) -> JoinStats:
    """Self-join one contiguous range of the root's children.

    Task ``[child_lo, child_hi)`` covers each child's own self-join plus
    its cross with the right-adjacent sibling (which may fall in the
    next range — crosses belong to the left child's owner).  Ranges that
    partition ``[0, n_children)`` therefore partition the serial root
    visit exactly: every pair is found by exactly one task, so the
    parallel merge sees no duplicates.  Two children whose cells are not
    adjacent cannot hold a qualifying pair (the gap between their cells
    exceeds the per-coordinate bound), so skipping non-adjacent crosses
    is exact even with ``adjacency_pruning`` off.  The range seeds the
    frontier at depth 1.
    """
    root = tree.root_children()
    children = np.arange(root.start + child_lo, root.start + child_hi, dtype=np.int64)
    left = children[children + 1 < root.stop]
    if spec.adjacency_pruning:
        left = left[tree.node_digit[left + 1] == tree.node_digit[left] + 1]
    level = _Level(selfs=[children], pairs=([left], [left + 1]))
    return _flat_join(tree, tree, spec, sink, kernel, level, 1)


def _flat_two_set_range(
    tree_r: FlatEpsilonKdbTree,
    tree_s: FlatEpsilonKdbTree,
    spec: JoinSpec,
    cell_lo: int,
    cell_hi: int,
    sink: PairSink,
    kernel: Optional[KernelContext] = None,
) -> JoinStats:
    """Two-set join over one half-open range of root cells.

    The task owning cell ``g`` joins ``(R_g, S_g)``, ``(R_g, S_{g+1})``
    and ``(R_{g+1}, S_g)`` — every adjacent child pair assigned to the
    *smaller* of its two cells, so cell ranges that partition the cell
    axis partition the adjacent pairs exactly.  Non-adjacent cells
    cannot hold qualifying pairs (see :func:`_flat_self_join_range`).
    """

    def child_at(tree: FlatEpsilonKdbTree, cells: np.ndarray) -> np.ndarray:
        """Root child id holding each cell, or -1."""
        root = tree.root_children()
        digits = tree.node_digit[root]
        pos = np.minimum(np.searchsorted(digits, cells), max(len(digits) - 1, 0))
        found = digits[pos] == cells if len(digits) else np.zeros(len(cells), bool)
        return np.where(found, root.start + pos, -1)

    cells = np.union1d(
        tree_r.node_digit[tree_r.root_children()],
        tree_s.node_digit[tree_s.root_children()],
    )
    cells = cells[(cells >= cell_lo) & (cells < cell_hi)]
    r_here, s_here = child_at(tree_r, cells), child_at(tree_s, cells)
    r_next, s_next = child_at(tree_r, cells + 1), child_at(tree_s, cells + 1)
    pairs_a: List[np.ndarray] = []
    pairs_b: List[np.ndarray] = []
    for r, s in ((r_here, s_here), (r_here, s_next), (r_next, s_here)):
        both = (r >= 0) & (s >= 0)
        pairs_a.append(r[both])
        pairs_b.append(s[both])
    level = _Level(pairs=(pairs_a, pairs_b))
    return _flat_join(tree_r, tree_s, spec, sink, kernel, level, 1)


def _check_tree_reuse(spec: JoinSpec, tree_epsilon: float, cell_width: float) -> None:
    """Reject reuse of a tree built for a smaller epsilon.

    A tree built for a larger epsilon remains valid for any smaller
    threshold: its cells are at least tree-epsilon wide, so the
    adjacent-cell rule still over-approximates the spec-epsilon
    predicate.  The reverse would silently drop pairs.
    """
    if spec.epsilon > tree_epsilon or spec.band_width > cell_width:
        raise InvalidParameterError(
            f"join epsilon {spec.epsilon} (band {spec.band_width}) "
            f"exceeds the tree's build epsilon {tree_epsilon} "
            f"(cell width {cell_width}); rebuild the tree"
        )


# ----------------------------------------------------------------------
# public entry points
# ----------------------------------------------------------------------
def epsilon_kdb_self_join(
    points: np.ndarray,
    spec: JoinSpec,
    sink: Optional[PairSink] = None,
    tree: Optional[FlatEpsilonKdbTree] = None,
) -> JoinResult:
    """Self-join: all pairs ``i < j`` with ``dist(points[i], points[j]) <= eps``.

    Builds a flat epsilon-kdB tree (unless a pre-built ``tree`` over the
    same points and spec is supplied), traverses it with the
    adjacent-cell rule, and returns a :class:`JoinResult`.  A pre-built
    ``tree`` must be a :class:`FlatEpsilonKdbTree` holding as many
    points as ``points``, of the same dimensionality.  Pass a
    :class:`~repro.core.result.PairCounter` as ``sink`` to count without
    materializing pairs.
    """
    points = validate_points(points)
    if tree is not None:
        if not isinstance(tree, FlatEpsilonKdbTree):
            raise InvalidParameterError(
                f"the pre-built tree must be a FlatEpsilonKdbTree, got "
                f"{type(tree).__name__}; build it with FlatEpsilonKdbTree.build"
            )
        if len(tree) != len(points) or tree.grid.dims != points.shape[1]:
            raise InvalidParameterError(
                f"the pre-built tree holds {len(tree)} points of dimension "
                f"{tree.grid.dims}, but the join was given {len(points)} points "
                f"of dimension {points.shape[1]}; build the tree over these points"
            )
    collect = sink is None
    if collect:
        sink = PairCollector()
    result = JoinResult()
    if len(points) < 2:
        return result
    if tree is None:
        with trace.span(
            "build", points=len(points), dims=points.shape[1], epsilon=spec.epsilon
        ) as build_span:
            tree = FlatEpsilonKdbTree.build(points, spec)
        result.build_seconds = build_span.duration
        build_sort_seconds = tree.build_sort_seconds
    else:
        # A pre-built tree is traversal-ready; no build span opens, so a
        # trace of a join over a reloaded (memmapped) tree shows no
        # construction work at all.
        _check_tree_reuse(spec, tree.spec.epsilon, tree.grid.eps)
        build_sort_seconds = 0.0
    kernel = tree_kernel_context(spec, tree)
    with trace.span("self-join-traversal", points=len(points)) as join_span:
        stats = _flat_join(tree, tree, spec, sink, kernel, _Level(selfs=[_ROOT]), 0)
        join_span.set_attribute("pairs", sink.count)
        join_span.set_attribute("leaf_joins", stats.leaf_joins)
    stats.build_nodes = tree.n_nodes
    stats.build_sort_seconds = build_sort_seconds
    stats.pairs_emitted = sink.count
    result.stats = stats
    result.join_seconds = join_span.duration
    if collect:
        result.pairs = sink.sorted_pairs()
    return result


def epsilon_kdb_join(
    points_r: np.ndarray,
    points_s: np.ndarray,
    spec: JoinSpec,
    sink: Optional[PairSink] = None,
) -> JoinResult:
    """Two-set join: all ``(i, j)`` with ``dist(points_r[i], points_s[j]) <= eps``.

    Builds one flat epsilon-kdB tree per side over a shared grid
    covering the union of both bounding boxes, then runs the
    synchronized frontier traversal.
    """
    points_r, points_s = validate_point_sets(points_r, points_s)
    if len(points_r) == 0 or len(points_s) == 0:
        return JoinResult()
    with trace.span(
        "build",
        points_r=len(points_r),
        points_s=len(points_s),
        dims=points_r.shape[1],
        epsilon=spec.epsilon,
    ) as build_span:
        grid = Grid.fit_union(points_r, points_s, spec.band_width)
        tree_r = FlatEpsilonKdbTree.build(points_r, spec, grid=grid)
        tree_s = FlatEpsilonKdbTree.build(points_s, spec, grid=grid)
    result = join_flat_trees(tree_r, tree_s, spec, sink)
    result.build_seconds = build_span.duration
    return result


def join_flat_trees(
    tree_r: FlatEpsilonKdbTree,
    tree_s: FlatEpsilonKdbTree,
    spec: JoinSpec,
    sink: Optional[PairSink] = None,
) -> JoinResult:
    """Two-set join over two flat trees already built on one shared grid."""
    collect = sink is None
    if collect:
        sink = PairCollector()
    kernel = tree_kernel_context(spec, tree_r, tree_s)
    with trace.span("two-set-traversal") as join_span:
        stats = _flat_join(
            tree_r, tree_s, spec, sink, kernel, _Level(pairs=([_ROOT], [_ROOT])), 0
        )
        join_span.set_attribute("pairs", sink.count)
        join_span.set_attribute("leaf_joins", stats.leaf_joins)
    result = JoinResult()
    result.stats = stats
    result.stats.build_nodes = tree_r.n_nodes + tree_s.n_nodes
    result.stats.build_sort_seconds = (
        tree_r.build_sort_seconds + tree_s.build_sort_seconds
    )
    result.stats.pairs_emitted = sink.count
    result.join_seconds = join_span.duration
    if collect:
        result.pairs = sink.sorted_pairs()
    return result
