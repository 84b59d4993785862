"""The cell grid and the pointer epsilon-kdB tree.

The paper's central data structure: a main-memory tree built on the fly
for one specific join threshold ``epsilon``.  Level ``l`` partitions one
dimension into cells of width ``epsilon``; a leaf splits into such cells
once it exceeds a size threshold and unsplit dimensions remain.  Because
every cell is at least ``epsilon`` wide, two points within distance
``epsilon`` under *any* L_p metric must fall into the same or adjacent
cells of every split dimension — the property the join traversal in
:mod:`repro.core.join` exploits.

:class:`Grid` is the cell geometry every tree shares.
:class:`EpsilonKdbTree` is the tree as the paper describes it, one Python
object per node over ``int64`` index arrays into one shared ``(n, d)``
array, built in bulk or one point at a time.  Joins and queries run on
:class:`~repro.core.flat_build.FlatEpsilonKdbTree`, which builds the same
leaf partition as flat arrays; the pointer tree remains as the reference
for that partition and for the build-mode study (E4, E17).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Union

import numpy as np

from repro.core.config import JoinSpec, validate_points
from repro.errors import DomainError, InvalidParameterError

# Cap on a dimension's cell count.  Below it, float64 rounding moves
# ``(x - lo) / eps`` by less than a quarter cell, so two values within
# ``eps`` still land in the same or adjacent cells; far above it a value
# can round many cells away.  Capping is exact, because the last cell
# absorbs the remainder and so stays at least ``eps`` wide.
_MAX_CELLS = 2**50


@dataclass(frozen=True)
class Grid:
    """The cell geometry shared by every node of one (or two) trees.

    Dimension ``k`` of the domain ``[lo[k], hi[k]]`` is cut into
    ``n_cells[k] = clip(floor(span_k / eps), 1, 2**50)`` cells of width
    ``eps``; the final cell absorbs the remainder, so every cell is at
    least ``eps`` wide (which is what the adjacent-cell pruning rule
    needs).

    Two trees that are to be joined against each other must share one
    ``Grid`` so that equal cell indices mean equal regions of space.
    """

    lo: np.ndarray
    hi: np.ndarray
    eps: float
    n_cells: np.ndarray

    @staticmethod
    def _validated_bounds(lo: np.ndarray, hi: np.ndarray):
        """Coerce and validate a bounding box shared by :meth:`fit` and
        :meth:`fit_union`: float64, 1-D, congruent, finite, ``hi >= lo``."""
        lo = np.asarray(lo, dtype=np.float64)
        hi = np.asarray(hi, dtype=np.float64)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise InvalidParameterError("grid bounds must be 1-D and congruent")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise InvalidParameterError(
                "grid bounds contain NaN or infinite values; cell counts "
                "would be undefined"
            )
        if np.any(hi < lo):
            raise InvalidParameterError("grid requires hi >= lo in every dimension")
        return lo, hi

    @classmethod
    def fit(
        cls,
        points: np.ndarray,
        eps: float,
        lo: Optional[np.ndarray] = None,
        hi: Optional[np.ndarray] = None,
    ) -> "Grid":
        """Build a grid covering ``points`` (or an explicit bounding box).

        An empty relation yields a degenerate single-cell grid at the
        origin, so building a tree over zero points is well defined.
        """
        points = np.asarray(points, dtype=np.float64)
        if len(points) == 0:
            zeros = np.zeros(points.shape[1] if points.ndim == 2 else 1)
            lo = zeros if lo is None else lo
            hi = zeros.copy() if hi is None else hi
        else:
            lo = points.min(axis=0) if lo is None else lo
            hi = points.max(axis=0) if hi is None else hi
        lo, hi = cls._validated_bounds(lo, hi)
        span = hi - lo
        with np.errstate(over="ignore"):  # span / eps past float64: capped
            cells = np.floor(span / float(eps))
        n_cells = np.clip(cells, 1, _MAX_CELLS).astype(np.int64)
        return cls(lo=lo, hi=hi, eps=float(eps), n_cells=n_cells)

    @classmethod
    def fit_union(cls, first: np.ndarray, second: np.ndarray, eps: float) -> "Grid":
        """Grid covering the union of two point sets, without copying them."""
        first = np.asarray(first, dtype=np.float64)
        second = np.asarray(second, dtype=np.float64)
        lo, hi = cls._validated_bounds(
            np.minimum(first.min(axis=0), second.min(axis=0)),
            np.maximum(first.max(axis=0), second.max(axis=0)),
        )
        return cls.fit(first, eps, lo=lo, hi=hi)

    @property
    def dims(self) -> int:
        return int(self.lo.shape[0])

    def cell_of(self, values: np.ndarray, dim: int) -> np.ndarray:
        """Cell indices along ``dim`` for an array of coordinate values."""
        cells = np.floor((np.asarray(values) - self.lo[dim]) / self.eps)
        return np.clip(cells, 0, self.n_cells[dim] - 1).astype(np.int64)

    def cell_of_scalar(self, value: float, dim: int) -> int:
        """Cell index along ``dim`` for one coordinate value."""
        cell = int((value - self.lo[dim]) // self.eps)
        return min(max(cell, 0), int(self.n_cells[dim]) - 1)

    def validate(self, points: np.ndarray, name: str = "points") -> None:
        """Raise :class:`DomainError` if any point lies outside the box.

        A tree's grid must cover the points it indexes (its cascade plan
        and store scale come from the box).  Queries need no such check:
        :meth:`cell_of` clips them into the edge cells, which are at
        least one band wide, so adjacency stays exact for them.
        """
        if np.any(points < self.lo) or np.any(points > self.hi):
            raise DomainError(
                f"{name} fall outside the grid domain; fit the grid over "
                "every point the tree indexes (Grid.fit or Grid.fit_union)"
            )


class LeafNode:
    """A leaf: an index array into the tree's point set.

    ``level`` is the split-order position the leaf would split on next.
    """

    __slots__ = ("indices", "level")

    def __init__(self, indices: np.ndarray, level: int):
        self.indices = np.asarray(indices, dtype=np.int64)
        self.level = level

    @property
    def size(self) -> int:
        return int(len(self.indices))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<LeafNode size={self.size} level={self.level}>"


class InternalNode:
    """An internal node: a sparse map from cell index to child node."""

    __slots__ = ("split_dim", "level", "children")

    def __init__(self, split_dim: int, level: int):
        self.split_dim = split_dim
        self.level = level
        self.children: Dict[int, Union["InternalNode", LeafNode]] = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<InternalNode dim={self.split_dim} level={self.level} "
            f"children={len(self.children)}>"
        )


Node = Union[InternalNode, LeafNode]


@dataclass
class TreeDescription:
    """Structural summary used by tests, analysis and the CLI."""

    points: int
    dims: int
    internal_nodes: int
    leaves: int
    max_depth: int
    max_leaf_size: int
    split_dims_used: int


class EpsilonKdbTree:
    """The pointer epsilon-kdB tree over one point set.

    Build either in bulk (:meth:`build`) or incrementally (:meth:`empty`
    + :meth:`insert`, the on-the-fly mode the paper describes for
    streaming a file).  Leaves hold unsorted index arrays; nothing joins
    or queries this tree (see
    :class:`~repro.core.flat_build.FlatEpsilonKdbTree`).
    """

    def __init__(self, points: np.ndarray, spec: JoinSpec, grid: Grid):
        self.points = points
        self.spec = spec
        self.grid = grid
        self.split_order = spec.resolved_split_order(points.shape[1])
        # Split-order positions whose dimension actually has > 1 cell;
        # splitting a single-cell dimension would recurse without
        # partitioning anything.
        self._usable_levels = [
            level
            for level, dim in enumerate(self.split_order)
            if grid.n_cells[dim] > 1
        ]
        self.root: Node = LeafNode(np.empty(0, dtype=np.int64), level=0)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        points: np.ndarray,
        spec: JoinSpec,
        grid: Optional[Grid] = None,
    ) -> "EpsilonKdbTree":
        """Bulk-build a tree over ``points`` (validated, not copied)."""
        points = validate_points(points)
        if grid is None:
            grid = Grid.fit(points, spec.band_width)
        else:
            grid.validate(points)
        tree = cls(points, spec, grid)
        tree.root = tree._bulk(np.arange(len(points), dtype=np.int64), level=0)
        return tree

    @classmethod
    def empty(
        cls,
        points: np.ndarray,
        spec: JoinSpec,
        grid: Optional[Grid] = None,
    ) -> "EpsilonKdbTree":
        """Create an empty tree over a point array for incremental insert.

        ``points`` is the backing store; :meth:`insert` adds points by
        index, which mirrors reading a file one record at a time.
        """
        points = validate_points(points)
        if grid is None:
            grid = Grid.fit(points, spec.band_width)
        else:
            grid.validate(points)
        return cls(points, spec, grid)

    def _next_usable_level(self, level: int) -> Optional[int]:
        """First split-order position >= ``level`` with a splittable dim."""
        for usable in self._usable_levels:
            if usable >= level:
                return usable
        return None

    def _bulk(self, indices: np.ndarray, level: int) -> Node:
        split_level = self._next_usable_level(level)
        if split_level is None or len(indices) <= self.spec.leaf_size:
            return LeafNode(indices, level=level)
        dim = int(self.split_order[split_level])
        node = InternalNode(split_dim=dim, level=split_level)
        cells = self.grid.cell_of(self.points[indices, dim], dim)
        order = np.argsort(cells, kind="stable")
        sorted_cells = cells[order]
        sorted_indices = indices[order]
        boundaries = np.flatnonzero(np.diff(sorted_cells)) + 1
        starts = np.concatenate([[0], boundaries])
        stops = np.concatenate([boundaries, [len(sorted_cells)]])
        for start, stop in zip(starts, stops):
            cell = int(sorted_cells[start])
            node.children[cell] = self._bulk(
                sorted_indices[start:stop], split_level + 1
            )
        return node

    def insert(self, index: int) -> None:
        """Insert one point (by index into the backing array).

        Descends to the target leaf, appends, and splits the leaf when it
        exceeds ``leaf_size`` and a splittable dimension remains.
        """
        point = self.points[index]
        node = self.root
        parent: Optional[InternalNode] = None
        parent_cell = 0
        while isinstance(node, InternalNode):
            cell = self.grid.cell_of_scalar(point[node.split_dim], node.split_dim)
            child = node.children.get(cell)
            if child is None:
                child = LeafNode(np.empty(0, dtype=np.int64), level=node.level + 1)
                node.children[cell] = child
            parent, parent_cell = node, cell
            node = child
        leaf = node
        leaf.indices = np.append(leaf.indices, np.int64(index))
        if leaf.size > self.spec.leaf_size:
            replacement = self._split_leaf(leaf)
            if replacement is not leaf:
                if parent is None:
                    self.root = replacement
                else:
                    parent.children[parent_cell] = replacement

    def _split_leaf(self, leaf: LeafNode) -> Node:
        split_level = self._next_usable_level(leaf.level)
        if split_level is None:
            return leaf  # no splittable dimension left; leaf may exceed the cap
        dim = int(self.split_order[split_level])
        node = InternalNode(split_dim=dim, level=split_level)
        cells = self.grid.cell_of(self.points[leaf.indices, dim], dim)
        for cell in np.unique(cells):
            node.children[int(cell)] = LeafNode(
                leaf.indices[cells == cell], level=split_level + 1
            )
        return node

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def iter_leaves(self) -> Iterator[LeafNode]:
        """Yield every leaf in depth-first order."""
        stack: List[Node] = [self.root]
        while stack:
            node = stack.pop()
            if isinstance(node, LeafNode):
                yield node
            else:
                stack.extend(node.children.values())

    def describe(self) -> TreeDescription:
        """Return a structural summary of the tree."""
        internal = 0
        leaves = 0
        max_depth = 0
        max_leaf = 0
        split_dims = set()
        total = 0
        stack: List[Node] = [self.root]
        depths: Dict[int, int] = {id(self.root): 0}
        while stack:
            node = stack.pop()
            depth = depths.pop(id(node))
            max_depth = max(max_depth, depth)
            if isinstance(node, LeafNode):
                leaves += 1
                max_leaf = max(max_leaf, node.size)
                total += node.size
            else:
                internal += 1
                split_dims.add(node.split_dim)
                for child in node.children.values():
                    stack.append(child)
                    depths[id(child)] = depth + 1
        return TreeDescription(
            points=total,
            dims=self.points.shape[1],
            internal_nodes=internal,
            leaves=leaves,
            max_depth=max_depth,
            max_leaf_size=max_leaf,
            split_dims_used=len(split_dims),
        )

    def __len__(self) -> int:
        return sum(leaf.size for leaf in self.iter_leaves())
