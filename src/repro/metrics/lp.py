"""L_p distance kernels.

Three evaluation shapes are provided by every metric:

* ``pair(x, y)`` — scalar distance between two points.
* ``within_rows(X, Y, i, j, eps)`` — boolean mask for gathered row pairs
  ``(X[i[k]], Y[j[k]])``; this is the hot path of the vectorized leaf
  sort-merge joins.
* ``within_block(A, B, eps)`` — dense ``(m, n)`` boolean matrix; used by
  the blocked brute-force baseline.

All comparisons against ``eps`` are inclusive (``distance <= eps``), which
matches the join predicate of the paper.  For L2 the kernels compare
squared quantities so no square roots are taken on the hot path.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.errors import InvalidParameterError

#: Rows processed per chunk in ``within_rows``; bounds peak memory of the
#: gathered coordinate blocks at roughly ``2 * CHUNK * d`` floats.
_ROW_CHUNK = 262_144


class Metric:
    """Abstract base class for distance metrics.

    Subclasses implement :meth:`_reduce_abs_diff`, which folds an array of
    absolute coordinate differences (last axis = dimension) into a
    comparable "distance key", and expose :meth:`key` which maps an
    ``eps`` threshold into the same key space.  Distances are then
    compared as ``reduced <= key(eps)``.
    """

    #: Human-readable name; also the lookup key for :func:`get_metric`.
    name: str = "abstract"

    #: Whether :meth:`accumulate_abs_diff` is implemented, i.e. the
    #: distance key can be built up over dimension blocks in any order.
    #: The filter-cascade kernels (:mod:`repro.core.kernels`) only engage
    #: for metrics that set this.
    supports_cascade: bool = False

    #: Whether the key folds each coordinate difference only by squaring
    #: it, so :meth:`accumulate_abs_column` gives the same bits for the
    #: signed difference ``x - y`` as for ``|x - y|``.
    squared_key: bool = False

    def _reduce_abs_diff(self, diff: np.ndarray) -> np.ndarray:
        """Fold ``|x - y|`` along the last axis into a distance key."""
        raise NotImplementedError

    def accumulate_abs_diff(
        self, acc: np.ndarray, diff_block: np.ndarray, dims: Sequence[int]
    ) -> np.ndarray:
        """Fold a block of ``|x - y|`` columns into a running distance key.

        ``acc`` is the per-row partial key so far (``0`` for an empty
        prefix), ``diff_block`` is ``(m, b)`` absolute differences for the
        original dimensions ``dims`` (needed by weighted metrics), and the
        return value is the updated ``(m,)`` partial key.  Because every
        L_p key is a dimension-wise sum (or max), partial keys are
        monotonically non-decreasing — the property the short-circuit
        kernels rely on to drop rows early.
        """
        raise NotImplementedError

    def accumulate_abs_column(
        self, acc: Optional[np.ndarray], diff: np.ndarray, dim: int
    ) -> np.ndarray:
        """Fold one ``(m,)`` column of ``|x - y|`` (dimension ``dim``) into ``acc``.

        The single-column case of :meth:`accumulate_abs_diff`, for the
        column-at-a-time cascade; ``acc=None`` starts a key from this
        column alone.  Implementations may update ``acc`` and ``diff``
        in place; callers pass arrays they own.
        """
        if acc is None:
            acc = np.zeros(len(diff), dtype=diff.dtype)
        return self.accumulate_abs_diff(acc, diff[:, None], (dim,))

    def accumulate_abs_pair(
        self, acc: Optional[np.ndarray], gaps: np.ndarray, dims: Sequence[int]
    ) -> np.ndarray:
        """Fold two interleaved ``|x - y|`` columns into ``acc``.

        ``gaps`` is ``(2m,)``, element ``2i + c`` being row ``i`` of
        dimension ``dims[c]``: a paired store's values as the cascade
        kernels read them.  Same contract as :meth:`accumulate_abs_column`;
        the fast overrides transform ``gaps`` whole, in place, before
        combining its two halves.
        """
        for comp, dim in enumerate(dims):
            acc = self.accumulate_abs_column(acc, gaps[comp::2], dim)
        return acc

    def key(self, eps: float) -> float:
        """Map a distance threshold into the reduced key space."""
        raise NotImplementedError

    def unkey(self, key_value: float) -> float:
        """Inverse of :meth:`key`; maps a key back to a distance."""
        raise NotImplementedError

    def coordinate_bound(self, eps: float) -> float:
        """Largest single-coordinate difference a pair within ``eps`` can have.

        Every pruning structure in the library (grid cells, band sweeps,
        stripes) filters on one coordinate at a time; this bound is the
        width they must use.  For unweighted L_p metrics it is ``eps``
        itself; a weighted metric with a coordinate weight below 1 allows
        larger per-coordinate differences and must report them here, or
        the adjacent-cell rule would silently drop pairs.
        """
        return float(eps)

    def prune_radius(self, eps: float, error: float, dims: int) -> float:
        """Largest distance a pair within ``eps`` can show once each of
        its ``dims`` coordinate gaps is off by at most ``error``.

        By Minkowski's inequality this is ``eps`` plus the norm of the
        all-``error`` vector, ``error`` times the norm of the all-ones
        one (taken that way round so a tiny ``error`` cannot underflow):
        ``d**(1/p) * error`` for L_p, ``error`` for L_inf,
        ``(sum w)**(1/p) * error`` for weighted L_p.  The cascade kernels
        fold their certified rounding margin into their prune key with it.
        """
        ones = float(self._reduce_abs_diff(np.ones((1, dims)))[0])
        return float(eps) + float(error) * self.unkey(ones)

    # ------------------------------------------------------------------
    # public evaluation shapes
    # ------------------------------------------------------------------
    def pair(self, x: np.ndarray, y: np.ndarray) -> float:
        """Distance between two points given as 1-D arrays."""
        diff = np.abs(np.asarray(x, dtype=float) - np.asarray(y, dtype=float))
        return self.unkey(float(self._reduce_abs_diff(diff)))

    def within_pair(self, x: np.ndarray, y: np.ndarray, eps: float) -> bool:
        """Whether two points are within ``eps`` of each other."""
        diff = np.abs(np.asarray(x, dtype=float) - np.asarray(y, dtype=float))
        return bool(self._reduce_abs_diff(diff) <= self.key(eps))

    def within_rows(
        self,
        points_a: np.ndarray,
        points_b: np.ndarray,
        rows_a: np.ndarray,
        rows_b: np.ndarray,
        eps: float,
    ) -> np.ndarray:
        """Boolean mask: ``dist(points_a[rows_a[k]], points_b[rows_b[k]]) <= eps``.

        Evaluates in fixed-size chunks so candidate lists of arbitrary
        length never materialize more than ``_ROW_CHUNK`` gathered rows.
        """
        rows_a = np.asarray(rows_a)
        rows_b = np.asarray(rows_b)
        n = rows_a.shape[0]
        if rows_b.shape[0] != n:
            raise InvalidParameterError(
                "row index arrays must have equal length: "
                f"{n} != {rows_b.shape[0]}"
            )
        threshold = self.key(eps)
        out = np.empty(n, dtype=bool)
        for start in range(0, n, _ROW_CHUNK):
            stop = min(start + _ROW_CHUNK, n)
            diff = np.abs(
                points_a[rows_a[start:stop]] - points_b[rows_b[start:stop]]
            )
            out[start:stop] = self._reduce_abs_diff(diff) <= threshold
        return out

    def within_block(
        self, block_a: np.ndarray, block_b: np.ndarray, eps: float
    ) -> np.ndarray:
        """Dense ``(m, n)`` mask of pairs within ``eps``.

        ``block_a`` is ``(m, d)`` and ``block_b`` is ``(n, d)``.  Callers
        are responsible for keeping ``m * n`` modest; the brute-force
        baseline tiles its input accordingly.
        """
        diff = np.abs(block_a[:, None, :] - block_b[None, :, :])
        return self._reduce_abs_diff(diff) <= self.key(eps)

    def within_gap(self, gaps: np.ndarray, eps: float) -> np.ndarray:
        """Whether per-coordinate gap vectors are within ``eps``.

        ``gaps`` holds non-negative per-dimension separations (last axis
        = dimension), e.g. the coordinate-wise distance between two
        bounding boxes.  Returns ``mindist <= eps`` without computing
        roots.  Used by the R-tree join for box-level pruning.
        """
        return self._reduce_abs_diff(np.asarray(gaps)) <= self.key(eps)

    def distance_rows(
        self,
        points_a: np.ndarray,
        points_b: np.ndarray,
        rows_a: np.ndarray,
        rows_b: np.ndarray,
    ) -> np.ndarray:
        """Exact distances for gathered row pairs (used in reporting)."""
        diff = np.abs(points_a[np.asarray(rows_a)] - points_b[np.asarray(rows_b)])
        reduced = self._reduce_abs_diff(diff)
        return np.array([self.unkey(v) for v in np.atleast_1d(reduced)])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Metric {self.name}>"


def _in_place_ok(acc: Optional[np.ndarray], diff: np.ndarray) -> bool:
    """Whether a column can fold into ``acc`` (or start a key) in place
    without a cast."""
    return diff.dtype.kind == "f" and (acc is None or acc.dtype == diff.dtype)


def _fold_pair(acc: Optional[np.ndarray], gaps: np.ndarray, combine) -> np.ndarray:
    """Combine the two interleaved halves of ``gaps`` into ``acc``."""
    pair = combine(gaps[0::2], gaps[1::2])
    if acc is None:
        return pair
    return combine(acc, pair, out=acc)


class LpMetric(Metric):
    """Minkowski metric of order ``p`` for finite ``p >= 1``.

    The reduced key is ``sum(|x_k - y_k| ** p)`` and thresholds are
    compared as ``key <= eps ** p``, avoiding the ``p``-th root on the
    hot path.
    """

    supports_cascade = True

    def __init__(self, p: float):
        if not np.isfinite(p) or p < 1:
            raise InvalidParameterError(
                f"Lp metrics require finite p >= 1, got {p!r}"
            )
        self.p = float(p)
        self.name = f"l{p:g}"
        self.squared_key = self.p == 2.0

    def _reduce_abs_diff(self, diff: np.ndarray) -> np.ndarray:
        if self.p == 1.0:
            return diff.sum(axis=-1)
        if self.p == 2.0:
            # squaring is much faster than a general power
            return np.square(diff).sum(axis=-1)
        return np.power(diff, self.p).sum(axis=-1)

    def accumulate_abs_diff(
        self, acc: np.ndarray, diff_block: np.ndarray, dims: Sequence[int]
    ) -> np.ndarray:
        return acc + self._reduce_abs_diff(diff_block)

    def accumulate_abs_column(
        self, acc: Optional[np.ndarray], diff: np.ndarray, dim: int
    ) -> np.ndarray:
        if not _in_place_ok(acc, diff):
            return super().accumulate_abs_column(acc, diff, dim)
        if self.p == 2.0:
            np.multiply(diff, diff, out=diff)
        elif self.p != 1.0:
            np.power(diff, self.p, out=diff)
        if acc is None:
            return diff
        acc += diff
        return acc

    def accumulate_abs_pair(
        self, acc: Optional[np.ndarray], gaps: np.ndarray, dims: Sequence[int]
    ) -> np.ndarray:
        if not _in_place_ok(acc, gaps):
            return super().accumulate_abs_pair(acc, gaps, dims)
        if self.p == 2.0:
            np.multiply(gaps, gaps, out=gaps)
        elif self.p != 1.0:
            np.power(gaps, self.p, out=gaps)
        return _fold_pair(acc, gaps, np.add)

    def key(self, eps: float) -> float:
        return float(eps) ** self.p

    def unkey(self, key_value: float) -> float:
        return float(key_value) ** (1.0 / self.p)


class ChebyshevMetric(Metric):
    """The L-infinity (maximum-coordinate-difference) metric."""

    name = "linf"
    supports_cascade = True

    def _reduce_abs_diff(self, diff: np.ndarray) -> np.ndarray:
        return diff.max(axis=-1)

    def accumulate_abs_diff(
        self, acc: np.ndarray, diff_block: np.ndarray, dims: Sequence[int]
    ) -> np.ndarray:
        return np.maximum(acc, diff_block.max(axis=-1))

    def accumulate_abs_column(
        self, acc: Optional[np.ndarray], diff: np.ndarray, dim: int
    ) -> np.ndarray:
        if not _in_place_ok(acc, diff):
            return super().accumulate_abs_column(acc, diff, dim)
        if acc is None:
            return diff
        return np.maximum(acc, diff, out=acc)

    def accumulate_abs_pair(
        self, acc: Optional[np.ndarray], gaps: np.ndarray, dims: Sequence[int]
    ) -> np.ndarray:
        if not _in_place_ok(acc, gaps):
            return super().accumulate_abs_pair(acc, gaps, dims)
        return _fold_pair(acc, gaps, np.maximum)

    def key(self, eps: float) -> float:
        return float(eps)

    def unkey(self, key_value: float) -> float:
        return float(key_value)


class WeightedLpMetric(Metric):
    """Weighted Minkowski metric: ``(sum w_k |x_k - y_k|**p) ** (1/p)``.

    The weighted Euclidean distance (``p=2``) is what the
    similar-sequences literature uses to emphasize some feature
    coordinates over others.  All weights must be positive; with
    ``p=inf`` the metric is ``max_k w_k |x_k - y_k|``.

    The per-coordinate pruning bound is ``eps / min(w) ** (1/p)``
    (``eps / min(w)`` for the weighted maximum), which
    :meth:`coordinate_bound` reports so grids and band sweeps stay
    exact even when some weights are below one.
    """

    supports_cascade = True

    def __init__(self, p: float, weights):
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 1 or len(weights) == 0:
            raise InvalidParameterError(
                f"weights must be a non-empty 1-D array, got shape "
                f"{weights.shape}"
            )
        if not np.isfinite(weights).all() or np.any(weights <= 0):
            raise InvalidParameterError("weights must be positive and finite")
        if p != np.inf and (not np.isfinite(p) or p < 1):
            raise InvalidParameterError(
                f"weighted Lp metrics require p >= 1 or inf, got {p!r}"
            )
        self.p = float(p)
        self.squared_key = self.p == 2.0
        self.weights = weights
        self.name = f"weighted-l{p:g}"
        self._weight_cache: dict = {weights.dtype: weights}

    def _weights_as(self, dtype: np.dtype) -> np.ndarray:
        """The weight vector in ``dtype``, so float32 inputs stay float32.

        Multiplying float64 weights into a float32 diff block would
        silently upcast the whole block (doubling its peak memory); the
        cast-once-and-cache here keeps the kernels dtype-preserving.
        Non-float inputs keep the float64 weights (an int diff must
        upcast to hold the weighted key at all).
        """
        if not np.issubdtype(dtype, np.floating):
            return self.weights
        cached = self._weight_cache.get(dtype)
        if cached is None:
            cached = self._weight_cache[dtype] = self.weights.astype(dtype)
        return cached

    def _reduce_abs_diff(self, diff: np.ndarray) -> np.ndarray:
        if diff.shape[-1] != len(self.weights):
            raise InvalidParameterError(
                f"metric has {len(self.weights)} weights but points have "
                f"{diff.shape[-1]} dimensions"
            )
        weights = self._weights_as(diff.dtype)
        if self.p == np.inf:
            return (weights * diff).max(axis=-1)
        if self.p == 2.0:
            return (weights * np.square(diff)).sum(axis=-1)
        return (weights * np.power(diff, self.p)).sum(axis=-1)

    def accumulate_abs_diff(
        self, acc: np.ndarray, diff_block: np.ndarray, dims: Sequence[int]
    ) -> np.ndarray:
        weights = self._weights_as(diff_block.dtype)[np.asarray(dims)]
        if self.p == np.inf:
            return np.maximum(acc, (weights * diff_block).max(axis=-1))
        if self.p == 2.0:
            return acc + (weights * np.square(diff_block)).sum(axis=-1)
        return acc + (weights * np.power(diff_block, self.p)).sum(axis=-1)

    def accumulate_abs_column(
        self, acc: Optional[np.ndarray], diff: np.ndarray, dim: int
    ) -> np.ndarray:
        if not _in_place_ok(acc, diff):
            return super().accumulate_abs_column(acc, diff, dim)
        weight = self._weights_as(diff.dtype)[dim]
        if self.p == 2.0:
            np.multiply(diff, diff, out=diff)
        elif self.p != np.inf:
            np.power(diff, self.p, out=diff)
        np.multiply(diff, weight, out=diff)
        if acc is None:
            return diff
        if self.p == np.inf:
            return np.maximum(acc, diff, out=acc)
        acc += diff
        return acc

    def accumulate_abs_pair(
        self, acc: Optional[np.ndarray], gaps: np.ndarray, dims: Sequence[int]
    ) -> np.ndarray:
        if not _in_place_ok(acc, gaps):
            return super().accumulate_abs_pair(acc, gaps, dims)
        if self.p == 2.0:
            np.multiply(gaps, gaps, out=gaps)
        elif self.p != np.inf:
            np.power(gaps, self.p, out=gaps)
        pairs = gaps.reshape(-1, 2)
        np.multiply(pairs, self._weights_as(gaps.dtype)[list(dims)], out=pairs)
        return _fold_pair(acc, gaps, np.maximum if self.p == np.inf else np.add)

    def key(self, eps: float) -> float:
        if self.p == np.inf:
            return float(eps)
        return float(eps) ** self.p

    def unkey(self, key_value: float) -> float:
        if self.p == np.inf:
            return float(key_value)
        return float(key_value) ** (1.0 / self.p)

    def coordinate_bound(self, eps: float) -> float:
        min_weight = float(self.weights.min())
        if self.p == np.inf:
            return float(eps) / min_weight
        return float(eps) / min_weight ** (1.0 / self.p)


#: Shared singleton instances for the common metrics.
L1 = LpMetric(1)
L2 = LpMetric(2)
LINF = ChebyshevMetric()

_NAMED = {
    "l1": L1,
    "manhattan": L1,
    "l2": L2,
    "euclidean": L2,
    "linf": LINF,
    "chebyshev": LINF,
    "max": LINF,
}


def lp_metric(p: float) -> Metric:
    """Return the L_p metric for ``p`` (``inf`` gives Chebyshev)."""
    if np.isinf(p):
        return LINF
    return LpMetric(p)


def get_metric(metric: Union[str, float, Metric]) -> Metric:
    """Resolve a metric given by name, order ``p`` or instance.

    Accepts the names ``l1``/``manhattan``, ``l2``/``euclidean``,
    ``linf``/``chebyshev``/``max``, a numeric Minkowski order, or an
    existing :class:`Metric` (returned unchanged).
    """
    if isinstance(metric, Metric):
        return metric
    if isinstance(metric, str):
        try:
            return _NAMED[metric.lower()]
        except KeyError:
            raise InvalidParameterError(
                f"unknown metric name {metric!r}; expected one of "
                f"{sorted(_NAMED)}"
            ) from None
    if isinstance(metric, (int, float)):
        return lp_metric(float(metric))
    raise InvalidParameterError(f"cannot interpret {metric!r} as a metric")
