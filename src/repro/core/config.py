"""Join configuration.

:class:`JoinSpec` gathers every knob of the epsilon-kdB join so the tree
builder, the traversal and the external-memory driver agree on one
validated parameter set.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigError, InvalidParameterError
from repro.metrics import LpMetric, Metric, WeightedLpMetric, get_metric

#: Default leaf split threshold; the paper reports a broad flat optimum,
#: which experiment E4 reproduces.
DEFAULT_LEAF_SIZE = 128

#: ``cascade="auto"`` engages the filter-cascade kernels from this
#: dimensionality up.  E16 measures the cascade faster than the
#: monolithic kernel from d=4; at d=2-3 the two join within about 10%.
CASCADE_AUTO_MIN_DIMS = 4

#: Floor of the auto-selected delta-buffer compaction threshold; below
#: this the probe joins are so cheap that compacting is pure overhead.
MIN_DELTA_THRESHOLD = 256

#: Default bucket-count exponent of the streaming join-size sketch
#: (``2**12`` = 4096 buckets, 32 KiB of int64 counters).
DEFAULT_SKETCH_BITS = 12


@dataclass
class JoinSpec:
    """Validated parameters of one similarity join.

    Attributes:
        epsilon: the distance threshold of the join predicate
            ``dist(x, y) <= epsilon``; must be positive.
        metric: any value accepted by :func:`repro.metrics.get_metric`.
        leaf_size: a leaf of the epsilon-kdB tree splits once it holds
            more than this many points (and unsplit dimensions remain).
        split_order: the order in which dimensions are used for
            splitting; ``None`` means natural order ``0, 1, ..., d-1``.
            Experiment E10 uses this to ablate *biased* splitting
            (split the most spread-out dimensions first).
        sort_dim: dimension used for the leaf-level sort-merge sweep;
            ``None`` picks the last dimension in ``split_order``, which
            is the dimension least likely to have been split.
        adjacency_pruning: when ``False`` the traversal joins *every*
            pair of children instead of only adjacent cells.  Only the
            E10 ablation turns this off; results are identical, work is
            not.
        n_workers: process count for the parallel executor; ``None``
            means "decide at run time" (all available cores), ``1``
            forces the serial path.  Ignored by the serial entry points.
        task_timeout: per-stripe-task deadline in seconds for the
            parallel executor; a task attempt exceeding it is counted in
            ``JoinStats.tasks_timed_out`` and re-dispatched.  ``None``
            (the default) disables deadlines.
        max_task_retries: how many times a failed or timed-out stripe
            task is re-dispatched to the pool before the executor runs
            it one final time in the parent process.  ``0`` still allows
            that final in-parent attempt.
        cascade: ``"auto"`` (default) engages the filter-cascade
            distance kernels of :mod:`repro.core.kernels` when the
            dimensionality is at least ``CASCADE_AUTO_MIN_DIMS`` and the
            metric supports them; ``"on"`` forces them for any ``d >= 2``;
            ``"off"`` always uses the monolithic full-row kernel.  The
            cascade never changes the result, only the work per
            candidate.
        filter_dims: number of cheap single-dimension pre-filter stages
            the cascade runs before the blocked short-circuit reduction;
            ``None`` (like ``0``) runs the blocked reduction only, which
            measured fastest on clustered and correlated data at d = 4
            to 32.
        delta_threshold: live delta-buffer rows at which an
            :class:`~repro.core.incremental.IncrementalJoin` session
            compacts automatically.  ``None`` (default) scales with the
            base structure: ``max(MIN_DELTA_THRESHOLD, base_size // 8)``.
            Ignored by the batch entry points.
        sketch_bits: bucket-count exponent of the session's streaming
            join-size sketch (``2**sketch_bits`` buckets); larger values
            reduce hash-collision bias at a linear memory cost.
        persist_path: directory an
            :class:`~repro.core.incremental.IncrementalJoin` session
            journals and snapshots itself into (see docs/persistence.md).
            ``None`` (default) keeps the session memory-only.  Ignored
            by the batch entry points.
        sync_mode: fsync policy of the persisted session's write-ahead
            log: ``"always"`` (fsync per update batch — every
            acknowledged update survives a crash), ``"batch"`` (default;
            flush per batch, fsync at snapshot boundaries and close) or
            ``"off"`` (never fsync; fastest, weakest).  Only meaningful
            with ``persist_path``.
        admission_threshold: sketch-estimated join size above which an
            :class:`~repro.core.incremental.IncrementalJoin` *refuses*
            an insert batch with
            :class:`~repro.errors.AdmissionError` (before journaling or
            mutating anything).  The check uses the session's one-pass
            join-size sketch: add the batch, estimate, remove the batch
            — exact on the sketch's integer counters, so a refused batch
            leaves no trace.  ``None`` (default) disables admission
            control.  A runtime knob: not part of the persisted
            structural fingerprint, and replayed WAL records bypass it
            (they were admitted when first applied).
        keep_generations: how many snapshot generations a persisted
            session retains when it publishes a new one (older
            generations are pruned).  More generations widen the
            corruption-fallback window at a linear disk cost; the
            minimum of 1 keeps only the newest.  A runtime knob, free to
            differ across re-opens of the same session.
        engine: which execution strategy runs the join: ``"auto"``
            (default — the cost-based planner in :mod:`repro.planner`
            scores serial against parallel with the calibrated host
            profile and picks the cheaper), or a pinned ``"serial"``,
            ``"parallel"`` or ``"external"`` (the last runs
            unplanned).  Every strategy emits byte-identical pairs, so
            this is a pure runtime knob excluded from the structural
            fingerprint.
    """

    epsilon: float
    metric: Union[str, float, Metric] = "l2"
    leaf_size: int = DEFAULT_LEAF_SIZE
    split_order: Optional[Sequence[int]] = None
    sort_dim: Optional[int] = None
    adjacency_pruning: bool = True
    n_workers: Optional[int] = None
    task_timeout: Optional[float] = None
    max_task_retries: int = 2
    cascade: str = "auto"
    filter_dims: Optional[int] = None
    delta_threshold: Optional[int] = None
    sketch_bits: int = DEFAULT_SKETCH_BITS
    persist_path: Optional[str] = None
    sync_mode: str = "batch"
    admission_threshold: Optional[float] = None
    keep_generations: int = 2
    engine: str = "auto"

    def __post_init__(self) -> None:
        if not np.isfinite(self.epsilon) or self.epsilon <= 0:
            raise InvalidParameterError(
                f"epsilon must be a positive finite number, got {self.epsilon!r}"
            )
        self.epsilon = float(self.epsilon)
        self.metric = get_metric(self.metric)
        if int(self.leaf_size) < 1:
            raise InvalidParameterError(
                f"leaf_size must be >= 1, got {self.leaf_size!r}"
            )
        self.leaf_size = int(self.leaf_size)
        if self.n_workers is not None:
            if int(self.n_workers) < 1:
                raise InvalidParameterError(
                    f"n_workers must be >= 1, got {self.n_workers!r}"
                )
            self.n_workers = int(self.n_workers)
        if self.task_timeout is not None:
            timeout = float(self.task_timeout)
            if not np.isfinite(timeout) or timeout <= 0:
                raise InvalidParameterError(
                    "task_timeout must be a positive finite number of "
                    f"seconds, got {self.task_timeout!r}"
                )
            self.task_timeout = timeout
        if int(self.max_task_retries) < 0:
            raise InvalidParameterError(
                f"max_task_retries must be >= 0, got {self.max_task_retries!r}"
            )
        self.max_task_retries = int(self.max_task_retries)
        if self.cascade not in ("auto", "on", "off"):
            raise InvalidParameterError(
                f'cascade must be "auto", "on" or "off", got {self.cascade!r}'
            )
        if self.filter_dims is not None:
            if int(self.filter_dims) < 0:
                raise InvalidParameterError(
                    f"filter_dims must be >= 0, got {self.filter_dims!r}"
                )
            self.filter_dims = int(self.filter_dims)
        if self.delta_threshold is not None:
            if int(self.delta_threshold) < 1:
                raise InvalidParameterError(
                    f"delta_threshold must be >= 1, got {self.delta_threshold!r}"
                )
            self.delta_threshold = int(self.delta_threshold)
        if not 4 <= int(self.sketch_bits) <= 24:
            raise InvalidParameterError(
                f"sketch_bits must be in [4, 24], got {self.sketch_bits!r}"
            )
        self.sketch_bits = int(self.sketch_bits)
        if self.persist_path is not None:
            self.persist_path = str(self.persist_path)
        if self.sync_mode not in ("always", "batch", "off"):
            raise InvalidParameterError(
                f'sync_mode must be "always", "batch" or "off", '
                f"got {self.sync_mode!r}"
            )
        if self.admission_threshold is not None:
            threshold = float(self.admission_threshold)
            if not np.isfinite(threshold) or threshold < 0:
                raise InvalidParameterError(
                    "admission_threshold must be a non-negative finite "
                    f"number, got {self.admission_threshold!r}"
                )
            self.admission_threshold = threshold
        if int(self.keep_generations) < 1:
            raise InvalidParameterError(
                f"keep_generations must be >= 1, got {self.keep_generations!r}"
            )
        self.keep_generations = int(self.keep_generations)
        if self.engine not in ("auto", "serial", "parallel", "external"):
            raise ConfigError(
                f"unknown engine {self.engine!r}: valid values are 'auto', "
                "'serial', 'parallel', 'external'"
            )

    def structural_dict(self) -> Dict[str, Any]:
        """The result-shaping parameters as JSON-ready data.

        This is what a persisted session stores as its spec fingerprint:
        everything that determines *which pairs* a join emits and how
        the structure partitions — but not the runtime knobs
        (``n_workers``, ``task_timeout``, ``persist_path``, ``sync_mode``
        and friends), which a re-opened session may freely change.
        Raises for metrics without a stable serialization (custom
        :class:`~repro.metrics.Metric` subclasses).
        """
        metric = self.metric
        if isinstance(metric, WeightedLpMetric):
            metric_data: Dict[str, Any] = {
                "kind": "weighted",
                "p": metric.p,
                "weights": [float(w) for w in metric.weights],
            }
        elif isinstance(metric, LpMetric):
            metric_data = {"kind": "lp", "p": metric.p}
        elif metric.name == "linf":
            metric_data = {"kind": "named", "name": "linf"}
        else:
            raise InvalidParameterError(
                f"metric {metric.name!r} has no stable serialization; "
                "persisted sessions support the L_p family only"
            )
        return {
            "epsilon": self.epsilon,
            "metric": metric_data,
            "leaf_size": self.leaf_size,
            "split_order": (
                None
                if self.split_order is None
                else [int(d) for d in self.split_order]
            ),
            "sort_dim": self.sort_dim,
            "adjacency_pruning": bool(self.adjacency_pruning),
            "cascade": self.cascade,
            "filter_dims": self.filter_dims,
            "delta_threshold": self.delta_threshold,
            "sketch_bits": self.sketch_bits,
        }

    def fingerprint(self) -> str:
        """Content hash of :meth:`structural_dict` (the persisted identity)."""
        blob = json.dumps(self.structural_dict(), sort_keys=True).encode("utf-8")
        return hashlib.blake2b(blob, digest_size=16).hexdigest()

    @classmethod
    def from_structural_dict(cls, data: Dict[str, Any], **runtime) -> "JoinSpec":
        """Rebuild a spec from :meth:`structural_dict` output.

        ``runtime`` supplies the non-structural knobs (``persist_path``,
        ``sync_mode``, ``n_workers``, ...) the caller wants on the
        rebuilt spec.  A ``"build"`` key, which older snapshots carry
        from the since-removed tree-build selector, is ignored.
        """
        metric_data = data["metric"]
        kind = metric_data.get("kind")
        if kind == "weighted":
            metric: Union[str, float, Metric] = WeightedLpMetric(
                metric_data["p"], np.asarray(metric_data["weights"])
            )
        elif kind == "lp":
            metric = get_metric(metric_data["p"])
        elif kind == "named":
            metric = get_metric(metric_data["name"])
        else:
            raise InvalidParameterError(
                f"unknown serialized metric kind {kind!r}"
            )
        return cls(
            epsilon=data["epsilon"],
            metric=metric,
            leaf_size=data["leaf_size"],
            split_order=data["split_order"],
            sort_dim=data["sort_dim"],
            adjacency_pruning=data["adjacency_pruning"],
            cascade=data["cascade"],
            filter_dims=data["filter_dims"],
            delta_threshold=data["delta_threshold"],
            sketch_bits=data["sketch_bits"],
            **runtime,
        )

    def resolved_delta_threshold(self, base_size: int) -> int:
        """Delta-buffer size that triggers compaction, given the base size.

        The auto heuristic keeps the delta a small fraction of the base
        so probe joins stay cheap relative to a rebuild, with a floor so
        tiny sessions are not compacting after every batch.
        """
        if self.delta_threshold is not None:
            return self.delta_threshold
        return max(MIN_DELTA_THRESHOLD, int(base_size) // 8)

    @property
    def band_width(self) -> float:
        """Per-coordinate pruning width implied by the metric.

        Grid cells, band sweeps and stripes all filter one coordinate at
        a time; this is the width they must use so that no qualifying
        pair is pruned.  Equals ``epsilon`` for unweighted L_p metrics
        and ``metric.coordinate_bound(epsilon)`` in general (weighted
        metrics with small weights allow larger per-coordinate gaps).
        """
        return self.metric.coordinate_bound(self.epsilon)

    def cascade_enabled(self, dims: int) -> bool:
        """Whether the filter-cascade kernels run for ``dims``-dim data.

        ``"off"`` (or a metric without block-wise accumulation) always
        disables; ``"on"`` forces the cascade whenever there is more than
        one dimension to cascade over; ``"auto"`` requires
        ``dims >= CASCADE_AUTO_MIN_DIMS``, below which the two kernels
        join in about the same time.
        """
        if self.cascade == "off":
            return False
        if not getattr(self.metric, "supports_cascade", False):
            return False
        if dims < 2:
            return False
        if self.cascade == "on":
            return True
        return dims >= CASCADE_AUTO_MIN_DIMS

    def resolved_filter_dims(self, dims: int) -> int:
        """Effective pre-filter stage count for ``dims``-dimensional data.

        Always leaves at least one dimension to the reduction stage so
        the stage structure is well defined for any ``dims >= 2``.  The
        default is none: a two-column reduction block prunes about as
        early as a pre-filter and, where one coordinate alone rejects
        few rows, compacts half as often.
        """
        if self.filter_dims is None:
            return 0
        return min(self.filter_dims, dims - 1)

    def resolved_split_order(self, dims: int) -> np.ndarray:
        """Return the split order as a validated permutation of ``range(dims)``."""
        if self.split_order is None:
            return np.arange(dims)
        order = np.asarray(self.split_order, dtype=np.int64)
        if sorted(order.tolist()) != list(range(dims)):
            raise InvalidParameterError(
                f"split_order must be a permutation of range({dims}), "
                f"got {list(order)}"
            )
        return order

    def resolved_sort_dim(self, dims: int) -> int:
        """Return the leaf sort-merge dimension for ``dims``-dimensional data."""
        if self.sort_dim is None:
            return int(self.resolved_split_order(dims)[-1])
        sort_dim = int(self.sort_dim)
        if not 0 <= sort_dim < dims:
            raise InvalidParameterError(
                f"sort_dim must be in [0, {dims}), got {sort_dim}"
            )
        return sort_dim


def validate_points(points: np.ndarray, name: str = "points") -> np.ndarray:
    """Coerce a points argument to a 2-D float64 array and validate it."""
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim != 2:
        raise InvalidParameterError(
            f"{name} must be a 2-D (n, d) array, got shape {arr.shape}"
        )
    if arr.shape[1] == 0:
        raise InvalidParameterError(f"{name} must have at least one dimension")
    if not np.isfinite(arr).all():
        raise InvalidParameterError(f"{name} contains NaN or infinite values")
    return arr


def validate_point_sets(
    points_r: np.ndarray, points_s: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Validate both sides of a two-set join; they must share ``d``."""
    points_r = validate_points(points_r, "points_r")
    points_s = validate_points(points_s, "points_s")
    if points_r.shape[1] != points_s.shape[1]:
        raise InvalidParameterError(
            "both sides of a join must have the same dimensionality: "
            f"{points_r.shape[1]} != {points_s.shape[1]}"
        )
    return points_r, points_s
