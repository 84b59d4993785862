"""Index-nested-loop similarity join.

The third classical join strategy besides synchronized tree traversal
and sort-merge: build an index over one relation (S) and issue one range
query per point of the other (R).  Costs roughly
``build(S) + |R| * query(S)``, so it wins when R is much smaller than S
and loses to the synchronized traversals as the sides even out — the
crossover experiment E13 measures exactly that.

Either index family can drive it: the epsilon-kdB tree (default; its
queries are valid for any radius up to the build epsilon) or the
R+-tree.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from repro.core.config import JoinSpec, validate_point_sets
from repro.core.epsilon_kdb import EpsilonKdbTree
from repro.core.result import JoinResult, JoinStats, PairCollector, PairSink
from repro.errors import InvalidParameterError

INDEX_CHOICES = ("epsilon-kdb", "rplus")


def index_nested_loop_join(
    points_r: np.ndarray,
    points_s: np.ndarray,
    spec: JoinSpec,
    sink: Optional[PairSink] = None,
    index: str = "epsilon-kdb",
) -> JoinResult:
    """Two-set join by probing an index over S once per point of R.

    Emits ``(r_index, s_index)`` pairs, like every other two-set join.
    ``index`` selects the probed structure: ``"epsilon-kdb"`` or
    ``"rplus"``.
    """
    points_r, points_s = validate_point_sets(points_r, points_s)
    if index not in INDEX_CHOICES:
        raise InvalidParameterError(
            f"index must be one of {INDEX_CHOICES}, got {index!r}"
        )
    collect = sink is None
    if collect:
        sink = PairCollector()
    stats = JoinStats()
    result = JoinResult(stats=stats)
    if len(points_r) == 0 or len(points_s) == 0:
        return result

    started = time.perf_counter()
    if index == "epsilon-kdb":
        # The probe points may lie outside S's bounding box; tree range
        # queries handle that (clamped cells stay exact).
        tree = EpsilonKdbTree.build(points_s, spec)

        def query(point):
            return tree.range_query(point)

    else:
        from repro.baselines.rplus_tree import RPlusTree

        rplus = RPlusTree.bulk_load(points_s)

        def query(point):
            return rplus.range_query(point, spec.epsilon, spec.metric)

    built = time.perf_counter()
    # Note: the probed index does its candidate filtering internally and
    # does not surface a candidate count, so ``distance_computations``
    # stays zero for this algorithm; ``node_pairs_visited`` counts probes.
    for r_index, point in enumerate(points_r):
        stats.node_pairs_visited += 1
        hits = query(point)
        if len(hits):
            sink.emit(np.full(len(hits), r_index, dtype=np.int64), hits)
            stats.pairs_emitted += int(len(hits))
    finished = time.perf_counter()
    result.build_seconds = built - started
    result.join_seconds = finished - built
    result.stats.pairs_emitted = sink.count
    if collect:
        result.pairs = sink.sorted_pairs()
    return result
