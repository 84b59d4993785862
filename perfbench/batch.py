"""``batch-join``: repeated self-joins through the ``similarity_join`` facade.

Two join shapes over the same points: ``sparse`` at about 1.3 result
pairs per point (the kernel and traversal dominate) and ``dense`` at
about 10 pairs per point (pair emission weighs more).  The join time
against output size is the paper's own evaluation axis.  Storage and
serving do no work here.

Layers on the path: ``planner`` -> ``core.flat_build`` -> ``core.join``
-> ``core.kernels`` -> ``core.result``.
"""

from __future__ import annotations

import hashlib
from typing import Dict

import numpy as np

from common import (
    DIMS, CheckFailed, Samples, draw_points, epsilon_for_output, figure, median,
    op_count, peak_rss_mb, timed,
)

SPARSE_PAIRS_PER_POINT = 1.33
DENSE_PAIRS_PER_POINT = 10.0
#: Points in the brute-force subsample check.
CHECK_SAMPLE = 1500


def _digest(pairs: np.ndarray) -> str:
    return hashlib.blake2b(np.ascontiguousarray(pairs).tobytes(), digest_size=16).hexdigest()


def _set_up(seed: int, n: int, eps: Dict[str, float]):
    from repro import similarity_join

    rng = np.random.default_rng(seed)
    points = draw_points(n, rng)
    similarity_join(points, epsilon=eps["sparse"])  # discarded warm-up
    return points, rng


def _check_subsample(points, pairs, eps, rng) -> None:
    """The join's pairs restricted to a random subsample equal a brute
    force self-join of that subsample."""
    from repro import JoinSpec
    from repro.baselines import brute_force_self_join

    idx = np.sort(rng.choice(len(points), size=min(CHECK_SAMPLE, len(points)), replace=False))
    local = np.full(len(points), -1, dtype=np.int64)
    local[idx] = np.arange(len(idx))
    mapped = local[pairs]
    mapped = mapped[(mapped >= 0).all(axis=1)]
    mapped = mapped[np.lexsort((mapped[:, 1], mapped[:, 0]))]
    expected = brute_force_self_join(points[idx], JoinSpec(epsilon=eps)).pairs
    expected = expected[np.lexsort((expected[:, 1], expected[:, 0]))]
    if not np.array_equal(mapped, expected):
        raise CheckFailed(
            f"subsample of {len(idx)} points: join has {len(mapped)} pairs, "
            f"brute force {len(expected)}"
        )


def run(seed: int, seconds: float, trace: bool, n: int, setups: int, round_s: float) -> Dict:
    """``round_s`` is the nominal cost of one round (three sparse joins
    and one dense join), which sets how many rounds fit in ``seconds``."""
    from repro import similarity_join

    eps = {
        "sparse": epsilon_for_output(n, SPARSE_PAIRS_PER_POINT),
        "dense": epsilon_for_output(n, DENSE_PAIRS_PER_POINT),
    }
    setup_s = []
    for _ in range(setups):
        (points, rng), took = timed(_set_up, seed, n, eps)
        setup_s.append(took)

    counts = {"attempted": 0, "failed": 0}
    digests: Dict[str, str] = {}
    strategies = set()
    times = {shape: Samples("ms") for shape in eps}
    last = {}

    def join(shape: str) -> None:
        counts["attempted"] += 1
        result, took = timed(similarity_join, points, epsilon=eps[shape], return_result=True)
        times[shape].add(took * 1e3)
        digest = _digest(result.pairs)
        strategies.add(result.stats.planned_strategy)
        if digests.setdefault(shape, digest) != digest:
            raise CheckFailed(f"{shape} join returned different pairs on a repetition")
        last[shape] = result

    # Three sparse joins per dense one: the sparse shape is the headline
    # and needs the samples for its tail.
    for _ in range(op_count(seconds, 0.5 if trace else 1.0, round_s, minimum=3)):
        for shape in ("sparse", "sparse", "sparse", "dense"):
            join(shape)
    if len(strategies) != 1:
        raise CheckFailed(f"the planner changed its choice between repetitions: {strategies}")
    for shape in eps:
        counts["attempted"] += 1
        _check_subsample(points, last[shape].pairs, eps[shape], rng)

    sparse = times["sparse"]
    figures = {
        "setup_s": {**figure(median(setup_s), "s", len(setup_s)), "samples": setup_s},
        "join_s": sparse.figure(50, 1e-3, "s"),
        "join_p75_s": sparse.figure(75, 1e-3, "s"),
        "dense_join_s": times["dense"].figure(50, 1e-3, "s"),
        "peak_rss_mb": figure(peak_rss_mb(), "MB"),
    }
    roles = {
        "setup_s": figures["setup_s"]["value"],
        "latency_ms": sparse.percentile(50),
        # About 30 samples: the p75 is the highest percentile with
        # several samples beyond it.
        "tail_ms": sparse.percentile(75),
        "stressed_ms": times["dense"].percentile(50),
        "peak_rss_mb": figures["peak_rss_mb"]["value"],
    }
    config = {
        "n": n,
        "dims": DIMS,
        "epsilon": eps,
        "pairs": {shape: int(len(last[shape].pairs)) for shape in eps},
        "plan": last["sparse"].plan.as_dict(),
    }
    layers = {}
    if trace:
        reps = op_count(seconds, 0.5, round_s, minimum=3)
        layers = _layers(points, eps["sparse"], sparse.percentile(50) / 1e3, last["sparse"], reps)
    return {
        "counts": counts, "figures": figures, "roles": roles, "layers": layers,
        "config": config, "samples": {f"{shape}_join_ms": times[shape].values for shape in eps},
    }


def _layers(points, eps, join_s, result, reps: int) -> Dict[str, float]:
    """Split one sparse join into its layers by timing each layer's
    public entry point over the same points."""
    from repro import (
        FlatEpsilonKdbTree, JoinSpec, PairCollector, PairCounter, epsilon_kdb_self_join,
        plan_execution, similarity_join,
    )
    from repro.obs import Tracer, trace

    spec = JoinSpec(epsilon=eps)
    plan_strategies = tuple(cost.strategy for cost in result.plan.costs)
    plan_ms, build_ms, count_s, kernel_s, traverse_s = [], [], [], [], []
    collect_s, sort_ms, traced_s = [], [], []
    for _ in range(reps):
        plan, took = timed(plan_execution, spec, len(points), points.shape[1],
                           strategies=plan_strategies)
        plan_ms.append(took * 1e3)
        if plan.chosen != result.stats.planned_strategy:
            raise CheckFailed(f"planner chose {plan.chosen}, the facade ran "
                              f"{result.stats.planned_strategy}")
        tree, took = timed(FlatEpsilonKdbTree.build, points, spec)
        build_ms.append(took * 1e3)
        counted, took = timed(epsilon_kdb_self_join, points, spec, sink=PairCounter(), tree=tree)
        count_s.append(took)
        kernel_s.append(counted.stats.kernel_seconds)
        traverse_s.append(took - counted.stats.kernel_seconds)
        collector = PairCollector()
        _, took = timed(epsilon_kdb_self_join, points, spec, sink=collector, tree=tree)
        collect_s.append(took)
        pairs, took = timed(collector.sorted_pairs)
        sort_ms.append(took * 1e3)
        if not np.array_equal(pairs, result.pairs):
            raise CheckFailed("the layer-split join emitted different pairs")
        with trace.activate(Tracer()):
            _, took = timed(similarity_join, points, epsilon=eps)
        traced_s.append(took)
    stats = counted.stats
    emit_collect = median([c - k for c, k in zip(collect_s, count_s)])
    explained = (median(plan_ms) / 1e3 + median(build_ms) / 1e3 + median(traverse_s)
                 + median(kernel_s) + emit_collect + median(sort_ms) / 1e3)
    return {
        "planner.plan_ms": median(plan_ms),
        "planner.predicted_over_actual": result.plan.predicted_cost / join_s,
        "flat_build.build_ms": median(build_ms),
        "flat_build.nodes": tree.n_nodes,
        "join.traverse_s": median(traverse_s),
        "join.node_pairs": stats.node_pairs_visited,
        "join.leaf_joins": stats.leaf_joins,
        "kernels.kernel_s": median(kernel_s),
        "kernels.distance_computations": stats.distance_computations,
        "kernels.blocks": stats.kernel_blocks,
        "kernels.useful_frac": stats.pairs_emitted / max(1, stats.distance_computations),
        "emit.collect_s": emit_collect,
        "emit.sort_ms": median(sort_ms),
        "emit.pairs": len(result.pairs),
        "batch.unexplained_frac": 1.0 - explained / join_s,
        "obs.trace_overhead_frac": median(traced_s) / join_s - 1.0,
    }
