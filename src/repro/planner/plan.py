"""Score serial against parallel execution and pick the cheaper.

:func:`plan_execution` combines the analytic work predictions of
:mod:`repro.analysis.cost_model` (how many candidates, how many node
visits) with the calibrated per-unit constants of a
:class:`~repro.planner.profile.CostProfile` (how long each unit takes on
this host) into a predicted wall-clock cost per strategy, returning an
:class:`ExecutionPlan` whose ``chosen`` entry drives
``similarity_join(engine="auto")`` and the serve layer's per-request
``mini_join`` dispatch.

The formulas deliberately stay first-order: the goal is to *rank*
strategies, not to forecast seconds precisely.  E22 measures the gap —
planner regret, chosen cost over oracle-best cost — across an
(n, d, ε) matrix.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.analysis.cost_model import (
    predict_kdb_candidates,
    predict_kdb_candidates_cross,
    split_depth,
)
from repro.errors import InvalidParameterError
from repro.planner.profile import CostProfile, active_profile

__all__ = [
    "ExecutionPlan",
    "StrategyCost",
    "ALL_STRATEGIES",
    "plan_execution",
]

#: Every strategy the planner knows how to score, in display order.
ALL_STRATEGIES = ("serial", "parallel")


@dataclass
class StrategyCost:
    """One scored strategy.

    ``feasible`` is False when the strategy cannot run for this request
    (parallel execution of fewer than two points); infeasible strategies
    keep their predicted cost for the explain table but are never chosen.
    """

    strategy: str
    predicted_seconds: float
    feasible: bool = True
    chosen: bool = False
    detail: str = ""

    def as_dict(self) -> Dict[str, Any]:
        return {
            "strategy": self.strategy,
            "predicted_seconds": self.predicted_seconds,
            "feasible": self.feasible,
            "chosen": self.chosen,
            "detail": self.detail,
        }


@dataclass
class ExecutionPlan:
    """The planner's verdict for one join or query request."""

    chosen: str
    costs: List[StrategyCost] = field(default_factory=list)
    n: int = 0
    dims: int = 0
    epsilon: float = 0.0
    plan_seconds: float = 0.0
    profile_source: str = "default"
    forced: Optional[str] = None

    @property
    def predicted_cost(self) -> float:
        """Predicted seconds of the chosen strategy."""
        for cost in self.costs:
            if cost.chosen:
                return cost.predicted_seconds
        return 0.0

    def cost_of(self, strategy: str) -> Optional[StrategyCost]:
        for cost in self.costs:
            if cost.strategy == strategy:
                return cost
        return None

    def as_dict(self) -> Dict[str, Any]:
        return {
            "chosen": self.chosen,
            "n": self.n,
            "dims": self.dims,
            "epsilon": self.epsilon,
            "plan_seconds": self.plan_seconds,
            "profile_source": self.profile_source,
            "forced": self.forced,
            "costs": [cost.as_dict() for cost in self.costs],
        }

    def format_table(self):
        """Render the explain table (lazy import keeps planner light)."""
        from repro.analysis.report import Table, format_seconds

        table = Table(
            f"execution plan — n={self.n} d={self.dims} eps={self.epsilon:g}"
            f" (profile: {self.profile_source})",
            ["strategy", "predicted", "feasible", "chosen"],
        )
        for cost in self.costs:
            table.add_row(
                cost.strategy,
                format_seconds(cost.predicted_seconds),
                "yes" if cost.feasible else "no",
                "<==" if cost.chosen else "",
            )
        return table


def _traversal_visits(n: int, dims: int, eps: float, leaf_size: int) -> float:
    """Rough node-pair visit count: leaves times bounded adjacency fan-out."""
    if n < 1:
        return 0.0
    leaves = max(1.0, n / max(1, leaf_size))
    k = split_depth(n, eps, leaf_size, dims)
    return leaves * (3.0 ** min(k, 3))


def plan_execution(
    spec,
    n: int,
    dims: int,
    *,
    n2: Optional[int] = None,
    eps: Optional[float] = None,
    sketch_estimate: Optional[float] = None,
    n_workers: Optional[int] = None,
    profile: Optional[CostProfile] = None,
    strategies: Optional[Sequence[str]] = None,
    forced: Optional[str] = None,
) -> ExecutionPlan:
    """Score serial and parallel execution of one request; choose the cheaper.

    Args:
        spec: the :class:`~repro.core.config.JoinSpec` of the request
            (epsilon, leaf_size, and n_workers defaults come from it).
        n: number of points (outer set for two-set joins).
        dims: point dimensionality.
        n2: inner-set size — switches the candidate model to the
            cross-join (``n_a * n_b``) variant.
        eps: query radius override (defaults to ``spec.epsilon``).
        sketch_estimate: a live session's ``JoinSizeSketch`` estimate of
            the output size; raises the candidate floor when the
            analytic model under-predicts clustered data.
        n_workers: process-pool size for the parallel strategy
            (defaults to ``spec.n_workers`` or the CPU count).
        profile: cost constants; defaults to the process-wide active
            profile (see :func:`repro.planner.profile.active_profile`).
        strategies: restrict scoring to this subset of
            :data:`ALL_STRATEGIES`.
        forced: record that the caller pinned this strategy
            (``engine="serial"`` or ``"parallel"``); it is chosen
            regardless of its predicted cost, but every cost still
            lands in the plan so ``--explain`` and the mispredict
            metrics stay meaningful.

    Returns:
        An :class:`ExecutionPlan`; ``plan.chosen`` names the winner.
    """
    started = time.perf_counter()
    if n < 0:
        raise InvalidParameterError(f"n must be >= 0, got {n}")
    if dims < 1:
        raise InvalidParameterError(f"dims must be >= 1, got {dims}")
    profile = profile if profile is not None else active_profile()
    eps = float(eps if eps is not None else spec.epsilon)
    leaf_size = int(spec.leaf_size)
    total = n + (n2 or 0)
    workers = int(
        n_workers
        or (spec.n_workers or 0)
        or max(1, (os.cpu_count() or 2) - 1)
    )

    # --- predicted work counts ------------------------------------------
    if n2 is None:
        kdb_candidates = predict_kdb_candidates(
            max(n, 2), dims, eps, leaf_size=leaf_size
        )
    else:
        kdb_candidates = predict_kdb_candidates_cross(
            max(n, 1), max(n2, 1), dims, eps, leaf_size=leaf_size
        )
    if sketch_estimate:
        # The sketch estimates *output* pairs, a lower bound on
        # candidates actually checked.
        kdb_candidates = max(kdb_candidates, float(sketch_estimate))

    visits = _traversal_visits(total, dims, eps, leaf_size)
    check = profile.candidate_check_seconds * dims
    build_cost = total * profile.build_point_seconds
    traverse_cost = visits * profile.node_visit_seconds
    kernel_cost = kdb_candidates * check

    costs: List[StrategyCost] = []

    def add(strategy, seconds, feasible=True, detail=""):
        if strategies is not None and strategy not in strategies:
            return
        costs.append(
            StrategyCost(
                strategy=strategy,
                predicted_seconds=float(seconds),
                feasible=bool(feasible),
                detail=detail,
            )
        )

    add(
        "serial",
        build_cost + traverse_cost + kernel_cost,
        detail=f"candidates~{kdb_candidates:.0f}",
    )
    add(
        "parallel",
        build_cost
        + traverse_cost
        + kernel_cost / max(1, workers)
        + profile.pool_startup_seconds
        + 2.0 * workers * profile.worker_dispatch_seconds,
        feasible=total >= 2,
        detail=f"workers={workers}",
    )

    if not costs:
        raise InvalidParameterError(
            f"no strategies to plan (restriction {strategies!r})"
        )

    if forced is not None:
        chosen = forced
        matched = [cost for cost in costs if cost.strategy == forced]
        if not matched:
            raise InvalidParameterError(
                f"forced strategy {forced!r} is not plannable here "
                f"(have {[cost.strategy for cost in costs]})"
            )
        matched[0].chosen = True
    else:
        winner = min(
            costs, key=lambda cost: (not cost.feasible, cost.predicted_seconds)
        )
        winner.chosen = True
        chosen = winner.strategy

    return ExecutionPlan(
        chosen=chosen,
        costs=costs,
        n=int(n),
        dims=int(dims),
        epsilon=eps,
        plan_seconds=time.perf_counter() - started,
        profile_source=profile.source,
        forced=forced,
    )
