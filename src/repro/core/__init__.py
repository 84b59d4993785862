"""Core of the reproduction: the epsilon-kdB tree and its join algorithms.

The public entry points are :func:`repro.core.join.epsilon_kdb_self_join`
and :func:`repro.core.join.epsilon_kdb_join`, plus the tree itself in
:mod:`repro.core.epsilon_kdb` for callers that want to build once and
inspect the structure.
"""

from repro.core.config import JoinSpec
from repro.core.epsilon_kdb import EpsilonKdbTree, Grid
from repro.core.external import ExternalJoinReport, external_join, external_self_join
from repro.core.flat_build import FlatEpsilonKdbTree
from repro.core.incremental import (
    IncrementalJoin,
    JoinSizeSketch,
    UpdateDelta,
    apply_update_stream,
    subtract_pairs,
)
from repro.core.join import epsilon_kdb_join, epsilon_kdb_self_join
from repro.core.kernels import (
    KernelContext,
    KernelPlan,
    KernelSource,
    PairedLayout,
    build_kernel_context,
    plan_cascade,
)
from repro.core.parallel import ParallelJoinExecutor, parallel_join, parallel_self_join
from repro.core.resilience import FaultPlan, retry_transient
from repro.core.result import JoinResult, JoinStats, PairCollector, PairCounter
from repro.core.sweep import epsilon_sweep

__all__ = [
    "JoinSpec",
    "Grid",
    "EpsilonKdbTree",
    "FlatEpsilonKdbTree",
    "epsilon_kdb_self_join",
    "epsilon_kdb_join",
    "epsilon_sweep",
    "IncrementalJoin",
    "JoinSizeSketch",
    "UpdateDelta",
    "apply_update_stream",
    "subtract_pairs",
    "KernelContext",
    "KernelPlan",
    "KernelSource",
    "PairedLayout",
    "build_kernel_context",
    "plan_cascade",
    "external_self_join",
    "external_join",
    "ExternalJoinReport",
    "ParallelJoinExecutor",
    "parallel_self_join",
    "parallel_join",
    "FaultPlan",
    "retry_transient",
    "PairCollector",
    "PairCounter",
    "JoinStats",
    "JoinResult",
]
