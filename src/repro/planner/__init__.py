"""Cost-based execution planner.

Turns :mod:`repro.analysis.cost_model` from a paper-validation artifact
into the runtime brain of the system: :mod:`~repro.planner.calibrate`
measures this host's per-unit costs once and caches them as a
:class:`~repro.planner.profile.CostProfile`;
:func:`~repro.planner.plan.plan_execution` combines those constants with
the analytic work predictions (and a live session's join-size sketch)
into an :class:`~repro.planner.plan.ExecutionPlan` ranking serial
against parallel execution.  ``similarity_join(engine="auto")``, the
serve layer's ``mini_join``, and ``repro join --explain`` consume it.
"""

from repro.planner.calibrate import calibrate, calibrate_and_save
from repro.planner.plan import (
    ALL_STRATEGIES,
    ExecutionPlan,
    StrategyCost,
    plan_execution,
)
from repro.planner.profile import (
    PROFILE_ENV_VAR,
    CostProfile,
    active_profile,
    default_profile_path,
    host_fingerprint,
    load_profile,
    save_profile,
    set_active_profile,
)

__all__ = [
    "ALL_STRATEGIES",
    "CostProfile",
    "ExecutionPlan",
    "PROFILE_ENV_VAR",
    "StrategyCost",
    "active_profile",
    "calibrate",
    "calibrate_and_save",
    "default_profile_path",
    "host_fingerprint",
    "load_profile",
    "plan_execution",
    "save_profile",
    "set_active_profile",
]
