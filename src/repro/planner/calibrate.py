"""One-time micro-probes that measure this host's cost constants.

Two probes time the terms of the planner's cost formulas on small
synthetic workloads: a real ε-kdB join for the kernel, traversal and
build constants, and a two-worker process pool for dispatch and
start-up.  The whole suite runs in a few seconds and the result is
cached on disk (see :func:`repro.planner.profile.default_profile_path`)
keyed to the host fingerprint, so subsequent runs are free.

Unlike :mod:`repro.planner.profile`, this module may import
:mod:`repro.core` freely — nothing in core imports it.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Optional

import numpy as np

from repro.core.config import JoinSpec
from repro.core.join import epsilon_kdb_self_join
from repro.planner.profile import (
    CostProfile,
    default_profile_path,
    host_fingerprint,
    load_profile,
    save_profile,
    stamp,
)

__all__ = ["calibrate", "calibrate_and_save"]

#: Never store a constant at or below zero — clock resolution can round
#: a cheap probe to 0.0, and the planner divides by nothing.
_FLOOR = 1.0e-12


def _positive(value: float) -> float:
    if not math.isfinite(value) or value <= 0.0:
        return _FLOOR
    return max(value, _FLOOR)


def _noop(x: int) -> int:
    # Must be module-level so the process pool can pickle it.
    return x


def _probe_join_constants(profile: CostProfile) -> None:
    """Kernel, traversal, and build constants from one real join."""
    rng = np.random.RandomState(1234)
    n, d = 6000, 12
    points = rng.uniform(size=(n, d))
    spec = JoinSpec(epsilon=0.12)
    result = epsilon_kdb_self_join(points, spec)
    stats = result.stats
    rows = stats.cascade_candidates or stats.distance_computations
    profile.candidate_check_seconds = _positive(
        stats.kernel_seconds / max(1, rows * d)
    )
    profile.node_visit_seconds = _positive(
        (result.join_seconds - stats.kernel_seconds)
        / max(1, stats.node_pairs_visited)
    )
    profile.build_point_seconds = _positive(result.build_seconds / n)


def _probe_pool() -> tuple:
    """(worker_dispatch_seconds, pool_startup_seconds)."""
    try:
        started = time.perf_counter()
        with ProcessPoolExecutor(max_workers=2) as pool:
            pool.submit(_noop, 0).result()
            startup = time.perf_counter() - started
            rounds = 16
            started = time.perf_counter()
            for future in [pool.submit(_noop, i) for i in range(rounds)]:
                future.result()
            dispatch = (time.perf_counter() - started) / rounds
    except (OSError, RuntimeError):
        # Sandboxed environments without fork/spawn keep the defaults,
        # which are pessimistic enough that serial keeps winning.
        defaults = CostProfile()
        return defaults.worker_dispatch_seconds, defaults.pool_startup_seconds
    return _positive(dispatch), _positive(startup)


def calibrate() -> CostProfile:
    """Run every probe and return a freshly measured :class:`CostProfile`."""
    profile = CostProfile()
    _probe_join_constants(profile)
    dispatch, startup = _probe_pool()
    profile.worker_dispatch_seconds = dispatch
    profile.pool_startup_seconds = startup
    return stamp(profile)


def calibrate_and_save(
    path: Optional[str] = None, force: bool = False
) -> tuple:
    """Calibrate unless a profile for this host is already cached.

    Returns ``(profile, path, ran)`` where ``ran`` says whether the
    probes actually executed (False = cache hit).
    """
    path = path or default_profile_path()
    if not force:
        cached = load_profile(path)
        if cached.source == "calibrated" and cached.host == host_fingerprint():
            return cached, path, False
    profile = calibrate()
    save_profile(profile, path)
    return profile, path, True
