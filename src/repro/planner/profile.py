"""Calibrated per-host cost constants for the execution planner.

A :class:`CostProfile` holds the five hardware constants the planner
multiplies against the analytic work predictions of
:mod:`repro.analysis.cost_model`: seconds per candidate coordinate
checked, per node pair visited, per point built, per stripe task
dispatched to the process pool, and the pool's start-up.  The defaults
are conservative order-of-magnitude figures good enough to rank serial
against parallel execution on a typical machine; ``repro calibrate``
(see :mod:`repro.planner.calibrate`) replaces them with measured values
and caches the result as JSON, fingerprinted to the host so a profile
copied to different hardware is ignored rather than trusted.

This module imports nothing from :mod:`repro.core`.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import time
from dataclasses import dataclass, fields
from typing import Any, Dict, Optional

from repro.errors import InvalidParameterError

__all__ = [
    "CostProfile",
    "PROFILE_ENV_VAR",
    "active_profile",
    "default_profile_path",
    "host_fingerprint",
    "load_profile",
    "save_profile",
    "set_active_profile",
]

#: Schema version stamped into the JSON file; a mismatch falls back to
#: defaults instead of misreading old fields.
PROFILE_VERSION = 1

#: Environment override for the profile path (CI points this at a
#: workspace file so calibration survives between steps).
PROFILE_ENV_VAR = "REPRO_COST_PROFILE"


def host_fingerprint() -> str:
    """Stable hash of the hardware/interpreter a profile was measured on."""
    blob = json.dumps(
        {
            "machine": platform.machine(),
            "processor": platform.processor(),
            "system": platform.system(),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
        },
        sort_keys=True,
    ).encode("utf-8")
    return hashlib.blake2b(blob, digest_size=8).hexdigest()


@dataclass
class CostProfile:
    """Per-unit execution costs of this host, in seconds.

    Attributes:
        candidate_check_seconds: per candidate pair *per dimension*
            spent in the leaf filter kernel (the cascade reads fewer
            coordinates than ``d``, which this constant absorbs).
        node_visit_seconds: per node pair the tree traversal touches
            outside the kernel (descent, adjacency grouping, sweep
            bookkeeping).
        worker_dispatch_seconds: per stripe task shipped to and merged
            from the process pool, excluding pool startup.
        pool_startup_seconds: one-time cost of spinning up the process
            pool (fork/spawn plus the first round-trip).
        build_point_seconds: per point of the flat (radix) tree build,
            sort included.
        host: :func:`host_fingerprint` of the measuring machine; empty
            for the built-in defaults.
        calibrated_at: unix timestamp of the measurement (0 = defaults).
        source: ``"default"``, ``"calibrated"``, or ``"synthetic"``
            (tests inject synthetic profiles to force decisions).
    """

    candidate_check_seconds: float = 2.0e-9
    node_visit_seconds: float = 2.0e-6
    worker_dispatch_seconds: float = 2.0e-3
    pool_startup_seconds: float = 0.35
    build_point_seconds: float = 5.0e-7
    host: str = ""
    calibrated_at: float = 0.0
    source: str = "default"

    def __post_init__(self) -> None:
        for spec in fields(self):
            value = getattr(self, spec.name)
            if spec.name in ("host", "source"):
                if not isinstance(value, str):
                    raise InvalidParameterError(
                        f"CostProfile.{spec.name} must be a string, got {value!r}"
                    )
                continue
            value = float(value)
            floor = 0.0 if spec.name == "calibrated_at" else None
            if not (value >= 0.0 if floor == 0.0 else value > 0.0) or value != value:
                raise InvalidParameterError(
                    f"CostProfile.{spec.name} must be a positive finite "
                    f"number, got {value!r}"
                )
            setattr(self, spec.name, value)

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"version": PROFILE_VERSION}
        for spec in fields(self):
            out[spec.name] = getattr(self, spec.name)
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CostProfile":
        if data.get("version") != PROFILE_VERSION:
            raise InvalidParameterError(
                f"cost profile version {data.get('version')!r} is not "
                f"{PROFILE_VERSION}"
            )
        kwargs = {
            spec.name: data[spec.name]
            for spec in fields(cls)
            if spec.name in data
        }
        return cls(**kwargs)


def default_profile_path() -> str:
    """Where the calibrated profile lives: env override, else the cache dir."""
    override = os.environ.get(PROFILE_ENV_VAR)
    if override:
        return override
    cache_home = os.environ.get(
        "XDG_CACHE_HOME", os.path.join(os.path.expanduser("~"), ".cache")
    )
    return os.path.join(cache_home, "repro", "cost_profile.json")


def save_profile(profile: CostProfile, path: Optional[str] = None) -> str:
    """Write ``profile`` as JSON (atomically); returns the path used."""
    path = path or default_profile_path()
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as handle:
        json.dump(profile.as_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)
    return path


def load_profile(path: Optional[str] = None) -> CostProfile:
    """Load the cached profile, falling back to defaults.

    Defaults are returned (never an exception) when the file is missing,
    unreadable, from another schema version, or — crucially — calibrated
    on a different host: constants measured elsewhere would mis-rank
    strategies silently, which is worse than the conservative defaults.
    """
    path = path or default_profile_path()
    try:
        with open(path) as handle:
            data = json.load(handle)
        profile = CostProfile.from_dict(data)
    except (OSError, ValueError, InvalidParameterError, KeyError, TypeError):
        return CostProfile()
    if profile.host and profile.host != host_fingerprint():
        return CostProfile()
    return profile


_ACTIVE: Optional[CostProfile] = None


def active_profile() -> CostProfile:
    """The process-wide profile the planner consults.

    Loaded lazily from :func:`default_profile_path` on first use;
    :func:`set_active_profile` overrides it (tests inject synthetic
    constants, ``repro calibrate`` installs fresh measurements).
    """
    global _ACTIVE
    if _ACTIVE is None:
        _ACTIVE = load_profile()
    return _ACTIVE


def set_active_profile(profile: Optional[CostProfile]) -> None:
    """Install ``profile`` process-wide; ``None`` re-reads from disk lazily."""
    global _ACTIVE
    _ACTIVE = profile


def stamp(profile: CostProfile, source: str = "calibrated") -> CostProfile:
    """Mark ``profile`` as measured here and now."""
    profile.host = host_fingerprint()
    profile.calibrated_at = time.time()
    profile.source = source
    return profile
