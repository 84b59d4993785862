"""Shared pieces of the benchmark: sample summaries, the run record, the
environment stamp and the ε-from-target-output rule.

Every timing the benchmark reports is a median over many samples taken
inside one run, after a discarded warm-up; :class:`Samples` keeps the raw
values so the result file can carry the quartiles and the sample count
beside the median.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
import time
from typing import Callable, Dict, List, Optional

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch space for session directories, server traces and result files.
WORK = os.path.join(ROOT, ".perfbench_work")

#: Every workload draws its points from the same mixture: 10 Gaussian
#: clusters, sigma 0.05, d = 8 (so the filter cascade is on).  The
#: mixture itself is fixed (one pool drawn with ``GEOMETRY_SEED``); the
#: run's seed picks which pool points a workload uses and seeds every
#: other random choice.  Join cost depends strongly on how the cluster
#: centres happen to fall, so fixing them keeps runs of different seeds
#: comparable.
DIMS = 8
CLUSTERS = 10
SIGMA = 0.05
GEOMETRY_SEED = 0
POOL_POINTS = 100_000


class CheckFailed(AssertionError):
    """An answer check failed; the run reports ``correct: false``."""


class Samples:
    """Raw samples of one timed quantity, summarized on demand."""

    def __init__(self, unit: str = "ms"):
        self.unit = unit
        self.values: List[float] = []

    def add(self, value: float) -> None:
        self.values.append(float(value))

    def __len__(self) -> int:
        return len(self.values)

    def percentile(self, q: float) -> float:
        if not self.values:
            raise CheckFailed("no samples were taken")
        return float(np.percentile(self.values, q))

    def figure(self, q: float = 50.0, scale: float = 1.0, unit: Optional[str] = None) -> Dict:
        """The ``q``-th percentile with the quartiles and sample count,
        multiplied by ``scale`` (to report ms samples in ``unit="s"``)."""
        return {
            "value": self.percentile(q) * scale,
            "unit": unit or self.unit,
            "n": len(self.values),
            "q1": self.percentile(25) * scale,
            "q3": self.percentile(75) * scale,
        }


def figure(value: float, unit: str, n: int = 1) -> Dict[str, float]:
    """A figure that is not a percentile of raw samples (a count, a ratio)."""
    return {"value": float(value), "unit": unit, "n": int(n)}


def timed(fn: Callable, *args, **kwargs):
    """``(result, seconds)`` of one call."""
    started = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - started


def op_count(seconds: float, share: float, op_seconds: float, minimum: int) -> int:
    """Operations a phase runs: as many as fit in ``share`` of the run's
    ``seconds`` at their nominal cost on a 2-vCPU host.

    Counting operations instead of watching the clock gives every run of
    one seed the same work, so a slow host makes a run longer, not
    different.
    """
    return max(minimum, int(round(seconds * share / op_seconds)))


def _pool() -> np.ndarray:
    from repro.datasets import gaussian_clusters

    return gaussian_clusters(POOL_POINTS, DIMS, clusters=CLUSTERS, sigma=SIGMA,
                             seed=GEOMETRY_SEED)


def draw_points(n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` distinct points of the fixed cluster mixture, chosen by ``rng``."""
    if n > POOL_POINTS:
        raise CheckFailed(f"{n} points asked of a {POOL_POINTS}-point pool")
    return _pool()[rng.choice(POOL_POINTS, size=n, replace=False)]


def epsilon_for_output(n: int, pairs_per_point: float, sample: int = 4000) -> float:
    """ε at which a self-join of ``n`` points of the mixture emits about
    ``pairs_per_point`` pairs per point.

    The join size is set from a target output rather than by hand
    (Ceccarello & Ileana): on a uniform sample of the mixture a pair
    survives with the same probability as in any other sample, so the
    distance quantile that leaves ``pairs_per_point * n`` of the
    ``n (n - 1) / 2`` pairs is read off the sample's pairwise distances.
    The sample is fixed, so ε depends on the mixture and ``n`` only and
    every seed joins at the same ε.
    """
    sub = _pool()[np.random.default_rng(GEOMETRY_SEED).choice(POOL_POINTS, sample, replace=False)]
    share = pairs_per_point / ((n - 1) / 2.0)
    k = max(1, int(round(share * sample * (sample - 1) / 2.0)))
    norms = np.einsum("ij,ij->i", sub, sub)
    smallest = np.empty(0)
    for lo in range(0, sample, 500):
        # Squared distances of rows lo.. to every later row, in blocks
        # small enough that the estimate never sets the peak memory.
        hi = min(lo + 500, sample)
        block = norms[lo:hi, None] + norms[None, lo:] - 2.0 * sub[lo:hi] @ sub[lo:].T
        block[np.tril_indices(hi - lo, 0, block.shape[1])] = np.inf
        smallest = np.partition(np.concatenate([smallest, block.ravel()]), k)[:k + 1]
    return float(np.sqrt(max(smallest[k], 0.0)))


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident memory (``VmHWM``) of ``pid`` or of this process."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise CheckFailed(f"no VmHWM for process {pid}")


def bytes_written() -> int:
    """Bytes this process has passed to ``write`` calls (``wchar``)."""
    with open("/proc/self/io") as handle:
        for line in handle:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise CheckFailed("/proc/self/io has no wchar line")


def steal_seconds() -> float:
    """CPU time the hypervisor took from this machine so far (all CPUs).

    A run whose steal grew a lot was slowed by its neighbours; the figure
    is recorded beside the timings, not subtracted from them.
    """
    with open("/proc/stat") as handle:
        fields = handle.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def environment(seed: int) -> Dict[str, object]:
    """Everything outside the inputs that can change a run."""
    sha = None
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": sha,
    }


def median(values: List[float]) -> float:
    return float(statistics.median(values))


def pin_cost_profile() -> Dict[str, object]:
    """Pin the planner to the shipped default constants, in this process
    and in any server it starts, so a calibrated profile in the user's
    cache cannot change a plan between runs.  Returns the profile."""
    from repro.planner.profile import PROFILE_ENV_VAR, CostProfile, set_active_profile

    os.makedirs(WORK, exist_ok=True)
    # A path that never exists: load_profile falls back to the defaults.
    os.environ[PROFILE_ENV_VAR] = os.path.join(WORK, "no-cost-profile.json")
    profile = CostProfile()
    set_active_profile(profile)
    return profile.as_dict()


def child_env() -> Dict[str, str]:
    """Environment for a child Python process that imports ``repro``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env
