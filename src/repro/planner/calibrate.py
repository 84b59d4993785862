"""One-time micro-probes that measure this host's cost constants.

Each probe isolates one term of the planner's cost formulas and times it
on a small synthetic workload: a real ε-kdB join for the kernel and
traversal and build constants, a
:class:`~repro.storage.pages.PageStore` scan for simulated page I/O, a
two-worker process pool for dispatch and startup, a throwaway memmap for
snapshot mapping, and a :class:`~repro.core.kernels.LeafBatchQueue`
sweep that picks the fastest tile size.  The whole suite runs in a few
seconds and the result is cached on disk (see
:func:`repro.planner.profile.default_profile_path`) keyed to the host
fingerprint, so subsequent runs are free.

Unlike :mod:`repro.planner.profile`, this module may import
:mod:`repro.core` freely — nothing in core imports it.
"""

from __future__ import annotations

import math
import os
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Optional, Sequence

import numpy as np

from repro.core.config import JoinSpec
from repro.core.join import epsilon_kdb_self_join
from repro.core.kernels import LeafBatchQueue
from repro.planner.profile import (
    CostProfile,
    default_profile_path,
    host_fingerprint,
    load_profile,
    save_profile,
    stamp,
)
from repro.storage.pages import PageStore, PointFile

__all__ = ["calibrate", "calibrate_and_save", "TILE_CANDIDATES"]

#: Tile sizes the calibration sweep races (row pairs per kernel call).
TILE_CANDIDATES: Sequence[int] = (16_384, 32_768, 65_536, 131_072)

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


def _probe_page_io() -> float:
    """Seconds per simulated page through the PageStore counters."""
    rng = np.random.RandomState(42)
    points = rng.uniform(size=(20_000, 8))
    store = PageStore(page_rows=256)
    started = time.perf_counter()
    point_file = PointFile.from_points(store, points)
    for _ in point_file.scan():
        pass
    elapsed = time.perf_counter() - started
    pages = store.counters.reads + store.counters.writes
    return _positive(elapsed / max(1, pages))


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


def _probe_snapshot_bytes() -> float:
    """Seconds per byte of mapping + touching a cold file."""
    size = 4 * 1024 * 1024
    payload = np.arange(size // 8, dtype=np.int64)
    handle, path = tempfile.mkstemp(prefix="repro-calibrate-", suffix=".bin")
    try:
        os.close(handle)
        payload.tofile(path)
        best = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            view = np.memmap(path, dtype=np.int64, mode="r")
            # Touch one element per 4 KiB page so the mapping is real.
            total = int(view[:: 4096 // 8].sum())
            best = min(best, time.perf_counter() - started)
            del view, total
        return _positive(best / size)
    finally:
        os.unlink(path)


def _probe_tile_rows() -> int:
    """Race LeafBatchQueue tile sizes on a realistic filter workload."""
    rng = np.random.RandomState(3)
    n, d, eps = 50_000, 12, 0.1
    points = rng.uniform(size=(n, d))
    total = 400_000
    rows_a = rng.randint(0, n, size=total).astype(np.int64)
    rows_b = rng.randint(0, n, size=total).astype(np.int64)

    def filter_rows(left: np.ndarray, right: np.ndarray) -> np.ndarray:
        diffs = np.abs(points[left] - points[right])
        return np.all(diffs <= eps, axis=1)

    def emit(left: np.ndarray, right: np.ndarray) -> None:
        pass

    best_tile, best_time = TILE_CANDIDATES[0], float("inf")
    chunk = 10_000  # feed in leaf-sized chunks, as the sweeps would
    for tile in TILE_CANDIDATES:
        queue = LeafBatchQueue(filter_rows, emit, tile_rows=tile)
        started = time.perf_counter()
        for pos in range(0, total, chunk):
            queue.add(rows_a[pos:pos + chunk], rows_b[pos:pos + chunk])
        queue.flush()
        elapsed = time.perf_counter() - started
        if elapsed < best_time:
            best_tile, best_time = tile, elapsed
    return best_tile


def calibrate() -> CostProfile:
    """Run every probe and return a freshly measured :class:`CostProfile`."""
    profile = CostProfile()
    _probe_join_constants(profile)
    profile.page_io_seconds = _probe_page_io()
    dispatch, startup = _probe_pool()
    profile.worker_dispatch_seconds = dispatch
    profile.pool_startup_seconds = startup
    profile.snapshot_byte_seconds = _probe_snapshot_bytes()
    profile.tile_rows = _probe_tile_rows()
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
