"""Vectorized band-sweep primitives and epsilon sweeps.

Both the epsilon-kdB leaf joins and the sort-merge baseline reduce to the
same primitive: given values sorted along one dimension, enumerate every
pair whose difference along that dimension is at most ``eps``.  The
functions here generate those candidate position pairs without a Python
loop, using the classic repeat/cumsum trick to expand variable-length
windows.

:func:`epsilon_sweep` runs one self-join per threshold, each over a
fresh flat tree built for that threshold.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

_EMPTY = np.empty(0, dtype=np.int64)


def _expand_windows(
    starts: np.ndarray, ends: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Expand per-row half-open index windows into aligned pair positions.

    For each row ``k`` with window ``[starts[k], ends[k])``, produce the
    pairs ``(k, starts[k]), (k, starts[k]+1), ..., (k, ends[k]-1)``.
    Returns the aligned ``(left_positions, right_positions)`` arrays.
    """
    counts = ends - starts
    np.maximum(counts, 0, out=counts)
    total = int(counts.sum())
    if total == 0:
        return _EMPTY.copy(), _EMPTY.copy()
    left = np.repeat(np.arange(len(starts), dtype=np.int64), counts)
    # Offsets within each window: a global arange minus the cumulative
    # start of each window's segment, plus the window's start index.
    segment_starts = np.repeat(np.cumsum(counts) - counts, counts)
    right = np.arange(total, dtype=np.int64) - segment_starts + np.repeat(
        starts, counts
    )
    return left, right


def band_pairs_self(values: np.ndarray, eps: float) -> Tuple[np.ndarray, np.ndarray]:
    """Candidate pairs within a single sorted value array.

    ``values`` must be sorted ascending.  Returns aligned position arrays
    ``(a, b)`` with ``a < b`` and ``values[b] - values[a] <= eps``; each
    unordered pair appears exactly once.
    """
    values = np.asarray(values)
    n = len(values)
    if n < 2:
        return _EMPTY.copy(), _EMPTY.copy()
    starts = np.arange(1, n + 1, dtype=np.int64)
    ends = np.searchsorted(values, values + eps, side="right").astype(np.int64, copy=False)
    return _expand_windows(starts, ends)


def iter_band_pairs_self(
    values: np.ndarray, eps: float, budget: int = 2_000_000
):
    """Chunked variant of :func:`band_pairs_self` for large inputs.

    Yields ``(a, b)`` position-array chunks, each expanding at most
    ``budget`` candidate pairs, so a wide band over a big array never
    materializes the full candidate set at once.
    """
    values = np.asarray(values)
    n = len(values)
    if n < 2:
        return
    starts = np.arange(1, n + 1, dtype=np.int64)
    ends = np.searchsorted(values, values + eps, side="right").astype(np.int64, copy=False)
    yield from _iter_expand(starts, ends, budget)


def iter_band_pairs_cross(
    values_a: np.ndarray, values_b: np.ndarray, eps: float, budget: int = 2_000_000
):
    """Chunked variant of :func:`band_pairs_cross`."""
    values_a = np.asarray(values_a)
    values_b = np.asarray(values_b)
    if len(values_a) == 0 or len(values_b) == 0:
        return
    starts = np.searchsorted(values_b, values_a - eps, side="left").astype(np.int64, copy=False)
    ends = np.searchsorted(values_b, values_a + eps, side="right").astype(np.int64, copy=False)
    yield from _iter_expand(starts, ends, budget)


def _iter_expand(starts: np.ndarray, ends: np.ndarray, budget: int):
    """Expand windows in row groups whose total pair count fits ``budget``."""
    counts = np.maximum(ends - starts, 0)
    cumulative = np.concatenate([[0], np.cumsum(counts)])
    row = 0
    n = len(starts)
    while row < n:
        target = cumulative[row] + max(budget, int(counts[row]))
        next_row = int(np.searchsorted(cumulative, target, side="right")) - 1
        next_row = max(next_row, row + 1)
        left, right = _expand_windows(starts[row:next_row], ends[row:next_row])
        if len(left):
            yield left + row, right
        row = next_row


def band_pairs_cross(
    values_a: np.ndarray, values_b: np.ndarray, eps: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Candidate pairs between two sorted value arrays.

    Both inputs must be sorted ascending.  Returns aligned position arrays
    ``(a, b)`` with ``|values_a[a] - values_b[b]| <= eps``.
    """
    values_a = np.asarray(values_a)
    values_b = np.asarray(values_b)
    if len(values_a) == 0 or len(values_b) == 0:
        return _EMPTY.copy(), _EMPTY.copy()
    starts = np.searchsorted(values_b, values_a - eps, side="left").astype(np.int64, copy=False)
    ends = np.searchsorted(values_b, values_a + eps, side="right").astype(np.int64, copy=False)
    return _expand_windows(starts, ends)


def epsilon_sweep(
    points: np.ndarray,
    epsilons: Sequence[float],
    return_stats: bool = False,
    **spec_kwargs,
):
    """Self-join ``points`` at every threshold, in the order given.

    Each join builds its own flat tree: the build costs milliseconds,
    while reusing a coarser tree for a finer threshold made its
    traversal slower than the build it saved (E17).  Each result
    carries its own per-epsilon counters.  With ``return_stats=True``
    the return value is ``(results, aggregate)`` where ``aggregate`` is
    the merged :class:`~repro.core.result.JoinStats` of the whole sweep.
    ``spec_kwargs`` are forwarded to :class:`~repro.core.config.JoinSpec`
    (metric, leaf_size, ...).
    """
    # Imported here: join (and flat_build via join) import this module.
    from repro.core.config import JoinSpec
    from repro.core.join import epsilon_kdb_self_join
    from repro.core.result import JoinStats

    results = [
        epsilon_kdb_self_join(
            points, JoinSpec(epsilon=float(epsilon), **spec_kwargs)
        )
        for epsilon in epsilons
    ]
    if not return_stats:
        return results
    aggregate = JoinStats()
    for result in results:
        aggregate.merge(result.stats)
    return results, aggregate
