"""Reference oracles and comparison helpers shared across the test suite.

Kept in a plain module (rather than ``conftest.py``) so test files can
import them regardless of how pytest resolves its rootdir: ``conftest``
is importable only when pytest itself inserted the tests directory on
``sys.path``, while ``_oracles`` is a normal sibling module.
"""

from __future__ import annotations

import numpy as np

from repro import JoinSpec
from repro.baselines import brute_force_join, brute_force_self_join


def oracle_self_pairs(points: np.ndarray, spec: JoinSpec) -> np.ndarray:
    """Canonical self-join answer via the blocked nested loop."""
    return brute_force_self_join(points, spec).pairs


def oracle_two_set_pairs(
    points_r: np.ndarray, points_s: np.ndarray, spec: JoinSpec
) -> np.ndarray:
    """Canonical two-set join answer via the blocked nested loop."""
    return brute_force_join(points_r, points_s, spec).pairs


def assert_same_pairs(actual: np.ndarray, expected: np.ndarray, label: str = ""):
    """Assert two canonical (sorted) pair arrays are identical."""
    assert actual.shape == expected.shape, (
        f"{label}: expected {len(expected)} pairs, got {len(actual)}"
    )
    if len(expected):
        assert (actual == expected).all(), f"{label}: pair sets differ"
