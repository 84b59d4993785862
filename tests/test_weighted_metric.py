"""Tests for the weighted L_p metric across the whole stack.

The subtlety weighted metrics introduce is that coordinate weights below
one allow per-coordinate gaps *larger* than epsilon, so every pruning
structure (grid cells, band sweeps, stripes) must widen to
``coordinate_bound(eps)``.  These tests pin the bound itself and then
check that every join algorithm stays exact under adversarial weights.
"""

import numpy as np
import pytest

from _oracles import assert_same_pairs, oracle_self_pairs
from repro import JoinSpec, WeightedLpMetric, similarity_join
from repro.baselines import brute_force_self_join
from repro.errors import InvalidParameterError


class TestWeightedMetricUnit:
    def test_weighted_l2_hand_computation(self):
        metric = WeightedLpMetric(2, weights=[4.0, 1.0])
        # sqrt(4 * 3^2 + 1 * 4^2) = sqrt(52)
        assert metric.pair([0.0, 0.0], [3.0, 4.0]) == pytest.approx(
            np.sqrt(52.0)
        )

    def test_weighted_l1(self):
        metric = WeightedLpMetric(1, weights=[2.0, 0.5])
        assert metric.pair([0.0, 0.0], [3.0, 4.0]) == pytest.approx(8.0)

    def test_weighted_linf(self):
        metric = WeightedLpMetric(np.inf, weights=[2.0, 0.5])
        assert metric.pair([0.0, 0.0], [3.0, 4.0]) == pytest.approx(6.0)

    def test_unit_weights_match_unweighted(self):
        from repro.metrics import L2

        metric = WeightedLpMetric(2, weights=np.ones(5))
        rng = np.random.default_rng(0)
        for _ in range(20):
            x, y = rng.random(5), rng.random(5)
            assert metric.pair(x, y) == pytest.approx(L2.pair(x, y))

    def test_coordinate_bound(self):
        metric = WeightedLpMetric(2, weights=[0.25, 1.0])
        # min weight 0.25 -> bound eps / sqrt(0.25) = 2 eps
        assert metric.coordinate_bound(0.1) == pytest.approx(0.2)
        inf_metric = WeightedLpMetric(np.inf, weights=[0.5, 2.0])
        assert inf_metric.coordinate_bound(0.1) == pytest.approx(0.2)

    def test_coordinate_bound_is_tight(self):
        """A pair achieving the bound in one coordinate exists: all other
        coordinates equal, the light coordinate at the bound."""
        metric = WeightedLpMetric(2, weights=[0.25, 1.0])
        eps = 0.4
        bound = metric.coordinate_bound(eps)
        x = np.array([0.0, 0.5])
        y = np.array([bound, 0.5])
        assert metric.pair(x, y) == pytest.approx(eps)

    def test_dimension_mismatch_raises(self):
        metric = WeightedLpMetric(2, weights=[1.0, 1.0])
        with pytest.raises(InvalidParameterError):
            metric.pair([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            WeightedLpMetric(2, weights=[1.0, -1.0])
        with pytest.raises(InvalidParameterError):
            WeightedLpMetric(2, weights=[1.0, 0.0])
        with pytest.raises(InvalidParameterError):
            WeightedLpMetric(0.5, weights=[1.0])
        with pytest.raises(InvalidParameterError):
            WeightedLpMetric(2, weights=np.ones((2, 2)))

    def test_band_width_on_spec(self):
        metric = WeightedLpMetric(2, weights=[0.25, 1.0, 1.0])
        spec = JoinSpec(epsilon=0.1, metric=metric)
        assert spec.band_width == pytest.approx(0.2)
        assert JoinSpec(epsilon=0.1).band_width == pytest.approx(0.1)


@pytest.fixture(scope="module")
def weighted_setup():
    rng = np.random.default_rng(42)
    points = rng.random((900, 6))
    # Adversarial weights: one coordinate nearly free (bound 10x eps),
    # one heavily emphasized.
    weights = np.array([0.01, 4.0, 1.0, 1.0, 0.5, 2.0])
    metric = WeightedLpMetric(2, weights=weights)
    return points, metric


@pytest.mark.parametrize(
    "algorithm",
    ["epsilon-kdb", "rtree", "rplus", "zorder", "sort-merge", "grid"],
)
def test_every_algorithm_exact_under_weighted_metric(algorithm, weighted_setup):
    points, metric = weighted_setup
    spec = JoinSpec(epsilon=0.3, metric=metric)
    expected = oracle_self_pairs(points, spec)
    assert len(expected) > 0, "workload must produce matches"
    pairs = similarity_join(points, epsilon=0.3, metric=metric,
                            algorithm=algorithm)
    assert_same_pairs(pairs, expected, f"weighted {algorithm}")


def test_external_join_exact_under_weighted_metric(weighted_setup):
    from repro import external_self_join

    points, metric = weighted_setup
    spec = JoinSpec(epsilon=0.3, metric=metric)
    expected = oracle_self_pairs(points, spec)
    report = external_self_join(points, spec, memory_points=300)
    assert_same_pairs(report.pairs, expected, "weighted external")


def test_range_query_exact_under_weighted_metric(weighted_setup):
    from repro import FlatEpsilonKdbTree

    points, metric = weighted_setup
    spec = JoinSpec(epsilon=0.3, metric=metric, leaf_size=32)
    tree = FlatEpsilonKdbTree.build(points, spec)
    rng = np.random.default_rng(7)
    for _ in range(10):
        query = rng.random(points.shape[1])
        hits = tree.range_query(query)
        diffs = np.abs(points - query)
        expected = np.flatnonzero(metric.within_gap(diffs, 0.3))
        assert hits.tolist() == expected.tolist()


def test_weighted_two_set_join(weighted_setup):
    from _oracles import oracle_two_set_pairs
    from repro import epsilon_kdb_join

    points, metric = weighted_setup
    other = np.random.default_rng(43).random((600, 6))
    spec = JoinSpec(epsilon=0.3, metric=metric)
    expected = oracle_two_set_pairs(points, other, spec)
    result = epsilon_kdb_join(points, other, spec)
    assert_same_pairs(result.pairs, expected, "weighted two-set")


def test_brute_force_is_the_weighted_oracle(weighted_setup):
    """Sanity-check the oracle itself against a scaled-coordinates trick:
    weighted L2 equals unweighted L2 after scaling each coordinate by
    sqrt(w)."""
    points, metric = weighted_setup
    spec = JoinSpec(epsilon=0.3, metric=metric)
    expected = brute_force_self_join(points, spec).pairs
    scaled = points * np.sqrt(metric.weights)
    unweighted = brute_force_self_join(scaled, JoinSpec(epsilon=0.3)).pairs
    assert expected.shape == unweighted.shape
    assert (expected == unweighted).all()
