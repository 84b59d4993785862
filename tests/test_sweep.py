"""Unit tests for the band-sweep pair generators."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sweep import (
    band_pairs_cross,
    band_pairs_self,
    iter_band_pairs_cross,
    iter_band_pairs_self,
)


def naive_self(values, eps):
    pairs = set()
    for a in range(len(values)):
        for b in range(a + 1, len(values)):
            if abs(values[b] - values[a]) <= eps:
                pairs.add((a, b))
    return pairs


def naive_cross(values_a, values_b, eps):
    pairs = set()
    for a in range(len(values_a)):
        for b in range(len(values_b)):
            if abs(values_a[a] - values_b[b]) <= eps:
                pairs.add((a, b))
    return pairs


def as_set(pos_a, pos_b):
    return set(zip(pos_a.tolist(), pos_b.tolist()))


class TestBandPairsSelf:
    def test_matches_naive_on_random_input(self):
        rng = np.random.default_rng(0)
        for trial in range(10):
            values = np.sort(rng.random(rng.integers(0, 40)))
            eps = float(rng.uniform(0.01, 0.5))
            pos_a, pos_b = band_pairs_self(values, eps)
            assert as_set(pos_a, pos_b) == naive_self(values, eps)

    def test_empty_and_singleton(self):
        for values in (np.array([]), np.array([0.5])):
            pos_a, pos_b = band_pairs_self(values, 0.3)
            assert len(pos_a) == 0 and len(pos_b) == 0

    def test_all_within_band(self):
        values = np.array([0.1, 0.1, 0.1, 0.1])
        pos_a, pos_b = band_pairs_self(values, 0.0)
        assert len(pos_a) == 6  # all C(4,2) pairs of equal values

    def test_no_pair_with_itself(self):
        values = np.linspace(0, 1, 20)
        pos_a, pos_b = band_pairs_self(values, 0.5)
        assert (pos_a < pos_b).all()

    def test_band_boundary_inclusive(self):
        values = np.array([0.0, 1.0])
        pos_a, _ = band_pairs_self(values, 1.0)
        assert len(pos_a) == 1
        pos_a, _ = band_pairs_self(values, 0.999999)
        assert len(pos_a) == 0


class TestBandPairsCross:
    def test_matches_naive_on_random_input(self):
        rng = np.random.default_rng(1)
        for trial in range(10):
            values_a = np.sort(rng.random(rng.integers(0, 30)))
            values_b = np.sort(rng.random(rng.integers(0, 30)))
            eps = float(rng.uniform(0.01, 0.5))
            pos_a, pos_b = band_pairs_cross(values_a, values_b, eps)
            assert as_set(pos_a, pos_b) == naive_cross(values_a, values_b, eps)

    def test_empty_sides(self):
        values = np.array([0.1, 0.2])
        for a, b in ((np.array([]), values), (values, np.array([]))):
            pos_a, pos_b = band_pairs_cross(a, b, 0.5)
            assert len(pos_a) == 0 and len(pos_b) == 0


class TestChunkedIterators:
    def test_self_iterator_equals_oneshot(self):
        rng = np.random.default_rng(2)
        values = np.sort(rng.random(200))
        eps = 0.15
        expected = as_set(*band_pairs_self(values, eps))
        for budget in (1, 7, 50, 10_000):
            collected = set()
            for pos_a, pos_b in iter_band_pairs_self(values, eps, budget=budget):
                collected |= as_set(pos_a, pos_b)
            assert collected == expected, f"budget={budget}"

    def test_cross_iterator_equals_oneshot(self):
        rng = np.random.default_rng(3)
        values_a = np.sort(rng.random(120))
        values_b = np.sort(rng.random(90))
        eps = 0.2
        expected = as_set(*band_pairs_cross(values_a, values_b, eps))
        for budget in (1, 13, 999):
            collected = set()
            chunks = 0
            for pos_a, pos_b in iter_band_pairs_cross(
                values_a, values_b, eps, budget=budget
            ):
                collected |= as_set(pos_a, pos_b)
                chunks += 1
            assert collected == expected, f"budget={budget}"
            if budget == 13:
                assert chunks > 1  # the budget actually forced chunking

    def test_iterator_respects_budget_roughly(self):
        values = np.sort(np.random.default_rng(4).random(300))
        max_chunk = 0
        for pos_a, _ in iter_band_pairs_self(values, 0.5, budget=100):
            max_chunk = max(max_chunk, len(pos_a))
        # One row's window may exceed the budget, but never by more than
        # a single row's worth of candidates (here < n).
        assert max_chunk <= 100 + 300

    def test_empty_input_yields_nothing(self):
        assert list(iter_band_pairs_self(np.array([]), 0.1)) == []
        assert list(iter_band_pairs_cross(np.array([]), np.array([1.0]), 0.1)) == []


_sorted_values = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    min_size=0,
    max_size=50,
).map(lambda xs: np.sort(np.asarray(xs, dtype=np.float64)))


class TestChunkedIteratorProperties:
    """A budget of 1 forces one chunk per non-empty window — the most
    adversarial chunking — yet the union of chunks must still be exactly
    the unchunked pair set."""

    @settings(max_examples=60, deadline=None)
    @given(values=_sorted_values, eps=st.floats(min_value=0.0, max_value=1.5))
    def test_self_budget_one_reproduces_oneshot(self, values, eps):
        expected = as_set(*band_pairs_self(values, eps))
        collected = []
        for pos_a, pos_b in iter_band_pairs_self(values, eps, budget=1):
            assert len(pos_a) == len(pos_b)
            collected.extend(zip(pos_a.tolist(), pos_b.tolist()))
        assert len(collected) == len(set(collected))  # no pair twice
        assert set(collected) == expected

    @settings(max_examples=60, deadline=None)
    @given(
        values_a=_sorted_values,
        values_b=_sorted_values,
        eps=st.floats(min_value=0.0, max_value=1.5),
    )
    def test_cross_budget_one_reproduces_oneshot(self, values_a, values_b, eps):
        expected = as_set(*band_pairs_cross(values_a, values_b, eps))
        collected = []
        for pos_a, pos_b in iter_band_pairs_cross(
            values_a, values_b, eps, budget=1
        ):
            assert len(pos_a) == len(pos_b)
            collected.extend(zip(pos_a.tolist(), pos_b.tolist()))
        assert len(collected) == len(set(collected))
        assert set(collected) == expected


class TestEpsilonSweep:
    def test_sweep_matches_fresh_joins_and_aggregates(self):
        """Each threshold's result equals a fresh join at that epsilon,
        results come back in the order given, and the aggregate's
        additive counters sum across the sweep."""
        from repro import JoinSpec
        from repro.core.join import epsilon_kdb_self_join
        from repro.core.sweep import epsilon_sweep

        points = np.random.default_rng(3).random((400, 5))
        epsilons = [0.15, 0.35, 0.25, 0.2]
        results, aggregate = epsilon_sweep(points, epsilons, return_stats=True)
        for eps, result in zip(epsilons, results):
            fresh = epsilon_kdb_self_join(points, JoinSpec(epsilon=eps))
            assert result.pairs.tobytes() == fresh.pairs.tobytes()
            assert result.stats.build_sort_seconds > 0.0
        assert aggregate.pairs_emitted == sum(
            r.stats.pairs_emitted for r in results
        )
