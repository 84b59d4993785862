"""Tests for the external-memory epsilon-kdB join."""

import warnings

import numpy as np
import pytest

from _oracles import assert_same_pairs, oracle_self_pairs
from repro import JoinSpec, PairCounter, external_join, external_self_join
from repro.core.external import plan_stripes
from repro.datasets import gaussian_clusters
from repro.errors import InvalidParameterError
from repro.storage import PageStore


def _occupied(histogram):
    """Sparse (cells, counts) form of a dense per-cell histogram."""
    histogram = np.asarray(histogram)
    cells = np.flatnonzero(histogram)
    return cells, histogram[cells]


class TestPlanStripes:
    def test_respects_capacity(self):
        rng = np.random.default_rng(1)
        cells, counts = _occupied(rng.integers(0, 20, size=50))
        stripes = plan_stripes(cells, counts, capacity=40)
        for s in stripes:
            total = int(counts[s].sum())
            assert total <= 40 or s.stop - s.start == 1

    def test_groups_consecutive_cells(self):
        histogram = np.array([10, 10, 10, 10, 10])
        # Capacity 35 fits two cells (20) plus the reserved band cell
        # (10); the final stripe has no band, so three cells (30) fit.
        stripes = plan_stripes(*_occupied(histogram), capacity=35)
        assert [(s.start, s.stop) for s in stripes] == [(0, 2), (2, 5)]

    def test_reserves_room_for_the_band_cell(self):
        histogram = np.array([10, 10, 10])
        # Cell 0 + cell 1 (20) would leave no room for cell 2's band
        # (10), so the first stripe is a single cell; the trailing
        # stripe has no band and takes both remaining cells.
        stripes = plan_stripes(*_occupied(histogram), capacity=25)
        assert [(s.start, s.stop) for s in stripes] == [(0, 1), (1, 3)]

    def test_no_band_reserved_across_an_empty_cell(self):
        # Cells 0, 1 and 3: cell 2 is empty, so no pair crosses from
        # cell 1 to cell 3 and cell 3 needs no room next to cells 0-1.
        stripes = plan_stripes(np.array([0, 1, 3]), np.array([10, 10, 10]), 25)
        assert [(s.start, s.stop) for s in stripes] == [(0, 2), (2, 3)]

    def test_stripe_plus_band_cell_fits_capacity(self):
        rng = np.random.default_rng(2)
        cells, counts = _occupied(rng.integers(0, 15, size=60))
        capacity = 40
        stripes = plan_stripes(cells, counts, capacity)
        for k, s in enumerate(stripes):
            band = 0
            if k + 1 < len(stripes):
                following = stripes[k + 1].start
                if cells[following] == cells[s.stop - 1] + 1:
                    band = int(counts[following])
            total = int(counts[s].sum()) + band
            if total > capacity:
                # only permissible for an oversized lone cell
                assert s.stop - s.start == 1

    def test_single_stripe_when_capacity_suffices(self):
        stripes = plan_stripes(*_occupied([5, 5, 5]), capacity=100)
        assert [(s.start, s.stop) for s in stripes] == [(0, 3)]

    def test_oversized_cell_becomes_own_stripe(self):
        stripes = plan_stripes(*_occupied([3, 50, 3]), capacity=10)
        assert (1, 2) in [(s.start, s.stop) for s in stripes]

    def test_covers_every_cell_exactly_once(self):
        rng = np.random.default_rng(0)
        cells, counts = _occupied(rng.integers(0, 30, size=40))
        stripes = plan_stripes(cells, counts, capacity=60)
        covered = []
        for s in stripes:
            covered.extend(range(s.start, s.stop))
        assert covered == list(range(len(cells)))

    def test_cost_follows_occupied_cells_not_span(self):
        # Two occupied cells a billion cells apart plan instantly.
        stripes = plan_stripes(np.array([0, 10**9]), np.array([4, 4]), 5)
        assert [(s.start, s.stop) for s in stripes] == [(0, 1), (1, 2)]


class TestExternalJoinCorrectness:
    @pytest.mark.parametrize("budget", [200, 500, 2000, 10_000])
    def test_matches_oracle_across_budgets(self, budget, small_clusters):
        spec = JoinSpec(epsilon=0.08, leaf_size=32)
        expected = oracle_self_pairs(small_clusters, spec)
        report = external_self_join(small_clusters, spec, memory_points=budget)
        assert_same_pairs(report.pairs, expected, f"budget={budget}")

    def test_matches_oracle_uniform(self, small_uniform):
        spec = JoinSpec(epsilon=0.3)
        expected = oracle_self_pairs(small_uniform, spec)
        report = external_self_join(small_uniform, spec, memory_points=300)
        assert_same_pairs(report.pairs, expected, "uniform external")

    def test_cross_stripe_pairs_found(self):
        # Two points straddling a stripe boundary must still pair.
        points = np.array([[0.499, 0.5], [0.501, 0.5]] + [[x, 0.0] for x in
                          np.linspace(0, 1, 400)])
        spec = JoinSpec(epsilon=0.01)
        expected = oracle_self_pairs(points, spec)
        report = external_self_join(points, spec, memory_points=50)
        assert report.stripes > 1
        assert_same_pairs(report.pairs, expected, "straddling pair")

    def test_metric_variants(self, small_clusters):
        for metric in ("l1", "linf"):
            spec = JoinSpec(epsilon=0.1, metric=metric)
            expected = oracle_self_pairs(small_clusters, spec)
            report = external_self_join(small_clusters, spec, memory_points=400)
            assert_same_pairs(report.pairs, expected, f"external {metric}")


class TestExternalJoinReporting:
    def test_io_counted_and_plausible(self, small_uniform):
        store = PageStore(page_rows=64)
        spec = JoinSpec(epsilon=0.25)
        report = external_self_join(
            small_uniform, spec, memory_points=300, store=store
        )
        data_pages = -(-len(small_uniform) // 64)
        # At least: domain scan + histogram scan + partition scan + join
        # read-back of every stripe.
        assert report.io.reads >= 4 * data_pages - 4
        assert report.io.writes >= data_pages  # the partition pass
        assert report.stats.pages_read == report.io.reads

    def test_more_memory_fewer_stripes(self, small_uniform):
        spec = JoinSpec(epsilon=0.25)
        tight = external_self_join(small_uniform, spec, memory_points=150)
        loose = external_self_join(small_uniform, spec, memory_points=5000)
        assert tight.stripes > loose.stripes

    def test_budget_respected_flag(self, small_uniform):
        spec = JoinSpec(epsilon=0.25)
        report = external_self_join(small_uniform, spec, memory_points=10_000)
        assert report.budget_respected
        assert report.peak_memory_points <= 10_000

    @pytest.mark.parametrize("eps", [1e-100, 1e-300])
    def test_tiny_epsilon_keeps_budget_and_raises_no_warning(self, eps):
        """Dimension-0 cells come from ``Grid``: at an eps far below
        span / 2**50 the cells widen to that, so ids fit and the points
        still spread over many stripes."""
        points = np.random.default_rng(8).random((20_000, 8))
        points[1::500] = points[::500]  # duplicates: pairs at distance 0
        spec = JoinSpec(epsilon=eps)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = external_self_join(points, spec, memory_points=4000)
        assert report.budget_respected
        assert report.stripes > 1
        assert len(report.pairs) == 40
        assert_same_pairs(report.pairs, oracle_self_pairs(points, spec))

    def test_counter_sink(self, small_clusters):
        spec = JoinSpec(epsilon=0.08)
        expected = oracle_self_pairs(small_clusters, spec)
        counter = PairCounter()
        report = external_self_join(
            small_clusters, spec, memory_points=400, sink=counter
        )
        assert counter.count == len(expected)
        assert report.stats.pairs_emitted == len(expected)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            external_self_join(np.zeros((4, 2)), JoinSpec(epsilon=0.1), 1)

    def test_tiny_inputs(self):
        spec = JoinSpec(epsilon=0.1)
        assert external_self_join(np.empty((0, 2)), spec, 100).stats.pairs_emitted == 0
        assert external_self_join(np.zeros((1, 2)), spec, 100).stats.pairs_emitted == 0


class TestExternalTwoSetJoin:
    def make_pair(self):
        left = gaussian_clusters(900, 6, clusters=5, sigma=0.05, seed=71)
        right = gaussian_clusters(700, 6, clusters=5, sigma=0.05, seed=71) + 0.01
        return left, right

    @pytest.mark.parametrize("budget", [150, 400, 5000])
    def test_matches_oracle_across_budgets(self, budget):
        from _oracles import oracle_two_set_pairs

        left, right = self.make_pair()
        spec = JoinSpec(epsilon=0.1, leaf_size=32)
        expected = oracle_two_set_pairs(left, right, spec)
        assert len(expected) > 0
        report = external_join(left, right, spec, memory_points=budget)
        assert_same_pairs(report.pairs, expected, f"two-set budget={budget}")

    def test_orientation_preserved(self):
        left = np.array([[0.0, 0.0], [0.9, 0.9]])
        right = np.array([[0.05, 0.0]])
        report = external_join(left, right, JoinSpec(epsilon=0.1), memory_points=10)
        assert report.pairs.tolist() == [[0, 0]]

    def test_cross_stripe_pairs_both_directions(self):
        # r below the boundary pairing with s above it, and vice versa.
        filler = np.column_stack(
            [np.linspace(0, 1, 300), np.zeros(300)]
        )
        left = np.vstack([[[0.499, 0.5]], [[0.502, 0.9]], filler])
        right = np.vstack([[[0.501, 0.5]], [[0.498, 0.9]], filler + 2.0])
        spec = JoinSpec(epsilon=0.01)
        from _oracles import oracle_two_set_pairs

        expected = oracle_two_set_pairs(left, right, spec)
        report = external_join(left, right, spec, memory_points=60)
        assert report.stripes > 1
        assert_same_pairs(report.pairs, expected, "cross-stripe two-set")

    def test_empty_sides(self):
        spec = JoinSpec(epsilon=0.1)
        empty = np.empty((0, 3))
        other = np.zeros((4, 3))
        assert external_join(empty, other, spec, 100).stats.pairs_emitted == 0
        assert external_join(other, empty, spec, 100).stats.pairs_emitted == 0

    def test_dim_mismatch(self):
        with pytest.raises(InvalidParameterError):
            external_join(
                np.zeros((2, 2)), np.zeros((2, 3)), JoinSpec(epsilon=0.1), 100
            )

    def test_io_and_report_fields(self):
        left, right = self.make_pair()
        store = PageStore(page_rows=64)
        spec = JoinSpec(epsilon=0.1)
        report = external_join(
            left, right, spec, memory_points=400, store=store
        )
        assert report.io.reads > 0 and report.io.writes > 0
        assert report.stats.pages_read == report.io.reads
        assert report.peak_memory_points > 0
