"""Unit tests for the filter-cascade distance kernels."""

import numpy as np
import pytest

from repro import JoinSpec
from repro.core.kernels import (
    DEFAULT_BLOCK_DIMS,
    KernelContext,
    KernelPlan,
    build_kernel_context,
    plan_cascade,
)
from repro.core.result import JoinStats
from repro.errors import InvalidParameterError
from repro.metrics import L2, WeightedLpMetric, lp_metric

METRICS = ["l1", "l2", "linf", 2.5]


def _random_case(seed, n=300, d=16, pairs=4000):
    rng = np.random.default_rng(seed)
    points = rng.random((n, d))
    rows_a = rng.integers(0, n, size=pairs)
    rows_b = rng.integers(0, n, size=pairs)
    return points, rows_a, rows_b


def _context(spec, points, **kwargs):
    context = build_kernel_context(spec, points, **kwargs)
    assert context is not None
    return context


class TestPlan:
    def test_orders_unsplit_widest_first(self):
        spec = JoinSpec(epsilon=0.1, filter_dims=2)
        spreads = np.array([1.0, 4.0, 2.0, 3.0])
        plan = plan_cascade(spec, spreads, split_dims=[1], sort_dim=0)
        # Unsplit non-sort dims (3, 2) by descending spread, then the
        # split dim 1, then the sort dim last.
        assert plan.order == (3, 2, 1, 0)
        assert plan.n_filters == 2
        assert plan.n_stages == 3

    def test_rejects_single_dimension(self):
        with pytest.raises(InvalidParameterError):
            plan_cascade(JoinSpec(epsilon=0.1), np.array([1.0]))

    def test_auto_filter_count_scales_with_dims(self):
        spec = JoinSpec(epsilon=0.1)
        assert spec.resolved_filter_dims(8) == 1
        assert spec.resolved_filter_dims(16) == 2
        assert spec.resolved_filter_dims(32) == 3
        assert spec.resolved_filter_dims(64) == 3  # capped
        assert spec.resolved_filter_dims(2) == 1

    def test_explicit_filter_dims_clamped_below_d(self):
        spec = JoinSpec(epsilon=0.1, filter_dims=10)
        assert spec.resolved_filter_dims(4) == 3

    def test_stage_count_depends_only_on_spec_and_dims(self):
        # The stripe merge element-wise adds survivor lists; every stripe
        # of one join must therefore produce the same number of stages.
        spec = JoinSpec(epsilon=0.1)
        for split, sort in [((), None), ((0, 1), 2), ((3,), 0)]:
            plan = plan_cascade(
                spec, np.ones(16), split_dims=split, sort_dim=sort
            )
            assert plan.n_stages == spec.resolved_filter_dims(16) + 1


class TestCascadeEnablement:
    def test_auto_gates_on_dimensionality(self):
        spec = JoinSpec(epsilon=0.1)
        assert not spec.cascade_enabled(2)
        assert not spec.cascade_enabled(7)
        assert spec.cascade_enabled(8)
        assert spec.cascade_enabled(64)

    def test_off_and_on(self):
        assert not JoinSpec(epsilon=0.1, cascade="off").cascade_enabled(64)
        assert JoinSpec(epsilon=0.1, cascade="on").cascade_enabled(2)
        assert not JoinSpec(epsilon=0.1, cascade="on").cascade_enabled(1)

    def test_invalid_cascade_value_rejected(self):
        with pytest.raises(InvalidParameterError):
            JoinSpec(epsilon=0.1, cascade="maybe")

    def test_unsupported_metric_disables(self):
        class NoCascade(L2.__class__):
            supports_cascade = False

        spec = JoinSpec(epsilon=0.1, metric=NoCascade(2))
        assert not spec.cascade_enabled(16)
        assert build_kernel_context(spec, np.zeros((10, 16))) is None


class TestEquivalence:
    @pytest.mark.parametrize("metric", METRICS, ids=str)
    def test_matches_monolithic_within_rows(self, metric):
        points, rows_a, rows_b = _random_case(0)
        spec = JoinSpec(epsilon=0.9, metric=metric)
        context = _context(spec, points)
        expected = spec.metric.within_rows(
            points, points, rows_a, rows_b, spec.epsilon
        )
        got = context.within_rows(rows_a, rows_b)
        assert (got == expected).all()

    def test_matches_on_exact_boundary_pairs(self):
        # Quantized coordinates force distances exactly equal to eps;
        # the cascade's inclusive boundary must match the monolithic one.
        rng = np.random.default_rng(1)
        points = rng.integers(0, 4, size=(200, 12)).astype(np.float64) / 4.0
        rows_a = rng.integers(0, 200, size=3000)
        rows_b = rng.integers(0, 200, size=3000)
        for metric in ("l1", "l2", "linf"):
            spec = JoinSpec(epsilon=0.5, metric=metric)
            context = _context(spec, points)
            expected = spec.metric.within_rows(
                points, points, rows_a, rows_b, spec.epsilon
            )
            assert (context.within_rows(rows_a, rows_b) == expected).all()

    def test_weighted_metric_matches(self):
        rng = np.random.default_rng(2)
        d = 10
        metric = WeightedLpMetric(2, rng.uniform(0.25, 4.0, size=d))
        points = rng.random((150, d))
        rows_a = rng.integers(0, 150, size=2000)
        rows_b = rng.integers(0, 150, size=2000)
        spec = JoinSpec(epsilon=0.8, metric=metric)
        context = _context(spec, points)
        expected = metric.within_rows(points, points, rows_a, rows_b, 0.8)
        assert (context.within_rows(rows_a, rows_b) == expected).all()

    def test_two_sided_columns(self):
        rng = np.random.default_rng(3)
        points_a = rng.random((120, 12))
        points_b = rng.random((90, 12))
        rows_a = rng.integers(0, 120, size=2500)
        rows_b = rng.integers(0, 90, size=2500)
        spec = JoinSpec(epsilon=0.7)
        context = _context(spec, points_a, points_b=points_b)
        expected = L2.within_rows(points_a, points_b, rows_a, rows_b, 0.7)
        assert (context.within_rows(rows_a, rows_b) == expected).all()

    def test_float32_columns_match_float32_monolithic(self):
        points, rows_a, rows_b = _random_case(4)
        points = points.astype(np.float32)
        spec = JoinSpec(epsilon=0.9)
        context = _context(spec, points)
        expected = L2.within_rows(points, points, rows_a, rows_b, 0.9)
        assert (context.within_rows(rows_a, rows_b) == expected).all()

    def test_chunking_does_not_change_results(self, monkeypatch):
        import repro.core.kernels as kernels_module

        points, rows_a, rows_b = _random_case(5, pairs=977)
        spec = JoinSpec(epsilon=0.9)
        full = _context(spec, points).within_rows(rows_a, rows_b)
        monkeypatch.setattr(kernels_module, "_ROW_CHUNK", 100)
        chunked = _context(spec, points).within_rows(rows_a, rows_b)
        assert (full == chunked).all()

    def test_tiny_block_dims_do_not_change_results(self):
        points, rows_a, rows_b = _random_case(6, d=20)
        spec = JoinSpec(epsilon=1.1, metric="l1")
        reference = _context(spec, points).within_rows(rows_a, rows_b)
        plan = plan_cascade(
            spec,
            points.max(axis=0) - points.min(axis=0),
            block_dims=2,
        )
        context = KernelContext(plan, spec, np.ascontiguousarray(points.T))
        assert (context.within_rows(rows_a, rows_b) == reference).all()


class TestStats:
    def test_counters_populate_and_survivors_monotone(self):
        points, rows_a, rows_b = _random_case(10, d=24)
        spec = JoinSpec(epsilon=1.0)
        context = _context(spec, points)
        stats = JoinStats()
        context.within_rows(rows_a, rows_b, stats)
        assert stats.cascade_candidates == len(rows_a)
        assert len(stats.cascade_survivors) == context.plan.n_stages
        survivors = stats.cascade_survivors
        assert all(
            survivors[i] >= survivors[i + 1] for i in range(len(survivors) - 1)
        )
        assert survivors[0] <= stats.cascade_candidates
        assert 0 < stats.coordinates_touched
        assert stats.coordinates_touched < stats.cascade_candidates * 24

    def test_counters_accumulate_across_calls(self):
        points, rows_a, rows_b = _random_case(11)
        spec = JoinSpec(epsilon=0.9)
        context = _context(spec, points)
        stats = JoinStats()
        context.within_rows(rows_a, rows_b, stats)
        first = list(stats.cascade_survivors)
        context.within_rows(rows_a, rows_b, stats)
        assert stats.cascade_candidates == 2 * len(rows_a)
        assert stats.cascade_survivors == [2 * v for v in first]

    def test_last_survivor_stage_counts_emitted_rows(self):
        points, rows_a, rows_b = _random_case(12)
        spec = JoinSpec(epsilon=0.9)
        context = _context(spec, points)
        stats = JoinStats()
        mask = context.within_rows(rows_a, rows_b, stats)
        assert stats.cascade_survivors[-1] == int(mask.sum())

    def test_as_dict_expands_stage_keys(self):
        stats = JoinStats(cascade_survivors=[10, 4, 1])
        data = stats.as_dict()
        assert data["cascade_survivors_stage1"] == 10
        assert data["cascade_survivors_stage3"] == 1
        assert "cascade_survivors" not in data

    def test_merge_pads_shorter_survivor_lists(self):
        a = JoinStats(cascade_survivors=[5, 2])
        b = JoinStats(cascade_survivors=[7, 3, 1])
        a.merge(b)
        assert a.cascade_survivors == [12, 5, 1]
        a.merge(JoinStats())
        assert a.cascade_survivors == [12, 5, 1]


class TestValidation:
    def test_mismatched_row_lengths_rejected(self):
        points, rows_a, rows_b = _random_case(13)
        context = _context(JoinSpec(epsilon=0.5), points)
        with pytest.raises(InvalidParameterError):
            context.within_rows(rows_a[:5], rows_b[:4])

    def test_wrong_column_shape_rejected(self):
        plan = KernelPlan(order=(0, 1, 2), n_filters=1)
        with pytest.raises(InvalidParameterError):
            KernelContext(plan, JoinSpec(epsilon=0.5), np.zeros((2, 10)))

    def test_empty_candidate_list(self):
        points, _, _ = _random_case(14)
        context = _context(JoinSpec(epsilon=0.5), points)
        stats = JoinStats()
        mask = context.within_rows(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), stats
        )
        assert mask.shape == (0,)
        assert stats.cascade_candidates == 0

    def test_fractional_metric_short_circuit_key(self):
        # Non-integer p exercises the generic power path end to end.
        metric = lp_metric(1.5)
        acc = metric.accumulate_abs_diff(
            np.zeros(3), np.array([[0.5, 0.5]] * 3), (0, 1)
        )
        assert acc == pytest.approx([2 * 0.5**1.5] * 3)
        assert DEFAULT_BLOCK_DIMS >= 2
