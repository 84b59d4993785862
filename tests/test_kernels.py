"""Unit tests for the filter-cascade distance kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import JoinSpec
from repro.core.epsilon_kdb import Grid
from repro.core.kernels import (
    DEFAULT_BLOCK_DIMS,
    MIN_CASCADE_ROWS,
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

    def test_auto_runs_no_pre_filter(self):
        # Two-column reduction blocks alone measured faster than with
        # pre-filters on clustered and correlated data at d = 4 to 32.
        spec = JoinSpec(epsilon=0.1)
        for dims in (2, 4, 8, 16, 64):
            assert spec.resolved_filter_dims(dims) == 0
        plan = plan_cascade(spec, np.ones(8))
        assert plan.n_stages == 1
        assert plan.stages == ((0, 1), (2, 3), (4, 5), (6, 7))

    def test_stages_put_each_pre_filter_alone(self):
        plan = KernelPlan(order=(4, 0, 3, 1, 2), n_filters=2, block_dims=2)
        assert plan.stages == ((4,), (0,), (3, 1), (2,))

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
        # E16 measures the cascade ahead of the monolithic kernel from d=4.
        spec = JoinSpec(epsilon=0.1)
        assert not spec.cascade_enabled(2)
        assert not spec.cascade_enabled(3)
        assert spec.cascade_enabled(4)
        assert spec.cascade_enabled(6)
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
            block_dims=1,
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


# Metric factories for the exactness property: each takes ``d`` and
# returns a metric.  The weights are dyadic and include values below 1
# (which widen the per-coordinate bound), so a shift of ``eps / w**(1/p)``
# along one axis is exact in binary floating point.
PROPERTY_METRICS = {
    "l1": lambda d: lp_metric(1),
    "l2": lambda d: lp_metric(2),
    "l3": lambda d: lp_metric(3),
    "linf": lambda d: lp_metric(np.inf),
    "weighted-l2": lambda d: WeightedLpMetric(2, np.resize([0.25, 1.0, 0.0625], d)),
    "weighted-linf": lambda d: WeightedLpMetric(np.inf, np.resize([0.5, 1.0, 0.25], d)),
}


class TestExactnessProperty:
    """``filter_chunk`` equals ``metric.within_rows`` bit for bit for any
    stage structure: every pre-filter count, block size and dimension
    order, on tiles large enough that the staged path runs."""

    @settings(max_examples=200, deadline=None)
    @given(
        metric_name=st.sampled_from(sorted(PROPERTY_METRICS)),
        dtype=st.sampled_from([np.float32, np.float64]),
        dims=st.integers(2, 9),
        block=st.sampled_from(["1", "2", "d"]),
        filters=st.integers(0, 8),
        eps=st.sampled_from([0.25, 0.5, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_staged_mask_matches_monolithic(
        self, metric_name, dtype, dims, block, filters, eps, seed
    ):
        rng = np.random.default_rng(seed)
        metric = PROPERTY_METRICS[metric_name](dims)
        n_filters = filters % dims  # 0 .. d-1
        block_dims = {"1": 1, "2": 2, "d": dims}[block]
        # Coordinates on a 1/8 grid make many random pairs sit exactly at
        # distance eps; the shifted copies put one pair per base point
        # there by construction.
        base = rng.integers(0, 16, size=(64, dims)) / 8.0
        axis = rng.integers(0, dims, size=64)
        weight = metric.weights[axis] if hasattr(metric, "weights") else 1.0
        power = getattr(metric, "p", np.inf)
        power = 1.0 if power == np.inf else power
        shifted = base.copy()
        shifted[np.arange(64), axis] += eps / weight ** (1.0 / power)
        points = np.vstack([base, shifted]).astype(dtype)
        rows = 2 * MIN_CASCADE_ROWS
        rows_a = rng.integers(0, 128, size=rows)
        rows_b = rng.integers(0, 128, size=rows)
        rows_a[:64], rows_b[:64] = np.arange(64), np.arange(64, 128)

        spec = JoinSpec(epsilon=eps, metric=metric)
        plan = KernelPlan(
            order=tuple(int(k) for k in rng.permutation(dims)),
            n_filters=n_filters,
            block_dims=block_dims,
        )
        context = KernelContext(plan, spec, np.ascontiguousarray(points.T))
        stats = JoinStats()
        got = context.within_rows(rows_a, rows_b, stats)
        expected = metric.within_rows(points, points, rows_a, rows_b, eps)
        assert expected[:64].all()
        assert np.array_equal(got, expected)
        assert stats.cascade_survivors[-1] == int(expected.sum())


# Metrics for the certified-prefilter property: every cascade metric,
# fractional and weighted ones included.
CERTIFIED_METRICS = {
    "l1": lambda d: lp_metric(1),
    "l1.5": lambda d: lp_metric(1.5),
    "l2": lambda d: lp_metric(2),
    "linf": lambda d: lp_metric(np.inf),
    "weighted-l1.5": lambda d: WeightedLpMetric(1.5, np.resize([0.3, 1.0, 2.5], d)),
    "weighted-l2": lambda d: WeightedLpMetric(2, np.resize([0.25, 1.0, 3.0], d)),
    "weighted-linf": lambda d: WeightedLpMetric(np.inf, np.resize([0.5, 1.0, 4.0], d)),
}


def _boundary_case(rng, metric, dims, span, eps, offset):
    """Base rows in a box, plus query rows built to sit on the margin.

    The queries are base rows shifted by ``eps`` (and one ulp either
    side) along one axis or split over two, duplicates of base rows, and
    rows moved onto and past the box's edges.
    """
    lo = offset * span
    base = lo + rng.random((96, dims)) * span
    base[:8] = base[8:16]  # duplicate points
    base[16] = lo  # the box's corners are data points
    base[17] = lo + span
    weights = getattr(metric, "weights", np.ones(dims))
    power = getattr(metric, "p", 1.0)
    power = 1.0 if power == np.inf else power
    picks = rng.integers(0, len(base), size=60)
    axis = rng.integers(0, dims, size=60)
    queries = [base[picks[:12]]]  # duplicates of base rows
    for step in (eps, np.nextafter(eps, 0.0), np.nextafter(eps, np.inf)):
        shifted = base[picks].copy()
        unit = step / weights[axis] ** (1.0 / power)
        shifted[np.arange(60), axis] += np.where(rng.random(60) < 0.5, unit, -unit)
        queries.append(shifted)
        split = base[picks].copy()
        other = (axis + 1) % dims
        half = unit / 2.0 ** (1.0 / power)
        split[np.arange(60), axis] += half
        ratio = (weights[axis] / weights[other]) ** (1.0 / power)
        split[np.arange(60), other] -= half * ratio
        queries.append(split)
    edges = base[picks].copy()
    side = rng.random(60) < 0.5
    edges[np.arange(60), axis] = np.where(side, lo, lo + span)
    queries.append(edges)
    beyond = edges.copy()
    push = np.where(side, -1.0, 1.0) * rng.choice([eps, span * 1e-3, span], size=60)
    beyond[np.arange(60), axis] += push
    queries.append(beyond)
    return base, np.vstack(queries)


def _assert_certified_mask(metric_name, dims, log_span, eps_frac, offset, filters, seed):
    rng = np.random.default_rng(seed)
    metric = CERTIFIED_METRICS[metric_name](dims)
    span = 10.0**log_span
    # eps from 1e-300 up to the span: both store precisions run.
    eps = 10.0 ** (-300.0 + eps_frac * (log_span + 300.0))
    base, queries = _boundary_case(rng, metric, dims, span, eps, offset)
    spec = JoinSpec(epsilon=eps, metric=metric, filter_dims=filters % dims or None)
    context = build_kernel_context(
        spec, queries, points_b=base, grid=Grid.fit(base, spec.band_width)
    )
    rows_a = np.repeat(np.arange(len(queries)), len(base))
    rows_b = np.tile(np.arange(len(base)), len(queries))
    expected = metric.within_rows(queries, base, rows_a, rows_b, eps)
    stats = JoinStats()
    got = context.within_rows(rows_a, rows_b, stats)
    assert np.array_equal(got, expected)
    assert stats.cascade_survivors[-1] == int(expected.sum())
    # The same candidates as band windows, in both orientations.
    starts = np.zeros(len(queries), dtype=np.int64)
    left, right = context.filter_windows(
        np.arange(len(queries)), starts, starts + len(base)
    )
    assert np.array_equal(left, rows_a[expected])
    assert np.array_equal(right, rows_b[expected])


class TestCertifiedPrefilter:
    """The certified prefilter drops only rows the exact check rejects:
    the mask equals ``metric.within_rows`` bit for bit on pairs at ``eps``
    and one ulp either side, queries on and beyond the box edges,
    duplicate points, spans from 1e-12 to 1e12 and eps from 1e-300 up to
    the span, for every cascade metric."""

    CASE = dict(
        metric_name=st.sampled_from(sorted(CERTIFIED_METRICS)),
        dims=st.integers(4, 9),
        log_span=st.integers(-12, 12),
        eps_frac=st.floats(0.0, 1.0),
        offset=st.sampled_from([0.0, 1.0, -1e3]),
        filters=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )

    @settings(max_examples=120, deadline=None)
    @given(**CASE)
    def test_mask_matches_monolithic_bit_for_bit(self, **case):
        _assert_certified_mask(**case)

    @pytest.mark.slow
    @settings(max_examples=2000, deadline=None)
    @given(**CASE)
    def test_mask_matches_monolithic_bit_for_bit_extended(self, **case):
        _assert_certified_mask(**case)

    @pytest.mark.parametrize(
        "log_span, eps, dtype",
        [(0, 0.1, "complex64"), (0, 1e-4, "complex128"), (12, 1e-300, "complex128")],
    )
    def test_precision_rule_follows_span_over_eps(self, log_span, eps, dtype):
        spec = JoinSpec(epsilon=eps, metric="l1")
        points = np.random.default_rng(1).random((50, 8)) * 10.0**log_span
        context = build_kernel_context(spec, points)
        assert context.layout.dtype == dtype

    def test_keys_near_underflow_prune_nothing(self):
        # eps**2 underflows: the monolithic check accepts whatever its own
        # underflow accepts, so no stage may prune.
        points = np.random.default_rng(2).random((40, 6)) * 1e-300
        context = build_kernel_context(JoinSpec(epsilon=1e-300), points)
        assert context.layout is None
        rows = np.arange(40)
        expected = L2.within_rows(points, points, rows, rows[::-1], 1e-300)
        assert np.array_equal(context.within_rows(rows, rows[::-1]), expected)

    def test_float32_margin_costs_no_pruning(self, monkeypatch):
        """On clustered d=8 data the float32 stages pass within 0.1% of
        the rows float64 stages pass to the exact check."""
        import repro.core.kernels as kernels_module
        from repro.core.sweep import iter_band_pairs_self
        from repro.datasets import gaussian_clusters

        points = gaussian_clusters(4000, 8, clusters=10, sigma=0.05, seed=3)
        spec = JoinSpec(epsilon=0.08)
        order = np.argsort(points[:, 0], kind="stable")
        chunks = list(iter_band_pairs_self(points[order, 0], spec.epsilon))
        rows_a = order[np.concatenate([a for a, _ in chunks])]
        rows_b = order[np.concatenate([b for _, b in chunks])]
        passed = {}
        for widening in (kernels_module._FLOAT32_WIDENING, -1.0):
            monkeypatch.setattr(kernels_module, "_FLOAT32_WIDENING", widening)
            context = build_kernel_context(spec, points, sort_dim=0)
            _, targets, *_ = context._stages(
                None, len(rows_a), context.store_a, context.store_b, rows_a, rows_b
            )
            passed[context.layout.dtype] = len(targets)
        exact = int(spec.metric.within_rows(
            points, points, rows_a, rows_b, spec.epsilon
        ).sum())
        assert exact > 1000
        assert passed["complex128"] >= exact
        assert abs(passed["complex64"] - passed["complex128"]) <= 1e-3 * passed["complex128"]
