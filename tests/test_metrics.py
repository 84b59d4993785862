"""Unit tests for the L_p distance kernels."""

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.metrics import (
    L1,
    L2,
    LINF,
    LpMetric,
    WeightedLpMetric,
    get_metric,
    lp_metric,
)

try:
    from scipy.spatial import distance as sp_distance

    HAVE_SCIPY = True
except ImportError:  # pragma: no cover - scipy is installed in CI
    HAVE_SCIPY = False


class TestPairDistances:
    def test_l2_matches_hand_computation(self):
        assert L2.pair([0.0, 0.0], [3.0, 4.0]) == pytest.approx(5.0)

    def test_l1_matches_hand_computation(self):
        assert L1.pair([1.0, 2.0], [4.0, 0.0]) == pytest.approx(5.0)

    def test_linf_matches_hand_computation(self):
        assert LINF.pair([1.0, 2.0], [4.0, 0.0]) == pytest.approx(3.0)

    def test_lp_general_order(self):
        metric = lp_metric(3)
        expected = (abs(1.0 - 4.0) ** 3 + abs(2.0 - 0.0) ** 3) ** (1 / 3)
        assert metric.pair([1.0, 2.0], [4.0, 0.0]) == pytest.approx(expected)

    def test_zero_distance_for_identical_points(self):
        point = np.array([0.3, 0.7, 0.1])
        for metric in (L1, L2, LINF, lp_metric(4)):
            assert metric.pair(point, point) == pytest.approx(0.0)

    @pytest.mark.skipif(not HAVE_SCIPY, reason="scipy unavailable")
    def test_agrees_with_scipy_on_random_points(self):
        rng = np.random.default_rng(0)
        xs = rng.normal(size=(50, 7))
        ys = rng.normal(size=(50, 7))
        for x, y in zip(xs, ys):
            assert L2.pair(x, y) == pytest.approx(sp_distance.euclidean(x, y))
            assert L1.pair(x, y) == pytest.approx(sp_distance.cityblock(x, y))
            assert LINF.pair(x, y) == pytest.approx(
                sp_distance.chebyshev(x, y)
            )


class TestWithinPredicates:
    def test_within_pair_is_inclusive(self):
        assert L2.within_pair([0.0], [1.0], 1.0)
        assert not L2.within_pair([0.0], [1.0], 0.999)

    def test_within_rows_matches_pairwise(self):
        rng = np.random.default_rng(1)
        points = rng.random((40, 5))
        rows_a = rng.integers(0, 40, size=200)
        rows_b = rng.integers(0, 40, size=200)
        for metric in (L1, L2, LINF, lp_metric(2.5)):
            mask = metric.within_rows(points, points, rows_a, rows_b, 0.6)
            expected = np.array(
                [
                    metric.pair(points[a], points[b]) <= 0.6
                    for a, b in zip(rows_a, rows_b)
                ]
            )
            assert (mask == expected).all()

    def test_within_rows_rejects_mismatched_lengths(self):
        points = np.zeros((4, 2))
        with pytest.raises(InvalidParameterError):
            L2.within_rows(points, points, np.arange(3), np.arange(2), 0.5)

    def test_within_rows_chunking_consistency(self, monkeypatch):
        import repro.metrics.lp as lp_module

        rng = np.random.default_rng(2)
        points = rng.random((30, 4))
        rows_a = rng.integers(0, 30, size=500)
        rows_b = rng.integers(0, 30, size=500)
        full = L2.within_rows(points, points, rows_a, rows_b, 0.4)
        monkeypatch.setattr(lp_module, "_ROW_CHUNK", 17)
        chunked = L2.within_rows(points, points, rows_a, rows_b, 0.4)
        assert (full == chunked).all()

    def test_within_block_matches_within_rows(self):
        rng = np.random.default_rng(3)
        block_a = rng.random((12, 6))
        block_b = rng.random((9, 6))
        mask = L2.within_block(block_a, block_b, 0.7)
        for i in range(12):
            for j in range(9):
                assert mask[i, j] == L2.within_pair(block_a[i], block_b[j], 0.7)

    def test_within_gap_box_semantics(self):
        # gap vector (0.3, 0.4): L2 mindist 0.5, L1 0.7, Linf 0.4
        gaps = np.array([0.3, 0.4])
        assert L2.within_gap(gaps, 0.5)
        assert not L2.within_gap(gaps, 0.49)
        assert L1.within_gap(gaps, 0.7)
        assert not L1.within_gap(gaps, 0.69)
        assert LINF.within_gap(gaps, 0.4)
        assert not LINF.within_gap(gaps, 0.39)


class TestDtypePropagation:
    """float32 inputs must stay float32 through the kernels: upcasting
    to float64 would double the peak memory of every gathered block."""

    METRICS = (
        L1,
        L2,
        LINF,
        lp_metric(2.5),
        WeightedLpMetric(2, [0.5, 2.0, 1.0, 0.25]),
        WeightedLpMetric(np.inf, [0.5, 2.0, 1.0, 0.25]),
    )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_reduce_preserves_dtype(self, dtype):
        diff = np.abs(np.random.default_rng(5).normal(size=(20, 4))).astype(dtype)
        for metric in self.METRICS:
            assert metric._reduce_abs_diff(diff).dtype == dtype, metric.name

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_accumulate_preserves_dtype(self, dtype):
        rng = np.random.default_rng(6)
        diff = np.abs(rng.normal(size=(20, 2))).astype(dtype)
        acc = np.zeros(20, dtype=dtype)
        for metric in self.METRICS:
            out = metric.accumulate_abs_diff(acc, diff, (1, 3))
            assert out.dtype == dtype, metric.name

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int64])
    def test_accumulate_column_matches_block(self, dtype):
        """The column-at-a-time fold gives the one-column block fold's
        values bit for bit, in the block fold's dtype."""
        rng = np.random.default_rng(9)
        diff = np.abs(rng.normal(size=20) * 4).astype(dtype)
        acc = np.abs(rng.normal(size=20) * 4).astype(dtype)
        for metric in self.METRICS:
            expected = metric.accumulate_abs_diff(acc, diff[:, None], (3,))
            got = metric.accumulate_abs_column(acc.copy(), diff.copy(), 3)
            assert got.dtype == expected.dtype, metric.name
            assert got.tobytes() == expected.tobytes(), metric.name

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int64])
    def test_accumulate_column_starts_a_key(self, dtype):
        """``acc=None`` starts the key from the column: the same bits as
        folding it into zeros."""
        diff = np.abs(np.random.default_rng(10).normal(size=20) * 4).astype(dtype)
        for metric in self.METRICS:
            expected = metric.accumulate_abs_diff(
                np.zeros(20, dtype=dtype), diff[:, None], (3,)
            )
            got = metric.accumulate_abs_column(None, diff.copy(), 3)
            assert got.dtype == expected.dtype, metric.name
            assert got.tobytes() == expected.tobytes(), metric.name

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_squared_key_folds_signed_difference(self, dtype):
        """A metric that sets ``squared_key`` folds ``x - y`` and
        ``|x - y|`` to the same bits; the others do not claim it."""
        rng = np.random.default_rng(11)
        signed = (rng.normal(size=20) * 4).astype(dtype)
        acc = np.abs(rng.normal(size=20) * 4).astype(dtype)
        squared = {m.name for m in self.METRICS if m.squared_key}
        assert squared == {"l2", "weighted-l2"}
        for metric in self.METRICS:
            if not metric.squared_key:
                continue
            for start in (None, acc):
                copy = None if start is None else start.copy()
                expected = metric.accumulate_abs_column(copy, np.abs(signed), 3)
                copy = None if start is None else start.copy()
                got = metric.accumulate_abs_column(copy, signed.copy(), 3)
                assert got.tobytes() == expected.tobytes(), metric.name

    def test_float32_rows_match_float64(self):
        rng = np.random.default_rng(7)
        points64 = rng.random((50, 4))
        points32 = points64.astype(np.float32)
        rows_a = rng.integers(0, 50, size=300)
        rows_b = rng.integers(0, 50, size=300)
        for metric in self.METRICS:
            # Compare away from the boundary so rounding the coordinates
            # to float32 cannot legitimately flip a verdict.
            dist = metric.distance_rows(points64, points64, rows_a, rows_b)
            eps = float(np.median(dist))
            safe = np.abs(dist - eps) > 1e-3
            m64 = metric.within_rows(points64, points64, rows_a, rows_b, eps)
            m32 = metric.within_rows(points32, points32, rows_a, rows_b, eps)
            assert (m64[safe] == m32[safe]).all(), metric.name

    def test_float32_block_matches_float64(self):
        rng = np.random.default_rng(8)
        block_a = rng.random((15, 4))
        block_b = rng.random((12, 4))
        for metric in self.METRICS:
            m64 = metric.within_block(block_a, block_b, 0.8)
            m32 = metric.within_block(
                block_a.astype(np.float32), block_b.astype(np.float32), 0.8
            )
            assert (m64 == m32).all(), metric.name

    def test_weight_cache_returns_same_array(self):
        metric = WeightedLpMetric(2, [1.0, 2.0])
        first = metric._weights_as(np.dtype(np.float32))
        second = metric._weights_as(np.dtype(np.float32))
        assert first is second
        assert first.dtype == np.float32
        assert metric._weights_as(np.dtype(np.float64)) is metric.weights
        # int inputs keep the float64 weights: the weighted key cannot
        # live in an integer dtype anyway.
        assert metric._weights_as(np.dtype(np.int64)) is metric.weights


class TestResolution:
    def test_named_lookup(self):
        assert get_metric("euclidean") is L2
        assert get_metric("manhattan") is L1
        assert get_metric("chebyshev") is LINF
        assert get_metric("MAX") is LINF

    def test_numeric_lookup(self):
        assert isinstance(get_metric(2), LpMetric)
        assert get_metric(2).p == 2.0
        assert get_metric(float("inf")) is LINF

    def test_instance_passthrough(self):
        metric = lp_metric(1.5)
        assert get_metric(metric) is metric

    def test_unknown_name_raises(self):
        with pytest.raises(InvalidParameterError):
            get_metric("hamming")

    def test_invalid_order_raises(self):
        with pytest.raises(InvalidParameterError):
            LpMetric(0.5)
        with pytest.raises(InvalidParameterError):
            LpMetric(float("nan"))

    def test_uninterpretable_raises(self):
        with pytest.raises(InvalidParameterError):
            get_metric(["l2"])


class TestKeySpace:
    def test_key_unkey_roundtrip(self):
        for metric in (L1, L2, LINF, lp_metric(3)):
            for eps in (0.01, 0.5, 2.0):
                assert metric.unkey(metric.key(eps)) == pytest.approx(eps)

    def test_distance_rows_values(self):
        points = np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 1.0]])
        dists = L2.distance_rows(points, points, [0, 0], [1, 2])
        assert dists == pytest.approx([5.0, np.sqrt(2.0)])
