"""Unit tests for pair sinks and join statistics."""

import numpy as np

from repro.core.result import (
    JoinStats,
    PairCollector,
    PairCounter,
    canonicalize_self_pairs,
    canonicalize_two_set_pairs,
    sort_pairs,
    sorted_unique,
)


class TestPairCounter:
    def test_counts_emitted_pairs(self):
        sink = PairCounter()
        sink.emit(np.array([1, 2]), np.array([3, 4]))
        sink.emit(np.array([5]), np.array([6]))
        assert sink.count == 3

    def test_empty_emit_is_noop(self):
        sink = PairCounter()
        sink.emit(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        assert sink.count == 0


class TestPairCollector:
    def test_collects_and_concatenates(self):
        sink = PairCollector()
        sink.emit(np.array([1, 2]), np.array([3, 4]))
        sink.emit(np.array([5]), np.array([6]))
        left, right = sink.arrays()
        assert left.tolist() == [1, 2, 5]
        assert right.tolist() == [3, 4, 6]
        assert sink.count == 3

    def test_pairs_shape(self):
        sink = PairCollector()
        sink.emit(np.array([0]), np.array([1]))
        assert sink.pairs().shape == (1, 2)

    def test_empty_collector(self):
        sink = PairCollector()
        assert sink.pairs().shape == (0, 2)
        left, right = sink.arrays()
        assert len(left) == 0 and len(right) == 0
        assert sink.sorted_pairs().shape == (0, 2)

    def test_sorted_pairs_lexicographic(self):
        sink = PairCollector()
        sink.emit(np.array([3, 1, 1]), np.array([4, 9, 2]))
        assert sink.sorted_pairs().tolist() == [[1, 2], [1, 9], [3, 4]]

    def test_emit_copies_into_int64(self):
        sink = PairCollector()
        sink.emit(np.array([1], dtype=np.int32), np.array([2], dtype=np.int32))
        left, right = sink.arrays()
        assert left.dtype == np.int64 and right.dtype == np.int64


class TestJoinStats:
    def test_merge_accumulates_every_counter(self):
        a = JoinStats(
            distance_computations=1,
            node_pairs_visited=2,
            leaf_joins=3,
            pairs_emitted=4,
            pages_read=5,
            pages_written=6,
        )
        b = JoinStats(
            distance_computations=10,
            node_pairs_visited=20,
            leaf_joins=30,
            pairs_emitted=40,
            pages_read=50,
            pages_written=60,
        )
        a.merge(b)
        assert (
            a.distance_computations,
            a.node_pairs_visited,
            a.leaf_joins,
            a.pairs_emitted,
            a.pages_read,
            a.pages_written,
        ) == (11, 22, 33, 44, 55, 66)


class TestCanonicalize:
    def test_orients_dedupes_and_sorts(self):
        left = np.array([5, 2, 5, 7])
        right = np.array([2, 5, 2, 7])
        pairs = canonicalize_self_pairs(left, right)
        # (5,2) and (2,5) collapse to one (2,5); (7,7) is dropped.
        assert pairs.tolist() == [[2, 5]]

    def test_empty_input(self):
        pairs = canonicalize_self_pairs(np.array([]), np.array([]))
        assert pairs.shape == (0, 2)


def _reference(left, right, dedupe):
    pairs = np.column_stack([left, right]).astype(np.int64)
    pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
    if dedupe and len(pairs):
        pairs = np.unique(pairs, axis=0)
    return pairs.reshape(-1, 2)


class TestSortPairs:
    def test_packed_key_matches_lexsort(self):
        rng = np.random.default_rng(5)
        for low, high in ((0, 50), (-30, 30), (0, 2**20)):
            left = rng.integers(low, high, 500)
            right = rng.integers(low, high, 500)
            for dedupe in (False, True):
                got = sort_pairs(left, right, dedupe=dedupe)
                want = _reference(left, right, dedupe)
                assert got.dtype == np.int64 and got.flags.c_contiguous
                assert got.tobytes() == want.tobytes()

    def test_overflowing_range_takes_the_lexsort_path(self, monkeypatch):
        big = 2**40
        left = np.array([big, 0, big, 5, 0], dtype=np.int64)
        right = np.array([big, 1, big, -big, 1], dtype=np.int64)
        calls = []
        lexsort = np.lexsort
        monkeypatch.setattr(
            np, "lexsort", lambda keys: calls.append(1) or lexsort(keys)
        )
        assert sort_pairs(left, right).tobytes() == (
            np.array([[0, 1], [0, 1], [5, -big], [big, big], [big, big]])
            .astype(np.int64).tobytes()
        )
        assert sort_pairs(left, right, dedupe=True).tolist() == [
            [0, 1], [5, -big], [big, big]
        ]
        assert len(calls) == 2
        # In range, the packed key runs and lexsort is never called.
        sort_pairs(np.arange(5), np.arange(5)[::-1], dedupe=True)
        assert len(calls) == 2

    def test_canonicalize_two_set_keeps_sides(self):
        pairs = canonicalize_two_set_pairs(
            np.array([3, 1, 3, 0]), np.array([0, 2, 0, 9])
        )
        assert pairs.tolist() == [[0, 9], [1, 2], [3, 0]]
        assert canonicalize_two_set_pairs([], []).shape == (0, 2)

    def test_sorted_unique(self):
        assert sorted_unique(np.array([4, 1, 4, 4, 0, 1])).tolist() == [0, 1, 4]
        assert sorted_unique(np.array([7])).tolist() == [7]
        assert len(sorted_unique(np.array([], dtype=np.int64))) == 0
