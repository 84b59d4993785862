"""Crash-consistent persistence: snapshots, WAL, and recovery.

Three layers of coverage:

* unit tests of the on-disk formats — frame/record codecs, scan
  tolerance for torn and bit-flipped suffixes, snapshot header/array
  checksums, generation listing and pruning;
* end-to-end session tests — persist, close, :meth:`IncrementalJoin.open`,
  and the corruption matrix: for every injected fault kind the reopened
  session's accumulated pair set must be byte-identical to a
  never-crashed oracle's;
* a hypothesis state machine that interleaves updates with crashes
  (torn appends, publish crashes, abrupt kills) and re-opens, checking
  the oracle property after arbitrary histories.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import zlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from _oracles import assert_same_pairs, oracle_self_pairs, oracle_two_set_pairs
from repro import JoinSpec, similarity_join
from repro.core.incremental import IncrementalJoin
from repro.core.resilience import FaultPlan
from repro.errors import (
    CorruptSnapshotError,
    InvalidParameterError,
    SessionCrashError,
    StorageError,
)
from repro.metrics import Metric
from repro.obs import trace
from repro.storage.snapshot import (
    encode_snapshot,
    list_snapshots,
    load_snapshot,
    prune_snapshots,
    snapshot_filename,
    write_snapshot,
)
from repro.storage.wal import (
    OP_DELETE,
    OP_INSERT,
    WAL_FILENAME,
    WriteAheadLog,
    decode_record,
    encode_delete,
    encode_insert,
    scan_wal,
)

EMPTY_PAIRS = np.empty((0, 2), dtype=np.int64)


def oracle_id_pairs(mirror: dict, spec: JoinSpec) -> np.ndarray:
    """Brute-force join over a mirror {id: point}, mapped back to ids."""
    ids = np.array(sorted(mirror), dtype=np.int64)
    if len(ids) < 2:
        return EMPTY_PAIRS.copy()
    points = np.array([mirror[int(i)] for i in ids])
    local = oracle_self_pairs(points, spec)
    if not len(local):
        return EMPTY_PAIRS.copy()
    pairs = ids[local]
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


# ----------------------------------------------------------------------
# WAL format
# ----------------------------------------------------------------------
class TestWalFormat:
    def test_record_codec_roundtrip(self):
        points = np.arange(12.0).reshape(4, 3)
        rec = decode_record(encode_insert(7, points))
        assert (rec.seq, rec.op) == (7, OP_INSERT)
        assert np.array_equal(rec.points, points)
        ids = np.array([3, 1, 99], dtype=np.int64)
        rec = decode_record(encode_delete(8, ids))
        assert (rec.seq, rec.op) == (8, OP_DELETE)
        assert np.array_equal(rec.ids, ids)

    def test_decode_rejects_garbage(self):
        with pytest.raises(StorageError):
            decode_record(b"\x00")
        bad_op = encode_insert(1, np.zeros((1, 2)))[:8] + b"\x77" + b"\x00" * 16
        with pytest.raises(StorageError):
            decode_record(bad_op)

    def test_scan_roundtrip(self, tmp_path):
        path = str(tmp_path / WAL_FILENAME)
        wal = WriteAheadLog(path)
        wal.append_insert(1, np.ones((2, 2)))
        wal.append_delete(2, np.array([0], dtype=np.int64))
        wal.close()
        records, valid_bytes, discarded = scan_wal(path)
        assert [r.seq for r in records] == [1, 2]
        assert discarded == 0
        assert valid_bytes == os.path.getsize(path)

    def test_scan_missing_file_is_empty(self, tmp_path):
        records, _, discarded = scan_wal(str(tmp_path / "nope.ekdb"))
        assert records == [] and discarded == 0

    def test_torn_suffix_is_discarded(self, tmp_path):
        path = str(tmp_path / WAL_FILENAME)
        wal = WriteAheadLog(path)
        wal.append_insert(1, np.ones((2, 2)))
        prefix = os.path.getsize(path)
        wal.append_insert(2, np.ones((2, 2)))
        wal.close()
        with open(path, "r+b") as handle:
            handle.truncate(prefix + 5)  # tear record 2 mid-frame
        records, valid_bytes, discarded = scan_wal(path)
        assert [r.seq for r in records] == [1]
        assert valid_bytes == prefix
        assert discarded == 1

    def test_bit_flip_is_discarded(self, tmp_path):
        path = str(tmp_path / WAL_FILENAME)
        wal = WriteAheadLog(path)
        wal.append_insert(1, np.ones((2, 2)))
        prefix = os.path.getsize(path)
        wal.append_insert(2, np.full((2, 2), 3.0))
        wal.append_insert(3, np.full((2, 2), 4.0))
        wal.close()
        with open(path, "r+b") as handle:
            handle.seek(prefix + 12)
            byte = handle.read(1)
            handle.seek(prefix + 12)
            handle.write(bytes([byte[0] ^ 0x01]))
        records, valid_bytes, discarded = scan_wal(path)
        # record 2 fails its CRC; record 3 sits after damage -> untrusted
        assert [r.seq for r in records] == [1]
        assert valid_bytes == prefix
        assert discarded == 1

    def test_damaged_header_reads_empty(self, tmp_path):
        path = str(tmp_path / WAL_FILENAME)
        wal = WriteAheadLog(path)
        wal.append_insert(1, np.ones((1, 1)))
        wal.close()
        with open(path, "r+b") as handle:
            handle.write(b"NOTAWAL!")
        records, _, discarded = scan_wal(path)
        assert records == [] and discarded == 1

    def test_reset_truncates_to_header(self, tmp_path):
        path = str(tmp_path / WAL_FILENAME)
        wal = WriteAheadLog(path)
        wal.append_insert(1, np.ones((4, 4)))
        wal.reset()
        wal.close()
        records, _, discarded = scan_wal(path)
        assert records == [] and discarded == 0

    def test_invalid_sync_mode_rejected(self, tmp_path):
        with pytest.raises(InvalidParameterError, match="sync_mode"):
            WriteAheadLog(str(tmp_path / "w"), sync_mode="sometimes")


# ----------------------------------------------------------------------
# snapshot format
# ----------------------------------------------------------------------
def _sample_state():
    meta = {"snap_seq": 3, "wal_seq": 17, "note": "unit"}
    arrays = {
        "ids": np.array([5, 9, 12], dtype=np.int64),
        "alive": np.array([True, False, True]),
        "points": np.arange(12.0).reshape(3, 4),
        "empty": np.empty((0, 4), dtype=np.float64),
    }
    return meta, arrays


class TestSnapshotFormat:
    def test_encode_load_roundtrip(self, tmp_path):
        meta, arrays = _sample_state()
        path, nbytes = write_snapshot(str(tmp_path), 3, meta, arrays)
        assert os.path.getsize(path) == nbytes
        loaded_meta, loaded = load_snapshot(path)
        assert loaded_meta["wal_seq"] == 17
        for name, expected in arrays.items():
            got = loaded[name]
            assert got.dtype == expected.dtype, name
            assert got.shape == expected.shape, name
            assert np.array_equal(got, expected), name

    def test_no_tmp_file_left_behind(self, tmp_path):
        meta, arrays = _sample_state()
        write_snapshot(str(tmp_path), 0, meta, arrays)
        assert not [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]

    def test_listing_orders_and_prunes_generations(self, tmp_path):
        meta, arrays = _sample_state()
        for seq in (2, 0, 1):
            write_snapshot(str(tmp_path), seq, meta, arrays)
        assert [seq for seq, _ in list_snapshots(str(tmp_path))] == [0, 1, 2]
        prune_snapshots(str(tmp_path), keep=2)
        assert [seq for seq, _ in list_snapshots(str(tmp_path))] == [1, 2]

    def test_truncation_detected(self, tmp_path):
        meta, arrays = _sample_state()
        path, nbytes = write_snapshot(str(tmp_path), 0, meta, arrays)
        with open(path, "r+b") as handle:
            handle.truncate(nbytes - 7)
        with pytest.raises(StorageError):
            load_snapshot(path)

    def test_array_bit_flip_detected(self, tmp_path):
        import struct

        meta, arrays = _sample_state()
        path, nbytes = write_snapshot(str(tmp_path), 0, meta, arrays)
        with open(path, "r+b") as handle:
            blob = handle.read()
            _, _, header_len, _ = struct.unpack_from("<8sIII", blob)
            header = json.loads(blob[20 : 20 + header_len].decode())
            entry = next(
                e for e in header["arrays"] if e["name"] == "points"
            )
            victim = entry["offset"] + entry["nbytes"] // 3
            handle.seek(victim)
            byte = handle.read(1)
            handle.seek(victim)
            handle.write(bytes([byte[0] ^ 0x04]))
        with pytest.raises(StorageError):
            load_snapshot(path)

    def test_bad_magic_detected(self, tmp_path):
        meta, arrays = _sample_state()
        path, _ = write_snapshot(str(tmp_path), 0, meta, arrays)
        with open(path, "r+b") as handle:
            handle.write(b"WRONGMAG")
        with pytest.raises(StorageError, match="magic"):
            load_snapshot(path)

    def test_header_crc_detected(self, tmp_path):
        meta, arrays = _sample_state()
        path, _ = write_snapshot(str(tmp_path), 0, meta, arrays)
        with open(path, "r+b") as handle:
            handle.seek(24)  # inside the JSON header
            handle.write(b"X")
        with pytest.raises(StorageError):
            load_snapshot(path)

    def test_payload_is_checksummed_bytes(self):
        meta, arrays = _sample_state()
        blob = encode_snapshot(meta, arrays)
        # flipping any array byte must change some recorded CRC
        assert zlib.crc32(blob) != zlib.crc32(
            blob[:-1] + bytes([blob[-1] ^ 1])
        )

    def test_filename_is_sortable(self):
        assert snapshot_filename(7) == "snapshot-000007.ekdb"
        assert snapshot_filename(10) > snapshot_filename(9)


# ----------------------------------------------------------------------
# session round trips
# ----------------------------------------------------------------------
def _session_dir(tmp_path):
    return str(tmp_path / "session")


class TestSessionPersistence:
    def test_fresh_session_publishes_empty_snapshot(self, tmp_path):
        path = _session_dir(tmp_path)
        spec = JoinSpec(epsilon=0.3, persist_path=path)
        session = IncrementalJoin(spec)
        session.close()
        assert [seq for seq, _ in list_snapshots(path)] == [0]
        assert os.path.exists(os.path.join(path, WAL_FILENAME))

    def test_roundtrip_restores_exact_state(self, tmp_path):
        path = _session_dir(tmp_path)
        rng = np.random.default_rng(0)
        spec = JoinSpec(epsilon=0.3, persist_path=path, delta_threshold=50)
        session = IncrementalJoin(spec)
        for _ in range(4):
            session.insert(rng.random((30, 4)))
        session.delete(np.array([2, 30, 61]))
        expected = session.current_pairs()
        n_live, seq = session.n_live, session.last_update_seq
        estimate = session.estimated_join_size
        session.close()

        reopened = IncrementalJoin.open(path)
        assert reopened.n_live == n_live
        assert reopened.last_update_seq == seq
        assert reopened.estimated_join_size == pytest.approx(estimate)
        assert_same_pairs(reopened.current_pairs(), expected, "reopen")
        # ids continue exactly where the first process stopped
        delta = reopened.insert(rng.random((3, 4)))
        assert delta.ids.tolist() == [120, 121, 122]
        reopened.close()

    def test_reopen_session_with_legacy_build_key(self, tmp_path):
        """Snapshots written while the spec still had a tree-build
        selector carry ``"build"`` in their structural spec; they reopen
        (with or without a caller spec) and the key is dropped."""
        path = _session_dir(tmp_path)
        rng = np.random.default_rng(5)
        spec = JoinSpec(epsilon=0.3, persist_path=path)
        session = IncrementalJoin(spec)
        session.insert(rng.random((40, 3)))
        session.compact()
        expected = session.current_pairs()
        session.close()
        seq, snap_path = list_snapshots(path)[-1]
        meta, arrays = load_snapshot(snap_path)
        meta["spec"]["build"] = "auto"
        write_snapshot(path, seq, meta, arrays)

        for given in (None, JoinSpec(epsilon=0.3)):
            reopened = IncrementalJoin.open(path, spec=given)
            assert "build" not in reopened.spec.structural_dict()
            assert reopened.spec.fingerprint() == spec.fingerprint()
            assert_same_pairs(reopened.current_pairs(), expected, "legacy reopen")
            reopened.close()

    def test_reopen_snapshot_with_coarser_tree_epsilon(self, tmp_path):
        """Older versions could persist a base tree built at a coarser
        epsilon than the session's.  Its stored grid keeps the wider
        cells, which only over-approximate the adjacency rule, so a
        recovered session and a snapshot view both answer exactly."""
        from repro.core.flat_build import FlatEpsilonKdbTree
        from repro.storage.view import SnapshotView

        path = _session_dir(tmp_path)
        rng = np.random.default_rng(6)
        spec = JoinSpec(epsilon=0.2, persist_path=path)
        points = rng.random((300, 3))
        session = IncrementalJoin(spec)
        session.insert(points)
        session.compact()
        session.close()
        seq, snap_path = list_snapshots(path)[-1]
        meta, arrays = load_snapshot(snap_path)
        coarse = FlatEpsilonKdbTree.build(points, JoinSpec(epsilon=0.35))
        meta["tree"] = {
            "epsilon": 0.35,
            "grid": {
                "lo": [float(v) for v in coarse.grid.lo],
                "hi": [float(v) for v in coarse.grid.hi],
                "eps": float(coarse.grid.eps),
                "n_cells": [int(v) for v in coarse.grid.n_cells],
            },
        }
        arrays.update(
            points_flat=coarse.points_flat,
            perm=coarse.perm,
            digits=coarse.digits,
            packed_nodes=coarse.packed_nodes(),
        )
        write_snapshot(path, seq, meta, arrays)

        queries = rng.random((40, 3))
        narrow = JoinSpec(epsilon=0.2)
        hits = oracle_two_set_pairs(queries, points, narrow)
        expected_hits = [hits[hits[:, 0] == q, 1] for q in range(len(queries))]
        view = SnapshotView.open(path)
        for got, want in zip(view.batch_range_query(queries), expected_hits):
            assert got.tobytes() == want.tobytes()
        reopened = IncrementalJoin.open(path)
        for got, want in zip(reopened.batch_range_query(queries), expected_hits):
            assert got.tobytes() == want.tobytes()
        assert reopened.current_pairs().tobytes() == (
            oracle_self_pairs(points, narrow).tobytes()
        )
        more = rng.random((60, 3))
        reopened.insert(more)
        assert reopened.current_pairs().tobytes() == (
            oracle_self_pairs(np.vstack([points, more]), narrow).tobytes()
        )
        reopened.close()

    def test_empty_delete_journals_nothing(self, tmp_path):
        path = _session_dir(tmp_path)
        session = IncrementalJoin(JoinSpec(epsilon=0.3, persist_path=path))
        session.delete([])
        session.close()
        reopened = IncrementalJoin.open(path)
        assert reopened.last_update_seq == 0
        assert reopened.stats.wal_records_replayed == 0
        delta = reopened.insert(np.random.default_rng(3).random((10, 3)))
        assert delta.ids.tolist() == list(range(10))
        reopened.close()

    def test_replayed_empty_delete_record_consumes_its_seq(self, tmp_path):
        path = _session_dir(tmp_path)
        rng = np.random.default_rng(4)
        session = IncrementalJoin(JoinSpec(epsilon=0.3, persist_path=path))
        session.insert(rng.random((15, 3)))
        # A log written before empty deletes became no-ops holds one.
        session._wal.append_delete(2, np.empty(0, dtype=np.int64))
        session._update_seq = 2
        session.insert(rng.random((15, 3)))
        expected = session.current_pairs()
        session.close()
        reopened = IncrementalJoin.open(path)
        assert reopened.stats.wal_records_replayed == 3
        assert reopened.last_update_seq == 3
        assert_same_pairs(reopened.current_pairs(), expected, "replayed empty delete")
        reopened.close()

    def test_recovery_stats_populated(self, tmp_path):
        path = _session_dir(tmp_path)
        spec = JoinSpec(epsilon=0.3, persist_path=path, delta_threshold=10_000)
        session = IncrementalJoin(spec)
        session.insert(np.random.default_rng(1).random((20, 3)))
        session.close()
        reopened = IncrementalJoin.open(path)
        stats = reopened.stats.as_dict()
        assert stats["wal_records_replayed"] == 1
        assert stats["corrupt_frames_discarded"] == 0
        assert stats["snapshot_bytes"] > 0
        assert stats["recovery_seconds"] > 0
        reopened.close()

    def test_init_on_existing_session_dir_rejected(self, tmp_path):
        path = _session_dir(tmp_path)
        IncrementalJoin(JoinSpec(epsilon=0.3, persist_path=path)).close()
        with pytest.raises(InvalidParameterError, match="IncrementalJoin.open"):
            IncrementalJoin(JoinSpec(epsilon=0.3, persist_path=path))

    def test_open_empty_dir_requires_spec(self, tmp_path):
        with pytest.raises(InvalidParameterError, match="no persisted session"):
            IncrementalJoin.open(_session_dir(tmp_path))

    def test_spec_fingerprint_mismatch_rejected(self, tmp_path):
        path = _session_dir(tmp_path)
        IncrementalJoin(JoinSpec(epsilon=0.3, persist_path=path)).close()
        with pytest.raises(InvalidParameterError, match="fingerprint"):
            IncrementalJoin.open(path, spec=JoinSpec(epsilon=0.4))

    def test_runtime_fields_do_not_change_fingerprint(self):
        a = JoinSpec(epsilon=0.3)
        b = JoinSpec(epsilon=0.3, n_workers=7, persist_path="/x", sync_mode="off")
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != JoinSpec(epsilon=0.31).fingerprint()

    def test_structural_roundtrip_weighted_metric(self):
        from repro.metrics import WeightedLpMetric

        spec = JoinSpec(
            epsilon=0.2, metric=WeightedLpMetric(2, [1.0, 0.5]), leaf_size=64
        )
        rebuilt = JoinSpec.from_structural_dict(spec.structural_dict())
        assert rebuilt.fingerprint() == spec.fingerprint()

    def test_custom_metric_rejected_up_front(self, tmp_path):
        class Odd(Metric):
            name = "odd"

            def distance(self, a, b):  # pragma: no cover - never called
                return 0.0

            def pairwise_within(self, a, b, eps):  # pragma: no cover
                return np.zeros((len(a), len(b)), dtype=bool)

        spec = JoinSpec(
            epsilon=0.2,
            metric=Odd(),
            persist_path=_session_dir(tmp_path),
        )
        with pytest.raises(InvalidParameterError, match="serialization"):
            IncrementalJoin(spec)

    @pytest.mark.parametrize("sync_mode", ["always", "batch", "off"])
    def test_sync_modes_all_roundtrip(self, tmp_path, sync_mode):
        path = str(tmp_path / sync_mode)
        spec = JoinSpec(
            epsilon=0.3, persist_path=path, sync_mode=sync_mode,
            delta_threshold=8,
        )
        session = IncrementalJoin(spec)
        rng = np.random.default_rng(2)
        for _ in range(3):
            session.insert(rng.random((6, 3)))
        expected = session.current_pairs()
        session.close()
        reopened = IncrementalJoin.open(path)
        assert_same_pairs(reopened.current_pairs(), expected, sync_mode)
        reopened.close()

    def test_invalid_sync_mode_rejected_by_spec(self):
        with pytest.raises(InvalidParameterError, match="sync_mode"):
            JoinSpec(epsilon=0.3, sync_mode="mostly")

    def test_context_manager_closes(self, tmp_path):
        path = _session_dir(tmp_path)
        with IncrementalJoin(JoinSpec(epsilon=0.3, persist_path=path)) as s:
            s.insert(np.zeros((1, 2)))
            wal = s._wal
        assert wal.closed

    def test_cold_open_performs_no_tree_build(self, tmp_path):
        """Acceptance: re-opening a persisted 50k-point index memmaps the
        tree back (no build spans anywhere in the trace) and answers the
        join byte-identically."""
        path = _session_dir(tmp_path)
        points = np.random.default_rng(3).random((50_000, 4))
        spec = JoinSpec(epsilon=0.01, persist_path=path, delta_threshold=100)
        session = IncrementalJoin(spec)
        session.insert(points)  # auto-compacts -> snapshot holds the tree
        expected = session.current_pairs()
        assert session.delta_size == 0, "precondition: state fully in base"
        session.close()

        tracer = trace.Tracer()
        with trace.activate(tracer):
            reopened = IncrementalJoin.open(path)
            got = reopened.current_pairs()
        names = {span.name for span in tracer.finished_spans()}
        assert not any("build" in name for name in names), names
        assert "recover" in names
        assert_same_pairs(got, expected, "cold open")
        reopened.close()


# ----------------------------------------------------------------------
# corruption-injected recovery matrix
# ----------------------------------------------------------------------
_RNG = np.random.default_rng(77)
_BATCHES = [_RNG.random((25, 3)) for _ in range(6)]
_DELETES = [np.array([4, 11], dtype=np.int64), np.array([30, 52], dtype=np.int64)]
_STREAM = [
    ("insert", _BATCHES[0]),
    ("insert", _BATCHES[1]),
    ("delete", _DELETES[0]),
    ("insert", _BATCHES[2]),
    ("insert", _BATCHES[3]),
    ("delete", _DELETES[1]),
    ("insert", _BATCHES[4]),
    ("insert", _BATCHES[5]),
]


def _drive(session) -> bool:
    """Apply the scripted stream; False if an injected crash cut it short."""
    for kind, payload in _STREAM:
        try:
            if kind == "insert":
                session.insert(payload)
            else:
                session.delete(payload)
        except SessionCrashError:
            return False
    return True


def _oracle_through(upto_seq: int):
    """A never-crashed session that applied the first ``upto_seq`` updates."""
    session = IncrementalJoin(JoinSpec(epsilon=0.25, delta_threshold=60))
    for seq, (kind, payload) in enumerate(_STREAM, start=1):
        if seq > upto_seq:
            break
        if kind == "insert":
            session.insert(payload)
        else:
            session.delete(payload)
    return session


_FAULTS = {
    "torn-wal-frame": lambda: FaultPlan().tear_wal_frame(4),
    "flipped-wal-payload": lambda: FaultPlan().flip_wal_bit(5),
    "truncated-snapshot": lambda: FaultPlan().truncate_snapshot(1),
    "flipped-snapshot": lambda: FaultPlan().flip_snapshot_bit(1),
    "crash-before-publish": lambda: FaultPlan().crash_before_snapshot_publish(1),
    "snapshot-loss-plus-torn-tail": lambda: FaultPlan()
    .flip_snapshot_bit(1)
    .tear_wal_frame(7),
}


class TestCorruptionRecovery:
    @pytest.mark.parametrize("kind", sorted(_FAULTS))
    def test_recovery_matches_never_crashed_oracle(self, tmp_path, kind):
        path = _session_dir(tmp_path)
        spec = JoinSpec(epsilon=0.25, persist_path=path, delta_threshold=60)
        session = IncrementalJoin(spec, fault_plan=_FAULTS[kind]())
        if _drive(session):
            session.close()
        recovered = IncrementalJoin.open(path)
        oracle = _oracle_through(recovered.last_update_seq)
        assert recovered.n_live == oracle.n_live, kind
        assert recovered._next_id == oracle._next_id, kind
        got, expected = recovered.current_pairs(), oracle.current_pairs()
        assert got.tobytes() == expected.tobytes(), kind
        # and the recovered session keeps working
        delta = recovered.insert(_RNG.random((5, 3)))
        assert len(delta.ids) == 5
        recovered.close()

    def test_torn_frame_counts_as_discarded(self, tmp_path):
        path = _session_dir(tmp_path)
        spec = JoinSpec(epsilon=0.25, persist_path=path, delta_threshold=10_000)
        session = IncrementalJoin(spec, fault_plan=FaultPlan().tear_wal_frame(2))
        assert not _drive(session)
        recovered = IncrementalJoin.open(path)
        assert recovered.last_update_seq == 1
        assert recovered.stats.corrupt_frames_discarded == 1
        recovered.close()

    def test_all_generations_damaged_raises_typed_error(self, tmp_path):
        path = _session_dir(tmp_path)
        spec = JoinSpec(epsilon=0.25, persist_path=path, delta_threshold=60)
        session = IncrementalJoin(spec)
        _drive(session)
        session.close()
        for seq, snap_path in list_snapshots(path):
            with open(snap_path, "r+b") as handle:
                handle.truncate(10)
        with pytest.raises(CorruptSnapshotError):
            IncrementalJoin.open(path)

    def test_fallback_to_older_generation(self, tmp_path):
        """Damaging only the newest snapshot falls back one generation;
        stale higher-seq WAL records are discarded, not misapplied."""
        path = _session_dir(tmp_path)
        spec = JoinSpec(epsilon=0.25, persist_path=path, delta_threshold=30)
        session = IncrementalJoin(spec)
        finished = _drive(session)
        assert finished
        session.close()
        snaps = list_snapshots(path)
        assert len(snaps) >= 2, "scenario needs at least two generations"
        newest_seq, newest_path = snaps[-1]
        with open(newest_path, "r+b") as handle:
            handle.truncate(16)
        recovered = IncrementalJoin.open(path)
        oracle = _oracle_through(recovered.last_update_seq)
        assert recovered.current_pairs().tobytes() == oracle.current_pairs().tobytes()
        assert recovered.stats.corrupt_frames_discarded >= 1
        recovered.close()


# ----------------------------------------------------------------------
# probe-free replay
# ----------------------------------------------------------------------
def assert_same_state(got: IncrementalJoin, want: IncrementalJoin) -> None:
    """Array-for-array equality of two sessions' durable state."""
    for name in (
        "_base_points",
        "_base_ids",
        "_base_alive",
        "_delta_points",
        "_delta_ids",
        "_delta_alive",
    ):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert np.array_equal(a, b), name
    assert got._dims == want._dims
    assert got._next_id == want._next_id
    assert got.last_update_seq == want.last_update_seq
    if want._sketch is None:
        assert got._sketch is None or got._sketch.n == 0
    else:
        assert np.array_equal(got._sketch.counts, want._sketch.counts)
        assert got._sketch.n == want._sketch.n
        assert got._sketch._same_bucket_pairs == want._sketch._same_bucket_pairs
    tree_a, tree_b = got._base_tree, want._base_tree
    assert (tree_a is None) == (tree_b is None)
    if tree_b is not None:
        for name in ("points_flat", "perm", "digits"):
            assert np.array_equal(getattr(tree_a, name), getattr(tree_b, name)), name
        assert np.array_equal(tree_a.packed_nodes(), tree_b.packed_nodes())
        for name in ("lo", "hi", "n_cells"):
            assert np.array_equal(getattr(tree_a.grid, name), getattr(tree_b.grid, name))
        assert tree_a.grid.eps == tree_b.grid.eps


def _traced_open(path, **kwargs):
    tracer = trace.Tracer()
    with trace.activate(tracer):
        session = IncrementalJoin.open(path, **kwargs)
    return session, [span.name for span in tracer.finished_spans()]


class TestProbeFreeReplay:
    def test_replay_runs_no_join(self, tmp_path):
        path = _session_dir(tmp_path)
        rng = np.random.default_rng(21)
        spec = JoinSpec(epsilon=0.3, persist_path=path, delta_threshold=10_000)
        writer = IncrementalJoin(spec)
        tail = [
            ("insert", rng.random((40, 3))),
            ("insert", rng.random((40, 3))),
            ("delete", [3, 41, 17]),
            ("insert", rng.random((40, 3))),
            ("delete", [0, 100]),
        ]
        for op, payload in tail:
            if op == "insert":
                writer.insert(payload)
            else:
                writer.delete(payload)
        assert writer.stats.pairs_emitted > 0 and writer.stats.pairs_retracted > 0
        expected = writer.current_pairs()
        writer.close()

        reopened, names = _traced_open(path)
        assert reopened.stats.wal_records_replayed == len(tail)
        assert reopened.stats.distance_computations == 0
        assert reopened.stats.pairs_emitted == 0
        assert reopened.stats.pairs_retracted == 0
        assert reopened.stats.compactions == 0
        assert "recover" in names and "delta-join" not in names, names
        assert_same_state(reopened, writer)
        assert_same_pairs(reopened.current_pairs(), expected, "probe-free replay")
        # The next live update reports its pairs as usual.
        delta = reopened.delete([5])
        assert reopened.stats.pairs_retracted == len(delta.retracted)
        reopened.close()

    def test_replayed_delete_does_not_import_numpy_ma(self, tmp_path):
        """A fresh process reopening a tail that holds a delete stays
        clear of ``numpy.ma`` (``np.unique`` imports it on first use, a
        cost of tens of milliseconds on the first delete of a process)."""
        path = _session_dir(tmp_path)
        with IncrementalJoin(JoinSpec(epsilon=0.2, persist_path=path)) as writer:
            writer.insert(np.random.default_rng(23).random((50, 3)))
            writer.delete([3, 7])
        script = (
            "import sys\n"
            "from repro.core.incremental import IncrementalJoin\n"
            f"session = IncrementalJoin.open({path!r})\n"
            "assert session.stats.wal_records_replayed == 2\n"
            "assert 'numpy.ma' not in sys.modules\n"
            "session.close()\n"
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.abspath(src), env.get("PYTHONPATH")])
        )
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr

    def test_replay_compacts_at_the_writers_record(self, tmp_path):
        """A tail that crosses the delta threshold compacts mid-replay at
        the same record the writer compacted at, and publishes nothing.
        Such a tail is left behind when the compaction's publish failed."""
        path = _session_dir(tmp_path)
        rng = np.random.default_rng(22)
        spec = JoinSpec(epsilon=0.25, persist_path=path, delta_threshold=60)
        writer = IncrementalJoin(
            spec, fault_plan=FaultPlan().crash_before_snapshot_publish(1)
        )
        writer.insert(rng.random((25, 3)))
        writer.insert(rng.random((25, 3)))
        writer.delete([4, 30])
        with pytest.raises(SessionCrashError):
            writer.insert(rng.random((25, 3)))  # compacts; publish dies
        assert writer.stats.compactions == 1
        writer.insert(rng.random((25, 3)))
        writer.delete([7, 80])
        writer.close()
        snapshots = list_snapshots(path)
        assert [seq for seq, _ in snapshots] == [0]

        reopened, names = _traced_open(path)
        assert reopened.stats.wal_records_replayed == 6
        assert reopened.stats.compactions == 1
        assert reopened.stats.distance_computations == 0
        assert "delta-join" not in names and "compact" in names, names
        assert list_snapshots(path) == snapshots
        assert_same_state(reopened, writer)
        reopened.close()

    def test_intact_journal_is_not_rewritten(self, tmp_path, monkeypatch):
        path = _session_dir(tmp_path)
        rng = np.random.default_rng(23)
        spec = JoinSpec(epsilon=0.3, persist_path=path, delta_threshold=10_000)
        writer = IncrementalJoin(spec)
        writer.insert(rng.random((20, 3)))
        writer.delete([1, 2])
        writer.close()
        wal_path = os.path.join(path, WAL_FILENAME)
        with open(wal_path, "rb") as handle:
            before = handle.read()
        calls = []
        monkeypatch.setattr(
            WriteAheadLog, "reset", lambda self: calls.append("reset")
        )
        monkeypatch.setattr(
            WriteAheadLog,
            "truncate_to",
            lambda self, valid_bytes: calls.append(("truncate", valid_bytes)),
        )
        reopened = IncrementalJoin.open(path)
        reopened.close()
        assert calls == []
        with open(wal_path, "rb") as handle:
            assert handle.read() == before

    def test_torn_suffix_is_truncated_not_rewritten(self, tmp_path, monkeypatch):
        path = _session_dir(tmp_path)
        rng = np.random.default_rng(24)
        spec = JoinSpec(epsilon=0.3, persist_path=path, delta_threshold=10_000)
        writer = IncrementalJoin(spec, fault_plan=FaultPlan().tear_wal_frame(3))
        writer.insert(rng.random((20, 3)))
        writer.insert(rng.random((20, 3)))
        with pytest.raises(SessionCrashError):
            writer.insert(rng.random((20, 3)))
        wal_path = os.path.join(path, WAL_FILENAME)
        _, valid_bytes, _ = scan_wal(wal_path)
        resets = []
        monkeypatch.setattr(
            WriteAheadLog, "reset", lambda self: resets.append(self.path)
        )
        reopened = IncrementalJoin.open(path)
        assert resets == []
        assert reopened.last_update_seq == 2
        assert reopened.stats.corrupt_frames_discarded == 1
        assert os.path.getsize(wal_path) == valid_bytes
        reopened.close()

    def test_stale_records_are_dropped_by_a_rewrite(self, tmp_path):
        """A crash between a snapshot publish and the journal reset leaves
        records at or below the watermark; open rewrites the journal
        without them, so the next append follows the watermark."""
        path = _session_dir(tmp_path)
        rng = np.random.default_rng(25)
        spec = JoinSpec(epsilon=0.3, persist_path=path, delta_threshold=10_000)
        writer = IncrementalJoin(spec)
        writer.insert(rng.random((20, 3)))
        writer.insert(rng.random((20, 3)))
        writer._publish_snapshot()  # the journal reset never happens
        writer.close()
        wal_path = os.path.join(path, WAL_FILENAME)
        assert len(scan_wal(wal_path)[0]) == 2

        reopened = IncrementalJoin.open(path)
        assert reopened.stats.wal_records_replayed == 0
        assert scan_wal(wal_path)[0] == []
        reopened.insert(rng.random((5, 3)))
        assert [rec.seq for rec in scan_wal(wal_path)[0]] == [3]
        reopened.close()
        again = IncrementalJoin.open(path)
        assert_same_state(again, reopened)
        again.close()


_replay_op = st.one_of(
    st.tuples(st.just("insert"), st.integers(1, 12)),
    st.tuples(st.just("delete"), st.integers(1, 4)),
    st.tuples(st.just("compact"), st.just(0)),
)


@settings(max_examples=40, deadline=None)
@given(
    ops=st.lists(_replay_op, min_size=1, max_size=14),
    seed=st.integers(0, 2**16),
    fail_first_publish=st.booleans(),
    engine=st.sampled_from(["serial", "parallel"]),
)
def test_recovery_restores_exact_state(ops, seed, fail_first_publish, engine):
    """Whatever the stream, the reopened session's state equals the
    writer's array for array (ids, layout, tombstones, sketch, tree)."""
    rng = np.random.default_rng(seed)
    tmp = tempfile.mkdtemp(prefix="ekdb-replay-state-")
    try:
        path = os.path.join(tmp, "session")
        spec = JoinSpec(epsilon=0.2, persist_path=path, delta_threshold=15)
        plan = FaultPlan()
        if fail_first_publish:
            # Leaves a tail that compacts during replay.
            plan.crash_before_snapshot_publish(1)
        writer = IncrementalJoin(
            spec, engine=engine, fault_plan=plan, use_processes=False
        )
        for op, size in ops:
            try:
                if op == "insert":
                    writer.insert(rng.random((size, 3)))
                elif op == "delete":
                    live = writer.live_ids()
                    if len(live):
                        pick = rng.choice(live, size=min(size, len(live)), replace=False)
                        writer.delete(pick)
                elif not fail_first_publish or writer._snapshot_seq >= 1:
                    # An explicit compaction is not journaled, so one
                    # whose publish dies cannot be recovered; only the
                    # threshold-triggered ones meet the armed fault.
                    writer.compact()
            except SessionCrashError:
                pass
        reopened = IncrementalJoin.open(path, engine=engine, use_processes=False)
        try:
            assert reopened.stats.distance_computations == 0
            assert reopened._executor is None  # no probe pool started
            assert_same_state(reopened, writer)
        finally:
            reopened.close()
            writer.close()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


# ----------------------------------------------------------------------
# similarity_join facade
# ----------------------------------------------------------------------
class TestFacadePersistence:
    def test_persisted_run_matches_plain(self, tmp_path):
        rng = np.random.default_rng(5)
        points = rng.random((200, 4))
        updates = [("insert", rng.random((40, 4))), ("delete", [3, 7])]
        plain = similarity_join(
            points, epsilon=0.3, updates=updates, delta_threshold=80
        )
        persisted = similarity_join(
            points,
            epsilon=0.3,
            updates=updates,
            delta_threshold=80,
            persist_path=_session_dir(tmp_path),
        )
        assert np.array_equal(plain, persisted)

    def test_resume_returns_accumulated_pairs(self, tmp_path):
        rng = np.random.default_rng(6)
        points = rng.random((150, 4))
        path = _session_dir(tmp_path)
        first = similarity_join(
            points, epsilon=0.3, delta_threshold=60, persist_path=path
        )
        resumed = similarity_join(
            np.empty((0, 4)), epsilon=0.3, delta_threshold=60, persist_path=path
        )
        assert np.array_equal(first, resumed)

    def test_sync_mode_requires_persist_path(self):
        with pytest.raises(InvalidParameterError, match="persist_path"):
            similarity_join(np.zeros((2, 2)), epsilon=0.1, sync_mode="off")

    def test_persist_rejects_two_set(self, tmp_path):
        with pytest.raises(InvalidParameterError, match="self-join"):
            similarity_join(
                np.zeros((2, 2)),
                np.ones((2, 2)),
                epsilon=0.1,
                persist_path=_session_dir(tmp_path),
            )


# ----------------------------------------------------------------------
# stateful crash/reopen machine
# ----------------------------------------------------------------------
_MACHINE_SPEC = JoinSpec(epsilon=0.15, delta_threshold=6)

_coord = st.sampled_from([round(0.1 * k, 1) for k in range(10)])
_batch = st.lists(
    st.tuples(_coord, _coord), min_size=1, max_size=4
).map(lambda rows: np.array(rows, dtype=np.float64))


class CrashRecoveryMachine(RuleBasedStateMachine):
    """Random update streams interleaved with injected crashes.

    The mirror tracks every *acknowledged* update (insert/delete calls
    that returned).  The durability contract under test: after any
    crash/reopen interleaving, the recovered session holds exactly the
    acknowledged state — same seq, same live set, same pair set as the
    brute-force oracle over the mirror.
    """

    def __init__(self):
        super().__init__()
        self._tmp = tempfile.mkdtemp(prefix="ekdb-crash-machine-")
        self.path = os.path.join(self._tmp, "session")
        self.plan = FaultPlan()
        self.session = IncrementalJoin.open(
            self.path, spec=_MACHINE_SPEC, fault_plan=self.plan
        )
        self.mirror: dict = {}
        self.applied_seq = 0

    def _record_insert(self, delta, points):
        for offset, point_id in enumerate(delta.ids):
            self.mirror[int(point_id)] = points[offset]
        self.applied_seq += 1

    def _reopen(self):
        self.session = IncrementalJoin.open(self.path, fault_plan=self.plan)
        assert self.session.last_update_seq == self.applied_seq

    @rule(batch=_batch)
    def insert(self, batch):
        self._record_insert(self.session.insert(batch), batch)

    @precondition(lambda self: len(self.mirror) > 0)
    @rule(data=st.data())
    def delete(self, data):
        live = sorted(self.mirror)
        subset = data.draw(
            st.lists(st.sampled_from(live), min_size=1, unique=True),
            label="ids",
        )
        self.session.delete(subset)
        for point_id in subset:
            del self.mirror[int(point_id)]
        self.applied_seq += 1

    @rule()
    def compact(self):
        self.session.compact()

    @rule(batch=_batch)
    def crash_during_insert(self, batch):
        """Tear the next WAL append mid-frame: the unacknowledged batch
        must vanish; everything acknowledged must survive."""
        self.plan.tear_wal_frame(self.session.last_update_seq + 1)
        with pytest.raises(SessionCrashError):
            self.session.insert(batch)
        self._reopen()

    @precondition(lambda self: self.session.delta_size > 0)
    @rule()
    def crash_during_publish(self):
        """Die after the snapshot tmp-write but before the atomic rename:
        the half-published generation must be invisible to recovery."""
        self.plan.crash_before_snapshot_publish(self.session._snapshot_seq + 1)
        with pytest.raises(SessionCrashError):
            self.session.compact()
        self._reopen()

    @rule()
    def kill_and_reopen(self):
        """Abandon the process state without a clean close."""
        self.session._wal._handle.close()
        self._reopen()

    @invariant()
    def live_state_matches_mirror(self):
        assert self.session.n_live == len(self.mirror)
        assert self.session.live_ids().tolist() == sorted(self.mirror)

    @rule()
    def pairs_match_oracle(self):
        assert_same_pairs(
            self.session.current_pairs(),
            oracle_id_pairs(self.mirror, _MACHINE_SPEC),
            f"crash machine @ seq {self.applied_seq}",
        )

    def teardown(self):
        try:
            self.session.close()
        finally:
            shutil.rmtree(self._tmp, ignore_errors=True)


CrashRecoveryMachine.TestCase.settings = settings(
    max_examples=10, stateful_step_count=15, deadline=None
)

TestCrashRecoveryStateful = CrashRecoveryMachine.TestCase


# ----------------------------------------------------------------------
# stats JSON plumbing
# ----------------------------------------------------------------------
def test_recovery_counters_flow_through_as_dict(tmp_path):
    path = _session_dir(tmp_path)
    session = IncrementalJoin(
        JoinSpec(epsilon=0.3, persist_path=path, delta_threshold=5)
    )
    session.insert(np.random.default_rng(9).random((12, 3)))
    session.close()
    reopened = IncrementalJoin.open(path)
    blob = json.dumps(reopened.stats.as_dict())
    for key in (
        "wal_records_replayed",
        "snapshot_bytes",
        "recovery_seconds",
        "corrupt_frames_discarded",
    ):
        assert key in blob
    reopened.close()


# ----------------------------------------------------------------------
# snapshot retention (ISSUE 8)
# ----------------------------------------------------------------------
class TestKeepGenerations:
    def _fill(self, session, batches, rng):
        for _ in range(batches):
            session.insert(rng.random((25, 2)))

    def test_default_keeps_two_generations(self, tmp_path):
        path = _session_dir(tmp_path)
        rng = np.random.default_rng(50)
        spec = JoinSpec(epsilon=0.2, delta_threshold=20, persist_path=path)
        session = IncrementalJoin(spec)
        self._fill(session, 8, rng)
        session.close()
        assert len(list_snapshots(path)) == 2

    def test_spec_knob_widens_retention(self, tmp_path):
        path = _session_dir(tmp_path)
        rng = np.random.default_rng(51)
        spec = JoinSpec(
            epsilon=0.2,
            delta_threshold=20,
            persist_path=path,
            keep_generations=4,
        )
        session = IncrementalJoin(spec)
        self._fill(session, 8, rng)
        snaps = list_snapshots(path)
        assert len(snaps) == 4
        # Newest snapshot survives; retention prunes from the old end.
        assert snaps[-1][0] == session._snapshot_seq
        session.close()

    def test_open_override_is_a_runtime_knob(self, tmp_path):
        path = _session_dir(tmp_path)
        rng = np.random.default_rng(52)
        spec = JoinSpec(
            epsilon=0.2, delta_threshold=20, persist_path=path, keep_generations=3
        )
        session = IncrementalJoin(spec)
        self._fill(session, 8, rng)
        assert len(list_snapshots(path)) == 3
        expected = session.current_pairs()
        session.close()
        # Reopening with a different retention must succeed (runtime
        # knob, not part of the structural fingerprint) and take effect
        # at the next compactions.
        reopened = IncrementalJoin.open(path, keep_generations=1)
        assert np.array_equal(reopened.current_pairs(), expected)
        self._fill(reopened, 6, rng)
        assert len(list_snapshots(path)) == 1
        reopened.close()

    def test_facade_threads_keep_generations(self, tmp_path):
        path = _session_dir(tmp_path)
        rng = np.random.default_rng(53)
        points = rng.random((120, 3))
        updates = [("insert", rng.random((30, 3))) for _ in range(4)]
        similarity_join(
            points,
            epsilon=0.25,
            delta_threshold=30,
            persist_path=path,
            keep_generations=5,
        )
        similarity_join(
            np.empty((0, 3)),
            epsilon=0.25,
            delta_threshold=30,
            persist_path=path,
            updates=updates,
            keep_generations=5,
        )
        assert 2 < len(list_snapshots(path)) <= 5

    def test_keep_generations_requires_persist_path(self):
        with pytest.raises(InvalidParameterError, match="persist_path"):
            similarity_join(np.zeros((2, 2)), epsilon=0.1, keep_generations=3)

    def test_keep_generations_validation(self):
        with pytest.raises(InvalidParameterError, match="keep_generations"):
            JoinSpec(epsilon=0.1, keep_generations=0)

    def test_not_part_of_structural_fingerprint(self, tmp_path):
        a = JoinSpec(epsilon=0.2, keep_generations=2)
        b = JoinSpec(epsilon=0.2, keep_generations=7)
        assert a.fingerprint() == b.fingerprint()
