"""Tests for the async serving layer.

The headline property: a session driven through the server — attach,
inserts, deletes, range queries, mini-joins, snapshot re-attach after a
restart — answers byte-identically to the same operations run directly
against an :class:`IncrementalJoin`.  Coalescing and admission control
change latency and refusals, never results.

No pytest-asyncio here: each test drives its own event loop with
``asyncio.run`` so the suite runs on the stock toolchain.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import IncrementalJoin, JoinSpec
from repro.errors import AdmissionError, InvalidParameterError
from repro.serve import (
    JoinServer,
    ProtocolError,
    QueryCoalescer,
    RemoteError,
    ServeClient,
    SessionManager,
)
from repro.serve import protocol


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=60))


async def _started_server(**kwargs) -> JoinServer:
    server = JoinServer("127.0.0.1", 0, **kwargs)
    await server.start()
    return server


# ----------------------------------------------------------------------
# protocol codec
# ----------------------------------------------------------------------
_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=40),
)
_json_values = st.recursive(
    _json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=10), children, max_size=5),
    ),
    max_leaves=25,
)


class TestProtocol:
    @given(st.dictionaries(st.text(max_size=10), _json_values, max_size=8))
    def test_codec_roundtrip(self, message):
        frame = protocol.encode_frame(message)
        assert protocol.decode_frame(frame[4:]) == message

    def test_roundtrip_through_streams(self):
        async def scenario():
            server_reader = asyncio.StreamReader()
            messages = [
                {"op": "ping", "id": 1},
                {"op": "insert", "points": [[0.25, 0.5], [1.0, 2.0]]},
                {"op": "range_query", "point": [0.1], "eps": 0.05},
            ]
            for message in messages:
                server_reader.feed_data(protocol.encode_frame(message))
            server_reader.feed_eof()
            decoded = []
            while True:
                frame = await protocol.read_frame(server_reader)
                if frame is None:
                    break
                decoded.append(frame)
            assert decoded == messages

        run(scenario())

    def test_truncated_header_and_body_raise(self):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(b"\x00\x00")
            reader.feed_eof()
            with pytest.raises(ProtocolError, match="mid-header"):
                await protocol.read_frame(reader)
            reader = asyncio.StreamReader()
            reader.feed_data(protocol.encode_frame({"op": "ping"})[:-2])
            reader.feed_eof()
            with pytest.raises(ProtocolError, match="mid-frame"):
                await protocol.read_frame(reader)

        run(scenario())

    def test_oversized_frame_refused(self):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(b"\xff\xff\xff\xff")
            with pytest.raises(ProtocolError, match="limit"):
                await protocol.read_frame(reader)

        run(scenario())

    def test_non_object_and_non_json_bodies_refused(self):
        with pytest.raises(ProtocolError, match="JSON"):
            protocol.decode_frame(b"\x80\x81")
        with pytest.raises(ProtocolError, match="object"):
            protocol.decode_frame(b"[1, 2]")
        # Python refuses to parse an integer of more than 4300 digits.
        with pytest.raises(ProtocolError, match="JSON"):
            protocol.decode_frame(b'{"id": ' + b"1" * 5000 + b"}")

    def test_decode_points_and_ids_shapes(self):
        points = protocol.decode_points([[1, 2], [3, 4]])
        assert points.dtype == np.float64 and points.shape == (2, 2)
        assert protocol.decode_points([]).shape == (0, 0)
        with pytest.raises(ProtocolError):
            protocol.decode_points([[1], [2, 3]])
        with pytest.raises(ProtocolError):
            protocol.decode_ids([[1, 2]])

    def test_decode_positive(self):
        assert protocol.decode_positive(None, "eps") is None
        assert protocol.decode_positive(3, "eps") == 3.0
        assert protocol.decode_positive(0.25, "eps") == 0.25
        for bad in ("abc", [1], True, False, float("nan"), float("inf"),
                    10**400, 0, -5, -0.5):
            with pytest.raises(ProtocolError, match="deadline_ms"):
                protocol.decode_positive(bad, "deadline_ms")


# ----------------------------------------------------------------------
# server round-trips vs direct engine calls
# ----------------------------------------------------------------------
class TestServerEquivalence:
    def test_multi_tenant_clients_match_direct_sessions(self):
        """Two tenants, two clients, interleaved: every answer must be
        byte-identical to a direct IncrementalJoin mirror."""

        async def scenario():
            rng = np.random.default_rng(60)
            server = await _started_server()
            mirrors = {
                "alpha": IncrementalJoin(JoinSpec(epsilon=0.2, leaf_size=8)),
                "beta": IncrementalJoin(JoinSpec(epsilon=0.12, leaf_size=16)),
            }
            try:
                c1 = await ServeClient.connect("127.0.0.1", server.port)
                c2 = await ServeClient.connect("127.0.0.1", server.port)
                await c1.attach("alpha", epsilon=0.2, leaf_size=8)
                await c2.attach("beta", epsilon=0.12, leaf_size=16)
                for _ in range(3):
                    pa, pb = rng.random((30, 3)), rng.random((40, 2))
                    ids_a, ids_b = await asyncio.gather(
                        c1.insert("alpha", pa), c2.insert("beta", pb)
                    )
                    assert ids_a.tobytes() == mirrors["alpha"].insert(pa).ids.tobytes()
                    assert ids_b.tobytes() == mirrors["beta"].insert(pb).ids.tobytes()
                await c1.delete("alpha", ids_a[:10].tolist())
                mirrors["alpha"].delete(ids_a[:10])
                # Concurrent queries from both clients against both tenants.
                qa, qb = rng.random((12, 3)), rng.random((12, 2))
                answers = await asyncio.gather(
                    *[c1.range_query("alpha", q) for q in qa],
                    *[c2.range_query("beta", q) for q in qb],
                )
                for q, got in zip(qa, answers[:12]):
                    assert got.tobytes() == mirrors["alpha"].range_query(q).tobytes()
                for q, got in zip(qb, answers[12:]):
                    assert got.tobytes() == mirrors["beta"].range_query(q).tobytes()
                # Mini-join equivalence against the brute-force oracle.
                probes = rng.random((5, 3))
                remote = await c1.mini_join("alpha", probes)
                mirror = mirrors["alpha"]
                live, ids = mirror.live_points(), mirror.live_ids()
                expected = []
                for i, probe in enumerate(probes):
                    keep = mirror.spec.metric.within_gap(
                        np.abs(live - probe), 0.2
                    )
                    expected.extend([i, int(j)] for j in np.sort(ids[keep]))
                assert remote.tolist() == expected
                # current_pairs round-trip.
                pairs = await c1.pairs("alpha")
                assert pairs.tobytes() == mirror.current_pairs().tobytes()
                await c1.close()
                await c2.close()
            finally:
                await server.stop()

        run(scenario())

    def test_snapshot_reattach_after_restart(self, tmp_path):
        """Stop the server, start a fresh one, re-attach from disk: the
        recovered tenant answers byte-identically."""

        async def scenario():
            rng = np.random.default_rng(61)
            path = str(tmp_path / "tenant")
            queries = rng.random((8, 2))
            server = await _started_server()
            try:
                client = await ServeClient.connect("127.0.0.1", server.port)
                await client.attach(
                    "disk", epsilon=0.25, path=path, delta_threshold=30
                )
                ids = await client.insert("disk", rng.random((70, 2)))
                await client.delete("disk", ids[:20].tolist())
                before_pairs = await client.pairs("disk")
                before_queries = [
                    await client.range_query("disk", q) for q in queries
                ]
                await client.close()
            finally:
                await server.stop()
            server = await _started_server()
            try:
                client = await ServeClient.connect("127.0.0.1", server.port)
                info = await client.attach("disk", path=path)
                assert info["n_live"] == 50
                after_pairs = await client.pairs("disk")
                assert after_pairs.tobytes() == before_pairs.tobytes()
                for q, before in zip(queries, before_queries):
                    after = await client.range_query("disk", q)
                    assert after.tobytes() == before.tobytes()
                await client.close()
            finally:
                await server.stop()

        run(scenario())

    def test_empty_delete_to_new_tenant_is_a_noop(self):
        async def scenario():
            server = await _started_server(coalesce=False)
            try:
                client = await ServeClient.connect("127.0.0.1", server.port)
                await client.attach("fresh", epsilon=0.2)
                removed = await client.delete("fresh", [])
                assert removed.tolist() == []
                points = np.random.default_rng(61).random((20, 3))
                ids = await client.insert("fresh", points)
                assert ids.tolist() == list(range(20))
                mirror = IncrementalJoin(JoinSpec(epsilon=0.2))
                mirror.insert(points)
                got = await client.range_query("fresh", points[0])
                assert got.tobytes() == mirror.range_query(points[0]).tobytes()
                await client.close()
            finally:
                await server.stop()

        run(scenario())

    def test_malformed_numbers_are_protocol_errors(self):
        """A non-number, bool, non-finite or non-positive ``deadline_ms``
        or ``eps`` gets code ``protocol``, and the connection stays
        usable.  Raw frames: the codec refuses to encode NaN."""

        async def scenario():
            server = await _started_server()
            try:
                client = await ServeClient.connect("127.0.0.1", server.port)
                await client.attach("t", epsilon=0.1)
                await client.insert("t", np.zeros((3, 2)))
                await client.close()
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                bad_values = ['"abc"', "[1]", "NaN", "Infinity", "-Infinity",
                              "true", "-5", "0"]
                cases = [("range_query", field, value)
                         for field in ("deadline_ms", "eps")
                         for value in bad_values]
                cases += [("mini_join", "eps", value) for value in bad_values]
                for number, (op, field, value) in enumerate(cases):
                    body = (
                        f'{{"op":"{op}","id":{number},"tenant":"t",'
                        f'"point":[0,0],"points":[[0,0]],"{field}":{value}}}'
                    ).encode()
                    writer.write(len(body).to_bytes(4, "big") + body)
                    response = await protocol.read_frame(reader)
                    assert response["id"] == number, response
                    assert response["code"] == "protocol", (op, field, value)
                    assert field in response["error"]
                await protocol.write_frame(writer, {"op": "range_query",
                                                    "id": "ok", "tenant": "t",
                                                    "point": [0, 0],
                                                    "eps": 0.05,
                                                    "deadline_ms": 5000})
                response = await protocol.read_frame(reader)
                assert response["ok"] and response["ids"] == [0, 1, 2]
                assert server.metrics.counter(
                    "serve.deadline_exceeded"
                ).value == 0
                writer.close()
                await writer.wait_closed()
            finally:
                await server.stop()

        run(scenario())

    def test_unknown_tenant_and_bad_requests(self):
        async def scenario():
            server = await _started_server()
            try:
                client = await ServeClient.connect("127.0.0.1", server.port)
                with pytest.raises(RemoteError, match="unknown tenant"):
                    await client.range_query("ghost", np.zeros(2))
                with pytest.raises(ProtocolError, match="unknown op"):
                    await client.request("frobnicate")
                with pytest.raises(ProtocolError, match="epsilon"):
                    await client.attach("half", leaf_size=4)
                # A failed request must not poison the connection.
                assert (await client.ping())["pong"] is True
                await client.close()
            finally:
                await server.stop()

        run(scenario())


# ----------------------------------------------------------------------
# coalescing
# ----------------------------------------------------------------------
class TestCoalescing:
    def test_window_equivalence_and_batching(self):
        """Coalesced answers equal per-request answers, and concurrent
        queries actually share one batched traversal."""

        async def scenario():
            rng = np.random.default_rng(62)
            points = rng.random((150, 3))
            queries = rng.random((20, 3))
            mirror = IncrementalJoin(JoinSpec(epsilon=0.18))
            mirror.insert(points)
            expected = [mirror.range_query(q).tobytes() for q in queries]
            for coalesce in (False, True):
                server = await _started_server(coalesce=coalesce)
                try:
                    client = await ServeClient.connect("127.0.0.1", server.port)
                    await client.attach("t", epsilon=0.18)
                    await client.insert("t", points)
                    answers = await asyncio.gather(
                        *[client.range_query("t", q) for q in queries]
                    )
                    assert [a.tobytes() for a in answers] == expected
                    width = server.metrics.histogram("serve.coalesce_width")
                    if coalesce:
                        # 20 concurrent queries, far fewer traversals.
                        assert width.count < 20
                        assert width.percentile(100) > 1
                    else:
                        assert width.percentile(100) == 1
                    await client.close()
                finally:
                    await server.stop()

        run(scenario())

    def test_stats_report_coalesce_wait(self):
        async def scenario():
            rng = np.random.default_rng(69)
            server = await _started_server()
            try:
                client = await ServeClient.connect("127.0.0.1", server.port)
                # Empty histograms report null, not a NaN JSON refuses.
                first = (await client.stats())["server"]
                assert first["coalesce_wait_p50"] is None
                assert first["coalesce_wait_p99"] is None
                assert first["latency_p50"] is None
                await client.attach("t", epsilon=0.2)
                await client.insert("t", rng.random((50, 2)))
                await asyncio.gather(
                    *[client.range_query("t", q) for q in rng.random((7, 2))]
                )
                stats = (await client.stats())["server"]
                assert stats["serve.coalesce_wait_seconds"]["count"] == 7
                assert 0 <= stats["coalesce_wait_p50"] <= stats["coalesce_wait_p99"]
                assert stats["coalesce_wait_p99"] < 1.0
                assert stats["latency_p50"] <= stats["latency_p99"]
                await client.close()
            finally:
                await server.stop()

        run(scenario())

    def test_coalescer_propagates_engine_errors(self):
        async def scenario():
            manager = SessionManager()
            session = manager.attach("t", spec=JoinSpec(epsilon=0.1))
            session.insert(np.random.default_rng(63).random((10, 2)))
            coalescer = QueryCoalescer()
            good = coalescer.submit(session, np.zeros(2))
            bad = coalescer.submit(session, np.zeros(2), eps=5.0)
            results = await asyncio.gather(good, bad, return_exceptions=True)
            # Radii live in separate batches: the bad one fails alone.
            assert isinstance(results[0], np.ndarray)
            assert isinstance(results[1], InvalidParameterError)
            manager.close_all()

        run(scenario())

    def test_lone_submit_waits_for_no_timer(self):
        """A batch runs at the end of the loop turn that opened it: a
        lone query resolves two ``sleep(0)`` turns after its submit ran,
        far sooner than any timer could fire."""

        async def scenario():
            manager = SessionManager()
            session = manager.attach("t", spec=JoinSpec(epsilon=0.1))
            session.insert(np.full((3, 2), 0.5))
            coalescer = QueryCoalescer()
            pending = asyncio.ensure_future(
                coalescer.submit(session, np.full(2, 0.5))
            )
            await asyncio.sleep(0)  # the submit runs and schedules its batch
            await asyncio.sleep(0)  # the batch runs and resolves the waiter
            await asyncio.sleep(0)  # the waiting task returns the answer
            assert pending.done()
            assert pending.result().tolist() == [0, 1, 2]
            width = coalescer.metrics.histogram("serve.coalesce_width")
            assert (width.count, width.percentile(100)) == (1, 1)
            manager.close_all()

        run(scenario())

    def test_one_turn_of_submits_shares_one_traversal(self):
        async def scenario():
            rng = np.random.default_rng(68)
            manager = SessionManager()
            session = manager.attach("t", spec=JoinSpec(epsilon=0.2))
            session.insert(rng.random((60, 2)))
            queries = rng.random((9, 2))
            coalescer = QueryCoalescer()
            traversals = []
            batch_range_query = session.batch_range_query

            def counted(points, eps=None):
                traversals.append(len(points))
                return batch_range_query(points, eps=eps)

            session.batch_range_query = counted
            answers = await asyncio.gather(
                *[coalescer.submit(session, q) for q in queries]
            )
            assert traversals == [len(queries)]
            width = coalescer.metrics.histogram("serve.coalesce_width")
            assert (width.count, width.percentile(100)) == (1, len(queries))
            wait = coalescer.metrics.histogram("serve.coalesce_wait_seconds")
            assert wait.count == len(queries) and wait.percentile(0) >= 0
            for q, got in zip(queries, answers):
                assert got.tobytes() == session.range_query(q).tobytes()
            manager.close_all()

        run(scenario())


# ----------------------------------------------------------------------
# admission control
# ----------------------------------------------------------------------
class TestServeAdmission:
    def test_size_budget_sheds_queries(self):
        async def scenario():
            rng = np.random.default_rng(64)
            server = await _started_server(max_predicted_pairs=1.0)
            try:
                client = await ServeClient.connect("127.0.0.1", server.port)
                await client.attach("t", epsilon=0.3)
                # A dense clump makes the sketch predict far more than
                # one pair per probe.
                await client.insert("t", np.full((40, 2), 0.5))
                with pytest.raises(AdmissionError, match="budget"):
                    await client.range_query("t", np.full(2, 0.5))
                with pytest.raises(AdmissionError):
                    await client.mini_join("t", rng.random((10, 2)))
                assert server.metrics.counter("serve.shed").value >= 2
                # Inserts and stats still flow.
                await client.insert("t", rng.random((5, 2)))
                stats = await client.stats()
                assert stats["server"]["serve.shed"]["value"] >= 2
                await client.close()
            finally:
                await server.stop()

        run(scenario())

    def test_queue_overflow_sheds(self):
        async def scenario():
            server = await _started_server(max_inflight=1, max_pending=1)
            manager_session = server.manager.attach(
                "t", spec=JoinSpec(epsilon=0.1)
            )
            manager_session.insert(np.random.default_rng(65).random((20, 2)))
            results = []

            async def occupy():
                async with server.admission.slot():
                    await asyncio.sleep(0.05)

            async def late():
                await asyncio.sleep(0.01)
                try:
                    async with server.admission.slot():
                        results.append("ran")
                except AdmissionError:
                    results.append("shed")

            try:
                await asyncio.gather(occupy(), late(), late())
                assert sorted(results) == ["ran", "shed"]
                assert server.metrics.counter("serve.shed").value == 1
                assert server.metrics.counter("serve.queued").value >= 1
            finally:
                await server.stop()

        run(scenario())

    def test_engine_admission_error_travels_the_wire(self):
        async def scenario():
            server = await _started_server()
            try:
                client = await ServeClient.connect("127.0.0.1", server.port)
                await client.attach("t", epsilon=0.2, admission_threshold=10.0)
                with pytest.raises(AdmissionError, match="admission threshold"):
                    await client.insert("t", np.full((30, 2), 0.5))
                stats = await client.stats("t")
                assert stats["tenant"]["stats"]["batches_rejected"] == 1
                assert stats["tenant"]["n_live"] == 0
                await client.close()
            finally:
                await server.stop()

        run(scenario())

    def test_deadline_expires(self):
        async def scenario():
            server = await _started_server()
            try:
                client = await ServeClient.connect("127.0.0.1", server.port)
                await client.attach("t", epsilon=0.1)
                await client.insert("t", np.zeros((3, 2)))
                # A 1 us deadline is shorter than one loop turn, and the
                # query needs at least two: one to run its batch, one to
                # return the answer.
                with pytest.raises(RemoteError, match="deadline"):
                    await client.range_query("t", np.zeros(2), deadline_ms=1e-3)
                assert (
                    server.metrics.counter("serve.deadline_exceeded").value == 1
                )
                await client.close()
            finally:
                await server.stop()

        run(scenario())


# ----------------------------------------------------------------------
# shutdown
# ----------------------------------------------------------------------
class TestShutdown:
    def test_clean_shutdown_answers_inflight_requests(self):
        """Queries read in the same turn as the shutdown request, whose
        batch has not run yet, still get real (correct) answers."""

        async def scenario():
            rng = np.random.default_rng(66)
            points = rng.random((80, 2))
            mirror = IncrementalJoin(JoinSpec(epsilon=0.2))
            mirror.insert(points)
            server = await _started_server()
            serve_task = asyncio.ensure_future(server.serve_until_shutdown())
            client = await ServeClient.connect("127.0.0.1", server.port)
            await client.attach("t", epsilon=0.2)
            await client.insert("t", points)
            queries = rng.random((6, 2))
            inflight = [
                asyncio.ensure_future(client.range_query("t", q))
                for q in queries
            ]
            await asyncio.sleep(0)  # the queries go out just before shutdown
            await client.shutdown()
            answers = await asyncio.gather(*inflight)
            for q, got in zip(queries, answers):
                assert got.tobytes() == mirror.range_query(q).tobytes()
            await asyncio.wait_for(serve_task, timeout=10)
            await client.close()

        run(scenario())

    def test_stop_is_idempotent_and_closes_sessions(self, tmp_path):
        async def scenario():
            path = str(tmp_path / "tenant")
            server = await _started_server()
            client = await ServeClient.connect("127.0.0.1", server.port)
            await client.attach("disk", epsilon=0.2, path=path)
            await client.insert(
                "disk", np.random.default_rng(67).random((10, 2))
            )
            await server.stop()
            await server.stop()  # second stop is a no-op
            assert len(server.manager) == 0
            await client.close()
            # The session directory is recoverable directly.
            session = IncrementalJoin.open(path)
            assert session.n_live == 10
            session.close()

        run(scenario())


# ----------------------------------------------------------------------
# session manager
# ----------------------------------------------------------------------
class TestSessionManager:
    def test_attach_idempotent_and_spec_checked(self):
        manager = SessionManager()
        first = manager.attach("t", spec=JoinSpec(epsilon=0.1))
        assert manager.attach("t") is first
        assert manager.attach("t", spec=JoinSpec(epsilon=0.1)) is first
        with pytest.raises(InvalidParameterError, match="different"):
            manager.attach("t", spec=JoinSpec(epsilon=0.5))
        with pytest.raises(InvalidParameterError, match="requires a spec"):
            manager.attach("other")
        manager.detach("t")
        with pytest.raises(InvalidParameterError, match="unknown tenant"):
            manager.get("t")
        manager.close_all()
