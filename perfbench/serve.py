"""``serve-mixed``: an open-loop client against ``python -m repro serve``.

The server runs as its own process with the CLI defaults (2 ms coalesce
window, ``--max-inflight 8``, ``--max-pending 64``).  One client with
two connections sends on a schedule and times every request from the
moment it was due, so a stall also counts against the requests queued
behind it.  Tenant ``hot`` gets range queries; tenant ``ingest`` gets
writes.  Three phases:

(a) reads only, at a fixed rate;
(b) a ladder of read rates, ending past saturation;
(c) the phase (a) reads while ``ingest`` gets one insert and one
    ``mini_join`` per second.

All engine work runs on the server's event loop, so writes to one
tenant stall reads of the other: compare the phase (c) read tail with
the phase (a) one.

Layers on the path: ``serve.protocol`` -> ``serve.batching`` /
``serve.admission`` -> ``serve.sessions`` -> ``serve.server``.
"""

from __future__ import annotations

import asyncio
import os
import subprocess
import sys
import time
from typing import Dict, List, Optional

import numpy as np

from common import (
    DIMS, WORK, CheckFailed, Samples, child_env, draw_points, epsilon_for_output, figure,
    median, peak_rss_mb, timed,
)

PAIRS_PER_POINT = 1.33
READ_RATE = 150.0
#: Phase (c) writes to ``ingest``: one insert and one mini-join a second.
WRITE_RATE = 1.0
INSERT_BATCH = 500
MINI_JOIN_BATCH = 50
#: Phase (b) doubles the read rate from ``LADDER_START`` until a rung
#: misses the limit (``LADDER_TOP`` is far beyond what one client can
#: send), then bisects the last bracket ``BISECTIONS`` times.
LADDER_START = 300.0
LADDER_TOP = 20000.0
BISECTIONS = 3
LIMIT_MS = 50.0
MISS_LIMIT = 0.01
#: Reads sent and discarded before phase (a).
WARM_UP_S = 0.3
#: Rung length: long enough for a backlog to build past the limit.
RUNG_S = 1.0
#: One in this many phase (a)/(c) answers is compared with the mirror.
CHECK_EVERY = 5
#: In-process insert probes of the traced run.
PROBES = 5
#: The server's flags: the CLI defaults, recorded in the result.
SERVER_FLAGS = {"coalesce_window": 0.002, "max_inflight": 8, "max_pending": 64}


class _Server:
    """A ``python -m repro serve`` child process."""

    def __init__(self, trace_path: Optional[str] = None):
        command = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        if trace_path:
            command += ["--trace", trace_path]
        self.process = subprocess.Popen(
            command, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True,
        )
        line = self.process.stdout.readline()
        if not line.startswith("serving on "):
            self.kill()
            raise CheckFailed(f"the server did not start: {line!r}")
        self.port = int(line.split()[2].rsplit(":", 1)[1])

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.process.pid)

    def wait(self) -> None:
        try:
            self.process.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.kill()

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.communicate()


class _Inputs:
    def __init__(self, seed: int, hot: int, ingest: int, queries: int, inserts: int):
        rng = np.random.default_rng(seed)
        pool = draw_points(hot + queries + ingest + inserts * INSERT_BATCH, rng)
        self.hot, self.queries = pool[:hot], pool[hot:hot + queries]
        self.hot_eps = epsilon_for_output(hot, PAIRS_PER_POINT)
        self.ingest = pool[hot + queries:]
        self.ingest_base = ingest
        self.ingest_eps = epsilon_for_output(ingest, PAIRS_PER_POINT)
        self.rng = rng


async def _load(port: int, inputs: _Inputs) -> None:
    from repro.serve.client import ServeClient

    async with await ServeClient.connect("127.0.0.1", port) as client:
        await client.attach("hot", epsilon=inputs.hot_eps)
        await client.insert("hot", inputs.hot)
        await client.compact("hot")
        await client.attach("ingest", epsilon=inputs.ingest_eps)
        await client.insert("ingest", inputs.ingest[:inputs.ingest_base])
        await client.compact("ingest")


def _start(inputs: _Inputs, trace_path: Optional[str] = None) -> _Server:
    server = _Server(trace_path)
    try:
        asyncio.run(_load(server.port, inputs))
    except BaseException:
        server.kill()
        raise
    return server


class _LoadGen:
    """Open-loop request schedule over two pipelined connections."""

    def __init__(self, clients, inputs: _Inputs):
        self.clients = clients
        self.inputs = inputs
        self.turn = 0
        self.late_ms = 0.0
        self.sent = 0
        self.query_row = 0
        self.ingest_row = inputs.ingest_base
        self.next_ingest_id = inputs.ingest_base
        self.checks: List = []  # (query row, answer) pairs to compare

    def _client(self):
        self.turn += 1
        return self.clients[self.turn % len(self.clients)]

    async def _timed(self, due: float, request):
        """``(latency from the due time in ms, answer)``; ``(None, None)``
        when the request failed."""
        try:
            answer = await request
        except Exception:  # a refused or failed request misses every limit
            return None, None
        return (time.perf_counter() - due) * 1e3, answer

    async def _read(self, due: float, check: bool) -> Optional[float]:
        row = self.query_row % len(self.inputs.queries)
        self.query_row += 1
        latency, ids = await self._timed(
            due, self._client().range_query("hot", self.inputs.queries[row]))
        if check and latency is not None:
            self.checks.append((row, ids))
        return latency

    async def _insert(self, due: float) -> Optional[float]:
        points = self.inputs.ingest[self.ingest_row:self.ingest_row + INSERT_BATCH]
        self.ingest_row += INSERT_BATCH
        expected = np.arange(self.next_ingest_id, self.next_ingest_id + INSERT_BATCH)
        self.next_ingest_id += INSERT_BATCH
        latency, ids = await self._timed(due, self._client().insert("ingest", points))
        if latency is not None and not np.array_equal(ids, expected):
            raise CheckFailed("an insert into ingest returned unexpected ids")
        return latency

    async def _mini_join(self, due: float) -> Optional[float]:
        rows = self.inputs.rng.integers(0, len(self.inputs.queries), MINI_JOIN_BATCH)
        latency, _ = await self._timed(
            due, self._client().mini_join("ingest", self.inputs.queries[rows]))
        return latency

    async def run(self, duration: float, read_rate: float, writes: bool = False,
                  check: bool = True) -> Dict[str, List[Optional[float]]]:
        """Send for ``duration`` seconds; latencies by request kind."""
        schedule = [(i / read_rate, "read") for i in range(int(duration * read_rate))]
        if writes:
            for i in range(_writes(duration)):
                schedule.append(((i + 0.25) / WRITE_RATE, "insert"))
                schedule.append(((i + 0.75) / WRITE_RATE, "mini_join"))
            schedule.sort()
        start = time.perf_counter() + 0.01
        tasks = {"read": [], "insert": [], "mini_join": []}
        for n, (offset, kind) in enumerate(schedule):
            due = start + offset
            wait = due - time.perf_counter()
            if wait > 0:
                await asyncio.sleep(wait)
            self.late_ms = max(self.late_ms, (time.perf_counter() - due) * 1e3)
            if kind == "read":
                job = self._read(due, check and n % CHECK_EVERY == 0)
            elif kind == "insert":
                job = self._insert(due)
            else:
                job = self._mini_join(due)
            tasks[kind].append(asyncio.ensure_future(job))
            self.sent += 1
        return {kind: list(await asyncio.gather(*jobs)) for kind, jobs in tasks.items()}


def _writes(duration: float) -> int:
    """Inserts (and mini-joins) phase (c) sends in ``duration`` seconds."""
    return max(2, int(duration * WRITE_RATE))


def _tail(latencies: List[Optional[float]], q: float) -> float:
    """Percentile with failures counted as misses of any limit."""
    values = [np.inf if v is None else v for v in latencies]
    return float(np.percentile(values, q, method="inverted_cdf"))


def _samples(latencies: List[Optional[float]]) -> Samples:
    samples = Samples("ms")
    for value in latencies:
        samples.add(np.inf if value is None else value)
    return samples


def _miss_share(latencies: List[Optional[float]]) -> float:
    """Share of requests that failed or took longer than the limit."""
    return sum(v is None or v > LIMIT_MS for v in latencies) / max(1, len(latencies))


def _max_rate(low, high) -> float:
    """Interpolate the rate at which the p99 reaches the limit between a
    passing and a failing rung ``(rate, p99, miss share)``.

    The p99 is within the limit exactly when at most 1% of requests miss
    it, and a refused request makes the p99 infinite, so the crossing is
    interpolated on the miss share, which stays finite.
    """
    (r0, _, m0), (r1, _, m1) = low, high
    return r0 + (r1 - r0) * (MISS_LIMIT - m0) / (m1 - m0)


async def _ladder(clients, inputs: _Inputs):
    """Double the read rate until a rung fails, then bisect the last
    bracket; returns every rung and the interpolated maximum rate."""
    async def rung(rate):
        reads = (await _LoadGen(clients, inputs).run(RUNG_S, rate, check=False))["read"]
        return (rate, _tail(reads, 99), _miss_share(reads))

    rungs = []
    rate = LADDER_START
    while True:
        rungs.append(await rung(rate))
        if rungs[-1][2] > MISS_LIMIT:
            break
        if rate >= LADDER_TOP:
            raise CheckFailed(f"the rate ladder never reached saturation: {rungs}")
        rate *= 2
    low = rungs[-2] if len(rungs) > 1 else (0.0, 0.0, 0.0)
    high = rungs[-1]
    for _ in range(BISECTIONS):
        probe = await rung((low[0] + high[0]) / 2)
        rungs.append(probe)
        if probe[2] > MISS_LIMIT:
            high = probe
        else:
            low = probe
    return rungs, _max_rate(low, high)


async def _drive(port: int, inputs: _Inputs, seconds: float, trace: bool, reference_port):
    from repro.serve.client import ServeClient

    out = {}
    if reference_port is not None:
        # The same reads against an untraced server: the tracing overhead.
        clients = [await ServeClient.connect("127.0.0.1", reference_port) for _ in range(2)]
        await _LoadGen(clients, inputs).run(WARM_UP_S, READ_RATE, check=False)  # discarded
        reads = await _LoadGen(clients, inputs).run(seconds * 0.15, READ_RATE, check=False)
        out["reference"] = reads["read"]
        for client in clients:
            await client.close()
    clients = [await ServeClient.connect("127.0.0.1", port) for _ in range(2)]
    await _LoadGen(clients, inputs).run(WARM_UP_S, READ_RATE, check=False)  # discarded
    gen = _LoadGen(clients, inputs)
    share = _share(trace)
    out["alone"] = (await gen.run(seconds * share, READ_RATE))["read"]
    out["rungs"], out["max_rate"] = await _ladder(clients, inputs)
    out["mixed"] = await gen.run(seconds * share, READ_RATE, writes=True)
    out["late_ms"] = gen.late_ms
    out["sent_per_s"] = gen.sent / (seconds * share * 2)
    out["checks"] = gen.checks
    out["stats"] = (await clients[0].stats())["server"]
    for client in clients:
        await client.close()
    return out


async def _shutdown(port: int) -> None:
    from repro.serve.client import ServeClient

    async with await ServeClient.connect("127.0.0.1", port) as client:
        await client.shutdown()


def _stop(server: _Server) -> None:
    try:
        asyncio.run(_shutdown(server.port))
    finally:
        server.wait()


def _share(trace: bool) -> float:
    """Share of the run's seconds that phase (a) and phase (c) each get;
    the ladder takes about six one-second rungs of the rest."""
    return 0.15 if trace else 0.35


def run(seed: int, seconds: float, trace: bool, hot: int, ingest: int, setups: int) -> Dict:
    # Phase (c) inserts, plus the traced run's in-process insert probes.
    inserts = _writes(seconds * _share(trace)) + PROBES
    inputs = _Inputs(seed, hot, ingest, queries=4000, inserts=inserts)
    trace_path = os.path.join(WORK, "serve-trace.jsonl")
    if os.path.exists(trace_path):
        os.remove(trace_path)
    setup_s = []
    servers: List[_Server] = []
    try:
        for k in range(setups):
            # In a traced run the last server records spans and the one
            # before it stays up, untraced, as the overhead reference.
            traced = trace and k == setups - 1
            server, took = timed(_start, inputs, trace_path if traced else None)
            setup_s.append(took)
            servers.append(server)
            while len(servers) > (2 if trace else 1):
                _stop(servers.pop(0))
        reference = servers[0].port if trace else None
        out = asyncio.run(_drive(servers[-1].port, inputs, seconds, trace, reference))
        server_rss = servers[-1].peak_rss_mb()
        while servers:
            _stop(servers.pop())
    finally:
        for server in servers:
            server.kill()

    mirror = _mirror(inputs.hot, inputs.hot_eps)
    requests = [out["alone"], *out["mixed"].values()]
    counts = {"attempted": sum(map(len, requests)),
              "failed": sum(v is None for latencies in requests for v in latencies)}
    rows = [row for row, _ in out["checks"]]
    for (row, ids), expected in zip(out["checks"], mirror.batch_range_query(inputs.queries[rows])):
        if not np.array_equal(ids, expected):
            raise CheckFailed(f"range answer for query {row} differs from the mirror")

    alone, mixed = _samples(out["alone"]), _samples(out["mixed"]["read"])
    inserts = _samples(out["mixed"]["insert"])
    max_rate = out["max_rate"]
    figures = {
        "setup_s": {**figure(median(setup_s), "s", len(setup_s)), "samples": setup_s},
        "query_p50_ms": alone.figure(50),
        "query_p90_ms": alone.figure(90),
        "query_p99_ms": alone.figure(99),
        "max_rate_ok_per_s": {**figure(max_rate, "1/s", len(out["rungs"])),
                              "rungs": out["rungs"]},
        "mixed_query_p99_ms": mixed.figure(99),
        "minijoin_p50_ms": _samples(out["mixed"]["mini_join"]).figure(50),
        "insert_p50_ms": inserts.figure(50),
        "peak_rss_mb": figure(server_rss, "MB"),
    }
    roles = {
        "setup_s": figures["setup_s"]["value"],
        "latency_ms": alone.percentile(50),
        # The read tail that counts is the one beside writes: the stall.
        # Phase (a)'s own tail is set by a few host hiccups and moved
        # 1.5-3x between runs, too far to bound; it stays a figure.
        "tail_ms": mixed.percentile(99),
        "stressed_ms": inserts.percentile(50),
        "peak_rss_mb": server_rss,
    }
    config = {
        "hot": hot, "ingest": ingest, "dims": DIMS, "hot_epsilon": inputs.hot_eps,
        "ingest_epsilon": inputs.ingest_eps, "server_flags": SERVER_FLAGS,
        "read_rate": READ_RATE, "write_rate": WRITE_RATE, "insert_batch": INSERT_BATCH,
        "mini_join_batch": MINI_JOIN_BATCH, "ladder": [LADDER_START, LADDER_TOP, BISECTIONS],
        "limit_ms": LIMIT_MS,
        "loadgen_late_ms": out["late_ms"], "checked_answers": len(rows),
    }
    layers = _layers(inputs, mirror, out, trace_path) if trace else {}
    samples = {"read_ms": alone.values, "mixed_read_ms": mixed.values,
               "insert_ms": out["mixed"]["insert"], "mini_join_ms": out["mixed"]["mini_join"]}
    return {"counts": counts, "figures": figures, "roles": roles, "layers": layers,
            "config": config, "samples": samples}


def _mirror(points: np.ndarray, eps: float):
    """An in-process session built the way the server built the tenant."""
    from repro import IncrementalJoin, JoinSpec

    session = IncrementalJoin(JoinSpec(epsilon=eps))
    session.insert(points)
    session.compact()
    return session


def _self_ms(spans: List[Dict]) -> Dict[str, float]:
    """Median self time of the server's ``serve.request`` spans by op."""
    covered: Dict[str, float] = {}
    for span in spans:
        if span["parent_id"] is not None:
            covered[span["parent_id"]] = covered.get(span["parent_id"], 0.0) + span["duration"]
    by_op: Dict[str, List[float]] = {}
    for span in spans:
        if span["name"] == "serve.request":
            own = span["duration"] - covered.get(span["span_id"], 0.0)
            by_op.setdefault(span["attributes"].get("op"), []).append(own * 1e3)
    return {op: median(values) for op, values in by_op.items()}


def _layers(inputs: _Inputs, mirror, out, trace_path: str) -> Dict[str, float]:
    from repro.obs.export import load_jsonl
    from repro.serve.protocol import decode_frame, encode_frame

    request, response = (
        {"op": "range_query", "id": 1, "tenant": "hot", "point": inputs.queries[0].tolist()},
        {"id": 1, "ok": True, "ids": out["checks"][0][1].tolist()},
    )
    encode_us, decode_us = [], []
    for frame in (request, response) * 500:
        data, took = timed(encode_frame, frame)
        encode_us.append(took * 1e6)
        _, took = timed(decode_frame, data[4:])
        decode_us.append(took * 1e6)
    stats = out["stats"]
    width = stats.get("serve.coalesce_width", {}).get("mean", 1.0)
    batch = inputs.queries[:max(1, int(round(width)))]
    query_ms = []
    for _ in range(30):
        _, took = timed(mirror.batch_range_query, batch)
        query_ms.append(took * 1e3 / len(batch))
    ingest = _mirror(inputs.ingest[:inputs.ingest_base], inputs.ingest_eps)
    insert_ms = []
    for k in range(PROBES):
        rows = inputs.ingest[-(k + 1) * INSERT_BATCH:][:INSERT_BATCH]
        _, took = timed(ingest.insert, rows)
        insert_ms.append(took * 1e3)
    self_ms = _self_ms(load_jsonl(trace_path))
    sent = out["alone"] + out["mixed"]["read"]
    return {
        "protocol.encode_us": median(encode_us),
        "protocol.decode_us": median(decode_us),
        "batching.coalesce_width_mean": width,
        "admission.shed": stats.get("serve.shed", {}).get("value", 0),
        "admission.queued": stats.get("serve.queued", {}).get("value", 0),
        "sessions.batch_query_ms": median(query_ms),
        "sessions.insert_ms": median(insert_ms),
        "server.self_ms.range_query": self_ms.get("range_query", 0.0),
        "server.self_ms.insert": self_ms.get("insert", 0.0),
        "server.self_ms.mini_join": self_ms.get("mini_join", 0.0),
        "loadgen.late_ms": out["late_ms"],
        "loadgen.sent_per_s": out["sent_per_s"],
        "obs.trace_overhead_frac": (_samples(out["alone"]).percentile(50)
                                    / _samples(out["reference"]).percentile(50) - 1.0),
    }
