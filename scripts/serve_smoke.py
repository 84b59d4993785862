"""End-to-end serving smoke: real server process, restart, byte-compare.

The serve tests (:mod:`tests.test_serve`) exercise the server in-process.
This script runs the whole stack the way an operator would — a real
``python -m repro serve`` subprocess on a loopback port, talked to over
TCP by :class:`~repro.serve.ServeClient` — and checks the acceptance
contract for the serving layer:

1. attach a persisted tenant, stream inserts and deletes through the
   wire, and answer coalesced concurrent range queries;
2. shut the server down cleanly (``shutdown`` op, exit code 0), start a
   *fresh* process on the same directory, re-attach from the snapshot,
   and get byte-identical pairs and query answers;
3. every answer — before and after the restart — is byte-identical to a
   direct, never-served :class:`~repro.core.incremental.IncrementalJoin`
   that applied the same updates;
4. the server's own metrics (coalesce width, shed/queued counters)
   land in the ``--metrics-json`` artifact.

Every request/response crossing the wire is logged to
``requests.jsonl`` and a ``summary.json`` lands in ``--out`` so CI can
archive both.

Usage::

    PYTHONPATH=src python scripts/serve_smoke.py --out serve-smoke/
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time

import numpy as np

from repro import JoinSpec
from repro.core.incremental import IncrementalJoin
from repro.serve import ServeClient

DIMS = 5
EPSILON = 0.2
BATCH_N = 150
N_BATCHES = 4
N_QUERIES = 32

_PORT_LINE = re.compile(r"serving on 127\.0\.0\.1:(\d+) ")


class RequestLog:
    """Collects one JSON line per request/response pair crossing the wire."""

    def __init__(self):
        self.entries = []

    def add(self, phase: str, op: str, **fields):
        entry = {"phase": phase, "op": op, "t": time.time()}
        entry.update(fields)
        self.entries.append(entry)

    def write(self, path: str):
        with open(path, "w") as handle:
            for entry in self.entries:
                handle.write(json.dumps(entry) + "\n")


def start_server(out_dir: str, tag: str) -> tuple:
    """Boot ``repro serve`` on an ephemeral port; return (proc, port)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(os.getcwd(), "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--port",
            "0",
            "--metrics-json",
            os.path.join(out_dir, f"metrics_{tag}.json"),
            "--trace",
            os.path.join(out_dir, f"spans_{tag}.jsonl"),
        ],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    line = proc.stdout.readline()
    match = _PORT_LINE.search(line)
    if not match:
        proc.kill()
        raise AssertionError(f"{tag}: no port announcement, got {line!r}")
    return proc, int(match.group(1))


def make_updates():
    rng = np.random.default_rng(17)
    updates = []
    for index in range(N_BATCHES):
        updates.append(("insert", rng.random((BATCH_N, DIMS))))
        if index == 2:
            updates.append(("delete", list(range(30, 60))))
    return updates, rng.random((N_QUERIES, DIMS))


def oracle(updates) -> IncrementalJoin:
    session = IncrementalJoin(JoinSpec(epsilon=EPSILON))
    for op, payload in updates:
        if op == "insert":
            session.insert(payload)
        else:
            session.delete(payload)
    return session


def sorted_pairs(pairs: np.ndarray) -> np.ndarray:
    if len(pairs) == 0:
        return pairs
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


async def drive_first(port: int, index_dir: str, updates, queries, log) -> dict:
    """Phase 1: attach persisted tenant, stream updates, query, shut down."""
    async with await ServeClient.connect("127.0.0.1", port) as client:
        attached = await client.request(
            "attach", tenant="smoke", epsilon=EPSILON, path=index_dir
        )
        log.add("first", "attach", response=attached)
        for op, payload in updates:
            if op == "insert":
                ids = await client.insert("smoke", np.asarray(payload))
                log.add("first", "insert", n=int(len(ids)))
            else:
                removed = await client.delete("smoke", payload)
                log.add("first", "delete", removed=int(len(removed)))
        answers = await asyncio.gather(
            *[client.range_query("smoke", q) for q in queries]
        )
        for query_index, ids in enumerate(answers):
            log.add("first", "range_query", i=query_index, hits=int(len(ids)))
        pairs = await client.pairs("smoke")
        log.add("first", "pairs", count=int(len(pairs)))
        stats = await client.stats(tenant="smoke")
        log.add("first", "stats", response=stats)
        await client.shutdown()
        log.add("first", "shutdown")
    return {"answers": answers, "pairs": pairs, "stats": stats}


async def drive_second(port: int, index_dir: str, queries, log) -> dict:
    """Phase 2: fresh process, re-attach from snapshot, same questions."""
    async with await ServeClient.connect("127.0.0.1", port) as client:
        attached = await client.request("attach", tenant="smoke", path=index_dir)
        log.add("second", "attach", response=attached)
        answers = await asyncio.gather(
            *[client.range_query("smoke", q) for q in queries]
        )
        for query_index, ids in enumerate(answers):
            log.add("second", "range_query", i=query_index, hits=int(len(ids)))
        pairs = await client.pairs("smoke")
        log.add("second", "pairs", count=int(len(pairs)))
        await client.shutdown()
        log.add("second", "shutdown")
    return {"answers": answers, "pairs": pairs, "attached": attached}


def await_exit(proc: subprocess.Popen) -> None:
    """Wait for a clean exit; kill rather than hang if the server wedged."""
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="serve-smoke")
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)

    workdir = tempfile.mkdtemp(prefix="serve-smoke-")
    index_dir = os.path.join(workdir, "index")
    updates, queries = make_updates()
    log = RequestLog()
    try:
        proc, port = start_server(args.out, "first")
        try:
            first = asyncio.run(
                asyncio.wait_for(
                    drive_first(port, index_dir, updates, queries, log), 120
                )
            )
        finally:
            await_exit(proc)
        if proc.returncode != 0:
            raise AssertionError(f"first server exited {proc.returncode}")

        proc, port = start_server(args.out, "second")
        try:
            second = asyncio.run(
                asyncio.wait_for(drive_second(port, index_dir, queries, log), 120)
            )
        finally:
            await_exit(proc)
        if proc.returncode != 0:
            raise AssertionError(f"second server exited {proc.returncode}")

        # The restarted server answered from the snapshot + WAL alone;
        # both processes must agree with the never-served oracle.
        direct = oracle(updates)
        expected_pairs = sorted_pairs(direct.current_pairs())
        for tag, result in (("first", first), ("second", second)):
            if sorted_pairs(result["pairs"]).tobytes() != expected_pairs.tobytes():
                raise AssertionError(f"{tag}: served pairs diverged from direct")
            for query_index, query in enumerate(queries):
                expected = direct.range_query(query)
                got = result["answers"][query_index]
                if got.tobytes() != expected.tobytes():
                    raise AssertionError(
                        f"{tag}: query {query_index} diverged from direct"
                    )
        if second["attached"]["n_live"] != direct.n_live:
            raise AssertionError(
                f"re-attach recovered {second['attached']['n_live']} live "
                f"points, direct has {direct.n_live}"
            )

        metrics = json.load(open(os.path.join(args.out, "metrics_first.json")))
        width = metrics.get("serve.coalesce_width", {})
        if not width.get("count"):
            raise AssertionError(f"no coalesced batches recorded: {metrics}")

        log.write(os.path.join(args.out, "requests.jsonl"))
        summary = {
            "updates": len(updates),
            "queries": int(len(queries)),
            "pairs": int(len(expected_pairs)),
            "n_live": int(direct.n_live),
            "coalesce_width_max": width.get("max"),
            "server_requests": metrics.get("serve.requests", {}).get("value", 0),
            "shed": metrics.get("serve.shed", {}).get("value", 0),
            "queued": metrics.get("serve.queued", {}).get("value", 0),
        }
        with open(os.path.join(args.out, "summary.json"), "w") as handle:
            json.dump(summary, handle, indent=2)
            handle.write("\n")
        print(
            f"served {summary['server_requests']} requests across a restart: "
            f"{summary['pairs']} pairs and {summary['queries']} query answers "
            f"byte-identical to the direct session "
            f"(max coalesce width {summary['coalesce_width_max']})"
        )
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
