"""The repo's benchmark: one command, three workloads, every answer checked.

Run one workload (what ``BENCHMARK.json`` names)::

    python3 perfbench/run.py --workload batch-join --seed 1 --seconds 25 --trace 0

``--workload all`` runs the three workloads one after another, each in
its own process.  ``--trace 0`` measures the end-to-end metrics with
tracing off; ``--trace 1`` is the separate traced run that splits each
workload into its layers.  ``--smoke`` shrinks every input so a full
pass takes seconds.  ``--out FILE`` keeps the full record (medians,
quartiles, sample counts, plan, environment); ``--compare A B`` prints
the deltas between two such records.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Any failed
answer check makes the run exit with status 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import (  # noqa: E402
    SRC, WORK, CheckFailed, environment, pin_cost_profile, steal_seconds,
)

sys.path.insert(0, SRC)

WORKLOADS = ("batch-join", "stream-persist", "serve-mixed")

#: The end-to-end metrics every workload reports, by role (see README.md
#: for what each means on each workload).
END_TO_END = {
    "setup_s": "s",
    "latency_ms": "ms",
    "tail_ms": "ms",
    "stressed_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics of the traced run.  A workload whose path does not
#: pass through a layer reports 0 for it.
PER_LAYER = {
    "planner.plan_ms": "ms",
    "planner.predicted_over_actual": "ratio",
    "flat_build.build_ms": "ms",
    "flat_build.nodes": "count",
    "join.traverse_s": "s",
    "join.node_pairs": "count",
    "join.leaf_joins": "count",
    "kernels.kernel_s": "s",
    "kernels.distance_computations": "count",
    "kernels.blocks": "count",
    "kernels.useful_frac": "ratio",
    "emit.collect_s": "s",
    "emit.sort_ms": "ms",
    "emit.pairs": "count",
    "batch.unexplained_frac": "ratio",
    "incremental.compact_ms": "ms",
    "incremental.compactions": "count",
    "incremental.compaction_insert_ms": "ms",
    "incremental.pairs_emitted": "count",
    "incremental.pairs_retracted": "count",
    "incremental.sketch_rel_error": "ratio",
    "wal.append_ms": "ms",
    "wal.bytes_per_user_byte": "ratio",
    "snapshot.load_ms": "ms",
    "snapshot.bytes_per_point": "B",
    "snapshot.bytes_per_user_byte": "ratio",
    "recovery.replay_records": "count",
    "recovery.replay_ms": "ms",
    "protocol.encode_us": "us",
    "protocol.decode_us": "us",
    "batching.coalesce_width_mean": "count",
    "admission.shed": "count",
    "admission.queued": "count",
    "sessions.batch_query_ms": "ms",
    "sessions.insert_ms": "ms",
    "server.self_ms.range_query": "ms",
    "server.self_ms.insert": "ms",
    "server.self_ms.mini_join": "ms",
    "loadgen.late_ms": "ms",
    "loadgen.sent_per_s": "1/s",
    "obs.trace_overhead_frac": "ratio",
}

#: Input sizes, the measured one and the ``--smoke`` one, with the
#: nominal cost of each workload's unit of work on a 2-vCPU host.
SIZES = {
    "batch-join": ({"n": 10000, "setups": 3, "round_s": 2.5},
                   {"n": 1500, "setups": 2, "round_s": 0.12}),
    "stream-persist": ({"base": 10000, "batch": 250, "setups": 3, "step_s": 0.16,
                        "reopen_s": 0.8},
                       {"base": 1500, "batch": 60, "setups": 2, "step_s": 0.03,
                        "reopen_s": 0.15}),
    "serve-mixed": ({"hot": 12000, "ingest": 6000, "setups": 3},
                    {"hot": 1500, "ingest": 800, "setups": 2}),
}


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> Dict:
    """Run one workload in this process; returns its full record."""
    profile = pin_cost_profile()
    import batch
    import serve
    import stream

    module = {"batch-join": batch, "stream-persist": stream, "serve-mixed": serve}[name]
    sizes = SIZES[name][1 if smoke else 0]
    record = {"workload": name, "seconds": seconds, "trace": int(trace), "smoke": smoke,
              "environment": environment(seed), "cost_profile": profile}
    steal = steal_seconds()
    try:
        out = module.run(seed, seconds, trace, **sizes)
    except CheckFailed as exc:
        record.update(correct=False, error=str(exc), attempted=1, failed=1)
        return record
    record["environment"]["steal_s"] = steal_seconds() - steal
    metrics = {}
    if trace:
        for key, unit in PER_LAYER.items():
            metrics[key] = {"value": float(out["layers"].get(key, 0.0)), "unit": unit}
    else:
        for key, unit in END_TO_END.items():
            metrics[key] = {"value": float(out["roles"][key]), "unit": unit}
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    record.update(
        correct=finite and out["counts"]["failed"] == 0,
        attempted=max(1, out["counts"]["attempted"]),
        failed=out["counts"]["failed"],
        metrics=metrics,
        figures=out["figures"],
        config=out["config"],
        samples={key: [None if v is None else round(v, 4) for v in values]
                 for key, values in out["samples"].items()},
    )
    if not finite:
        record["error"] = "a metric is not finite (a request failed)"
    return record


def _line(record: Dict) -> Dict:
    """The one-line result: exactly the four keys the contract names."""
    metrics = {
        key: {"value": value["value"] if math.isfinite(value["value"]) else None,
              "unit": value["unit"]}
        for key, value in record.get("metrics", {}).items()
    }
    return {"correct": bool(record["correct"]), "attempted": int(record["attempted"]),
            "failed": int(record["failed"]), "metrics": metrics}


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, (int, float)) else str(value)


def print_record(record: Dict) -> None:
    name = record["workload"]
    if not record["correct"]:
        print(f"{name}: CHECK FAILED: {record.get('error', 'failed operations')}")
    for key, fig in record.get("figures", {}).items():
        spread = ""
        if "q1" in fig:
            spread = f"  (q1 {_fmt(fig['q1'])}, q3 {_fmt(fig['q3'])})"
        print(f"{name} {key} = {_fmt(fig['value'])} {fig['unit']}  n={fig['n']}{spread}")
    if record.get("trace"):
        for key, metric in record.get("metrics", {}).items():
            print(f"{name} layer {key} = {_fmt(metric['value'])} {metric['unit']}")


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is its own."""
    records = {}
    os.makedirs(WORK, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        for name in WORKLOADS:
            out = os.path.join(tmp, f"{name}.json")
            command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(args.trace), "--out", out]
            if args.smoke:
                command.append("--smoke")
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            sys.stdout.write("\n".join(done.stdout.splitlines()[:-1]) + "\n")
            if not os.path.exists(out):
                print(f"{name}: no result (exit status {done.returncode})")
                return 1
            with open(out) as handle:
                records[name] = json.load(handle)["workloads"][name]
    _save(args.out, records)
    line = {"correct": all(r["correct"] for r in records.values()),
            "attempted": sum(r["attempted"] for r in records.values()),
            "failed": sum(r["failed"] for r in records.values()),
            "metrics": {f"{name}.{key}": value
                        for name, r in records.items()
                        for key, value in _line(r)["metrics"].items()}}
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def _save(path, records: Dict) -> None:
    if path:
        with open(path, "w") as handle:
            json.dump({"workloads": records}, handle, indent=1, sort_keys=True, default=str)


def compare(path_a: str, path_b: str) -> int:
    """Per workload: each figure's median, quartiles and delta, then the
    per-layer deltas."""
    with open(path_a) as handle:
        a = json.load(handle)["workloads"]
    with open(path_b) as handle:
        b = json.load(handle)["workloads"]
    for name in [w for w in a if w in b]:
        ra, rb = a[name], b[name]
        print(f"== {name}  (A seed {ra['environment']['seed']}, B seed "
              f"{rb['environment']['seed']})")
        for key, fa in ra.get("figures", {}).items():
            fb = rb.get("figures", {}).get(key)
            if fb is None:
                continue
            print(f"  {key:22s} A {_quartiles(fa)}  B {_quartiles(fb)}  "
                  f"delta {_delta(fa['value'], fb['value'])}  {fa['unit']}")
        layers = [k for k in ra.get("metrics", {}) if k in PER_LAYER and k in rb.get("metrics", {})]
        if layers:
            print("  per layer:")
        for key in layers:
            va, vb = ra["metrics"][key]["value"], rb["metrics"][key]["value"]
            if va or vb:
                print(f"  {key:34s} A {_fmt(va):>12s}  B {_fmt(vb):>12s}  "
                      f"delta {_delta(va, vb)}  {PER_LAYER[key]}")
    return 0


def _quartiles(fig: Dict) -> str:
    if "q1" in fig:
        return f"{_fmt(fig['value'])} [{_fmt(fig['q1'])}, {_fmt(fig['q3'])}] n={fig['n']}"
    return f"{_fmt(fig['value'])} n={fig['n']}"


def _delta(a: float, b: float) -> str:
    if not a:
        return "n/a"
    return f"{(b - a) / abs(a):+.1%}"


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measuring time of one workload, set-up excluded")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for a quick pass")
    parser.add_argument("--out", help="write the full record here")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="print the deltas between two --out records")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    _save(args.out, {args.workload: record})
    print_record(record)
    print(json.dumps(_line(record)))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
