"""Smoke test of the benchmark: every workload, untraced and traced, at
the ``--smoke`` size, plus the compare mode and the refusal to run
without the program.

Run with ``python -m pytest perfbench``; it takes about a minute.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
sys.path.insert(0, HERE)

from run import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402


def _run(*args, cwd=None):
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, cwd=cwd,
                          timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_all_workloads(tmp_path, trace):
    out = tmp_path / "all.json"
    done = _run(RUN, "--workload", "all", "--smoke", "--seconds", "3", "--seed", "5",
                "--trace", str(trace), "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    names = PER_LAYER if trace else END_TO_END
    assert set(line["metrics"]) == {f"{w}.{k}" for w in WORKLOADS for k in names}
    for key, metric in line["metrics"].items():
        assert isinstance(metric["value"], float), key
        if not trace:
            assert metric["value"] > 0, key
    records = json.loads(out.read_text())["workloads"]
    assert records["serve-mixed"]["figures"]["max_rate_ok_per_s"]["value"] > 0
    compared = _run(RUN, "--compare", str(out), str(out))
    assert compared.returncode == 0
    assert "delta +0.0%" in compared.stdout


def test_single_workload_line_has_exactly_the_end_to_end_metrics():
    done = _run(RUN, "--workload", "batch-join", "--smoke", "--seconds", "1", "--seed", "2",
                "--trace", "0")
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line["metrics"]) == set(END_TO_END)
    assert {m["unit"] for m in line["metrics"].values()} <= set(END_TO_END.values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(os.path.join("perfbench", "run.py"), "--workload", "batch-join", "--seed", "1",
                "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
