"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main


def test_parser_defaults():
    args = build_parser().parse_args(["join", "--epsilon", "0.1"])
    assert args.algorithm == "epsilon-kdb"
    assert args.dataset == "clusters"
    assert args.points == 10_000


def test_bare_flags_imply_join(capsys):
    code = main(["--epsilon", "0.3", "--dataset", "uniform", "--points", "100",
                 "--dims", "3"])
    assert code == 0
    assert "pairs:" in capsys.readouterr().out


def test_epsilon_required():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["join"])


def test_no_command_prints_help(capsys):
    assert main([]) == 2
    assert "join" in capsys.readouterr().out


def test_compare_runs_all_algorithms(capsys):
    code = main(
        [
            "compare",
            "--epsilon",
            "0.3",
            "--dataset",
            "uniform",
            "--points",
            "250",
            "--dims",
            "4",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    for name in ("epsilon-kdb", "rtree", "rplus", "zorder", "sort-merge",
                 "grid", "brute-force"):
        assert name in out


def test_compare_skip(capsys):
    code = main(
        [
            "compare",
            "--epsilon",
            "0.3",
            "--dataset",
            "uniform",
            "--points",
            "200",
            "--dims",
            "3",
            "--skip",
            "brute-force",
            "--skip",
            "grid",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "brute-force" not in out
    assert "epsilon-kdb" in out


def test_run_small_join(capsys):
    code = main(
        [
            "--epsilon",
            "0.2",
            "--dataset",
            "uniform",
            "--points",
            "300",
            "--dims",
            "4",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "pairs:" in out
    assert "distance computations:" in out


@pytest.mark.parametrize("algorithm", ["rtree", "sort-merge", "grid", "brute-force"])
def test_run_every_algorithm(algorithm, capsys):
    code = main(
        [
            "--epsilon",
            "0.3",
            "--algorithm",
            algorithm,
            "--dataset",
            "uniform",
            "--points",
            "200",
            "--dims",
            "3",
        ]
    )
    assert code == 0
    assert algorithm in capsys.readouterr().out


def test_dataset_generators(capsys):
    for dataset in ("clusters", "timeseries", "images"):
        code = main(
            [
                "--epsilon",
                "0.5",
                "--dataset",
                dataset,
                "--points",
                "150",
                "--dims",
                "8",
            ]
        )
        assert code == 0


def test_output_file(tmp_path, capsys):
    target = tmp_path / "pairs.npy"
    code = main(
        [
            "--epsilon",
            "0.4",
            "--dataset",
            "uniform",
            "--points",
            "200",
            "--dims",
            "3",
            "--output",
            str(target),
        ]
    )
    assert code == 0
    pairs = np.load(target)
    assert pairs.ndim == 2 and pairs.shape[1] == 2


def test_input_npy_file(tmp_path, capsys):
    points = np.random.default_rng(0).random((120, 5))
    source = tmp_path / "points.npy"
    np.save(source, points)
    code = main(["--epsilon", "0.3", "--input", str(source)])
    assert code == 0
    assert "120 points" in capsys.readouterr().out


def test_search_random_queries(capsys):
    code = main(
        [
            "search",
            "--epsilon",
            "0.2",
            "--dataset",
            "clusters",
            "--points",
            "400",
            "--dims",
            "6",
            "--queries",
            "4",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "built epsilon-kdB tree" in out
    assert out.count("query ") == 4


def test_search_explicit_query(capsys):
    code = main(
        [
            "search",
            "--epsilon",
            "0.3",
            "--dataset",
            "uniform",
            "--points",
            "300",
            "--dims",
            "3",
            "--query",
            "0.5,0.5,0.5",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "hits" in out


def test_search_hit_counts_match_brute_force(tmp_path, capsys):
    """Every printed hit count is the linear-scan count for its query,
    including a query outside the points' bounding box."""
    points = np.random.default_rng(2).random((500, 3))
    source = tmp_path / "points.npy"
    np.save(source, points)
    queries = [[0.5, 0.5, 0.5], [0.1, 0.9, 0.2], [1.1, -0.05, 0.5]]
    args = ["search", "--epsilon", "0.2", "--input", str(source)]
    for query in queries:
        args += ["--query", ",".join(str(v) for v in query)]
    assert main(args) == 0
    out = capsys.readouterr().out
    printed = [
        int(line.split(": ")[1].split(" hits")[0])
        for line in out.splitlines()
        if line.startswith("query ")
    ]
    expected = [
        int((np.linalg.norm(points - np.array(query), axis=1) <= 0.2).sum())
        for query in queries
    ]
    assert printed == expected
    assert all(expected)


def test_input_csv_file(tmp_path, capsys):
    points = np.random.default_rng(1).random((50, 3))
    source = tmp_path / "points.csv"
    np.savetxt(source, points, delimiter=",")
    code = main(["--epsilon", "0.3", "--input", str(source)])
    assert code == 0
    assert "50 points" in capsys.readouterr().out


_SMALL_JOIN = [
    "--epsilon", "0.3", "--dataset", "uniform", "--points", "200", "--dims", "3",
]


def test_stats_json_dumps_every_counter(tmp_path, capsys):
    import json

    from repro.core.result import JoinStats

    target = tmp_path / "stats.json"
    code = main([*_SMALL_JOIN, "--stats-json", str(target)])
    assert code == 0
    assert f"wrote stats to {target}" in capsys.readouterr().out
    stats = json.loads(target.read_text())
    # cascade_survivors renders as one cascade_survivors_stage{N} key per
    # stage (none here: d=3 keeps the cascade off) instead of raw; "plan"
    # carries the planner's ExecutionPlan, not a JoinStats counter.
    expected = set(JoinStats.__dataclass_fields__) - {"cascade_survivors"}
    stage_keys = {k for k in stats if k.startswith("cascade_survivors_stage")}
    assert set(stats) - stage_keys - {"plan"} == expected
    assert stats["pairs_emitted"] > 0
    assert stats["plan"]["chosen"] == stats["planned_strategy"]


def test_trace_jsonl_artifact(tmp_path, capsys):
    from repro.obs import load_jsonl
    from repro.obs.export import SPAN_SCHEMA_KEYS

    target = tmp_path / "trace.jsonl"
    code = main([*_SMALL_JOIN, "--trace", str(target)])
    assert code == 0
    assert "trace spans" in capsys.readouterr().out
    spans = load_jsonl(str(target))
    names = {s["name"] for s in spans}
    assert {"cli-join", "build", "self-join-traversal"} <= names
    for span in spans:
        assert set(span) == set(SPAN_SCHEMA_KEYS)


def test_trace_chrome_artifact(tmp_path):
    import json

    target = tmp_path / "trace.json"
    code = main(
        [*_SMALL_JOIN, "--trace", str(target), "--trace-format", "chrome"]
    )
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["traceEvents"]
    assert {e["ph"] for e in doc["traceEvents"]} <= {"X", "i"}


def test_trace_summary_prints_phase_tree(capsys):
    code = main([*_SMALL_JOIN, "--trace-summary"])
    assert code == 0
    out = capsys.readouterr().out
    assert "cli-join" in out
    assert "└─" in out
    # the ordinary stat lines are still there
    assert "pairs:" in out
    assert "distance computations:" in out


def test_untraced_join_prints_no_tree(capsys):
    code = main(_SMALL_JOIN)
    assert code == 0
    assert "cli-join" not in capsys.readouterr().out


# ----------------------------------------------------------------------
# join-stream: the incremental session driven from JSONL update batches
# ----------------------------------------------------------------------
def _write_updates(tmp_path, rows):
    import json

    path = tmp_path / "updates.jsonl"
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    return str(path)


def test_join_stream_basic(tmp_path, capsys):
    rng = np.random.default_rng(0)
    rows = [
        {"op": "insert", "points": rng.random((40, 3)).tolist()},
        {"op": "delete", "ids": list(range(5))},
        ["insert", rng.random((10, 3)).tolist()],  # tuple form also parses
    ]
    code = main(
        [
            "join-stream",
            "--epsilon",
            "0.3",
            "--dataset",
            "uniform",
            "--points",
            "100",
            "--dims",
            "3",
            "--updates",
            _write_updates(tmp_path, rows),
            "--delta-threshold",
            "60",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "seeding session with 100 points" in out
    assert "[seed] insert 100 points (ids 0..99)" in out
    assert "[2] delete 5 ids:" in out
    assert "update batches applied:" in out
    assert "pairs retracted:" in out
    assert "estimated join size:" in out
    assert "compactions:" in out  # the 100-point seed crosses threshold 60


def test_join_stream_output_matches_batch_join(tmp_path):
    import json

    from repro import similarity_join

    rng = np.random.default_rng(1)
    batches = [rng.random((30, 4)) for _ in range(3)]
    rows = [{"op": "insert", "points": batch.tolist()} for batch in batches]
    pairs_path = tmp_path / "pairs.npy"
    stats_path = tmp_path / "stats.json"
    code = main(
        [
            "join-stream",
            "--epsilon",
            "0.35",
            "--no-initial",
            "--updates",
            _write_updates(tmp_path, rows),
            "--output",
            str(pairs_path),
            "--stats-json",
            str(stats_path),
        ]
    )
    assert code == 0
    pairs = np.load(pairs_path)
    # Pure inserts: session ids are exactly the stacked-array positions,
    # so the stream must reproduce the batch join over all batches.
    expected = similarity_join(np.vstack(batches), epsilon=0.35)
    assert np.array_equal(pairs, expected)
    stats = json.loads(stats_path.read_text())
    assert stats["updates_applied"] == 3
    assert stats["pairs_emitted"] == len(pairs)
    assert stats["estimated_join_size"] >= 0.0


def test_join_stream_trace_summary(tmp_path, capsys):
    rng = np.random.default_rng(2)
    rows = [{"op": "insert", "points": rng.random((20, 3)).tolist()}]
    code = main(
        [
            "join-stream",
            "--epsilon",
            "0.3",
            "--dataset",
            "uniform",
            "--points",
            "60",
            "--dims",
            "3",
            "--updates",
            _write_updates(tmp_path, rows),
            "--delta-threshold",
            "30",
            "--trace-summary",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "delta-join" in out
    assert "estimate" in out
    assert "compact" in out


def test_join_stream_invalid_json_names_line(tmp_path, capsys):
    """A malformed line produces a one-line file:line:reason error on
    stderr and exit code 2 — never a traceback."""
    path = tmp_path / "updates.jsonl"
    path.write_text('{"op": "insert", "points": [[0.1]]}\nnot json\n')
    code = main(
        [
            "join-stream",
            "--epsilon",
            "0.3",
            "--no-initial",
            "--updates",
            str(path),
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: ")
    assert f"{path}:2: invalid JSON" in err


def test_join_stream_bad_op_names_line(tmp_path, capsys):
    path = tmp_path / "updates.jsonl"
    path.write_text('{"op": "insert", "points": [[0.1]]}\n{"op": "upsert"}\n')
    code = main(
        [
            "join-stream",
            "--epsilon",
            "0.3",
            "--no-initial",
            "--updates",
            str(path),
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"{path}:2: " in err
    assert "upsert" in err


def test_join_stream_nan_batch_names_line(tmp_path, capsys):
    path = tmp_path / "updates.jsonl"
    path.write_text('{"op": "insert", "points": [[0.1, null]]}\n')
    code = main(
        [
            "join-stream",
            "--epsilon",
            "0.3",
            "--no-initial",
            "--updates",
            str(path),
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"{path}:1: " in err
    assert "NaN" in err


class TestPersistCli:
    def _stream(self, tmp_path, name, lines):
        path = tmp_path / name
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_join_stream_persist_and_resume(self, tmp_path, capsys):
        updates = self._stream(
            tmp_path,
            "ups.jsonl",
            [
                '{"op": "insert", "points": [[0.1, 0.1], [0.12, 0.11], [0.9, 0.9]]}',
                '{"op": "delete", "ids": [2]}',
            ],
        )
        session_dir = str(tmp_path / "session")
        code = main(
            [
                "join-stream",
                "--epsilon",
                "0.1",
                "--no-initial",
                "--updates",
                updates,
                "--persist",
                session_dir,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "1 surviving pairs over 2 live points" in out

        more = self._stream(
            tmp_path, "more.jsonl", ['{"op": "insert", "points": [[0.11, 0.1]]}']
        )
        code = main(
            [
                "join-stream",
                "--epsilon",
                "0.1",
                "--updates",
                more,
                "--persist",
                session_dir,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "resumed session" in out
        assert "2 WAL records replayed" in out
        assert "3 surviving pairs over 3 live points" in out

    def test_join_open_reports_recovery(self, tmp_path, capsys):
        updates = self._stream(
            tmp_path,
            "ups.jsonl",
            ['{"op": "insert", "points": [[0.1, 0.1], [0.15, 0.1]]}'],
        )
        session_dir = str(tmp_path / "session")
        pairs_path = str(tmp_path / "pairs.npy")
        stats_path = str(tmp_path / "stats.json")
        assert (
            main(
                [
                    "join-stream",
                    "--epsilon",
                    "0.1",
                    "--no-initial",
                    "--updates",
                    updates,
                    "--persist",
                    session_dir,
                ]
            )
            == 0
        )
        capsys.readouterr()
        code = main(
            [
                "join-open",
                session_dir,
                "--output",
                pairs_path,
                "--stats-json",
                stats_path,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "recovered session" in out
        assert "1 surviving pairs over 2 live points" in out
        import json

        pairs = np.load(pairs_path)
        assert pairs.tolist() == [[0, 1]]
        stats = json.loads((tmp_path / "stats.json").read_text())
        assert stats["wal_records_replayed"] == 1
        assert stats["snapshot_bytes"] > 0

    def test_join_open_missing_dir_one_line_error(self, tmp_path, capsys):
        code = main(["join-open", str(tmp_path / "nope")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: ")

    def test_join_stream_error_preserves_persisted_prefix(self, tmp_path, capsys):
        """A malformed line aborts with exit 2, but everything before it
        is journaled and survives a join-open."""
        updates = self._stream(
            tmp_path,
            "ups.jsonl",
            [
                '{"op": "insert", "points": [[0.2, 0.2], [0.21, 0.2]]}',
                "{broken",
            ],
        )
        session_dir = str(tmp_path / "session")
        code = main(
            [
                "join-stream",
                "--epsilon",
                "0.1",
                "--no-initial",
                "--updates",
                updates,
                "--persist",
                session_dir,
            ]
        )
        assert code == 2
        capsys.readouterr()
        assert main(["join-open", session_dir]) == 0
        out = capsys.readouterr().out
        assert "1 surviving pairs over 2 live points" in out
