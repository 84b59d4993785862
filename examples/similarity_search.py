"""Similarity search: build the tree once, query it many times.

The join builds a throwaway ε-kdB tree per call, but the same structure
answers *range queries* (all points within ε of a query) — the other
workload the paper's applications need. This example compares querying
through the tree against a linear scan and against an R+-tree, on the
image-histogram workload.

Run with::

    python examples/similarity_search.py
"""

import time

import numpy as np

from repro import FlatEpsilonKdbTree, JoinSpec
from repro.baselines import RPlusTree
from repro.datasets.images import color_histograms

IMAGES = 30_000
BINS = 32
EPSILON = 0.12
QUERIES = 200
METRIC = "l1"


def main() -> None:
    histograms = color_histograms(IMAGES, bins=BINS, seed=7)
    spec = JoinSpec(epsilon=EPSILON, metric=METRIC)

    started = time.perf_counter()
    tree = FlatEpsilonKdbTree.build(histograms, spec)
    kdb_build = time.perf_counter() - started

    started = time.perf_counter()
    rplus = RPlusTree.bulk_load(histograms)
    rplus_build = time.perf_counter() - started

    rng = np.random.default_rng(11)
    queries = histograms[rng.choice(IMAGES, size=QUERIES, replace=False)]

    # Linear scan baseline.
    started = time.perf_counter()
    scan_hits = []
    for query in queries:
        diffs = np.abs(histograms - query).sum(axis=1)
        scan_hits.append(np.flatnonzero(diffs <= EPSILON))
    scan_time = time.perf_counter() - started

    # eps-kdB tree: the whole query batch in one traversal.
    started = time.perf_counter()
    kdb_hits = tree.batch_range_query(queries)
    kdb_time = time.perf_counter() - started

    # R+-tree.
    started = time.perf_counter()
    rplus_hits = [
        rplus.range_query(query, EPSILON, spec.metric) for query in queries
    ]
    rplus_time = time.perf_counter() - started

    for name, hits in (("eps-kdB", kdb_hits), ("R+-tree", rplus_hits)):
        for got, want in zip(hits, scan_hits):
            assert got.tolist() == sorted(want.tolist()), f"{name} mismatch"
    total_hits = sum(len(h) for h in scan_hits)

    per = QUERIES
    print(f"{IMAGES} histograms, {QUERIES} queries, {total_hits} total hits")
    print(f"linear scan:  {scan_time / per * 1e3:7.2f} ms/query")
    print(
        f"eps-kdB tree: {kdb_time / per * 1e3:7.2f} ms/query "
        f"(+ {kdb_build:.2f}s build)  -> {scan_time / kdb_time:.1f}x scan"
    )
    print(
        f"R+-tree:      {rplus_time / per * 1e3:7.2f} ms/query "
        f"(+ {rplus_build:.2f}s build)  -> {scan_time / rplus_time:.1f}x scan"
    )
    print("all three agree on every query result")


if __name__ == "__main__":
    main()
