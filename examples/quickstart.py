"""Quickstart: the similarity-join API in five minutes.

Run with::

    python examples/quickstart.py
"""


from repro import (
    FlatEpsilonKdbTree,
    JoinSpec,
    PairCounter,
    epsilon_kdb_self_join,
    similarity_join,
)
from repro.datasets import gaussian_clusters


def main() -> None:
    # A clustered 16-dimensional workload: the shape feature vectors
    # (DFT coefficients, color histograms, embeddings) actually have.
    points = gaussian_clusters(10_000, 16, clusters=12, sigma=0.04, seed=7)

    # 1. One call: all pairs within epsilon under L2.
    pairs = similarity_join(points, epsilon=0.1)
    print(f"self-join found {len(pairs)} pairs within eps=0.1")
    print(f"first few pairs: {pairs[:5].tolist()}")

    # 2. Choose the metric and algorithm explicitly.
    linf_pairs = similarity_join(
        points, epsilon=0.1, metric="linf", algorithm="epsilon-kdb"
    )
    print(f"under L-infinity the same eps admits {len(linf_pairs)} pairs")

    # 3. Two-relation join: which points of B are near points of A?
    other = gaussian_clusters(5_000, 16, clusters=12, sigma=0.04, seed=7) + 0.005
    rs_pairs = similarity_join(points, other, epsilon=0.1)
    print(f"R-against-S join found {len(rs_pairs)} cross pairs")

    # 4. The full machinery: build the tree once, inspect it, count
    #    without materializing, and read the work counters.
    spec = JoinSpec(epsilon=0.1, leaf_size=256)
    tree = FlatEpsilonKdbTree.build(points, spec)
    info = tree.describe()
    print(
        f"eps-kdB tree: {info.leaves} leaves, depth {info.max_depth}, "
        f"{info.split_dims_used} of {info.dims} dimensions split"
    )
    counter = PairCounter()
    result = epsilon_kdb_self_join(points, spec, sink=counter, tree=tree)
    print(
        f"counted {counter.count} pairs with "
        f"{result.stats.distance_computations} distance computations "
        f"(vs {len(points) * (len(points) - 1) // 2} for brute force)"
    )


if __name__ == "__main__":
    main()
