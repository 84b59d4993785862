"""Cross-module integration tests.

These run the whole stack — workload generators, every join algorithm
including the external-memory path, and an *independent* oracle
(scipy's cKDTree, when available) — on one realistic mid-size problem,
and check end-to-end determinism.
"""

import numpy as np
import pytest

from repro import (
    ALGORITHMS,
    JoinSpec,
    external_self_join,
    similarity_join,
)
from repro.datasets import (
    color_histograms,
    gaussian_clusters,
    timeseries_features,
)

try:
    from scipy.spatial import cKDTree

    HAVE_SCIPY = True
except ImportError:  # pragma: no cover
    HAVE_SCIPY = False


@pytest.fixture(scope="module")
def workload():
    return gaussian_clusters(4000, 12, clusters=8, sigma=0.05, seed=2026)


EPS = 0.12


@pytest.fixture(scope="module")
def reference_pairs(workload):
    return similarity_join(workload, epsilon=EPS, algorithm="brute-force")


class TestAllAlgorithmsAgreeAtScale:
    @pytest.mark.parametrize(
        "algorithm", [a for a in sorted(ALGORITHMS) if a != "brute-force"]
    )
    def test_agreement(self, algorithm, workload, reference_pairs):
        pairs = similarity_join(workload, epsilon=EPS, algorithm=algorithm)
        assert pairs.shape == reference_pairs.shape
        assert (pairs == reference_pairs).all()

    def test_parallel_engine_agrees(self, workload, reference_pairs):
        pairs = similarity_join(workload, epsilon=EPS, engine="parallel")
        assert pairs.shape == reference_pairs.shape
        assert (pairs == reference_pairs).all()

    def test_external_agrees(self, workload, reference_pairs):
        report = external_self_join(
            workload, JoinSpec(epsilon=EPS), memory_points=700
        )
        assert report.stripes > 1  # the memory constraint actually bound
        assert report.pairs.shape == reference_pairs.shape
        assert (report.pairs == reference_pairs).all()

    @pytest.mark.skipif(not HAVE_SCIPY, reason="scipy unavailable")
    def test_independent_scipy_oracle(self, workload, reference_pairs):
        """cKDTree is a fully independent implementation of the same
        predicate; agreeing with it rules out a shared bug between our
        brute force and the tree algorithms."""
        tree = cKDTree(workload)
        scipy_pairs = tree.query_pairs(EPS, output_type="ndarray")
        scipy_pairs = scipy_pairs[
            np.lexsort((scipy_pairs[:, 1], scipy_pairs[:, 0]))
        ]
        assert scipy_pairs.shape == reference_pairs.shape
        assert (scipy_pairs == reference_pairs).all()


class TestEndToEndDeterminism:
    def test_same_seed_same_answer(self):
        runs = []
        for _ in range(2):
            features = timeseries_features(800, length=64, seed=5)
            runs.append(similarity_join(features, epsilon=0.8))
        assert runs[0].shape == runs[1].shape
        assert (runs[0] == runs[1]).all()

    def test_image_pipeline_precision(self):
        histograms, labels = color_histograms(
            1500, bins=24, scenes=6, concentration=150.0, seed=9,
            return_labels=True,
        )
        pairs = similarity_join(histograms, epsilon=0.1, metric="l1")
        assert len(pairs) > 100
        same_scene = labels[pairs[:, 0]] == labels[pairs[:, 1]]
        assert same_scene.mean() > 0.95


class TestCrossMetricConsistency:
    """Relationships that must hold between metrics on the same data."""

    def test_lp_pair_sets_nest(self, workload):
        # d(l_inf) <= d(l2) <= d(l1): pair sets nest the opposite way.
        linf = {tuple(p) for p in similarity_join(workload, epsilon=EPS, metric="linf")}
        l2 = {tuple(p) for p in similarity_join(workload, epsilon=EPS, metric="l2")}
        l1 = {tuple(p) for p in similarity_join(workload, epsilon=EPS, metric="l1")}
        assert l1 <= l2 <= linf

    def test_epsilon_monotonicity(self, workload):
        small = {tuple(p) for p in similarity_join(workload, epsilon=0.05)}
        large = {tuple(p) for p in similarity_join(workload, epsilon=0.15)}
        assert small <= large


def test_join_paths_do_not_import_numpy_ma():
    """A fresh process's self join, two-set join, batched range query and
    session insert/delete stay clear of ``numpy.ma``: ``np.unique``
    imports it on first use, tens of milliseconds the first join of a
    process would pay."""
    import os
    import subprocess
    import sys

    script = (
        "import sys\n"
        "import numpy as np\n"
        "from repro import IncrementalJoin, JoinSpec, similarity_join\n"
        "rng = np.random.default_rng(31)\n"
        "a, b = rng.random((3000, 8)), rng.random((400, 8))\n"
        "assert len(similarity_join(a, epsilon=0.3))\n"
        "assert len(similarity_join(a, b, epsilon=0.3))\n"
        "session = IncrementalJoin(JoinSpec(epsilon=0.3))\n"
        "session.insert(a[:1000])\n"
        "assert sum(map(len, session.batch_range_query(b[:20])))\n"
        "session.insert(a[1000:1100])\n"
        "session.delete([1, 2, 1050])\n"
        "assert 'numpy.ma' not in sys.modules\n"
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
