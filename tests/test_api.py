"""Tests for the top-level similarity_join facade."""

import numpy as np
import pytest

from _oracles import assert_same_pairs, oracle_self_pairs, oracle_two_set_pairs
from repro import ALGORITHMS, JoinSpec, similarity_join
from repro.core.result import JoinResult
from repro.errors import InvalidParameterError


def test_all_algorithms_registered():
    assert set(ALGORITHMS) == {
        "epsilon-kdb",
        "rtree",
        "rplus",
        "zorder",
        "sort-merge",
        "grid",
        "brute-force",
    }


# How each case reaches the facade. "epsilon-kdb-parallel" is not a registry
# name: it is the epsilon-kdb join run through ``engine="parallel"``.
CASES = {name: {"algorithm": name} for name in ALGORITHMS}
CASES["epsilon-kdb-parallel"] = {"engine": "parallel"}


@pytest.mark.parametrize("algorithm", sorted(CASES))
def test_every_algorithm_self_join(algorithm, small_uniform):
    spec = JoinSpec(epsilon=0.3)
    expected = oracle_self_pairs(small_uniform, spec)
    pairs = similarity_join(small_uniform, epsilon=0.3, **CASES[algorithm])
    assert_same_pairs(pairs, expected, algorithm)


@pytest.mark.parametrize("algorithm", sorted(CASES))
def test_every_algorithm_two_set_join(algorithm, small_uniform):
    other = np.random.default_rng(0).random((400, 8))
    spec = JoinSpec(epsilon=0.35)
    expected = oracle_two_set_pairs(small_uniform, other, spec)
    pairs = similarity_join(
        small_uniform, other, epsilon=0.35, **CASES[algorithm]
    )
    assert_same_pairs(pairs, expected, f"{algorithm} two-set")


@pytest.mark.parametrize(
    "algorithm", sorted(CASES) + ["index-nested-loop"]
)
def test_two_set_dimensionality_mismatch_rejected(algorithm):
    """R with d=3 against S with d=4 is an error, never an empty answer."""
    rng = np.random.default_rng(1)
    with pytest.raises(InvalidParameterError, match="same dimensionality"):
        similarity_join(
            rng.random((40, 3)), rng.random((30, 4)), epsilon=0.2,
            **CASES.get(algorithm, {"algorithm": algorithm}),
        )


def test_parallel_algorithm_name_rejected(small_uniform):
    """``engine="parallel"`` is the only way to pick the parallel executor;
    the old registry name is an unknown algorithm."""
    with pytest.raises(InvalidParameterError, match="unknown algorithm"):
        similarity_join(
            small_uniform, epsilon=0.3, algorithm="epsilon-kdb-parallel"
        )


def test_metric_parameter_forwarded(small_uniform):
    spec = JoinSpec(epsilon=0.2, metric="linf")
    expected = oracle_self_pairs(small_uniform, spec)
    pairs = similarity_join(small_uniform, epsilon=0.2, metric="linf")
    assert_same_pairs(pairs, expected, "linf facade")


def test_return_result_gives_stats(small_uniform):
    result = similarity_join(
        small_uniform, epsilon=0.3, return_result=True
    )
    assert isinstance(result, JoinResult)
    assert result.stats.pairs_emitted == len(result.pairs)
    assert result.stats.distance_computations > 0


def test_unknown_algorithm_raises(small_uniform):
    with pytest.raises(InvalidParameterError):
        similarity_join(small_uniform, epsilon=0.1, algorithm="quantum")


def test_epsilon_is_keyword_only(small_uniform):
    with pytest.raises(TypeError):
        similarity_join(small_uniform, 0.1)  # type: ignore[misc]


def test_leaf_size_forwarded(small_uniform):
    base = similarity_join(small_uniform, epsilon=0.3)
    tuned = similarity_join(small_uniform, epsilon=0.3, leaf_size=8)
    assert_same_pairs(tuned, base, "leaf_size facade")
