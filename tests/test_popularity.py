import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from codedcache.errors import BinomialRangeError, InvalidDistributionError, InvalidParameterError
from codedcache.popularity import (
    MAX_BINOM_N,
    binomials,
    from_spec,
    make_custom,
    make_step,
    make_zipf,
    order_stats,
)

from golden import GOLDEN_ZIPF5
from oracles import order_stats_exhaustive, random_popularity


def test_zipf_matches_reference_rounding():
    model = make_zipf(5, 1.5)
    assert np.allclose(model.probs, GOLDEN_ZIPF5, atol=5e-4)


def test_zipf_theta_zero_is_uniform():
    model = make_zipf(4, 0.0)
    assert np.allclose(model.probs, 0.25, atol=0)


def test_zipf_full_precision_values():
    model = make_zipf(9, 1.5)
    norm = math.fsum(i**-1.5 for i in range(1, 10))
    assert model.probs[0] == pytest.approx(1.0 / norm, abs=1e-15)
    assert model.probs[8] == pytest.approx(9.0**-1.5 / norm, abs=1e-15)
    assert math.fsum(model.probs) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("theta", [float("nan"), float("inf"), -0.5])
def test_zipf_rejects_bad_theta(theta):
    with pytest.raises(InvalidParameterError):
        make_zipf(5, theta)


def test_zipf_rejects_empty():
    with pytest.raises(InvalidParameterError):
        make_zipf(0, 1.0)


def test_custom_step_distribution():
    probs = ["5/9"] + ["1/30"] * 10 + ["1/90"] * 10
    model = make_custom(probs)
    assert model.n_files == 21
    assert model.probs[0] == pytest.approx(5 / 9, abs=1e-15)
    assert model.probs[20] == pytest.approx(1 / 90, abs=1e-15)


def test_custom_two_files():
    model = make_custom([0.7, 0.3])
    assert list(model.probs) == [0.7, 0.3]
    assert model.perm == (0, 1)


def test_custom_sorts_and_keeps_permutation():
    model = make_custom([0.3, 0.7])
    assert list(model.probs) == [0.7, 0.3]
    assert model.perm == (1, 0)
    assert model.to_input_order([10.0, 20.0]) == [20.0, 10.0]


def test_custom_stable_sort_for_ties():
    model = make_custom([0.25, 0.5, 0.25])
    assert model.perm == (1, 0, 2)


def test_custom_rejects_bad_input():
    with pytest.raises(InvalidDistributionError):
        make_custom([0.7, -0.1, 0.4])
    with pytest.raises(InvalidDistributionError):
        make_custom([0.7, 0.2])  # sums to 0.9
    with pytest.raises(InvalidDistributionError):
        make_custom([])


def test_custom_accepts_tiny_sum_error():
    model = make_custom([0.7, 0.3 + 5e-10])
    assert math.fsum(model.probs) == pytest.approx(1.0, abs=1e-15)


def test_make_step():
    model = make_step([("5/9", 1), ("1/30", 10), ("1/90", 10)])
    assert model.source == "step"
    assert model.n_files == 21


def test_from_spec_variants():
    zipf = from_spec({"type": "zipf", "theta": 1.5}, n_files=5)
    assert zipf.source == "zipf" and zipf.n_files == 5
    step = from_spec({"type": "step", "levels": [{"p": "5/9", "count": 1}, {"p": "1/30", "count": 10}, {"p": "1/90", "count": 10}]})
    assert step.n_files == 21
    custom = from_spec({"type": "custom", "probs": [0.7, 0.3]})
    assert custom.n_files == 2
    with pytest.raises(InvalidParameterError):
        from_spec({"type": "zipf", "theta": 1.0})  # no file count
    with pytest.raises(InvalidParameterError):
        from_spec({"type": "custom", "probs": [0.7, 0.3]}, n_files=3)
    with pytest.raises(InvalidParameterError):
        from_spec({"type": "nope"})


def test_order_stats_single_file():
    model = make_custom([1.0])
    for k in (1, 2, 5):
        table = order_stats(model, k)
        assert np.allclose(table.probs, 1.0, atol=0)


def test_order_stats_one_user_is_popularity():
    model = make_custom([0.5, 0.3, 0.2])
    table = order_stats(model, 1)
    assert np.allclose(table.probs[0], model.probs, atol=1e-15)


def test_order_stats_two_users_hand_computed():
    table = order_stats(make_custom([0.7, 0.3]), 2)
    assert table.probs[0, 0] == pytest.approx(0.91, abs=1e-12)
    assert table.probs[0, 1] == pytest.approx(0.09, abs=1e-12)
    assert table.probs[1, 0] == pytest.approx(0.49, abs=1e-12)
    assert table.probs[1, 1] == pytest.approx(0.51, abs=1e-12)


def test_order_stats_rejects_bad_k():
    with pytest.raises(InvalidParameterError):
        order_stats(make_custom([0.7, 0.3]), 0)


def test_order_stats_rejects_k_beyond_exact_binomials():
    with pytest.raises(BinomialRangeError, match="63"):
        order_stats(make_custom([0.7, 0.3]), MAX_BINOM_N + 1)


def test_binomial_table_is_exact_int64_and_read_only():
    table = binomials(MAX_BINOM_N)
    assert MAX_BINOM_N == 62 and table.dtype == np.int64
    assert table.tolist() == [[math.comb(i, r) for r in range(63)] for i in range(63)]
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        binomials(4)[4, 2] = 0
    with pytest.raises(InvalidParameterError):
        binomials(-1)


def test_order_stats_matches_enumeration():
    rng = np.random.default_rng(1234)
    for n in range(1, 5):
        for k in range(1, 5):
            model = make_custom(random_popularity(rng, n))
            table = order_stats(model, k)
            oracle = order_stats_exhaustive(model.probs, k)
            assert np.max(np.abs(table.probs - oracle)) <= 1e-12


@seed(165)
@settings(max_examples=60, deadline=None, database=None)
@given(
    weights=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=6),
    k=st.integers(1, 6),
)
def test_order_stats_invariants(weights, k):
    total = sum(weights)
    model = make_custom([w / total for w in weights])
    table = order_stats(model, k)
    # rows are distributions
    assert np.max(np.abs(table.probs.sum(axis=1) - 1.0)) <= 1e-10
    assert table.probs.min() >= 0.0 and table.probs.max() <= 1.0 + 1e-12
    # column sums count the expected multiplicity of each file
    assert np.max(np.abs(table.probs.sum(axis=0) - k * model.probs)) <= 1e-10
    # order statistics are stochastically ordered
    cdf = table.cdf()
    assert np.all(cdf[:-1] - cdf[1:] >= -1e-12)
