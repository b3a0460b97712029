import itertools

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from codedcache.delivery import (
    FileLibrary,
    decode,
    minimal_file_size,
    monte_carlo_rate,
    random_library,
    realize,
    sample_demands,
    serve,
    subset_order,
    per_user_cache_ok,
)
from codedcache.errors import InvalidFileSizeError, InvalidParameterError
from codedcache.placement import PlacementMatrix, average_rate, rate_coefficients
from codedcache.popularity import make_custom, make_zipf, order_stats
from codedcache.solver import algorithm4

from oracles import (
    monte_carlo_rate_subsets,
    random_popularity,
    random_popularity_first_placement,
)

ZIPF9 = make_zipf(9, 1.5)


def coeffs_for(model, k):
    return rate_coefficients(model, order_stats(model, k))


def no_cache_placement(n, k):
    a = np.zeros((n, k + 1))
    a[:, 0] = 1.0
    return PlacementMatrix(n, k, a)


def full_cache_placement(n, k):
    a = np.zeros((n, k + 1))
    a[:, k] = 1.0
    return PlacementMatrix(n, k, a)


def half_pair_realization(f_bits=2, seed=3):
    matrix = PlacementMatrix(2, 2, [[0.0, 0.5, 0.0]] * 2)
    library = random_library(2, f_bits, seed)
    return realize(matrix, library), library


class TestSubsetOrder:
    def test_fixed_global_order(self):
        assert subset_order(3) == [0, 1, 2, 4, 3, 5, 6, 7]


class TestLibrary:
    def test_random_library_shapes(self):
        library = random_library(3, 11, seed=9)
        assert library.n_files == 3
        assert all(len(f) == 2 for f in library.contents)

    def test_rejects_stray_bits(self):
        with pytest.raises(InvalidParameterError):
            FileLibrary(3, (b"\xff",))  # bits beyond the third must be zero

    def test_deterministic(self):
        assert random_library(2, 64, seed=5).contents == random_library(2, 64, seed=5).contents


class TestRealize:
    def test_minimal_file_size_reference(self):
        placement = algorithm4(ZIPF9, 7, 4.0).placement
        assert minimal_file_size(placement) == 35

    def test_reference_split_sizes(self):
        placement = algorithm4(ZIPF9, 7, 4.0).placement
        realization = realize(placement, random_library(9, 35_000, seed=1))
        first = [mask for (n, mask) in realization.subfiles if n == 0]
        assert len(first) == 35
        assert all(mask.bit_count() == 4 for mask in first)
        assert all(realization.sizes[0, 4] == 1000 for _ in first)
        # uncached files are one server-only subfile
        assert [mask for (n, mask) in realization.subfiles if n == 8] == [0]

    def test_server_only_file_is_uncached(self):
        realization = realize(no_cache_placement(2, 3), random_library(2, 8, seed=2))
        assert all(realization.cached_bits(u) == 0 for u in (1, 2, 3))
        assert realization.subfile(0, 0) == int.from_bytes(
            realization.library.contents[0], "little"
        )

    def test_two_user_half_split(self):
        realization, library = half_pair_realization()
        # each file: two one-bit subfiles, one per user
        assert realization.sizes[0, 1] == 1
        whole = int.from_bytes(library.contents[0], "little")
        assert realization.subfile(0, 0b01) | (realization.subfile(0, 0b10) << 1) == whole

    @pytest.mark.parametrize("m", [0.5, 2.5, 4.0, 6.5])
    def test_subfiles_are_consecutive_fields(self, m):
        placement = algorithm4(ZIPF9, 7, m).placement
        f_bits = 3 * minimal_file_size(placement)
        realization = realize(placement, random_library(9, f_bits, seed=6))
        want = {}
        for idx, data in enumerate(realization.library.contents):
            whole, offset = int.from_bytes(data, "little"), 0
            for mask in subset_order(7):
                size = int(realization.sizes[idx, mask.bit_count()])
                if size:
                    want[(idx, mask)] = (whole >> offset) & ((1 << size) - 1)
                    offset += size
        assert list(realization.subfiles.items()) == list(want.items())

    def test_rejects_non_integral_sizes(self):
        placement = algorithm4(ZIPF9, 7, 4.0).placement
        with pytest.raises(InvalidFileSizeError) as err:
            realize(placement, random_library(9, 36, seed=1))
        assert err.value.minimal_size == 35

    def test_cache_budget_respected(self):
        placement = algorithm4(ZIPF9, 7, 2.5).placement
        f_bits = minimal_file_size(placement)
        realization = realize(placement, random_library(9, f_bits, seed=4))
        assert per_user_cache_ok(realization, 2.5)


class TestServe:
    def test_no_cache_sends_everything(self):
        realization = realize(no_cache_placement(2, 3), random_library(2, 8, seed=7))
        transcript = serve(realization, (1, 2, 1))
        assert set(transcript.messages) == {0b001, 0b010, 0b100}
        assert all(length == 8 for length, _ in transcript.messages.values())
        assert transcript.total_bits == 3 * 8

    def test_full_cache_sends_nothing(self):
        realization = realize(full_cache_placement(2, 2), random_library(2, 4, seed=8))
        transcript = serve(realization, (2, 1))
        assert transcript.messages == {}
        assert transcript.total_bits == 0

    def test_two_user_coded_message(self):
        realization, _ = half_pair_realization()
        transcript = serve(realization, (1, 2))
        assert set(transcript.messages) == {0b11}
        length, payload = transcript.messages[0b11]
        assert length == 1  # F/2 bits
        assert payload == realization.subfile(0, 0b10) ^ realization.subfile(1, 0b01)

    def test_demand_validation(self):
        realization, _ = half_pair_realization()
        with pytest.raises(InvalidParameterError):
            serve(realization, (1, 3))
        with pytest.raises(InvalidParameterError):
            serve(realization, (1,))

    def test_dump_format(self):
        realization, _ = half_pair_realization()
        dump = serve(realization, (1, 2)).dump()
        mask, length, payload = dump.strip().split(",")
        assert (mask, length) == ("3", "1")
        assert len(payload) == 2  # one byte, hex


class TestDecode:
    def test_hand_examples_decode(self):
        realization, library = half_pair_realization()
        for demand in [(1, 2), (1, 1), (2, 2)]:
            transcript = serve(realization, demand)
            for user in (1, 2):
                assert decode(realization, transcript, user) == library.contents[demand[user - 1] - 1]

    def test_reference_placement_random_demands(self):
        placement = algorithm4(ZIPF9, 7, 1.0).placement
        f_bits = minimal_file_size(placement)
        library = random_library(9, f_bits, seed=6)
        realization = realize(placement, library)
        for row in sample_demands(ZIPF9, 7, 100, seed=99):
            transcript = serve(realization, row)
            for user in range(1, 8):
                assert decode(realization, transcript, user) == library.contents[row[user - 1] - 1]

    def test_user_validation(self):
        realization, _ = half_pair_realization()
        transcript = serve(realization, (1, 2))
        with pytest.raises(InvalidParameterError):
            decode(realization, transcript, 3)


class TestExactRateEquivalence:
    def test_exhaustive_demand_expectation(self):
        rng = np.random.default_rng(31415)
        for n in (2, 3):
            for k in (2, 3, 4):
                model = make_custom(random_popularity(rng, n))
                coeffs = coeffs_for(model, k)
                a, denom = random_popularity_first_placement(rng, n, k)
                matrix = PlacementMatrix(n, k, a)
                realization = realize(matrix, random_library(n, denom, seed=k))
                expected = 0.0
                for demand in itertools.product(range(1, n + 1), repeat=k):
                    weight = np.prod([model.probs[i - 1] for i in demand])
                    expected += weight * serve(realization, demand).total_bits / denom
                assert average_rate(matrix, coeffs) == pytest.approx(expected, abs=1e-10)


class TestMonteCarlo:
    def test_no_cache_exact(self):
        model = make_custom([0.6, 0.4])
        result = monte_carlo_rate(no_cache_placement(2, 3), model, 200, seed=1)
        assert result.mean_rate == pytest.approx(3.0, abs=0)
        assert result.std_error == 0.0

    def test_full_cache_exact(self):
        model = make_custom([0.6, 0.4])
        result = monte_carlo_rate(full_cache_placement(2, 3), model, 200, seed=1)
        assert result.mean_rate == 0.0 and result.std_error == 0.0

    def test_deterministic_and_seed_sensitive(self):
        placement = algorithm4(ZIPF9, 7, 4.0).placement
        a = monte_carlo_rate(placement, ZIPF9, 2000, seed=42)
        b = monte_carlo_rate(placement, ZIPF9, 2000, seed=42)
        c = monte_carlo_rate(placement, ZIPF9, 2000, seed=43)
        assert a == b
        assert a.mean_rate != c.mean_rate

    def test_matches_analytic_within_error(self):
        placement = algorithm4(ZIPF9, 7, 4.0).placement
        analytic = average_rate(placement, coeffs_for(ZIPF9, 7))
        result = monte_carlo_rate(placement, ZIPF9, 40_000, seed=7)
        assert abs(result.mean_rate - analytic) <= 4 * result.std_error

    def test_k30_needs_no_subset_walk(self):
        # 2^30 user subsets per trial would be out of reach for a subset walk
        model = make_zipf(30, 1.2)
        candidate = algorithm4(model, 30, 1.0)
        assert candidate.groups == 2
        analytic = average_rate(candidate.placement, coeffs_for(model, 30))
        result = monte_carlo_rate(candidate.placement, model, 4000, seed=1)
        assert result.std_error > 0
        assert abs(result.mean_rate - analytic) <= 5 * result.std_error

    def test_json_shape(self):
        model = make_custom([0.6, 0.4])
        payload = monte_carlo_rate(no_cache_placement(2, 2), model, 10, seed=5).to_json_dict()
        assert payload == {"mean": 2.0, "stderr": 0.0, "trials": 10, "seed": 5}

    def test_rejects_zero_trials(self):
        model = make_custom([0.6, 0.4])
        with pytest.raises(InvalidParameterError):
            monte_carlo_rate(no_cache_placement(2, 2), model, 0, seed=5)


@st.composite
def monte_carlo_instances(draw):
    """Any nonnegative placement (ties and zeros included) or an optimal one."""
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = make_custom(random_popularity(rng, n))
    kind = draw(st.sampled_from(["continuous", "coarse", "algorithm4"]))
    if kind == "algorithm4":
        placement = algorithm4(model, k, draw(st.floats(0.0, float(n)))).placement
    else:
        a = rng.random((n, k + 1))
        placement = PlacementMatrix(n, k, np.floor(4 * a) / 4 if kind == "coarse" else a)
    return placement, model, draw(st.integers(1, 300)), draw(st.integers(0, 2**31))


@seed(2019)
@settings(max_examples=200, deadline=None, database=None)
@given(monte_carlo_instances())
def test_monte_carlo_matches_subset_walk(instance):
    placement, model, trials, mc_seed = instance
    got = monte_carlo_rate(placement, model, trials, mc_seed)
    want = monte_carlo_rate_subsets(placement, model, trials, mc_seed)
    tol = 1e-12 * max(1.0, abs(want.mean_rate))
    assert abs(got.mean_rate - want.mean_rate) <= tol
    assert abs(got.std_error - want.std_error) <= tol
    assert (got.trials, got.seed) == (want.trials, want.seed)


class TestSampleDemands:
    def test_shape_range_and_determinism(self):
        demands = sample_demands(ZIPF9, 7, 50, seed=4)
        assert demands.shape == (50, 7)
        assert demands.min() >= 1 and demands.max() <= 9
        assert np.array_equal(demands, sample_demands(ZIPF9, 7, 50, seed=4))

    def test_prefix_property(self):
        # trials own disjoint counter ranges: a shorter run is a prefix
        long = sample_demands(ZIPF9, 7, 50, seed=4)
        short = sample_demands(ZIPF9, 7, 20, seed=4)
        assert np.array_equal(long[:20], short)
