import itertools
import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from codedcache import delivery
from codedcache.delivery import (
    DeliveryTranscript,
    FileLibrary,
    decode,
    minimal_file_size,
    monte_carlo_rate,
    random_library,
    realize,
    sample_demands,
    serve,
)
from codedcache.errors import DecodeError, InvalidFileSizeError, InvalidParameterError
from codedcache.placement import PlacementMatrix, average_rate, rate_coefficients
from codedcache.popularity import make_custom, make_zipf, order_stats
from codedcache.solver import algorithm4, one_group_placement

from oracles import (
    all_masks,
    cached_bits,
    decode_all_masks,
    monte_carlo_rate_subsets,
    per_user_cache_ok,
    random_popularity,
    random_popularity_first_placement,
    realize_all_masks,
    serve_all_masks,
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
        assert all_masks(3) == [0, 1, 2, 4, 3, 5, 6, 7]


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

    @pytest.mark.parametrize("key", [-1, 2**128])
    def test_seed_outside_the_philox_key_range(self, key):
        # one Philox constructor serves both streams and checks its key
        with pytest.raises(InvalidParameterError, match="seed"):
            random_library(2, 8, seed=key)
        with pytest.raises(InvalidParameterError, match="seed"):
            sample_demands(ZIPF9, 7, 3, seed=key)
        assert random_library(1, 8, seed=2**128 - 1).n_files == 1


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
        assert all(cached_bits(realization, u) == 0 for u in (1, 2, 3))
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
            for mask in all_masks(7):
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

    @pytest.mark.parametrize("placement, f_bits", [
        (algorithm4(ZIPF9, 7, 4.0).placement, 36),  # sizes not integral
        (PlacementMatrix(1, 1, [[0.5, 0.4]]), 10),  # integral sizes 5 + 4 that miss F
    ])
    def test_rejection_computes_the_minimal_size_once(self, monkeypatch, placement, f_bits):
        calls = []
        minimal = delivery.minimal_file_size
        monkeypatch.setattr(delivery, "minimal_file_size", lambda p: calls.append(p) or minimal(p))
        with pytest.raises(InvalidFileSizeError) as err:
            realize(placement, random_library(placement.n_files, f_bits, seed=1))
        assert len(calls) == 1
        assert str(err.value).endswith(f"use a multiple of {err.value.minimal_size} bits")

    def test_subfile_below_zero_tol_enters_the_minimal_size(self):
        # the 1.5e-10 entry at l = 7 holds 1.2e-7 of its file, so it is a real
        # subfile; no denominator up to 10**9 recovers it, where skipping it
        # gave a size that realize then refused
        placement = one_group_placement(10, 12, 5.0000001)
        assert 0 < placement.a[0, 7] <= 1e-9
        with pytest.raises(InvalidFileSizeError, match="not recognizably rational"):
            minimal_file_size(placement)

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

    @staticmethod
    def _reference_transcript():
        placement = algorithm4(ZIPF9, 7, 2.5).placement
        realization = realize(placement, random_library(9, minimal_file_size(placement), seed=8))
        demand = (1, 3, 2, 1, 5, 9, 1)
        return realization, demand, serve(realization, demand)

    @staticmethod
    def _needers(realization, demand, mask):
        """Users in ``mask`` whose requested file has subfiles at its size."""
        level = mask.bit_count() - 1
        return [u for u in range(1, len(demand) + 1)
                if mask >> (u - 1) & 1 and realization.sizes[demand[u - 1] - 1, level]]

    def test_dropped_message_raises(self):
        realization, demand, transcript = self._reference_transcript()
        for mask in list(transcript.messages)[::7]:
            messages = dict(transcript.messages)
            del messages[mask]
            broken = DeliveryTranscript(transcript.demand, messages, transcript.total_bits)
            needers = self._needers(realization, demand, mask)
            assert needers
            for user in needers:
                with pytest.raises(DecodeError, match="missing"):
                    decode(realization, broken, user)

    def test_flipped_payload_bit_raises(self):
        realization, demand, transcript = self._reference_transcript()
        for mask in list(transcript.messages)[::7]:
            length, payload = transcript.messages[mask]
            messages = {**transcript.messages, mask: (length, payload ^ 1)}
            broken = DeliveryTranscript(transcript.demand, messages, transcript.total_bits)
            needers = self._needers(realization, demand, mask)
            assert needers
            for user in needers:
                with pytest.raises(DecodeError, match="incorrectly"):
                    decode(realization, broken, user)

    def test_k12_every_user_decodes(self):
        # three groups at subset sizes 0, 2 and 3; F = 550 bits keeps it fast
        model = make_zipf(6, 1.5)
        candidate = algorithm4(model, 12, 0.9)
        assert candidate.groups == 3
        f_bits = minimal_file_size(candidate.placement)
        assert f_bits == 550
        library = random_library(6, f_bits, seed=12)
        realization = realize(candidate.placement, library)
        for row in sample_demands(model, 12, 2, seed=5):
            transcript = serve(realization, row)
            assert transcript.messages == serve_all_masks(realization, row).messages
            for user in range(1, 13):
                assert decode(realization, transcript, user) == library.contents[row[user - 1] - 1]


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


@st.composite
def delivery_instances(draw):
    """An optimal placement at one-decimal M, or integer-grid rows with
    zeros and more than two nonzero subset sizes; small files either way."""
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        model = make_custom(random_popularity(rng, n))
        placement = algorithm4(model, k, draw(st.integers(0, 10 * n)) / 10).placement
        f_bits = minimal_file_size(placement)
    else:
        cached = rng.integers(0, 4, size=(n, k)) * (rng.random((n, k)) < 0.6)
        cost = cached @ np.array([math.comb(k, l) for l in range(1, k + 1)])
        f_bits = max(int(cost.max()), 1)
        sizes = np.column_stack([f_bits - cost, cached])
        placement = PlacementMatrix(n, k, sizes / f_bits)
    library = random_library(n, f_bits, seed=draw(st.integers(0, 2**31)))
    demands = rng.integers(1, n + 1, size=(draw(st.integers(1, 3)), k))
    return placement, library, demands


@seed(2020)
@settings(max_examples=200, deadline=None, database=None)
@given(delivery_instances())
def test_delivery_matches_all_mask_walk(instance):
    placement, library, demands = instance
    fast = realize(placement, library)
    slow = realize_all_masks(placement, library)
    assert list(fast.subfiles.items()) == list(slow.subfiles.items())
    for row in demands:
        transcript = serve(fast, row)
        reference = serve_all_masks(slow, row)
        assert transcript.messages == reference.messages
        assert transcript.dump() == reference.dump()
        assert transcript.total_bits == reference.total_bits
        for user in range(1, placement.k_users + 1):
            assert decode(fast, transcript, user) == decode_all_masks(slow, reference, user)


class TestSampleDemands:
    def test_shape_range_and_determinism(self):
        demands = sample_demands(ZIPF9, 7, 50, seed=4)
        assert demands.shape == (50, 7)
        assert demands.min() >= 1 and demands.max() <= 9
        assert np.array_equal(demands, sample_demands(ZIPF9, 7, 50, seed=4))

    def test_count_below_zero(self):
        assert sample_demands(ZIPF9, 7, 0, seed=4).shape == (0, 7)
        with pytest.raises(InvalidParameterError, match="demand count"):
            sample_demands(ZIPF9, 7, -1, seed=4)

    def test_prefix_property(self):
        # trials own disjoint counter ranges: a shorter run is a prefix
        long = sample_demands(ZIPF9, 7, 50, seed=4)
        short = sample_demands(ZIPF9, 7, 20, seed=4)
        assert np.array_equal(long[:20], short)
