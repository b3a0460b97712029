import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from codedcache.errors import (
    BinomialRangeError,
    DimensionMismatchError,
    InvalidParameterError,
    PopularityFirstError,
)
from codedcache.placement import (
    ZERO_TOL,
    PlacementMatrix,
    analyze_groups,
    average_rate,
    binom_ext,
    cache_weights,
    partition_weights,
    rate_coefficients,
    subpacketization,
    worst_case_subpacketization_bound,
)
from codedcache.popularity import make_custom, make_zipf, order_stats

from golden import GOLDEN_PLACEMENTS
from oracles import (
    analyze_groups_rows,
    delivery_rate_exhaustive,
    random_popularity,
    random_popularity_first_placement,
    subpacketization_rows,
)


def coeffs_for(model, k):
    return rate_coefficients(model, order_stats(model, k))


def golden_matrix(m):
    return PlacementMatrix(9, 7, GOLDEN_PLACEMENTS[m])


class TestBinomExt:
    def test_values(self):
        assert binom_ext(7, 2) == 21
        assert binom_ext(7, -1) == 0
        assert binom_ext(7, 8) == 0
        assert binom_ext(6, 0) == 1

    def test_row_sum_identity(self):
        assert sum(binom_ext(10, r) for r in range(11)) == 2**10

    def test_rejects_negative_n(self):
        with pytest.raises(InvalidParameterError):
            binom_ext(-1, 0)

    def test_overflow_guard(self):
        assert binom_ext(62, 31) > 0
        with pytest.raises(BinomialRangeError):
            binom_ext(63, 31)


class TestRateCoefficients:
    def test_hand_computed_k2(self):
        model = make_custom([0.7, 0.3])
        coeffs = coeffs_for(model, 2)
        assert coeffs.g[0, 1] == pytest.approx(0.91, abs=1e-12)
        assert coeffs.g[0, 0] == pytest.approx(1.4, abs=1e-12)

    def test_last_column_zero(self):
        for n, k in [(2, 2), (4, 3), (5, 5)]:
            model = make_zipf(n, 1.0)
            coeffs = coeffs_for(model, k)
            assert np.allclose(coeffs.g[:, k], 0.0, atol=0)

    def test_first_column_is_k_times_popularity(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            n, k = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            model = make_custom(random_popularity(rng, n))
            coeffs = coeffs_for(model, k)
            assert np.max(np.abs(coeffs.g[:, 0] - k * model.probs)) <= 1e-10

    def test_cache_weight_vector_k7(self):
        assert list(cache_weights(7).astype(int)) == [0, 1, 6, 15, 20, 15, 6, 1]
        assert partition_weights(7)[0] == 1.0

    def test_cache_weights_match_per_user_usage(self):
        # c^T a_n must equal the explicit per-user cache sum for random rows
        rng = np.random.default_rng(3)
        k = 6
        row = rng.random(k + 1)
        explicit = sum(math.comb(k - 1, l - 1) * row[l] for l in range(1, k + 1))
        assert float(cache_weights(k) @ row) == pytest.approx(explicit, abs=1e-12)

    def test_dimension_mismatch(self):
        model = make_custom([0.7, 0.3])
        stats = order_stats(make_custom([0.5, 0.3, 0.2]), 2)
        with pytest.raises(DimensionMismatchError):
            rate_coefficients(model, stats)


class TestAverageRate:
    def test_no_caching_rate_is_k(self):
        model = make_zipf(4, 1.2)
        k = 3
        a = np.zeros((4, k + 1))
        a[:, 0] = 1.0
        assert average_rate(PlacementMatrix(4, k, a), coeffs_for(model, k)) == pytest.approx(
            k, abs=1e-12
        )

    def test_full_caching_rate_is_zero(self):
        model = make_zipf(3, 0.8)
        k = 2
        a = np.zeros((3, k + 1))
        a[:, k] = 1.0
        assert average_rate(PlacementMatrix(3, k, a), coeffs_for(model, k)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_half_cached_pair(self):
        model = make_custom([0.7, 0.3])
        a = np.array([[0.0, 0.5, 0.0], [0.0, 0.5, 0.0]])
        assert average_rate(PlacementMatrix(2, 2, a), coeffs_for(model, 2)) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_requires_popularity_first(self):
        model = make_custom([0.7, 0.3])
        a = np.array([[0.5, 0.25, 0.0], [0.0, 0.5, 0.0]])
        with pytest.raises(PopularityFirstError):
            average_rate(PlacementMatrix(2, 2, a), coeffs_for(model, 2))

    def test_matches_demand_enumeration(self):
        rng = np.random.default_rng(99)
        for n in range(1, 4):
            for k in range(1, 5):
                model = make_custom(random_popularity(rng, n))
                coeffs = coeffs_for(model, k)
                for _ in range(5):
                    a, _ = random_popularity_first_placement(rng, n, k)
                    got = average_rate(PlacementMatrix(n, k, a), coeffs)
                    want = delivery_rate_exhaustive(a, model.probs)
                    assert got == pytest.approx(want, abs=1e-10)


class TestGroups:
    def test_reference_matrices(self):
        assert analyze_groups(golden_matrix(1.0)).group_count == 2
        assert analyze_groups(golden_matrix(1.0)).boundaries == (3,)
        assert analyze_groups(golden_matrix(2.5)).group_count == 3
        assert analyze_groups(golden_matrix(2.5)).boundaries == (4, 6)
        assert analyze_groups(golden_matrix(7.0)).group_count == 1
        assert analyze_groups(golden_matrix(7.0)).boundaries == ()

    def test_labels(self):
        report = analyze_groups(golden_matrix(2.5))
        assert report.group_labels == (1, 1, 1, 1, 2, 2, 3, 3, 3)


@seed(2330)
@settings(max_examples=300, deadline=None, database=None)
@given(st.data())
def test_structure_matches_row_loops(data):
    """Groups and subfile counts agree with the row-by-row loops, N = 1 and ties at tol included."""
    n, k = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 6))
    tol = data.draw(st.sampled_from([ZERO_TOL, 1e-7]))
    # 0 and tol differ by exactly tol (one group); tol itself is not above tol
    entry = st.one_of(st.sampled_from([0.0, tol, 2.0 * tol, -tol, 0.5, 0.5 + tol]), st.floats(0.0, 1.0))
    a = np.array(data.draw(st.lists(st.lists(entry, min_size=k + 1, max_size=k + 1),
                                    min_size=n, max_size=n)))
    placement = PlacementMatrix(n, k, a)
    report = analyze_groups(placement, tol)
    assert (report.group_count, report.boundaries, report.group_labels) == analyze_groups_rows(placement, tol)
    assert subpacketization(placement, tol).per_file == subpacketization_rows(placement, tol)


class TestSubpacketization:
    def test_reference_matrix_levels(self):
        report = subpacketization(golden_matrix(1.0))
        assert report.per_file[0] == 21 + 35  # sizes at subset levels 2 and 3
        assert report.per_file[8] == 1
        assert report.max_level == 56

    def test_full_cache_single_group(self):
        a = np.zeros((4, 4))
        a[:, 3] = 1.0
        report = subpacketization(PlacementMatrix(4, 3, a))
        assert report.per_file == (1, 1, 1, 1)
        assert report.avg_level == 1.0

    def test_worst_case_bound(self):
        exact, stirling = worst_case_subpacketization_bound(7)
        assert exact == 70
        assert 77.0 < stirling < 79.0
        assert exact <= stirling
        assert worst_case_subpacketization_bound(2)[0] == 3
        for k in range(1, 25):
            exact, stirling = worst_case_subpacketization_bound(k)
            assert exact <= stirling


class TestPlacementMatrix:
    def test_json_round_trip(self):
        matrix = golden_matrix(2.5)
        again = PlacementMatrix.from_json(matrix.to_json())
        assert np.array_equal(again.a, matrix.a)
        assert (again.n_files, again.k_users) == (9, 7)

    def test_csv_round_trip(self):
        matrix = golden_matrix(5.5)
        text = matrix.to_csv()
        assert len(text.strip().splitlines()) == 9
        again = PlacementMatrix.from_csv(text)
        assert np.max(np.abs(again.a - matrix.a)) <= 1e-9

    def test_csv_ten_significant_digits(self):
        matrix = PlacementMatrix(1, 1, [[1 / 3, 1 / 3]])
        assert matrix.to_csv() == "0.3333333333,0.3333333333\n"

    def test_violations_detects_tampering(self):
        a = GOLDEN_PLACEMENTS[4.0].copy()
        a[0, 1] += 0.01
        tampered = PlacementMatrix(9, 7, a)
        assert tampered.violations()  # partition residual
        with pytest.raises(InvalidParameterError):
            tampered.check_valid()

    def test_cache_budget_check(self):
        from codedcache.solver import algorithm4
        from codedcache.popularity import make_zipf

        matrix = algorithm4(make_zipf(9, 1.5), 7, 4.0).placement
        assert matrix.cache_used() == pytest.approx(4.0, abs=1e-9)
        assert matrix.violations(cache_size=4.0) == []
        assert matrix.violations(cache_size=3.99)

    def test_shape_validation(self):
        with pytest.raises(InvalidParameterError):
            PlacementMatrix(2, 2, np.zeros((2, 2)))
        with pytest.raises(InvalidParameterError):
            PlacementMatrix(1, 1, [[np.inf, 0.0]])
