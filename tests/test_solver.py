import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from codedcache import solver
from codedcache.errors import DimensionMismatchError, InfeasibleCaseError, InvalidParameterError
from codedcache.lp_oracle import certify
from codedcache.placement import (
    PlacementMatrix,
    analyze_groups,
    average_rate,
    partition_weights,
    rate_coefficients,
    subpacketization,
    worst_case_subpacketization_bound,
)
from codedcache.popularity import make_custom, make_step, make_zipf, order_stats
from codedcache.solver import (
    TIE_TOL,
    TIGHT_TOL,
    PlacementCase,
    _search,
    algorithm1,
    algorithm2,
    algorithm3,
    algorithm4,
    case2i_placement,
    case2ii_placement,
    one_group_placement,
    solve_dual,
)

from golden import GOLDEN_CASES, GOLDEN_PLACEMENTS
from oracles import (
    algorithm4_tight_lines,
    candidate_search_exhaustive,
    popularity_instances,
    random_popularity,
    solve_dual_envelope,
)

ZIPF9 = make_zipf(9, 1.5)


def coeffs_for(model, k):
    return rate_coefficients(model, order_stats(model, k))


class TestOneGroup:
    def test_reference_full_house(self):
        # N=9, K=7, M=7: v = 49/9, split over subset sizes 5 and 6
        matrix = one_group_placement(9, 7, 7.0)
        assert matrix.a[0, 5] == pytest.approx((5 / 9) / 21, abs=1e-12)
        assert matrix.a[0, 6] == pytest.approx((4 / 9) / 7, abs=1e-12)
        assert np.allclose(matrix.a, matrix.a[0])
        matrix.check_valid(7.0)
        assert matrix.cache_used() == pytest.approx(7.0, abs=1e-9)

    def test_cache_equals_database(self):
        matrix = one_group_placement(5, 3, 5.0)
        assert matrix.a[0, 3] == 1.0
        assert np.sum(np.abs(matrix.a[:, :3])) == 0.0
        assert average_rate(matrix, coeffs_for(make_zipf(5, 1.0), 3)) == pytest.approx(0.0)

    def test_zero_cache(self):
        matrix = one_group_placement(5, 3, 0.0)
        assert np.allclose(matrix.a[:, 0], 1.0)
        assert np.sum(matrix.a[:, 1:]) == 0.0

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            one_group_placement(5, 3, 5.5)
        with pytest.raises(InvalidParameterError):
            one_group_placement(5, 3, -0.5)


class TestAlgorithm1:
    def test_reference_m1(self):
        candidate = algorithm1(ZIPF9, 7, 1.0)
        assert candidate.n_o == 3
        assert candidate.placement.a[0, 2] == pytest.approx((2 / 3) / 21, abs=1e-12)
        assert candidate.placement.a[0, 3] == pytest.approx((1 / 3) / 35, abs=1e-12)
        assert np.allclose(candidate.placement.a[3:, 0], 1.0)

    def test_reference_m4(self):
        candidate = algorithm1(ZIPF9, 7, 4.0)
        assert candidate.n_o == 7
        assert candidate.placement.a[0, 4] == pytest.approx(1 / 35, abs=1e-12)
        assert np.allclose(candidate.placement.a[7:, 0], 1.0)

    def test_two_file_hand_search(self):
        model = make_custom([0.7, 0.3])
        candidate = algorithm1(model, 2, 1.0)
        assert candidate.n_o == 2
        assert candidate.case_id is PlacementCase.ONE_GROUP
        assert np.allclose(candidate.placement.a[:, 1], 0.5)
        assert candidate.rate == pytest.approx(0.5, abs=1e-12)

    def test_rejects_cache_beyond_database(self):
        with pytest.raises(InvalidParameterError):
            algorithm1(ZIPF9, 7, 9.5)

    def test_skips_heads_smaller_than_cache(self):
        candidate = algorithm1(ZIPF9, 7, 8.5)
        assert candidate.n_o == 9  # only the full head can hold M=8.5


class TestCase2i:
    def test_reference_m6(self):
        matrix = case2i_placement(9, 7, 6.0, n_o=8, l_o=5)
        assert matrix.a[7, 5] == pytest.approx(1 / 21, abs=1e-12)
        assert matrix.a[8, 5] == pytest.approx(0.4 / 21, abs=1e-12)
        assert matrix.a[8, 0] == pytest.approx(0.6, abs=1e-12)
        matrix.check_valid(6.0)
        assert matrix.cache_used() == pytest.approx(6.0, abs=1e-9)

    def test_window_lower_edge(self):
        # l_o = 4 sits below floor(KM/N) + 1 = 5
        with pytest.raises(InfeasibleCaseError):
            case2i_placement(9, 7, 6.0, n_o=8, l_o=4)

    def test_degenerate_equal_rows_rejected(self):
        # N=2, K=2, M=1, n_o=1, l_o=1 would make both rows identical
        with pytest.raises(InfeasibleCaseError):
            case2i_placement(2, 2, 1.0, n_o=1, l_o=1)


class TestCase2ii:
    def test_three_group_inner_call(self):
        # the first six files of the reference M=2.5 solution form this case
        matrix = case2ii_placement(6, 7, 2.5, n_o=4, l_o=3, l_1=4)
        assert matrix.a[0, 3] == pytest.approx(0.75 / 35, abs=1e-12)
        assert matrix.a[0, 4] == pytest.approx(0.25 / 35, abs=1e-12)
        assert matrix.a[4, 0] == pytest.approx(0.25, abs=1e-12)
        assert matrix.a[4, 3] == pytest.approx(0.75 / 35, abs=1e-12)
        assert matrix.a[3, 0] == 0.0
        matrix.check_valid(2.5)
        assert matrix.cache_used() == pytest.approx(2.5, abs=1e-9)

    def test_admissibility_arithmetic(self):
        # C1: l_o > KM/n_eff and l_1 < KM/n_o
        assert 3 > 7 * 2.5 / 6 and 4 < 7 * 2.5 / 4
        case2ii_placement(6, 7, 2.5, n_o=4, l_o=3, l_1=4)  # admissible

    def test_rejects_equal_sizes(self):
        with pytest.raises(InfeasibleCaseError):
            case2ii_placement(9, 7, 2.5, n_o=4, l_o=3, l_1=3)

    def test_rejects_inadmissible_pair(self):
        with pytest.raises(InfeasibleCaseError):
            case2ii_placement(9, 7, 2.5, n_o=4, l_o=1, l_1=2)


class TestAlgorithm2:
    def test_reference_m6(self):
        candidate = algorithm2(ZIPF9, 7, 6.0)
        assert candidate is not None
        assert (candidate.n_o, candidate.l_o) == (8, 5)
        assert candidate.case_id is PlacementCase.TWO_GROUP_CASE2I
        assert np.max(np.abs(candidate.placement.a - GOLDEN_PLACEMENTS[6.0])) < 5e-4

    def test_one_group_beats_two_at_m7(self):
        two = algorithm2(ZIPF9, 7, 7.0)
        best = algorithm4(ZIPF9, 7, 7.0)
        assert best.case_id is PlacementCase.ONE_GROUP
        assert two is None or two.rate >= best.rate - 1e-12

    def test_empty_candidate_set(self):
        model = make_custom([1 / 3, 1 / 3, 1 / 3])
        assert algorithm2(model, 2, 3.0) is None


class TestAlgorithm3:
    def test_reference_m2_5(self):
        candidate = algorithm3(ZIPF9, 7, 2.5)
        assert candidate is not None
        assert (candidate.n_o, candidate.n_1, candidate.l_o, candidate.l_1) == (4, 6, 3, 4)
        assert np.max(np.abs(candidate.placement.a - GOLDEN_PLACEMENTS[2.5])) < 5e-4
        assert np.allclose(candidate.placement.a[6:, 0], 1.0)

    def test_reference_m5_5(self):
        candidate = algorithm3(ZIPF9, 7, 5.5)
        assert candidate is not None
        assert (candidate.n_o, candidate.n_1, candidate.l_o) == (7, 8, 5)
        assert candidate.case_id is PlacementCase.THREE_GROUP_CASE1
        assert np.max(np.abs(candidate.placement.a - GOLDEN_PLACEMENTS[5.5])) < 5e-4

    def test_empty_when_tail_range_vanishes(self):
        assert algorithm3(ZIPF9, 7, 8.5) is None


class TestAlgorithm4:
    @pytest.mark.parametrize("m", sorted(GOLDEN_PLACEMENTS))
    def test_reproduces_reference_tables(self, m):
        candidate = algorithm4(ZIPF9, 7, m)
        case, n_o, n_1, l_o, l_1 = GOLDEN_CASES[m]
        assert candidate.case_id.value == case
        assert (candidate.n_o, candidate.n_1, candidate.l_o, candidate.l_1) == (
            n_o, n_1, l_o, l_1,
        )
        assert np.max(np.abs(candidate.placement.a - GOLDEN_PLACEMENTS[m])) < 5e-4

    def test_rate_matches_functional(self):
        coeffs = coeffs_for(ZIPF9, 7)
        for m in (0.0, 1.0, 2.5, 3.3, 6.0, 9.0):
            candidate = algorithm4(ZIPF9, 7, m, coeffs=coeffs)
            assert candidate.rate == pytest.approx(
                average_rate(candidate.placement, coeffs), abs=1e-10
            )

    @pytest.mark.parametrize("search", [algorithm1, algorithm4])
    @pytest.mark.parametrize("n, k", [(8, 5), (9, 7)])
    def test_rejects_coefficients_of_another_instance(self, search, n, k):
        with pytest.raises(DimensionMismatchError):
            search(ZIPF9, 5, 2.5, coeffs=coeffs_for(make_zipf(n, 1.5), k))

    def test_rate_non_increasing_in_cache(self):
        model = make_zipf(10, 1.5)
        coeffs = coeffs_for(model, 6)
        rates = [algorithm4(model, 6, float(m), coeffs=coeffs).rate for m in range(1, 11)]
        assert all(a >= b - 1e-12 for a, b in zip(rates, rates[1:]))

    def test_never_beaten_by_any_family(self):
        rng = np.random.default_rng(5150)
        for _ in range(15):
            n = int(rng.integers(2, 8))
            k = int(rng.integers(1, 6))
            model = make_custom(random_popularity(rng, n))
            m = float(rng.choice(np.arange(0.5, n + 0.01, 0.5)))
            coeffs = coeffs_for(model, k)
            best = algorithm4(model, k, m, coeffs=coeffs)
            family_rates = [algorithm1(model, k, m, coeffs=coeffs).rate]
            for algo in (algorithm2, algorithm3):
                candidate = algo(model, k, m, coeffs=coeffs)
                if candidate is not None:
                    family_rates.append(candidate.rate)
            assert abs(best.rate - min(family_rates)) <= 1e-12

    def test_uniform_popularity_gives_one_group(self):
        for n, k, m in [(4, 3, 1.0), (5, 4, 2.5), (6, 2, 3.0), (3, 5, 0.7)]:
            model = make_custom([1.0 / n] * n)
            candidate = algorithm4(model, k, m)
            assert candidate.groups == 1
            assert np.allclose(candidate.placement.a, candidate.placement.a[0])

    def test_structure_invariants_on_random_instances(self):
        rng = np.random.default_rng(77)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(1, 7))
            model = make_custom(random_popularity(rng, n))
            m = float(rng.uniform(0.0, n))
            candidate = algorithm4(model, k, m)
            matrix = candidate.placement
            assert analyze_groups(matrix).group_count <= 3
            assert int(np.max(np.sum(matrix.a > 1e-9, axis=1))) <= 2
            assert matrix.cache_used() == pytest.approx(m, abs=1e-9)
            assert matrix.is_popularity_first()
            assert matrix.violations(cache_size=m) == []
            bound, _ = worst_case_subpacketization_bound(k)
            assert subpacketization(matrix).max_level <= bound

    def test_shortcut_endpoints(self):
        none = algorithm4(ZIPF9, 7, 0.0)
        assert none.case_id is PlacementCase.ONE_GROUP and none.rate == pytest.approx(7.0)
        assert none.l_o == 0
        full = algorithm4(ZIPF9, 7, 9.0)
        assert full.case_id is PlacementCase.ONE_GROUP and full.rate == pytest.approx(0.0)
        assert full.l_o == 7

    def test_rejects_cache_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            algorithm4(ZIPF9, 7, -0.1)
        with pytest.raises(InvalidParameterError):
            algorithm4(ZIPF9, 7, 9.2)

    def test_first_group_size(self):
        assert algorithm4(ZIPF9, 7, 7.0).first_group_size == 9
        assert algorithm4(ZIPF9, 7, 1.0).first_group_size == 3

    def test_large_instance(self):
        model = make_zipf(1000, 1.0)
        candidate = algorithm4(model, 30, 3.7)
        assert candidate.case_id is PlacementCase.THREE_GROUP_CASE1
        assert (candidate.n_o, candidate.n_1, candidate.l_o, candidate.l_1) == (22, 23, 5, None)
        assert abs(certify(model, 30, 3.7).gap) <= 1e-8

    def test_zero_tail_rows_use_adjacent_sizes(self):
        # the symmetric-head family splits files over two adjacent subset
        # sizes; the two-size case-2.ii family has no such restriction
        rng = np.random.default_rng(808)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(2, 7))
            model = make_custom(random_popularity(rng, n))
            m = float(rng.uniform(0.1, n))
            candidate = algorithm1(model, k, m)
            cached = np.flatnonzero(candidate.placement.a[0, 1:] > 1e-9) + 1
            assert len(cached) <= 2
            if len(cached) == 2:
                assert cached[1] - cached[0] == 1


class TestStepPopularity:
    # tuples frozen from the sequential search this package shipped first
    STEP21 = make_step([("5/9", 1), ("1/30", 10), ("1/90", 10)])
    FROZEN = {
        1.0: ("three_group_case2", 1, 11, 3, 11),
        2.0: ("three_group_case2", 1, 11, 3, 11),
        3.5: ("two_group_zero_tail", 11, None, 3, None),
        8.0: ("one_group", 21, None, 4, None),
        15.0: ("one_group", 21, None, 8, None),
    }

    @pytest.mark.parametrize("m", sorted(FROZEN))
    def test_frozen_tuples(self, m):
        candidate = algorithm4(self.STEP21, 12, m)
        assert (candidate.case_id.value, candidate.n_o, candidate.n_1,
                candidate.l_o, candidate.l_1) == self.FROZEN[m]
        for boundary in analyze_groups(candidate.placement).boundaries:
            assert self.STEP21.probs[boundary - 1] > self.STEP21.probs[boundary]

    def test_group_borders_fall_on_popularity_drops(self):
        model = make_step([("0.5", 1), ("0.125", 4)])
        candidate = algorithm4(model, 4, 2.0)
        for boundary in analyze_groups(candidate.placement).boundaries:
            assert model.probs[boundary - 1] > model.probs[boundary]


@st.composite
def search_instances(draw, max_n=10, max_k=7, exact_splits=False):
    """Instances with ties and edge caches; ``exact_splits`` adds K = 1 and integral K M / n_o."""
    n = draw(st.integers(2, max_n))
    k = draw(st.one_of(st.just(1), st.integers(1, max_k)) if exact_splits else st.integers(1, max_k))
    kind = draw(st.sampled_from(["zipf", "custom", "uniform", "step"]))
    if kind == "zipf":
        model = make_zipf(n, draw(st.floats(0.0, 2.5)))
    elif kind == "custom":
        weights = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
        model = make_custom([w / sum(weights) for w in weights])
    elif kind == "uniform":
        model = make_custom([f"1/{n}"] * n)
    else:
        head = draw(st.integers(1, n - 1))
        weight = draw(st.integers(2, 6))
        total = head * weight + n - head
        model = make_step([(f"{weight}/{total}", head), (f"1/{total}", n - head)])
    caches = [
        st.just(0.0), st.just(float(n)),
        st.integers(0, 2 * n).map(lambda j: j / 2), st.floats(0.0, float(n)),
    ]
    if exact_splits:
        caches.append(st.tuples(st.integers(1, n), st.integers(0, k)).map(lambda t: t[0] * t[1] / k))
    m = draw(st.one_of(*caches))
    return model, k, m


@seed(1912)
@settings(max_examples=200, deadline=None, database=None)
@given(search_instances())
def test_search_matches_exhaustive_oracle(instance):
    model, k, m = instance
    coeffs = coeffs_for(model, k)
    for algo, family in ((algorithm1, "zero_tail"), (algorithm2, "two_group"),
                         (algorithm3, "three_group"), (algorithm4, None)):
        got = algo(model, k, m, coeffs=coeffs)
        want = candidate_search_exhaustive(model, k, m, family)
        assert (got is None) == (want is None)
        if got is not None:
            case, tup, rate = want
            assert got.case_id.value == case
            assert (got.n_o, got.n_1, got.l_o, got.l_1) == tup
            assert abs(got.rate - rate) <= 1e-12


def test_candidate_json_shape():
    candidate = algorithm4(ZIPF9, 7, 2.5)
    payload = candidate.to_json_dict()
    assert payload["case"] == "three_group_case2"
    assert payload["n_o"] == 4 and payload["n_1"] == 6
    assert payload["l_o"] == 3 and payload["l_1"] == 4
    assert payload["placement"]["N"] == 9 and payload["placement"]["K"] == 7
    assert len(payload["placement"]["a"]) == 9


def full_search(model, k, m, coeffs):
    """Every tuple of all three families: the mid-size oracle of ``algorithm4``."""
    return _search(model, k, m, coeffs, zero_tail=True, two_group=True, three_group=True)[0]


def assert_same_solution(got, want):
    assert got.case_id is want.case_id
    assert (got.n_o, got.n_1, got.l_o, got.l_1) == (want.n_o, want.n_1, want.l_o, want.l_1)
    assert got.rate == want.rate
    assert np.array_equal(got.placement.a, want.placement.a)


@seed(2020)
@settings(max_examples=150, deadline=None, database=None)
@given(search_instances(max_n=40, max_k=10, exact_splits=True))
def test_algorithm4_matches_full_search(instance):
    model, k, m = instance
    coeffs = coeffs_for(model, k)
    assert_same_solution(algorithm4(model, k, m, coeffs=coeffs), full_search(model, k, m, coeffs))


@pytest.mark.parametrize("m", [2.5, 5.5, 6.0])
def test_each_dual_point_of_the_winner_finds_it(m):
    # the winner weighs two dual points; with either one alone tight and
    # every other slack infinite but its partner's, the slack filter keeps
    # the pair, from the left end or the right
    coeffs = coeffs_for(ZIPF9, 7)
    best = algorithm4(ZIPF9, 7, m, coeffs=coeffs)
    dual = best.dual
    tol = TIGHT_TOL * max(1.0, abs(dual.lambda_1) + abs(dual.mu) * m)
    points = [(best.n_o - 1, (best.l_1 or best.l_o) - 1), ((best.n_1 or 9) - 1, best.l_o - 1)]
    for end, partner in (points, points[::-1]):
        slack = np.full_like(dual.slack, np.inf)
        slack[partner] = dual.slack[partner]
        slack[end] = 0.0
        got, _ = _search(ZIPF9, 7, m, coeffs, zero_tail=True, two_group=True, three_group=True,
                         tight=(dual._replace(slack=slack), tol))
        assert_same_solution(got, best)


def seeded_instance(rng):
    """A random instance: Zipf, custom, uniform or two-level step popularity."""
    n, k = int(rng.integers(1, 21)), int(rng.integers(1, 10))
    kind = int(rng.integers(4))
    if kind == 0:
        model = make_zipf(n, float(rng.uniform(0.0, 2.5)))
    elif kind == 1:
        model = make_custom(random_popularity(rng, n))
    elif kind == 2 or n == 1:
        model = make_custom([f"1/{n}"] * n)
    else:
        head, weight = int(rng.integers(1, n)), int(rng.integers(2, 7))
        total = head * weight + n - head
        model = make_step([(f"{weight}/{total}", head), (f"1/{total}", n - head)])
    m = [0.0, float(n), int(rng.integers(0, 2 * n + 1)) / 2,
         int(rng.integers(1, n + 1)) * int(rng.integers(0, k + 1)) / k,
         round(float(rng.uniform(0.0, n)), 2)][int(rng.integers(5))]
    return model, k, m


def test_algorithm4_matches_full_search_seeded(monkeypatch):
    # a fallback to the full search would make the comparison trivial
    fallbacks = []

    def search(*args, **kw):
        if kw.get("tight") is None:
            fallbacks.append(args)
        return _search(*args, **kw)

    monkeypatch.setattr(solver, "_search", search)
    rng = np.random.default_rng(2024)
    for _ in range(2000):
        model, k, m = seeded_instance(rng)
        coeffs = coeffs_for(model, k)
        assert_same_solution(algorithm4(model, k, m, coeffs=coeffs), full_search(model, k, m, coeffs))
    # too large for the full search, which takes about 25 s at (1000, 30)
    for n, k, m in ((1000, 30, 3.7), (2000, 40, 10.0)):
        algorithm4(make_zipf(n, 1.0), k, m)
    assert fallbacks == []


def full_key(candidate):
    """Everything a caller reads of a winner, as bits."""
    return (candidate.case_id, candidate.n_o, candidate.n_1, candidate.l_o, candidate.l_1,
            candidate.rate.hex(), candidate.alg1_rate.hex(), candidate.placement.a.tobytes())


def assert_same_as_tight_lines(model, k, m):
    coeffs = coeffs_for(model, k)
    got, want = algorithm4(model, k, m, coeffs=coeffs), algorithm4_tight_lines(model, k, m, coeffs)
    assert full_key(got) == full_key(want), (model.n_files, k, m)


def test_slack_filter_matches_tight_lines_seeded():
    """The two-sided slack filter picks the one-sided tight-line search's winner, bit for bit."""
    rng = np.random.default_rng(1916)
    for _ in range(1000):
        assert_same_as_tight_lines(*seeded_instance(rng))
    for n, k, m in ((200, 20, 50.0), (1000, 30, 3.7), (300, 12, 0.0), (300, 12, 300.0)):
        assert_same_as_tight_lines(make_zipf(n, 1.0), k, m)
    # uniform popularity at K = 1: every dual line is tight, M on and off the x grid
    for m in (0.0, 1.0, 37.0, 58.5, 99.25, 150.0, 299.0, 300.0):
        assert_same_as_tight_lines(make_custom(["1/300"] * 300), 1, m)


@seed(1916)
@settings(max_examples=200, deadline=None, database=None)
@given(popularity_instances(max_n=40, max_k=10))
def test_slack_filter_matches_tight_lines(instance):
    assert_same_as_tight_lines(*instance)


def test_only_algorithm4_carries_the_dual(monkeypatch):
    model, k, m = ZIPF9, 7, 2.5
    coeffs = coeffs_for(model, k)
    for algo in (algorithm1, algorithm2, algorithm3):
        candidate = algo(model, k, m, coeffs=coeffs)
        assert candidate.dual is None and candidate.alg1_rate is None
    best = algorithm4(model, k, m, coeffs=coeffs)
    assert best.dual.value == solve_dual(coeffs, m).value
    assert best.alg1_rate == algorithm1(model, k, m, coeffs=coeffs).rate
    assert best.alg1_rate > best.rate  # a three-group optimum here
    # no line is tight below a negative tolerance, so the full search runs
    monkeypatch.setattr(solver, "TIGHT_TOL", -1.0)
    fallback = algorithm4(model, k, m, coeffs=coeffs)
    assert_same_solution(fallback, best)
    assert fallback.dual.value == best.dual.value
    assert fallback.alg1_rate == best.alg1_rate


@seed(4242)
@settings(max_examples=150, deadline=None, database=None)
@given(search_instances(max_n=12, max_k=7, exact_splits=True))
def test_alg1_rate_is_algorithm1s_rate(instance):
    """Bit for bit, from the tight search and from the full search it falls back to."""
    model, k, m = instance
    coeffs = coeffs_for(model, k)
    want = algorithm1(model, k, m, coeffs=coeffs).rate.hex()
    assert algorithm4(model, k, m, coeffs=coeffs).alg1_rate.hex() == want
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "TIGHT_TOL", -1.0)
        assert algorithm4(model, k, m, coeffs=coeffs).alg1_rate.hex() == want


def test_tight_search_calls_each_closed_form_once(monkeypatch):
    """The winner is materialized from the search's own entries, not by a second call."""
    calls = []
    for name in ("_zero_tail", "_case2i", "_case2ii"):
        form = getattr(solver, name)
        monkeypatch.setattr(solver, name, lambda *args, _name=name, _form=form: (
            calls.append(_name), _form(*args))[1])
    for model, k, m in ((ZIPF9, 7, 2.5), (ZIPF9, 7, 6.0), (make_zipf(1000, 1.0), 30, 3.7)):
        calls.clear()
        best = algorithm4(model, k, m)
        assert sorted(calls) == ["_case2i", "_case2ii", "_zero_tail"], best.case_id


def pairs_by_loop(n, k, m, effs, slack, tol):
    """The tuples of every pair the slack filter admits, one pair at a time."""
    points = [(p, l) for p in range(1, n + 1) for l in range(1, k + 1)]
    kept = set()
    for t in points:
        if slack[t[0] - 1, t[1] - 1] > tol:
            continue
        x_t = t[0] * t[1] / k
        for q in points:
            x_q = q[0] * q[1] / k
            if q[0] == t[0] or (x_t <= m) == (x_q <= m):
                continue
            if (x_t - m) / (x_t - x_q) * slack[q[0] - 1, q[1] - 1] <= tol:
                (n_o, l_1), (n_eff, l_o) = sorted((t, q))
                if n_eff in effs:
                    kept.add((n_o, n_eff, l_o) if l_o == l_1 else (n_o, n_eff, l_o, l_1))
    return kept


@pytest.mark.parametrize("slice_size", [1, 7, 1 << 16])
def test_slack_filter_keeps_the_pairs_a_loop_keeps(monkeypatch, slice_size):
    """Both ends, the weighted margin and the slicing, on slacks around the tolerance."""
    monkeypatch.setattr(solver, "_SLICE", slice_size)
    rng = np.random.default_rng(77)
    tol = 1e-9
    for _ in range(60):
        n, k = int(rng.integers(1, 9)), int(rng.integers(1, 5))
        m = [float(rng.uniform(0.0, n)), int(rng.integers(0, n + 1)) * int(rng.integers(0, k + 1)) / k,
             0.0, float(n)][int(rng.integers(4))]
        effs = list(range(max(2, int(m) + 1), n)) + [n]
        slack = rng.choice([0.0, -1e-15, 0.3 * tol, tol, 3 * tol, 1e-6, 1.0], size=(n, k))
        blocks = list(solver._pairs(n, k, m, effs, solver.Dual(0.0, 0.0, 0.0, slack, 0.0), tol))
        got = [tuple(map(int, entries)) for block in blocks for entries in zip(*block)]
        assert all(len(block[0]) <= max(slice_size, n * k) for block in blocks)
        assert len(got) == len(set(got))
        assert set(got) == pairs_by_loop(n, k, m, effs, slack, tol), (n, k, m)


class TestDualLemma:
    """rate - D = a_{1,0} slack_0 + sum u_{n,l} slack_{n,l}, the identity algorithm4 prunes by."""

    STEP = make_step([("1/4", 2), ("1/12", 6)])
    INSTANCES = [
        (ZIPF9, 7, 1.0), (ZIPF9, 7, 2.5), (ZIPF9, 7, 5.5), (ZIPF9, 7, 6.0),
        (STEP, 4, 2.0), (STEP, 4, 1.5), (STEP, 3, 8 / 3),
        (make_custom(["1/6"] * 6), 4, 2.5), (make_zipf(8, 0.7), 5, 3.2),
        # 9 and 6 tied candidates
        (make_step([("1/4", 3), ("1/20", 5)]), 2, 5.5), (make_step([("5/18", 3), ("1/18", 3)]), 3, 4.5),
    ]

    @staticmethod
    def candidates(n, k, m):
        """Feasible zero-tail, case 2.i and 2.ii placements of n_eff files, padded to N files."""
        shapes = [(one_group_placement, n_o, ()) for n_o in range(1, n + 1) if m <= n_o]
        for n_eff in range(2, n + 1):
            for n_o in range(1, n_eff):
                for l_o in range(1, k + 1):
                    shapes.append((case2i_placement, n_eff, (n_o, l_o)))
                    shapes += [(case2ii_placement, n_eff, (n_o, l_o, l_1)) for l_1 in range(1, k + 1)]
        for build, n_eff, tup in shapes:
            try:
                head = build(n_eff, k, m, *tup)
            except InfeasibleCaseError:
                continue
            tail = np.zeros((n - n_eff, k + 1))
            tail[:, 0] = 1.0
            yield PlacementMatrix(n, k, np.vstack([head.a, tail]))

    @pytest.mark.parametrize("model, k, m", INSTANCES)
    def test_weights_and_slack(self, model, k, m):
        n = model.n_files
        coeffs = coeffs_for(model, k)
        dual = solve_dual(coeffs, m)
        slack = np.concatenate(([dual.slack_0], dual.slack.ravel()))
        best = algorithm4(model, k, m, coeffs=coeffs).rate
        tight = TIGHT_TOL * max(1.0, abs(dual.lambda_1) + abs(dual.mu) * m)
        near = 0
        for placement in self.candidates(n, k, m):
            a = placement.a
            u = partition_weights(k)[1:] * (a[:, 1:] - np.vstack([a[1:, 1:], np.zeros(k)]))
            weights = np.concatenate(([a[0, 0]], u.ravel()))
            assert weights.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.count_nonzero(np.abs(weights) > 1e-12) <= 2
            rate = average_rate(placement, coeffs)
            assert abs(rate - dual.value - weights @ slack) <= 1e-12
            if rate <= best + TIE_TOL:
                near += 1
                assert slack[np.argmax(weights)] <= tight
        assert near >= 1


class TestPivotDual:
    """``solve_dual``'s pivots against the envelope sweep they replaced."""

    @staticmethod
    def assert_same_optimum(coeffs, m):
        got, want = solve_dual(coeffs, m), solve_dual_envelope(coeffs, m)
        scale = max(1.0, abs(want.lambda_1) + abs(want.mu) * m)
        assert abs(got.value - want.value) <= 1e-13 * scale
        assert min(got.slack_0, got.slack.min()) >= -1e-13 * scale

    @seed(1313)
    @settings(max_examples=300, deadline=None, database=None)
    @given(popularity_instances())
    def test_matches_envelope(self, instance):
        """An equal value, a feasible (lambda_1, mu) and the same algorithm4 winner, bit for bit."""
        model, k, m = instance
        coeffs = coeffs_for(model, k)
        self.assert_same_optimum(coeffs, m)
        best = algorithm4(model, k, m, coeffs=coeffs)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solver, "solve_dual", solve_dual_envelope)
            assert_same_solution(best, algorithm4(model, k, m, coeffs=coeffs))

    @pytest.mark.parametrize("m", [0.0, 3.5, 7.18, 7.1875, 12.0, 23.99, 24.0])
    def test_collinear_points_end_the_walk(self, m):
        # at K = 1 the points are (n, -S_n): with uniform popularity they lie
        # on one line up to rounding, where pivots without a strict-decrease
        # stop can cycle between collinear ends
        self.assert_same_optimum(coeffs_for(make_custom(["1/24"] * 24), 1), m)

    @pytest.mark.parametrize("m", [0.0, 1.0, 2.0, 2.5, 9.0])
    def test_cache_at_a_vertex_and_beyond_the_last(self, m):
        # M = 0, every integer M and M = N sit on hull vertices; M = N has no point beyond it
        coeffs = coeffs_for(ZIPF9, 7)
        got, want = solve_dual(coeffs, m), solve_dual_envelope(coeffs, m)
        assert (got.lambda_1, got.mu, got.value) == (want.lambda_1, want.mu, want.value)
