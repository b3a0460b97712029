import pytest
from hypothesis import given, seed, settings

from codedcache.bounds import (
    BoundScheme,
    bound_exhaustive,
    bound_generic,
    bound_prior,
    bound_proposed,
    bound_two_group,
    bound_value,
    merge_count,
    popular_count,
)
from codedcache.errors import InvalidParameterError
from codedcache.popularity import make_custom, make_step, make_zipf
from codedcache.solver import algorithm4

from golden import GOLDEN_BOUNDS
from oracles import bound_exhaustive_thresholds, popularity_instances


class TestMergeCount:
    def test_proposed_threshold_n5(self):
        model = make_zipf(5, 1.5)
        assert merge_count(model, 3, float(model.probs[2])) == 1

    def test_empty_tail(self):
        model = make_zipf(5, 1.5)
        assert merge_count(model, 5, float(model.probs[4])) == 0

    def test_two_group_threshold_n5(self):
        model = make_zipf(5, 1.5)
        assert merge_count(model, 4, 1.0 / (6 * 3)) == 0

    def test_short_tail_never_completes(self):
        model = make_custom([0.9, 0.1])
        assert merge_count(model, 1, 0.5) == 0

    def test_validation(self):
        model = make_zipf(5, 1.5)
        with pytest.raises(InvalidParameterError):
            merge_count(model, 6, 0.1)
        with pytest.raises(InvalidParameterError):
            merge_count(model, 2, 0.0)


class TestBoundValue:
    def test_two_group_row(self):
        value, clamped = bound_value(6, 1.0 / 18, 4, 0, 1.0)
        assert value == pytest.approx(0.0909, abs=5e-5)
        assert not clamped

    def test_exhaustive_row(self):
        p5 = float(make_zipf(5, 1.5).probs[4])
        value, _ = bound_value(6, p5, 5, 0, 1.0)
        assert value == pytest.approx(0.1109, abs=5e-5)

    def test_zero_at_balance(self):
        value, clamped = bound_value(6, 0.1, 3, 1, 4.0)
        assert value == 0.0 and not clamped

    def test_clamps_negative(self):
        value, clamped = bound_value(6, 0.1, 1, 0, 4.0)
        assert value == 0.0 and clamped


class TestPublishedComparison:
    @pytest.mark.parametrize("n", sorted(GOLDEN_BOUNDS))
    def test_all_cells(self, n):
        model = make_zipf(n, 1.5)
        n_o = algorithm4(model, 6, 1.0).first_group_size
        reports = {
            "two_group_prior": bound_two_group(model, 6, 1.0),
            "exhaustive_prior": bound_exhaustive(model, 6, 1.0),
            "proposed": bound_proposed(model, 6, 1.0, n_o),
        }
        for scheme, (n_pop, n_merged, value) in GOLDEN_BOUNDS[n].items():
            report = reports[scheme]
            assert report.n_popular == n_pop, scheme
            assert report.n_merged == n_merged, scheme
            assert report.value == pytest.approx(value, abs=5e-4), scheme

    @pytest.mark.parametrize("n", sorted(GOLDEN_BOUNDS))
    def test_proposed_is_tightest_here(self, n):
        model = make_zipf(n, 1.5)
        proposed = bound_proposed(model, 6, 1.0)
        assert proposed.value >= bound_prior(model, 6, 1.0).value - 1e-12


class TestPriorBound:
    def test_picks_exhaustive_when_larger(self):
        model = make_zipf(5, 1.5)
        report = bound_prior(model, 6, 1.0)
        assert report.scheme is BoundScheme.EXHAUSTIVE_PRIOR
        assert report.value == pytest.approx(0.1109, abs=5e-5)

    def test_picks_threshold_when_larger(self):
        model = make_zipf(9, 1.5)
        report = bound_prior(model, 6, 1.0)
        assert report.scheme is BoundScheme.TWO_GROUP_PRIOR
        assert report.value == pytest.approx(0.1515, abs=5e-5)

    def test_cache_covering_database_is_trivial(self):
        model = make_zipf(4, 1.0)
        report = bound_prior(model, 3, 4.0)
        assert report.value == 0.0  # vacuous but exact at M = N
        clamped = bound_prior(model, 3, 4.5)
        assert clamped.value == 0.0 and clamped.clamped


@pytest.mark.parametrize("bound", [bound_two_group, bound_exhaustive, bound_prior])
def test_prior_bounds_reject_no_users(bound):
    with pytest.raises(InvalidParameterError):
        bound(make_zipf(5, 1.5), 0, 1.0)


class TestProposedBound:
    def test_defaults_to_optimal_first_group(self):
        model = make_zipf(5, 1.5)
        assert bound_proposed(model, 6, 1.0) == bound_proposed(model, 6, 1.0, 3)

    def test_one_group_optimum_uses_full_database(self):
        model = make_zipf(9, 1.5)
        candidate = algorithm4(model, 7, 7.0)
        assert candidate.first_group_size == 9
        report = bound_proposed(model, 7, 7.0, candidate.first_group_size)
        assert report.n_popular == 9

    def test_validation(self):
        model = make_zipf(5, 1.5)
        with pytest.raises(InvalidParameterError):
            bound_proposed(model, 6, 1.0, 0)


class TestGenericBound:
    def test_no_merging(self):
        model = make_zipf(5, 1.5)
        report = bound_generic(model, 6, 1.0, 1.0 / 18)
        assert report.n_merged == 0
        assert report.value == pytest.approx(0.0909, abs=5e-5)


class TestSandwich:
    def test_bounds_below_achievable(self):
        # lower bounds can never exceed an achievable rate
        for n, k, m in [(5, 6, 1.0), (7, 6, 1.0), (9, 6, 1.0), (10, 6, 3.0), (6, 4, 2.5)]:
            model = make_zipf(n, 1.5)
            candidate = algorithm4(model, k, m)
            for report in (
                bound_two_group(model, k, m),
                bound_exhaustive(model, k, m),
                bound_proposed(model, k, m, candidate.first_group_size),
            ):
                assert report.value <= candidate.rate + 1e-12


def test_popular_count_with_ties():
    model = make_custom([0.4, 0.3, 0.3])
    assert popular_count(model, 0.3) == 3
    assert popular_count(model, 0.35) == 1


def test_report_serialization():
    model = make_zipf(5, 1.5)
    report = bound_two_group(model, 6, 1.0)
    payload = report.to_json_dict()
    assert payload["scheme"] == "two_group_prior"
    assert payload["n_popular"] == 4
    row = report.csv_row(5, 6, 1.0)
    assert row.startswith("two_group_prior,5,6,1,")


@seed(1111)
@settings(max_examples=300, deadline=None, database=None)
@given(popularity_instances(max_n=60, max_k=20))
def test_exhaustive_matches_every_threshold(instance):
    """The branch and bound returns the report the walk over every threshold returns."""
    model, k, m = instance
    assert bound_exhaustive(model, k, m) == bound_exhaustive_thresholds(model, k, m)


@pytest.mark.parametrize("model, k, m", [
    # every threshold clamps to 0, so the first one below the fixed threshold wins
    (make_zipf(9, 1.5), 3, 9.0), (make_zipf(9, 1.0), 13, 9.0), (make_zipf(11, 2.0), 7, 11.0),
    (make_zipf(13, 2.5), 13, 13.0),
    # equal popularities: batches of 1/12 that sum to a threshold of 1/4 or 1/6
    (make_step([("1/4", 2), ("1/12", 6)]), 4, 1.0), (make_step([("1/6", 3), ("1/18", 9)]), 5, 0.5),
    (make_step([("5/9", 1), ("1/30", 10), ("1/90", 10)]), 12, 2.0),
    (make_zipf(1000, 1.0), 30, 3.7),
])
def test_exhaustive_ties(model, k, m):
    assert bound_exhaustive(model, k, m) == bound_exhaustive_thresholds(model, k, m)
