"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines live.
"""

import itertools
import time
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from codedcache.bounds import bound_exhaustive, bound_proposed, bound_two_group
from codedcache.delivery import (
    decode,
    minimal_file_size,
    monte_carlo_rate,
    random_library,
    realize,
    sample_demands,
    serve,
)
from codedcache.lp_oracle import certify
from codedcache.placement import (
    PlacementMatrix,
    analyze_groups,
    average_rate,
    rate_coefficients,
    subpacketization,
    worst_case_subpacketization_bound,
)
from codedcache.popularity import make_custom, make_zipf, order_stats
from codedcache.solver import algorithm1, algorithm4, one_group_placement

from golden import GOLDEN_BOUNDS, GOLDEN_CASES, GOLDEN_PLACEMENTS
from oracles import (
    delivery_rate_exhaustive,
    order_stats_exhaustive,
    popularity_instances,
    random_popularity,
    random_popularity_first_placement,
)

ZIPF9 = make_zipf(9, 1.5)


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"CRITERION {number}: FAIL - {description}", flush=True)
        raise
    print(f"CRITERION {number}: PASS - {description}", flush=True)


def oracle_instances(count: int = 200):
    """Seeded random instances shared by criteria 3 and 4."""
    rng = np.random.default_rng(20250809)
    for _ in range(count):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, 6))
        model = make_custom(random_popularity(rng, n))
        m = float(rng.choice(np.arange(0.5, n + 0.001, 0.5)))
        yield model, k, m


def check_structure(placement: PlacementMatrix, cache: float) -> None:
    assert analyze_groups(placement).group_count <= 3
    assert int(np.max(np.sum(placement.a > 1e-9, axis=1))) <= 2
    assert placement.cache_used() == pytest.approx(cache, abs=1e-9)
    assert placement.is_popularity_first()
    bound, _ = worst_case_subpacketization_bound(placement.k_users)
    assert subpacketization(placement).max_level <= bound


def test_criterion_1_reference_placements():
    with criterion(1, "reference placement matrices reproduced to 5e-4 in < 1 s"):
        start = time.perf_counter()
        candidates = {m: algorithm4(ZIPF9, 7, m) for m in GOLDEN_PLACEMENTS}
        elapsed = time.perf_counter() - start
        for m, candidate in candidates.items():
            assert np.max(np.abs(candidate.placement.a - GOLDEN_PLACEMENTS[m])) <= 5e-4, m
            assert candidate.case_id.value == GOLDEN_CASES[m][0], m
        assert elapsed < 1.0, f"took {elapsed:.3f} s"


def test_criterion_2_reference_bounds():
    with criterion(2, "reference lower-bound table reproduced to 5e-4 in < 1 s"):
        start = time.perf_counter()
        for n, cells in GOLDEN_BOUNDS.items():
            model = make_zipf(n, 1.5)
            n_o = algorithm4(model, 6, 1.0).first_group_size
            reports = {
                "two_group_prior": bound_two_group(model, 6, 1.0),
                "exhaustive_prior": bound_exhaustive(model, 6, 1.0),
                "proposed": bound_proposed(model, 6, 1.0, n_o),
            }
            for scheme, (n_pop, n_merged, value) in cells.items():
                report = reports[scheme]
                assert report.n_popular == n_pop, (n, scheme)
                assert report.n_merged == n_merged, (n, scheme)
                assert abs(report.value - value) <= 5e-4, (n, scheme)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.3f} s"


def test_criterion_3_lp_oracle_equivalence():
    with criterion(3, "closed-form rate equals LP optimum on 200 random instances (1e-8)"):
        start = time.perf_counter()
        worst = 0.0
        for model, k, m in oracle_instances():
            report = certify(model, k, m)
            worst = max(worst, abs(report.gap))
            assert abs(report.gap) <= 1e-8, (model.n_files, k, m, report.gap)
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"took {elapsed:.1f} s"
        print(f"    worst |gap| = {worst:.2e}, {elapsed:.1f} s", flush=True)


def test_criterion_4_structural_invariants():
    with criterion(4, "solver outputs: <=3 groups, <=2 nonzeros/row, tight cache, ordering, subpacketization"):
        for m in GOLDEN_PLACEMENTS:
            check_structure(algorithm4(ZIPF9, 7, m).placement, m)
        for model, k, m in oracle_instances():
            check_structure(algorithm4(model, k, m).placement, m)


def test_criterion_5_rate_formula_oracle():
    with criterion(5, "rate functional equals exhaustive demand enumeration (1e-10)"):
        rng = np.random.default_rng(1905)
        for n, k in itertools.product(range(1, 4), range(1, 5)):
            model = make_custom(random_popularity(rng, n))
            coeffs = rate_coefficients(model, order_stats(model, k))
            for _ in range(50):
                a, _ = random_popularity_first_placement(rng, n, k)
                got = average_rate(PlacementMatrix(n, k, a), coeffs)
                want = delivery_rate_exhaustive(a, model.probs)
                assert abs(got - want) <= 1e-10, (n, k)


def test_criterion_6_order_statistics_oracle():
    with criterion(6, "order statistics match enumeration (1e-12) and large-instance identities (1e-9)"):
        rng = np.random.default_rng(424242)
        for n, k in itertools.product(range(1, 5), range(1, 5)):
            for _ in range(3):
                model = make_custom(random_popularity(rng, n))
                table = order_stats(model, k)
                oracle = order_stats_exhaustive(model.probs, k)
                assert np.max(np.abs(table.probs - oracle)) <= 1e-12, (n, k)
        big = make_zipf(50, 1.2)
        table = order_stats(big, 20)
        assert np.max(np.abs(table.probs.sum(axis=1) - 1.0)) <= 1e-9
        assert np.max(np.abs(table.probs.sum(axis=0) - 20 * big.probs)) <= 1e-9


def test_criterion_7_monte_carlo_and_decode():
    with criterion(7, "Monte Carlo within 3 stderr of the analytic rate; 100 demands decode bit-exactly; < 30 s"):
        start = time.perf_counter()
        candidate = algorithm4(ZIPF9, 7, 4.0)
        coeffs = rate_coefficients(ZIPF9, order_stats(ZIPF9, 7))
        analytic = average_rate(candidate.placement, coeffs)
        result = monte_carlo_rate(candidate.placement, ZIPF9, 100_000, seed=7)
        assert abs(result.mean_rate - analytic) <= 3.0 * result.std_error, (
            result.mean_rate, analytic, result.std_error,
        )
        f_bits = minimal_file_size(candidate.placement)
        library = random_library(9, f_bits, seed=7)
        realization = realize(candidate.placement, library)
        for row in sample_demands(ZIPF9, 7, 100, seed=8):
            transcript = serve(realization, row)
            for user in range(1, 8):
                assert decode(realization, transcript, user) == library.contents[row[user - 1] - 1]
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.1f} s"


def test_criterion_8_rate_vs_cache_dominance():
    with criterion(8, "optimal rate dominates the one-group and zero-tail baselines over the cache grid"):
        model = make_zipf(10, 1.5)
        coeffs = rate_coefficients(model, order_stats(model, 6))
        for m in range(1, 11):
            optimal = algorithm4(model, 6, float(m), coeffs=coeffs)
            baseline = average_rate(one_group_placement(10, 6, float(m)), coeffs)
            zero_tail = algorithm1(model, 6, float(m), coeffs=coeffs)
            assert optimal.rate <= baseline + 1e-12, m
            assert optimal.rate <= zero_tail.rate + 1e-12, m
            if m == 1:
                assert optimal.rate < baseline - 1e-6


def test_criterion_9_bound_sandwich():
    with criterion(9, "every lower bound sits below the achievable optimal rate"):
        configs = [(make_zipf(n, 1.5), 6, 1.0) for n in GOLDEN_BOUNDS]
        model10 = make_zipf(10, 1.5)
        configs += [(model10, 6, float(m)) for m in range(1, 11)]
        for model, k, m in configs:
            candidate = algorithm4(model, k, m)
            for report in (
                bound_two_group(model, k, m),
                bound_exhaustive(model, k, m),
                bound_proposed(model, k, m, candidate.first_group_size),
            ):
                assert report.value <= candidate.rate + 1e-12, (model.n_files, k, m, report.scheme)


# Criteria 8 and 9 over M on random instances: hypothesis draws the popularity
# model and K, and each test solves an equally spaced grid of M over [0, N].

@st.composite
def cache_grids(draw):
    model, k, _ = draw(popularity_instances(max_n=20, max_k=8))
    return model, k, np.linspace(0.0, model.n_files, draw(st.integers(3, 16))).tolist()


def solve_grid(model, k, grid):
    coeffs = rate_coefficients(model, order_stats(model, k))
    return coeffs, [algorithm4(model, k, m, coeffs=coeffs) for m in grid]


@seed(2024)
@settings(max_examples=100, deadline=None, database=None)
@given(cache_grids())
def test_optimal_rate_is_nonincreasing_and_convex_in_m(instance):
    """R*(M) is the lower convex hull of the dual points, read at M."""
    _, optimal = solve_grid(*instance)
    rates = np.array([candidate.rate for candidate in optimal])
    tol = 1e-9 * np.maximum(1.0, rates)
    assert np.all(np.diff(rates) <= tol[1:])
    assert np.all(rates[:-2] - 2.0 * rates[1:-1] + rates[2:] >= -tol[1:-1])


@seed(2025)
@settings(max_examples=100, deadline=None, database=None)
@given(cache_grids())
def test_bounds_sit_below_the_optimal_rate_below_one_group(instance):
    model, k, grid = instance
    coeffs, optimal = solve_grid(model, k, grid)
    for m, candidate in zip(grid, optimal):
        tol = 1e-9 * max(1.0, candidate.rate)
        assert candidate.rate <= average_rate(one_group_placement(model.n_files, k, m), coeffs) + tol
        for report in (
            bound_two_group(model, k, m),
            bound_exhaustive(model, k, m),
            bound_proposed(model, k, m, candidate.first_group_size),
        ):
            assert report.value <= candidate.rate + tol, (m, report.scheme)
