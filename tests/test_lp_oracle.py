import itertools
import time

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from codedcache.lp_oracle import (
    LinearProgram,
    build_p2,
    certify,
    dual_optimum,
    solve,
)
from codedcache.placement import (
    ZERO_TOL,
    PlacementMatrix,
    analyze_groups,
    average_rate,
    rate_coefficients,
)
from codedcache.popularity import make_custom, make_step, make_zipf, order_stats
from codedcache.solver import algorithm4, one_group_placement

from oracles import random_popularity, random_popularity_first_placement


def coeffs_for(model, k):
    return rate_coefficients(model, order_stats(model, k))


def p2_for(n, k, m, model=None):
    model = model or make_zipf(n, 1.2)
    return model, build_p2(model, k, m, coeffs_for(model, k))


class TestBuildP2:
    def test_constraint_counts_small(self):
        _, lp = p2_for(2, 2, 1.0)
        assert lp.n_vars == 6
        assert lp.a_eq.shape == (3, 6)  # two partitions + cache equality
        assert lp.a_ge.shape == (2 * 1 + 2 + 1, 6)  # popularity-first + signs

    def test_variable_count_reference_instance(self):
        _, lp = p2_for(9, 7, 4.0)
        assert lp.n_vars == 72
        assert lp.a_eq.shape[0] == 10
        assert lp.a_ge.shape[0] == 8 * 7 + 7 + 1

    def test_dump_text(self):
        _, lp = p2_for(2, 2, 1.0)
        text = lp.dump_text()
        assert text.startswith("vars 6\nminimize ")
        assert text.count("\neq ") == 3
        assert text.count("\nge ") == 5


class TestSimplex:
    def test_tiny_equality_lp(self):
        lp = LinearProgram(
            n_vars=2,
            objective=np.array([-1.0, -2.0]),
            a_eq=np.array([[1.0, 1.0]]),
            b_eq=np.array([1.0]),
            a_ge=np.eye(2),
            b_ge=np.zeros(2),
        )
        sol = solve(lp)
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(-2.0, abs=1e-9)
        assert sol.values == pytest.approx([0.0, 1.0], abs=1e-9)

    def test_infeasible(self):
        lp = LinearProgram(
            n_vars=1,
            objective=np.array([1.0]),
            a_eq=np.array([[1.0]]),
            b_eq=np.array([2.0]),
            a_ge=np.array([[-1.0]]),
            b_ge=np.array([0.0]),  # x <= 0 but x = 2
        )
        assert solve(lp).status == "infeasible"

    def test_unbounded(self):
        lp = LinearProgram(
            n_vars=1,
            objective=np.array([-1.0]),
            a_eq=np.zeros((0, 1)),
            b_eq=np.zeros(0),
            a_ge=np.array([[1.0]]),
            b_ge=np.array([0.0]),
        )
        assert solve(lp).status == "unbounded"

    def test_zero_cache_forces_server_only(self):
        model, lp = p2_for(3, 3, 0.0)
        sol = solve(lp)
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(3.0, abs=1e-8)
        a = sol.values.reshape(3, 4)
        assert np.allclose(a[:, 0], 1.0, atol=1e-8)

    def test_full_cache_gives_zero_rate(self):
        _, lp = p2_for(3, 3, 3.0)
        sol = solve(lp)
        assert sol.objective_value == pytest.approx(0.0, abs=1e-8)

    def test_matches_closed_form_small(self):
        model = make_custom([0.7, 0.3])
        lp = build_p2(model, 2, 1.0, coeffs_for(model, 2))
        sol = solve(lp)
        assert sol.objective_value == pytest.approx(
            algorithm4(model, 2, 1.0).rate, abs=1e-9
        )

    def test_grid_search_sanity_floor(self):
        # coarse feasible grid over N=2, K=2, M=1: the LP optimum must not
        # exceed any grid point's rate
        model = make_custom([0.7, 0.3])
        coeffs = coeffs_for(model, 2)
        lp_value = solve(build_p2(model, 2, 1.0, coeffs)).objective_value
        step = 1.0 / 8
        best = np.inf
        grid = np.arange(0.0, 1.0 + 1e-9, step)
        for a11, a12, a21, a22 in itertools.product(grid, repeat=4):
            a10 = 1.0 - 2 * a11 - a12
            a20 = 1.0 - 2 * a21 - a22
            if a10 < -1e-9 or a20 < -1e-9 or a11 < a21 or a12 < a22:
                continue
            if abs((a11 + a21) + (a12 + a22) - 1.0) > 1e-9:  # cache equality
                continue
            a = np.array([[a10, a11, a12], [a20, a21, a22]])
            best = min(best, float(np.sum(coeffs.g * a)))
        assert lp_value <= best + 1e-9


def lp_vertex(model, k, m):
    """The dense simplex's optimal vertex as a placement, and its objective."""
    sol = solve(build_p2(model, k, m, coeffs_for(model, k)))
    assert sol.status == "optimal"
    n = model.n_files
    return PlacementMatrix(n, k, sol.values.reshape(n, k + 1)), sol.objective_value


class TestCertify:
    def test_reference_instance_agrees(self):
        model = make_zipf(9, 1.5)
        report = certify(model, 7, 4.0)
        assert abs(report.gap) <= 1e-8
        # the simplex's LP vertex itself has the canonical structure
        lp, value = lp_vertex(model, 7, 4.0)
        assert abs(report.alg_rate - value) <= 1e-8
        assert analyze_groups(lp, tol=1e-7).group_count <= 3
        assert np.max(np.sum(lp.a > ZERO_TOL, axis=1)) <= 2

    def test_reference_instance_recovers_matrix(self):
        from golden import GOLDEN_PLACEMENTS

        lp, _ = lp_vertex(make_zipf(9, 1.5), 7, 4.0)
        assert np.max(np.abs(lp.a - GOLDEN_PLACEMENTS[4.0])) < 5e-4

    def test_optimal_solution_satisfies_constraints(self):
        model = make_zipf(5, 1.3)
        lp = build_p2(model, 4, 2.5, coeffs_for(model, 4))
        sol = solve(lp)
        assert sol.status == "optimal"
        assert np.max(np.abs(lp.a_eq @ sol.values - lp.b_eq)) <= 1e-8
        assert np.min(lp.a_ge @ sol.values - lp.b_ge) >= -1e-8

    def test_three_groups_visible_in_lp_solution(self):
        lp, _ = lp_vertex(make_zipf(9, 1.5), 7, 2.5)
        assert analyze_groups(lp, tol=1e-7).group_count == 3

    def test_uniform_matches_one_group_closed_form(self):
        model = make_custom([0.25] * 4)
        k, m = 3, 1.5
        report = certify(model, k, m)
        closed = average_rate(one_group_placement(4, k, m), coeffs_for(model, k))
        assert report.lp_rate == pytest.approx(closed, abs=1e-8)

    def test_random_batch(self):
        rng = np.random.default_rng(2718)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(1, 6))
            model = make_custom(random_popularity(rng, n))
            m = float(rng.choice(np.arange(0.5, n + 0.001, 0.5)))
            report = certify(model, k, m)
            assert abs(report.gap) <= 1e-8, (n, k, m)
            assert report.ok, (n, k, m)
            lp, value = lp_vertex(model, k, m)
            # weak duality: the candidate is feasible, so it cannot beat the LP
            assert report.alg_rate >= value - 1e-9
            # implied full nonnegativity and cache equality at the LP optimum
            assert lp.a.min() >= -1e-8
            assert abs(lp.cache_used() - m) <= 1e-8

    def test_size_guard(self):
        """Sizes the dense simplex once refused (over 200 variables) now certify."""
        for n, k, m in ((30, 9, 3.0), (200, 20, 50.0)):
            report = certify(make_zipf(n, 1.0), k, m)
            assert abs(report.gap) <= 1e-8, (n, k, m)
            assert report.ok, (n, k, m)


def dual_instances():
    """Small instances for the dual-against-simplex check, degenerate ones included.

    Random custom popularity at M = 0, N, one random decimal and M = n_o j / K
    (integral K M / n_o), K = 1, and step popularity with equal-probability
    ties, where the dual's envelope has flat pieces and mu* is not unique.
    """
    rng = np.random.default_rng(1912)
    for _ in range(80):
        n = int(rng.integers(1, 7))
        k = int(rng.integers(1, 6))
        model = make_custom(random_popularity(rng, n))
        n_o, j = int(rng.integers(1, n + 1)), int(rng.integers(0, k + 1))
        for m in (0.0, float(n), round(float(rng.uniform(0, n)), 1), n_o * j / k):
            yield model, k, m
    for n in range(1, 7):
        for m in np.arange(0.0, n + 0.001, 0.5):
            yield make_zipf(n, 1.1), 1, float(m)
    for levels in ([(0.3, 2), (0.1, 4)], [(0.25, 4)], [(0.4, 1), (0.15, 4)], [(0.2, 3), (0.1, 4)]):
        model = make_step(levels)
        for k in (2, 3, 4):
            for n_o in range(1, model.n_files + 1):
                yield model, k, n_o * int(rng.integers(0, k + 1)) / k


class TestDual:
    def test_matches_simplex(self):
        count = 0
        for model, k, m in dual_instances():
            report = certify(model, k, m)
            _, value = lp_vertex(model, k, m)
            assert abs(report.lp_rate - value) <= 1e-9, (model.probs, k, m)
            assert report.ok, (model.probs, k, m)
            count += 1
        assert count >= 200

    def test_certificate_matches_definition(self):
        """(lambda_1, mu) satisfies every dual constraint of the simplex's LP."""
        model, k, m = make_zipf(7, 0.9), 4, 2.3
        report = certify(model, k, m)
        lp = build_p2(model, k, m, coeffs_for(model, k))
        # equality duals: lambda_1, then lambda_n = g_{n,0}, then mu
        y_eq = np.concatenate(([report.lambda_1], coeffs_for(model, k).g[1:, 0], [report.mu]))
        reduced = lp.objective - lp.a_eq.T @ y_eq
        # every reduced cost must be met by nonnegative multipliers of the >= rows
        y_ge, residual, *_ = np.linalg.lstsq(lp.a_ge.T, reduced, rcond=None)
        assert np.allclose(lp.a_ge.T @ y_ge, reduced, atol=1e-9)
        assert y_ge.min() >= -1e-9
        assert report.lp_rate == pytest.approx(float(lp.b_eq @ y_eq), abs=1e-12)

    def test_large_instance_is_fast(self):
        model = make_zipf(1000, 1.0)
        coeffs = coeffs_for(model, 30)
        start = time.perf_counter()
        lambda_1, mu = dual_optimum(coeffs, 250.0)
        assert time.perf_counter() - start < 0.5
        assert np.isfinite(lambda_1) and np.isfinite(mu)


@seed(1907)
@settings(max_examples=150, deadline=None, database=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_weak_duality_against_random_placements(n, k, rng_seed):
    """The dual value never exceeds the rate of any feasible placement."""
    rng = np.random.default_rng(rng_seed)
    model = make_custom(random_popularity(rng, n))
    a, _ = random_popularity_first_placement(rng, n, k)
    placement = PlacementMatrix(n, k, a)
    m = min(placement.cache_used(), float(n))
    report = certify(model, k, m)
    assert report.dual_feasible
    assert report.lp_rate <= average_rate(placement, coeffs_for(model, k)) + 1e-9
