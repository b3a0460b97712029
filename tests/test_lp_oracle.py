import itertools

import numpy as np
import pytest

from codedcache.errors import InstanceTooLargeError
from codedcache.lp_oracle import (
    LinearProgram,
    build_p2,
    certify,
    solve,
)
from codedcache.placement import ZERO_TOL, analyze_groups, rate_coefficients
from codedcache.popularity import make_custom, make_zipf, order_stats
from codedcache.solver import algorithm4, one_group_placement
from codedcache.placement import average_rate

from oracles import random_popularity


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


class TestCertify:
    def test_reference_instance_agrees(self):
        report = certify(make_zipf(9, 1.5), 7, 4.0)
        assert abs(report.gap) <= 1e-8
        # the LP vertex itself has the canonical structure
        lp = report.lp_placement
        assert analyze_groups(lp, tol=1e-7).group_count <= 3
        assert np.max(np.sum(lp.a > ZERO_TOL, axis=1)) <= 2

    def test_reference_instance_recovers_matrix(self):
        from golden import GOLDEN_PLACEMENTS

        report = certify(make_zipf(9, 1.5), 7, 4.0)
        assert np.max(np.abs(report.lp_placement.a - GOLDEN_PLACEMENTS[4.0])) < 5e-4

    def test_optimal_solution_satisfies_constraints(self):
        model = make_zipf(5, 1.3)
        lp = build_p2(model, 4, 2.5, coeffs_for(model, 4))
        sol = solve(lp)
        assert sol.status == "optimal"
        assert np.max(np.abs(lp.a_eq @ sol.values - lp.b_eq)) <= 1e-8
        assert np.min(lp.a_ge @ sol.values - lp.b_ge) >= -1e-8

    def test_three_groups_visible_in_lp_solution(self):
        report = certify(make_zipf(9, 1.5), 7, 2.5)
        assert analyze_groups(report.lp_placement, tol=1e-7).group_count == 3

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
            # weak duality: the candidate is feasible, so it cannot beat the LP
            assert report.alg_rate >= report.lp_rate - 1e-9
            # implied full nonnegativity and cache equality at the LP optimum
            assert report.lp_placement.a.min() >= -1e-8
            assert abs(report.lp_placement.cache_used() - m) <= 1e-8

    def test_size_guard(self):
        with pytest.raises(InstanceTooLargeError):
            certify(make_zipf(30, 1.0), 9, 3.0)
