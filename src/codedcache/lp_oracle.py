"""Optimality certification from the LP dual, the dense simplex that
cross-checks it, and the checks of ``codedcache verify``.

The placement problem is a linear program (``build_p2``): minimize the
rate functional subject to per-file partition equalities, the global
cache equality, popularity-first ordering, and the reduced sign
constraints (last row's cached entries and the first file's server share;
the rest of the nonnegativity is implied by the ordering).  Its dual has
two free variables; ``solver.solve_dual`` solves it exactly at any size,
``algorithm4`` searches from it and returns it with the winner, and
``certify`` reads that certificate.  The dense two-phase simplex
(``solve``) shares no code with the dual or the closed-form search and is
the tests' independent reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .delivery import (
    decode,
    minimal_file_size,
    monte_carlo_rate,
    random_library,
    realize,
    sample_demands,
    serve,
)
from .errors import DecodeError, SolverStalledError
from .placement import (
    ZERO_TOL,
    RateCoefficients,
    analyze_groups,
    cache_weights,
    partition_weights,
    subpacketization,
    worst_case_subpacketization_bound,
)
from .popularity import PopularityModel
from .solver import CandidateSolution, algorithm4, check_cache

PIVOT_TOL = 1e-9
OPT_TOL = 1e-8
MAX_ITERATIONS = 10**6
#: A dual inequality may be violated by at most this share of max(1, rate).
DUAL_TOL = 1e-9


@dataclass(frozen=True)
class LinearProgram:
    """min objective @ x  s.t.  a_eq @ x = b_eq,  a_ge @ x >= b_ge (x free)."""

    n_vars: int
    objective: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    a_ge: np.ndarray
    b_ge: np.ndarray

    def dump_text(self) -> str:
        """Plain-text standard form for external cross-checks."""

        def row(coeffs):
            return " ".join(f"{v:.12g}" for v in coeffs)

        lines = [f"vars {self.n_vars}", f"minimize {row(self.objective)}"]
        lines += [f"eq {row(a)} = {b:.12g}" for a, b in zip(self.a_eq, self.b_eq)]
        lines += [f"ge {row(a)} >= {b:.12g}" for a, b in zip(self.a_ge, self.b_ge)]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class LpSolution:
    values: np.ndarray
    objective_value: float
    status: str  # "optimal" | "infeasible" | "unbounded"


def build_p2(
    model: PopularityModel, k_users: int, cache: float, coeffs: RateCoefficients
) -> LinearProgram:
    """The placement LP over variables x[n * (K+1) + l] = a_{n,l}."""
    n, k = model.n_files, k_users
    check_cache(n, cache)
    width = k + 1
    n_vars = n * width

    a_eq = np.zeros((n + 1, n_vars))
    b_eq = np.zeros(n + 1)
    binoms = partition_weights(k)
    for i in range(n):  # partition: each file's subfiles add up to the file
        a_eq[i, i * width : (i + 1) * width] = binoms
        b_eq[i] = 1.0
    a_eq[n] = np.tile(cache_weights(k), n)  # cache memory fully used
    b_eq[n] = cache

    rows = []
    for i in range(n - 1):  # popularity-first: a_{n,l} >= a_{n+1,l}, l >= 1
        for l in range(1, width):
            row = np.zeros(n_vars)
            row[i * width + l] = 1.0
            row[(i + 1) * width + l] = -1.0
            rows.append(row)
    for l in range(1, width):  # reduced sign constraints
        row = np.zeros(n_vars)
        row[(n - 1) * width + l] = 1.0
        rows.append(row)
    row = np.zeros(n_vars)
    row[0] = 1.0
    rows.append(row)
    a_ge = np.array(rows)
    b_ge = np.zeros(len(rows))

    return LinearProgram(n_vars, coeffs.g.reshape(-1).copy(), a_eq, b_eq, a_ge, b_ge)


class _Tableau:
    """Dense simplex tableau with Bland's anti-cycling rule."""

    def __init__(self, a: np.ndarray, b: np.ndarray, basis: list[int]):
        self.a = a
        self.b = b
        self.basis = basis
        self.iterations = 0

    def run(self, cost: np.ndarray, max_iter: int) -> str:
        while True:
            if self.iterations >= max_iter:
                raise SolverStalledError(f"simplex exceeded {max_iter} iterations")
            self.iterations += 1
            reduced = cost - cost[self.basis] @ self.a
            entering = -1
            for j in np.flatnonzero(reduced < -OPT_TOL):  # Bland: lowest index enters
                if j not in self.basis:
                    entering = int(j)
                    break
            if entering < 0:
                return "optimal"
            col = self.a[:, entering]
            eligible = np.flatnonzero(col > PIVOT_TOL)
            if eligible.size == 0:
                return "unbounded"
            ratios = self.b[eligible] / col[eligible]
            rmin = ratios.min()
            near = eligible[ratios <= rmin + 1e-10 * (1.0 + abs(rmin))]
            leave = int(min(near, key=lambda i: self.basis[i]))  # Bland: lowest basic var leaves
            self._pivot(leave, entering)

    def _pivot(self, row: int, col: int) -> None:
        pivot = self.a[row, col]
        self.a[row] /= pivot
        self.b[row] /= pivot
        factors = self.a[:, col].copy()
        factors[row] = 0.0
        self.a -= np.outer(factors, self.a[row])
        self.b -= factors * self.b[row]
        self.basis[row] = col


def solve(lp: LinearProgram, max_iter: int = MAX_ITERATIONS) -> LpSolution:
    """Two-phase primal simplex; free variables are split as x = u - v."""
    n = lp.n_vars
    m_eq, m_ge = lp.a_eq.shape[0], lp.a_ge.shape[0]
    m = m_eq + m_ge
    # columns: u (n) | v (n) | surplus (m_ge) | artificials (m)
    a = np.zeros((m, 2 * n + m_ge + m))
    b = np.concatenate([lp.b_eq, lp.b_ge]).astype(float)
    a[:m_eq, :n] = lp.a_eq
    a[:m_eq, n : 2 * n] = -lp.a_eq
    a[m_eq:, :n] = lp.a_ge
    a[m_eq:, n : 2 * n] = -lp.a_ge
    a[m_eq:, 2 * n : 2 * n + m_ge] = -np.eye(m_ge)
    neg = b < 0.0
    a[neg] *= -1.0
    b[neg] *= -1.0
    art0 = 2 * n + m_ge
    a[:, art0:] = np.eye(m)

    tableau = _Tableau(a, b, list(range(art0, art0 + m)))
    phase1_cost = np.zeros(a.shape[1])
    phase1_cost[art0:] = 1.0
    tableau.run(phase1_cost, max_iter)
    if float(phase1_cost[tableau.basis] @ tableau.b) > 1e-7:
        return LpSolution(np.full(n, np.nan), float("nan"), "infeasible")

    # Drive leftover zero-level artificials out of the basis; drop rows that
    # turn out redundant.
    keep = []
    for i in range(m):
        if tableau.basis[i] < art0:
            keep.append(i)
            continue
        pivots = np.flatnonzero(np.abs(tableau.a[i, :art0]) > PIVOT_TOL)
        if pivots.size:
            tableau._pivot(i, int(pivots[0]))
            keep.append(i)
    if len(keep) < m:
        tableau.a = tableau.a[keep]
        tableau.b = tableau.b[keep]
        tableau.basis = [tableau.basis[i] for i in keep]

    tableau.a = tableau.a[:, :art0]
    phase2_cost = np.concatenate([lp.objective, -lp.objective, np.zeros(m_ge)])
    status = tableau.run(phase2_cost, max_iter)
    if status == "unbounded":
        return LpSolution(np.full(n, np.nan), float("-inf"), "unbounded")

    full = np.zeros(art0)
    full[tableau.basis] = tableau.b
    x = full[:n] - full[n : 2 * n]
    return LpSolution(x, float(lp.objective @ x), "optimal")


@dataclass(frozen=True)
class CertificationReport:
    """The candidate's rate against the dual value ``lp_rate`` at (lambda_1, mu).

    By strong duality ``lp_rate`` is the LP optimum.  With ``dual_slack``
    (the least slack of any dual inequality) and ``primal_violations``
    clean, ``gap`` bounds the candidate's suboptimality.
    """

    lp_rate: float
    alg_rate: float
    gap: float
    candidate: CandidateSolution
    lambda_1: float
    mu: float
    dual_slack: float
    primal_violations: tuple[str, ...]

    @property
    def dual_feasible(self) -> bool:
        return self.dual_slack >= -DUAL_TOL * max(1.0, abs(self.lp_rate))

    @property
    def ok(self) -> bool:
        return abs(self.gap) <= OPT_TOL and self.dual_feasible and not self.primal_violations


def certify(model: PopularityModel, k_users: int, cache: float) -> CertificationReport:
    """Certify the closed-form optimum with the exact LP dual ``algorithm4`` searched from."""
    candidate = algorithm4(model, k_users, cache)
    dual = candidate.dual
    return CertificationReport(
        lp_rate=dual.value,
        alg_rate=candidate.rate,
        gap=candidate.rate - dual.value,
        candidate=candidate,
        lambda_1=dual.lambda_1,
        mu=dual.mu,
        dual_slack=float(min(dual.slack_0, dual.slack.min())),
        primal_violations=tuple(candidate.placement.violations(cache)),
    )


@dataclass(frozen=True)
class Check:
    """One named check of ``verify_instance``: its outcome and a short detail."""

    name: str
    ok: bool
    detail: str


def verify_instance(
    model: PopularityModel, k_users: int, cache: float, *, trials: int, seed: int, demands: int
) -> list[Check]:
    """Certify, simulate and decode one instance; returns its checks in order.

    The structural results (at most three file groups, at most two
    nonzero entries per row, cache equality, subpacketization within the
    worst-case bound) are checked on the closed-form candidate. ``lp_gap``
    and ``dual_feasibility`` together certify it LP-optimal: it is
    primal feasible, (lambda_1, mu) satisfies every dual inequality, and
    the two objectives meet.
    """
    report = certify(model, k_users, cache)
    placement = report.candidate.placement
    groups = analyze_groups(placement).group_count
    nonzeros = int(np.max(np.sum(placement.level_shares() > ZERO_TOL, axis=1)))
    residual = placement.cache_used() - cache
    bound, _ = worst_case_subpacketization_bound(k_users)
    mc = monte_carlo_rate(placement, model, trials, seed)
    margin = 5.0 * mc.std_error + 1e-9 * k_users
    checks = [
        Check("lp_gap", abs(report.gap) <= OPT_TOL and not report.primal_violations,
              "; ".join([f"|gap|={abs(report.gap):.3e}", *report.primal_violations])),
        Check("file_groups<=3", groups <= 3, f"groups={groups}"),
        Check("row_nonzeros<=2", nonzeros <= 2, f"max={nonzeros}"),
        Check("cache_equality", abs(residual) <= 1e-9, f"residual={residual:.3e}"),
        Check("popularity_first", placement.is_popularity_first(), ""),
        Check("subpacketization_bound", subpacketization(placement).max_level <= bound, ""),
        Check("dual_feasibility", report.dual_feasible, f"slack={report.dual_slack:.3e}"),
        Check(
            "monte_carlo",
            abs(mc.mean_rate - report.alg_rate) <= margin,
            f"mc={mc.mean_rate:.6g} analytic={report.alg_rate:.6g} stderr={mc.std_error:.2g}",
        ),
    ]

    f_bits = minimal_file_size(placement)
    realization = realize(placement, random_library(model.n_files, f_bits, seed))
    try:
        for row in sample_demands(model, k_users, demands, seed + 1):
            transcript = serve(realization, row)
            for user in range(1, k_users + 1):
                decode(realization, transcript, user)
    except DecodeError as exc:
        return checks + [Check("bit_exact_decode", False, str(exc))]
    return checks + [Check("bit_exact_decode", True, f"{demands} demands, F={f_bits} bits")]
