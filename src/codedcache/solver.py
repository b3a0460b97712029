"""Optimal cache placement via closed-form candidates.

The optimal placement partitions files into at most three groups (most /
moderately / non-popular), each group sharing one placement row with at
most two nonzero entries.  Every admissible group structure has a closed
form in the parameters (n_o, n_1, l_o, l_1); the global optimum is the
minimum-rate candidate over all of them:

  * extended two-group with an uncached tail (``algorithm1``): files
    1..n_o get the symmetric placement of an n_o-file system, the rest
    stay at the server; n_o = N is the one-group case;
  * two groups where the tail is partly cached (``algorithm2``): either
    both groups use the same subset size l_o (case 2.i) or the first
    group adds a second size l_1 (case 2.ii);
  * three groups (``algorithm3``): the two-group solution on the first
    n_1 files with every formula's N replaced by n_1, plus an uncached
    third group.

Each family's entries and feasibility conditions are written once, as
array expressions over broadcast tuples (n_o, n_eff, l_o, l_1), with
n_eff = N for two groups and n_1 for three.  A search masks infeasible
tuples and picks the winner by the set rule of ``TIE_TOL``; only the
winner is materialized.  ``algorithm1/2/3`` search every tuple of their
family.  ``algorithm4`` searches all three, but the LP dual
(``solve_dual``) limits it to O(N K) tuples instead of O(N^2 K^2); it
solves the dual once and returns it with the winner, as the certificate
``lp_oracle.certify`` reads.
"""

from __future__ import annotations

import bisect
import enum
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .errors import InfeasibleCaseError, InvalidParameterError
from .placement import (
    PlacementMatrix,
    RateCoefficients,
    analyze_groups,
    partition_weights,
    rate_coefficients,
)
from .popularity import PopularityModel, order_stats

#: Rates closer than this are treated as tied.  The winner is a set rule:
#: among all feasible candidates with rate <= min + TIE_TOL, the smallest
#: key (nominal groups, n_o, n_1, l_o, l_1), with absent entries sorting
#: last and, on an equal key, the earlier ``PlacementCase``.
TIE_TOL = 1e-12
#: Entries this close to a degenerate boundary make a candidate collapse
#: into a simpler structure; such tuples are skipped, not clamped.
STRICT_TOL = 1e-12
#: A dual line is tight when its slack is at most this share of
#: max(1, |lambda_1| + |mu| M).  A candidate in the set rule's window is
#: within TIE_TOL of the optimum, which meets the dual value up to
#: rounding, so one of its two lines has slack <= 2 TIE_TOL plus rounding
#: (see ``algorithm4``).  Any larger tolerance keeps the winner exact and
#: only adds candidates; ``algorithm4`` checks the premise on every call.
TIGHT_TOL = 1e-9

_ABSENT = 10**9  # stands in for an absent tuple entry in a key


class PlacementCase(str, enum.Enum):
    ONE_GROUP = "one_group"
    TWO_GROUP_ZERO_TAIL = "two_group_zero_tail"
    TWO_GROUP_CASE2I = "two_group_case2i"
    TWO_GROUP_CASE2II = "two_group_case2ii"
    THREE_GROUP_CASE1 = "three_group_case1"
    THREE_GROUP_CASE2 = "three_group_case2"


_NOMINAL_GROUPS = {
    PlacementCase.ONE_GROUP: 1,
    PlacementCase.TWO_GROUP_ZERO_TAIL: 2,
    PlacementCase.TWO_GROUP_CASE2I: 2,
    PlacementCase.TWO_GROUP_CASE2II: 2,
    PlacementCase.THREE_GROUP_CASE1: 3,
    PlacementCase.THREE_GROUP_CASE2: 3,
}
#: Keys store a case as its declaration index.
_CASES = tuple(PlacementCase)
_INDEX = {case: index for index, case in enumerate(_CASES)}
_GROUPS = np.array([_NOMINAL_GROUPS[case] for case in _CASES])


@dataclass(frozen=True)
class CandidateSolution:
    """A placement candidate with its generating tuple and average rate."""

    placement: PlacementMatrix
    rate: float
    case_id: PlacementCase
    n_o: int | None = None
    n_1: int | None = None
    l_o: int | None = None
    l_1: int | None = None
    dual: Dual | None = field(default=None, compare=False, repr=False)  # set by algorithm4 only

    @property
    def groups(self) -> int:
        return analyze_groups(self.placement).group_count

    @property
    def first_group_size(self) -> int:
        """n_o, with the one-group case counting all N files."""
        return self.n_o if self.n_o is not None else self.placement.n_files

    def to_json_dict(self) -> dict:
        return {
            "case": self.case_id.value,
            "n_o": self.n_o,
            "n_1": self.n_1,
            "l_o": self.l_o,
            "l_1": self.l_1,
            "rate": self.rate,
            "groups": self.groups,
            "placement": self.placement.to_json_dict(),
        }


# ---------------------------------------------------------------------------
# Closed forms


class _Rows(NamedTuple):
    """Entries of a candidate placement, as scalars or broadcast arrays.

    Files 1..n_o share row1: x at subset size s and y at t.  Files
    n_o+1..n_eff share row2: z at s and the server share w.  Files beyond
    n_eff stay at the server.
    """

    n_o: object
    n_eff: object
    s: object
    t: object
    x: object
    y: object
    z: object
    w: object


def _zero_tail(k: int, m: float, n_o):
    """Feasibility and rows of the first n_o files holding the whole cache.

    They share the symmetric row of an n_o-file system: with v = K*m/n_o
    it splits over the adjacent subset sizes floor(v) and floor(v)+1, and
    integral v collapses to one entry.  The head must hold the cache,
    m <= n_o; n_o = N is the one-group case.
    """
    v = k * m / n_o
    lo = np.minimum(np.floor(v), k).astype(np.int64)
    hi = np.minimum(lo + 1, k)
    binoms = partition_weights(k)
    x = (1.0 + lo - v) / binoms[lo]
    y = np.where((lo < k) & (v > lo), (v - lo) / binoms[hi], 0.0)
    return m <= n_o, _Rows(n_o, n_o, lo, hi, x, y, 0.0, 0.0)


def _case2i(k: int, m: float, n_eff, n_o, l_o):
    """Feasibility and rows when both groups share the subset size l_o (case 2.i).

    l_o must lie in the window floor(K*m/n_eff) < l_o < K*m/n_o, and the
    second group's share of the first group's entry strictly inside (0, 1).
    """
    km = k * m
    ratio = km / (l_o * n_eff)  # fraction of each file the first group caches
    share = n_o / n_eff
    frac = (ratio - share) / (1.0 - share)
    ok = (
        (np.floor(km / n_eff) + 1 <= l_o)
        & (l_o <= np.minimum(k, np.ceil(km / n_o) - 1))
        & (STRICT_TOL < frac)
        & (frac < 1.0 - STRICT_TOL)
    )
    binom = partition_weights(k)[l_o]
    row2_server = (1.0 - ratio) / (1.0 - share)
    return ok, _Rows(n_o, n_eff, l_o, l_o, 1.0 / binom, 0.0, frac / binom, row2_server)


def _case2ii(k: int, m: float, n_eff, n_o, l_o, l_1):
    """Feasibility and rows when the first group adds a second size l_1 (case 2.ii).

    Admissible when l_o != l_1 and either l_o > K*m/n_eff, l_1 < K*m/n_o
    (C1) or l_o < K*m/n_eff, l_1 > K*m/n_o (C2); the tuple must not be
    singular (l_1*n_o = l_o*n_eff) and every nominally positive entry must
    exceed STRICT_TOL.
    """
    km = k * m
    admissible = (l_1 != l_o) & (
        ((l_o > km / n_eff) & (l_1 < km / n_o)) | ((l_o < km / n_eff) & (l_1 > km / n_o))
    )
    q = np.divide(l_1 * n_o, l_o * n_eff)
    denom = 1.0 - q
    ratio = km / (l_o * n_eff)
    binoms = partition_weights(k)
    with np.errstate(divide="ignore", invalid="ignore"):  # singular tuples are masked
        a_lo = (ratio - q) / denom / binoms[l_o]
        a_0 = (1.0 - ratio) / denom
        a_l1 = a_0 / binoms[l_1]
    ok = (
        admissible
        & (np.abs(denom) >= STRICT_TOL)
        & (a_lo > STRICT_TOL)
        & (a_l1 > STRICT_TOL)
        & (a_0 > STRICT_TOL)
    )
    return ok, _Rows(n_o, n_eff, l_o, l_1, a_lo, a_l1, a_lo, a_0)


def _rate(pref: np.ndarray, r: _Rows):
    """sum_{n,l} g_{n,l} a_{n,l} of the rows; pref[i] sums the first i rows of g."""
    return (
        pref[r.n_o, r.s] * r.x
        + pref[r.n_o, r.t] * r.y
        + (pref[r.n_eff, r.s] - pref[r.n_o, r.s]) * r.z
        + (pref[r.n_eff, 0] - pref[r.n_o, 0]) * r.w
        + (pref[-1, 0] - pref[r.n_eff, 0])
    )


def _matrix(n: int, k: int, r: _Rows) -> PlacementMatrix:
    a = np.zeros((n, k + 1))
    a[: r.n_o, r.s] = r.x
    a[: r.n_o, r.t] += r.y
    a[r.n_o : r.n_eff, r.s] = r.z
    a[r.n_o : r.n_eff, 0] = r.w
    a[r.n_eff :, 0] = 1.0
    return PlacementMatrix(n, k, a)


def _check_tuple(n_files: int, k_users: int, n_o: int, *sizes: int) -> None:
    if not 1 <= n_o <= n_files - 1:
        raise InvalidParameterError(f"n_o={n_o} outside 1..{n_files - 1}")
    if not all(1 <= size <= k_users for size in sizes):
        raise InfeasibleCaseError(f"cache-subgroup sizes {sizes} must lie in 1..{k_users}")


def one_group_placement(n_files: int, k_users: int, cache: float) -> PlacementMatrix:
    """Identical rows for all files (the uniform-popularity optimum)."""
    if not 0.0 <= cache <= n_files:
        raise InvalidParameterError(f"cache size {cache!r} outside [0, {n_files}]")
    _, rows = _zero_tail(k_users, cache, n_files)
    return _matrix(n_files, k_users, rows)


def case2i_placement(
    n_files: int, k_users: int, cache: float, n_o: int, l_o: int
) -> PlacementMatrix:
    """Two-group placement with a shared subset size (case 2.i)."""
    _check_tuple(n_files, k_users, n_o, l_o)
    ok, rows = _case2i(k_users, cache, n_files, n_o, l_o)
    if not ok:
        raise InfeasibleCaseError(f"(n_o={n_o}, l_o={l_o}) is not a feasible case-2.i tuple")
    return _matrix(n_files, k_users, rows)


def case2ii_placement(
    n_files: int, k_users: int, cache: float, n_o: int, l_o: int, l_1: int
) -> PlacementMatrix:
    """Two-group placement with an extra subset size in the first group (case 2.ii)."""
    _check_tuple(n_files, k_users, n_o, l_o, l_1)
    ok, rows = _case2ii(k_users, cache, n_files, n_o, l_o, l_1)
    if not ok:
        raise InfeasibleCaseError(
            f"(n_o={n_o}, l_o={l_o}, l_1={l_1}) is not a feasible case-2.ii tuple"
        )
    return _matrix(n_files, k_users, rows)


# ---------------------------------------------------------------------------
# LP dual


class Dual(NamedTuple):
    """The exact optimum (lambda_1, mu) of the placement LP's dual, its value and slacks.

    The placement LP (``lp_oracle.build_p2``) has a free a_{n,0} for every
    n >= 2, in one partition row only, so its dual is lambda_n = g_{n,0}
    (= K p_n).  Summing the dual constraints of a_{1,l} .. a_{n,l} leaves
    one line in mu per (n, l), n = 1..N and l = 1..K:
    lambda_1 <= G_{n,l} / C(K,l) - S_n - (n l / K) mu, where
    G_{n,l} = sum_{i<=n} g_{i,l} and S_n = sum_{i=2..n} g_{i,0}.  ``slack``
    holds these lines' slacks (row n-1, column l-1), ``slack_0`` that of
    lambda_1 <= g_{1,0}, and ``value`` is lambda_1 + sum_{n>=2} g_{n,0} + mu M.
    """

    lambda_1: float
    mu: float
    value: float
    slack: np.ndarray
    slack_0: float


def solve_dual(coeffs: RateCoefficients, cache: float) -> Dual:
    """(lambda_1, mu) maximizing lambda_1 + mu M under the dual's N K + 1 lines.

    With the line lambda_1 <= g_{1,0} of slope 0, the feasible lambda_1
    is the lower envelope of the lines in mu.  The sweep keeps the lowest
    intercept per slope, builds the envelope in slope order, and stops at
    the breakpoint where the envelope's slope passes M: the objective
    rises with mu along pieces of slope below M and falls after.
    """
    g = coeffs.g
    rest = np.concatenate(([0.0], np.cumsum(g[1:, 0])))
    intercepts = np.cumsum(g[:, 1:], axis=0) / coeffs.b[1:] - rest[:, None]
    n, k = coeffs.n_files, coeffs.k_users
    slopes = np.outer(np.arange(1, n + 1), np.arange(1, k + 1)) / k
    order = np.lexsort((intercepts.ravel(), slopes.ravel()))
    by_slope, by_intercept = slopes.ravel()[order], intercepts.ravel()[order]
    first = np.flatnonzero(np.diff(by_slope, prepend=0.0))  # lowest intercept per slope
    xs, ys = [0.0], [float(g[0, 0])]  # the envelope's lines as (slope, intercept)
    for s, c in zip(by_slope[first].tolist(), by_intercept[first].tolist()):
        # drop the last line while it is nowhere below its neighbours
        while len(xs) >= 2 and (xs[-1] - xs[-2]) * (c - ys[-2]) <= (ys[-1] - ys[-2]) * (s - xs[-2]):
            xs.pop()
            ys.pop()
        xs.append(s)
        ys.append(c)
    i = min(bisect.bisect_right(xs, cache), len(xs) - 1) - 1
    mu = (ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i])  # where lines i and i + 1 cross
    lambda_1 = ys[i] - xs[i] * mu
    value = lambda_1 + float(np.sum(g[1:, 0])) + mu * cache
    return Dual(lambda_1, mu, value, intercepts - slopes * mu - lambda_1, float(g[0, 0] - lambda_1))


# ---------------------------------------------------------------------------
# Candidate search


def _near_minimum(found, pref, ok, rows: _Rows, case, n_1, l_1) -> list[tuple[float, tuple]]:
    """(rate, key) of a block's feasible candidates within TIE_TOL of its minimum.

    A block is one family's broadcast; keys take n_o and l_o (the subset
    size s of every family) from its rows.  The set rule needs no more: a
    candidate within TIE_TOL of the overall minimum is within TIE_TOL of
    its own block's minimum, and a block whose minimum exceeds every rate
    already ``found`` by more than TIE_TOL holds none.
    """
    rate = np.where(ok, _rate(pref, rows), np.inf)
    low = rate.min(initial=np.inf)
    if low == np.inf or low > min((r for r, _ in found), default=np.inf) + TIE_TOL:
        return []
    hits = rate <= low + TIE_TOL
    columns = np.broadcast_arrays(rate, _GROUPS[case], rows.n_o, n_1, rows.s, l_1, case)
    return [(value, tuple(key)) for value, *key in zip(*(c[hits].tolist() for c in columns))]


def _candidate(n: int, k: int, m: float, rate: float, key: tuple) -> CandidateSolution:
    """Materialize the winning key from the same closed forms, on scalars."""
    _, n_o, n_1, l_o, l_1, case = key
    n_eff = n if n_1 == _ABSENT else n_1
    if _CASES[case] in (PlacementCase.ONE_GROUP, PlacementCase.TWO_GROUP_ZERO_TAIL):
        _, rows = _zero_tail(k, m, n_o)
    elif l_1 == _ABSENT:
        _, rows = _case2i(k, m, n_eff, n_o, l_o)
    else:
        _, rows = _case2ii(k, m, n_eff, n_o, l_o, l_1)
    return CandidateSolution(
        _matrix(n, k, rows), rate, _CASES[case], n_o,
        None if n_1 == _ABSENT else n_1, l_o, None if l_1 == _ABSENT else l_1,
    )


def _check_cache(model, cache) -> None:
    if not 0.0 <= cache <= model.n_files:
        raise InvalidParameterError(f"cache size {cache!r} outside [0, {model.n_files}]")


def _search(
    model: PopularityModel,
    k: int,
    m: float,
    coeffs: RateCoefficients | None,
    *,
    zero_tail: bool = False,
    two_group: bool = False,
    three_group: bool = False,
    tight: tuple[np.ndarray, np.ndarray] | None = None,
) -> CandidateSolution | None:
    """Set-rule winner over the requested families, or None when none is feasible.

    The three-group family runs the two-group closed forms on the first
    n_1 files, and case 2.ii follows case 2.i in ``PlacementCase``.  The
    cached groups must jointly hold at least the cache worth of files, so
    n_1 ranges over max(2, floor(M) + 1)..N-1.  Every tuple is evaluated,
    one n_eff at a time, unless ``tight`` gives the n and l of the tight
    dual lines: then only the two- and three-group tuples that weigh one
    of them are (see ``algorithm4``).  Tuples need n_o < n_eff.
    """
    _check_cache(model, m)
    if coeffs is None:
        coeffs = rate_coefficients(model, order_stats(model, k))
    n = model.n_files
    pref = np.zeros((n + 1, k + 1))
    np.cumsum(coeffs.g, axis=0, out=pref[1:])
    n_effs = ([n] if two_group else []) + (
        list(range(max(2, math.floor(m) + 1), n)) if three_group else []
    )
    sizes = np.arange(1, k + 1)
    if tight is None:
        blocks = [block for n_eff in n_effs for block in (
            (np.arange(1, n_eff)[:, None], n_eff, sizes),
            (np.arange(1, n_eff)[:, None, None], n_eff, sizes[:, None], sizes),
        )]
    else:
        t_n, t_l = tight[0][:, None], tight[1][:, None]
        on_eff = np.isin(tight[0], n_effs)
        e_n, e_l = t_n[on_eff], t_l[on_eff]
        heads, effs = np.arange(1, n), np.array(n_effs)
        blocks = [  # (n_eff, l_o) tight, n_o and l_1 free
            (heads, e_n, e_l), (heads[:, None], e_n[..., None], e_l[..., None], sizes),
            # (n_o, l_o) resp. (n_o, l_1) tight, n_eff and l_o free
            (t_n, effs, t_l), (t_n[..., None], effs[:, None], sizes, t_l[..., None]),
        ]
    found = []
    with np.errstate(divide="ignore", invalid="ignore"):  # rates of masked tuples
        if zero_tail:
            n_o = np.arange(1, n + 1)
            ok, rows = _zero_tail(k, m, n_o)
            case = np.where(
                n_o == n, _INDEX[PlacementCase.ONE_GROUP], _INDEX[PlacementCase.TWO_GROUP_ZERO_TAIL]
            )
            found += _near_minimum(found, pref, ok, rows, case, _ABSENT, _ABSENT)
        for n_o, n_eff, l_o, *l_1 in blocks:  # case 2.ii blocks carry l_1
            n_1 = np.where(n_eff == n, _ABSENT, n_eff)
            case = np.where(n_eff == n, _INDEX[PlacementCase.TWO_GROUP_CASE2I],
                            _INDEX[PlacementCase.THREE_GROUP_CASE1]) + len(l_1)
            ok, rows = _case2ii(k, m, n_eff, n_o, l_o, *l_1) if l_1 else _case2i(k, m, n_eff, n_o, l_o)
            ok &= n_o < n_eff
            found += _near_minimum(found, pref, ok, rows, case, n_1, rows.t if l_1 else _ABSENT)
    if not found:
        return None
    low = min(rate for rate, _ in found)
    rate, key = min((c for c in found if c[0] <= low + TIE_TOL), key=lambda c: c[1])
    return _candidate(n, k, m, rate, key)


def algorithm1(
    model: PopularityModel, k_users: int, cache: float, *, coeffs: RateCoefficients | None = None
) -> CandidateSolution:
    """Best candidate of the zero-tail family (one group included as n_o = N)."""
    return _search(model, k_users, cache, coeffs, zero_tail=True)


def algorithm2(
    model: PopularityModel, k_users: int, cache: float, *, coeffs: RateCoefficients | None = None
) -> CandidateSolution | None:
    """Best strict two-group candidate with a partly cached tail, or None."""
    return _search(model, k_users, cache, coeffs, two_group=True)


def algorithm3(
    model: PopularityModel, k_users: int, cache: float, *, coeffs: RateCoefficients | None = None
) -> CandidateSolution | None:
    """Best three-group candidate, or None when the n_1 range (see ``_search``) is empty."""
    return _search(model, k_users, cache, coeffs, three_group=True)


def algorithm4(
    model: PopularityModel, k_users: int, cache: float, *, coeffs: RateCoefficients | None = None
) -> CandidateSolution:
    """Global optimum: the set-rule winner over all three families, found from the LP dual.

    With u_{n,l} = C(K,l) (a_{n,l} - a_{n+1,l}) and a_{N+1,l} = 0, a
    placement meeting the partition and cache equalities is a convex
    combination of the dual's points (n l / K, G_{n,l} / C(K,l) - S_n) and
    (0, g_{1,0}), with weights u_{n,l} and a_{1,0}.  So for any optimal
    (lambda_1, mu), its rate minus the dual value D is
    a_{1,0} slack_0 + sum u_{n,l} slack_{n,l}.  A two- or three-group
    candidate has a_{1,0} = 0 and weight on two points only: (n_o, l_o)
    and (n_eff, l_o) in case 2.i, (n_o, l_1) and (n_eff, l_o) in case
    2.ii.  One carries weight >= 1/2, so a candidate within delta of D
    has a line with slack <= 2 delta.

    Hence the search evaluates the zero-tail family whole and the two- and
    three-group tuples with a point on a tight line.  When the winner
    found has 4 (rate - D + TIE_TOL) <= the scaled TIGHT_TOL, every
    candidate in the set rule's window has a line with at most half that
    slack, so all of them were evaluated and the winner is the full
    search's, bit for bit; otherwise the full search runs.  Either way the
    winner carries the dual as ``dual``.
    """
    _check_cache(model, cache)
    if coeffs is None:
        coeffs = rate_coefficients(model, order_stats(model, k_users))
    dual = solve_dual(coeffs, cache)
    tol = TIGHT_TOL * max(1.0, abs(dual.lambda_1) + abs(dual.mu) * cache)
    tight_n, tight_l = np.nonzero(dual.slack <= tol)
    families = {"zero_tail": True, "two_group": True, "three_group": True}
    best = _search(model, k_users, cache, coeffs, tight=(tight_n + 1, tight_l + 1), **families)
    if 4.0 * (best.rate - dual.value + TIE_TOL) > tol:
        best = _search(model, k_users, cache, coeffs, **families)
    return replace(best, dual=dual)
