"""Optimal cache placement via closed-form candidates.

The optimal placement partitions files into at most three groups (most /
moderately / non-popular), each group sharing one placement row with at
most two nonzero entries.  The global optimum is the minimum-rate
candidate over three families:

  * extended two-group with an uncached tail (``algorithm1``): files
    1..n_o get the symmetric placement of an n_o-file system, the rest
    stay at the server; n_o = N is the one-group case;
  * two groups where the tail is partly cached (``algorithm2``): either
    both groups use the same subset size l_o (case 2.i) or the first
    group adds a second size l_1 (case 2.ii);
  * three groups (``algorithm3``): the two-group solution on the first
    n_1 files, plus an uncached third group.

Every candidate is one closed form, ``_two_point``: the lever-rule mix
about x = M of two points of the LP dual, A = (n_eff, s) and
B = (n_o, t), where point (n, l) at x = n l / K caches the same share of
subsets of size l on files 1..n (see ``algorithm4``).  A zero-tail head
is n_o = n_eff with the adjacent sizes s = floor(K M / n_o) and s + 1;
a two- or three-group tuple (n_o, n_1, l_o, l_1) is n_eff = N or n_1,
s = l_o and t = l_1, with t = s in case 2.i.  The form is written once,
as an array expression over broadcast tuples.  A search masks infeasible
tuples and picks the winner by the set rule of ``TIE_TOL``; only the
winner is materialized, from the entries the search computed.
``algorithm1/2/3`` search every tuple of their family.  ``algorithm4``
searches all three, but the LP dual (``solve_dual``, a few vectorized
simplex pivots) limits it to the tuples whose two dual points pass a
slack filter, and it evaluates the closed form once per block of them.
It returns with the winner the dual, which ``lp_oracle.certify`` reads,
and ``algorithm1``'s winning rate from that same pass: one ``sweep``
grid point is one search.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatchError, InvalidParameterError
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
#: A two- or three-group candidate whose lever-rule weight of either dual
#: point is at most this collapses into a simpler structure; such tuples
#: are skipped, not clamped.  Like ``placement.ZERO_TOL`` it bounds a
#: weight, which is a level share C(K,l) a_{n,l}, not an entry: at K = 40
#: a weight of 0.1 can stand on entries below 1e-12.
STRICT_TOL = 1e-12
#: A dual line is tight when its slack is at most this share of
#: max(1, |lambda_1| + |mu| M), and its partner passes the slack filter
#: when its weighted slack is (see ``algorithm4``).  Any larger tolerance
#: keeps the winner exact and only adds candidates; ``algorithm4`` checks
#: the premise on every call.
TIGHT_TOL = 1e-9

_ABSENT = 10**9  # stands in for an absent tuple entry in a key
_SLICE = 1 << 16  # most pairs a slice of the slack filter weighs


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
    #: ``algorithm1``'s rate, from the same search; set by algorithm4 only
    alg1_rate: float | None = field(default=None, compare=False, repr=False)

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


def _heads(k: int, m: float, n_o) -> tuple:
    """Zero-tail tuples (n_o, n_o, s, t): s = floor(K m / n_o) and t = s + 1, both capped at K."""
    s = np.minimum(np.floor(k * m / n_o), k).astype(np.int64)
    return n_o, n_o, s, np.minimum(s + 1, k)


def _two_point(k: int, m: float, n_o, n_eff, s, t):
    """Feasibility and rows of the placement on the dual points A = (n_eff, s) and B = (n_o, t).

    Point (n, l), at x = n l / K, puts its weight over C(K,l) at subset
    size l on files 1..n.  The lever rule about x = M weighs A by
    w_A = (t n_o - K M) / (t n_o - s n_eff), an exact integer denominator,
    and B by w_B = 1 - w_A.  So files 1..n_eff hold w_A / C(K,s) at size s,
    files 1..n_o also w_B / C(K,t) at t (one entry 1 / C(K,s) when s = t),
    and files n_o+1..n_eff keep the server share w_B.  A zero-tail head
    (n_o = n_eff, see ``_heads``) is the symmetric row of an n_o-file
    system and must hold the cache, M <= n_o.  Any other pair needs both
    weights, which are level shares, above STRICT_TOL: that puts M strictly
    between x_A and x_B.
    """
    den = t * n_o - s * n_eff
    with np.errstate(divide="ignore", invalid="ignore"):  # singular pairs are masked
        w_a = np.where(den != 0, (t * n_o - k * m) / den, 1.0)
    w_b = 1.0 - w_a
    ok = np.where(n_o == n_eff, m <= n_o, (STRICT_TOL < w_a) & (STRICT_TOL < w_b))
    binoms = partition_weights(k)
    x = w_a / binoms[s]
    one = s == t
    y = np.where(one, 0.0, w_b / binoms[t])
    return ok, _Rows(n_o, n_eff, s, t, np.where(one, 1.0 / binoms[s], x), y, x, w_b)


def _rate(pref: np.ndarray, r: _Rows):
    """sum_{n,l} g_{n,l} a_{n,l} of the rows; pref[i] sums the first i rows of g."""
    flat, width = pref.ravel(), pref.shape[1]
    head, eff = r.n_o * width, r.n_eff * width
    head_s = flat[head + r.s]
    return (
        head_s * r.x
        + flat[head + r.t] * r.y
        + (flat[eff + r.s] - head_s) * r.z
        + (flat[eff] - flat[head]) * r.w
        + (flat[-width] - flat[eff])
    )


def _matrix(n: int, k: int, r: _Rows) -> PlacementMatrix:
    a = np.zeros((n, k + 1))
    a[: r.n_o, r.s] = r.x
    a[: r.n_o, r.t] += r.y
    a[r.n_o : r.n_eff, r.s] = r.z
    a[r.n_o : r.n_eff, 0] = r.w
    a[r.n_eff :, 0] = 1.0
    return PlacementMatrix(n, k, a)


def check_cache(n_files: int, cache: float) -> None:
    """Reject a cache size outside [0, N]."""
    if not 0.0 <= cache <= n_files:
        raise InvalidParameterError(f"cache size {cache!r} outside [0, {n_files}]")


def one_group_placement(n_files: int, k_users: int, cache: float) -> PlacementMatrix:
    """Identical rows for all files (the uniform-popularity optimum)."""
    check_cache(n_files, cache)
    _, rows = _two_point(k_users, cache, *_heads(k_users, cache, n_files))
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
    Each line is a point (n l / K, G_{n,l} / C(K,l) - S_n), and the optimum
    is the edge of the points' lower convex hull above x = M (``solve_dual``).
    """

    lambda_1: float
    mu: float
    value: float
    slack: np.ndarray
    slack_0: float


def _least(primary: np.ndarray, *ties: np.ndarray) -> int:
    """Index of the least entry of ``primary``, exact ties broken by ``ties`` in order."""
    hits = np.flatnonzero(primary == primary.min())
    if len(hits) > 1:
        hits = hits[np.lexsort([tie[hits] for tie in reversed(ties)])]
    return int(hits[0])


def solve_dual(coeffs: RateCoefficients, cache: float) -> Dual:
    """(lambda_1, mu) maximizing lambda_1 + mu M under the dual's N K + 1 lines.

    Line (n, l) is the point (x, c) = (n l / K, G_{n,l} / C(K,l) - S_n),
    and lambda_1 <= g_{1,0} the point (0, g_{1,0}).  The optimum is the
    edge of the points' lower convex hull above x = M: mu is its slope,
    lambda_1 its value at x = 0.  Simplex pivots find the edge, each one
    vectorized over the points.  From a left end L (x <= M) the right end
    is the point beyond M of least slope from L; from that right end the
    next left end is the point up to M of greatest slope to it.  Every
    pivot lowers the line's value at M or leaves it; the walk stops at the
    first that does not strictly lower it, so collinear points cannot
    cycle it.  Ties take the outermost point, so the ends are hull
    vertices.  M at a vertex takes the edge to its right, and M = N (the
    largest x) the last edge.
    """
    g = coeffs.g
    rest = np.concatenate(([0.0], np.cumsum(g[1:, 0])))
    n, k = coeffs.n_files, coeffs.k_users
    intercepts = np.cumsum(g[:, 1:], axis=0) / partition_weights(k)[1:] - rest[:, None]
    slopes = np.outer(np.arange(1, n + 1), np.arange(1, k + 1)) / k
    xs = np.concatenate(([0.0], slopes.ravel()))
    cs = np.concatenate(([g[0, 0]], intercepts.ravel()))
    left = (xs <= cache) & (xs < xs[-1])  # the last point has the largest x, N
    (lx, lc), (rx, rc) = (xs[left], cs[left]), (xs[~left], cs[~left])
    i, low = 0, np.inf  # (0, g_{1,0}) is always a left end
    while True:
        j = _least((rc - lc[i]) / (rx - lx[i]), -rx, rc)
        nxt = _least((lc - rc[j]) / (rx[j] - lx), lx, lc)  # greatest slope, as least negated
        x_l, c_l, x_r, c_r = float(lx[nxt]), float(lc[nxt]), float(rx[j]), float(rc[j])
        mu = (c_r - c_l) / (x_r - x_l)
        lambda_1 = c_l - x_l * mu
        if nxt == i or not lambda_1 + mu * cache < low:
            break
        i, low = nxt, lambda_1 + mu * cache
    value = lambda_1 + float(np.sum(g[1:, 0])) + mu * cache
    return Dual(lambda_1, mu, value, intercepts - slopes * mu - lambda_1, float(g[0, 0] - lambda_1))


# ---------------------------------------------------------------------------
# Candidate search


def _priced(pref, k: int, m: float, n_o, n_eff, s, t):
    """Rates and rows of a block of two-point tuples; infeasible tuples rate inf."""
    ok, rows = _two_point(k, m, n_o, n_eff, s, t)
    return np.where(ok, _rate(pref, rows), np.inf), rows


def _key(n: int, r: _Rows) -> tuple:
    """Set-rule key (nominal groups, n_o, n_1, l_o, l_1, case index) of one candidate's rows.

    Zero-tail rows have n_eff = n_o, the others n_o < n_eff; case 2.ii
    rows hold two subset sizes, case 2.i rows one.
    """
    grouped, two_sizes = r.n_o != r.n_eff, r.s != r.t
    if not grouped:
        case = PlacementCase.ONE_GROUP if r.n_o == n else PlacementCase.TWO_GROUP_ZERO_TAIL
    elif r.n_eff == n:
        case = PlacementCase.TWO_GROUP_CASE2II if two_sizes else PlacementCase.TWO_GROUP_CASE2I
    else:
        case = PlacementCase.THREE_GROUP_CASE2 if two_sizes else PlacementCase.THREE_GROUP_CASE1
    n_1 = r.n_eff if grouped and r.n_eff != n else _ABSENT
    l_1 = r.t if grouped and two_sizes else _ABSENT
    return _NOMINAL_GROUPS[case], r.n_o, n_1, r.s, l_1, _INDEX[case]


def _entries(column, hits: tuple, shape: tuple) -> list:
    """The entries at ``hits`` of a block column, which may be a Python scalar or need broadcasting."""
    if not isinstance(column, np.ndarray):
        return [column] * len(hits[0])
    if column.shape != shape:
        column = np.broadcast_to(column, shape)
    return column[hits].tolist()


def _near_minimum(n: int, found, rate, rows: _Rows) -> list[tuple[float, tuple, _Rows]]:
    """(rate, key, rows) of a block's feasible candidates within TIE_TOL of its minimum.

    The set rule needs no more: a candidate within TIE_TOL of the overall
    minimum is within TIE_TOL of its own block's minimum, and a block
    whose minimum exceeds every rate already ``found`` by more than
    TIE_TOL holds none.
    """
    low = rate.min(initial=np.inf)
    if low == np.inf or low > min((r for r, *_ in found), default=np.inf) + TIE_TOL:
        return []
    hits = np.nonzero(rate <= low + TIE_TOL)
    rates, *columns = (_entries(c, hits, rate.shape) for c in (rate, *rows))
    return [(value, _key(n, r), r) for value, r in zip(rates, map(_Rows, *columns))]


def _winner(found) -> tuple[float, tuple, _Rows]:
    """The set rule: the smallest key among candidates within TIE_TOL of the least rate."""
    low = min(rate for rate, *_ in found)
    return min((c for c in found if c[0] <= low + TIE_TOL), key=lambda c: c[1])


def _candidate(n: int, k: int, rate: float, key: tuple, rows: _Rows) -> CandidateSolution:
    """Materialize the winner from the entries its closed form gave in the search."""
    _, n_o, n_1, l_o, l_1, case = key
    return CandidateSolution(
        _matrix(n, k, rows), rate, _CASES[case], n_o,
        None if n_1 == _ABSENT else n_1, l_o, None if l_1 == _ABSENT else l_1,
    )


def _pairs(n: int, k: int, m: float, effs: list[int], dual: Dual, tol: float):
    """Blocks of the two- and three-group tuples whose two dual points pass the slack filter.

    Point (n, l) lies at x = n l / K.  A tight point T (slack <= tol)
    keeps each point Q across x = M with n_Q != n_T and lever-rule
    weighted slack (x_T - M) / (x_T - x_Q) slack_Q <= tol.  Weights are at
    most 1, so two tight points pass from either end: only the left keeps
    them.  The pair's larger n is n_eff, which must be in ``effs``, with
    l_o its point's size; the smaller n is n_o, with l_1 its point's size.
    Tight points go a few at a time: a slice holds max(_SLICE, N K) pairs.
    """
    n_of = np.arange(n * k) // k + 1
    x = n_of * (np.arange(n * k) % k + 1) / k
    slack = dual.slack.ravel()
    tight, left = slack <= tol, x <= m
    is_eff = np.zeros(n + 1, dtype=bool)
    is_eff[effs] = True
    ends, rows = np.flatnonzero(tight), max(1, _SLICE // (n * k))
    for t in (ends[at : at + rows, None] for at in range(0, len(ends), rows)):
        with np.errstate(divide="ignore", invalid="ignore"):  # same-side entries are masked
            weighed = (x[t] - m) / (x[t] - x) * slack
        keep = (weighed <= tol) & (left[t] != left) & (n_of[t] != n_of) & (left[t] | ~tight)
        i, j = np.nonzero(keep)
        head, tail = np.sort([t[i, 0], j], axis=0)  # flat indices run n-major
        n_o, l_1, n_eff, l_o = head // k + 1, head % k + 1, tail // k + 1, tail % k + 1
        eff = is_eff[n_eff]
        yield n_o[eff], n_eff[eff], l_o[eff], l_1[eff]


def _checked_coefficients(model: PopularityModel, k: int, m: float, coeffs) -> RateCoefficients:
    """Check M, then return ``coeffs`` if they are (model, K)'s, or compute them if None."""
    check_cache(model.n_files, m)
    if coeffs is None:
        return rate_coefficients(model, order_stats(model, k))
    if (coeffs.n_files, coeffs.k_users) != (model.n_files, k):
        raise DimensionMismatchError(f"coefficients are for N={coeffs.n_files}, K={coeffs.k_users}")
    return coeffs


def _search(
    model: PopularityModel,
    k: int,
    m: float,
    coeffs: RateCoefficients | None,
    *,
    zero_tail: bool = False,
    two_group: bool = False,
    three_group: bool = False,
    tight: tuple[Dual, float] | None = None,
) -> tuple[CandidateSolution | None, float | None]:
    """Set-rule winner over the requested families, and the zero-tail family's winning rate.

    The winner is None when no tuple is feasible, the rate None when the
    zero-tail family is not searched; that family is never empty (n_o = N
    holds any cache).  The three-group family runs the two-group tuples
    on the first n_1 files.  The cached groups must jointly hold at least
    the cache worth of files, so n_1 ranges over max(2, floor(M) + 1)..N-1.
    Every tuple (n_o, n_eff, l_o, l_1) is evaluated, one N x K x K block
    per n_eff, unless ``tight`` gives the LP dual and its tolerance: then
    only the two- and three-group tuples whose points pass the slack
    filter are (see ``algorithm4`` and ``_pairs``).  Tuples need
    n_o < n_eff.
    """
    coeffs = _checked_coefficients(model, k, m, coeffs)
    n = model.n_files
    pref = np.zeros((n + 1, k + 1))
    np.cumsum(coeffs.g, axis=0, out=pref[1:])
    effs = (list(range(max(2, math.floor(m) + 1), n)) if three_group else []) + (
        [n] if two_group else []
    )
    if tight is None:
        sizes = np.arange(1, k + 1)
        blocks = [(np.arange(1, n_eff)[:, None, None], n_eff, sizes[:, None], sizes) for n_eff in effs]
    else:
        blocks = _pairs(n, k, m, effs, *tight)
    found, zero_rate = [], None
    with np.errstate(divide="ignore", invalid="ignore"):  # rates of masked tuples
        if zero_tail:
            found = _near_minimum(n, found, *_priced(pref, k, m, *_heads(k, m, np.arange(1, n + 1))))
            zero_rate = _winner(found)[0]
        for block in blocks:
            found += _near_minimum(n, found, *_priced(pref, k, m, *block))
    return (_candidate(n, k, *_winner(found)) if found else None), zero_rate


def algorithm1(
    model: PopularityModel, k_users: int, cache: float, *, coeffs: RateCoefficients | None = None
) -> CandidateSolution:
    """Best candidate of the zero-tail family (one group included as n_o = N)."""
    return _search(model, k_users, cache, coeffs, zero_tail=True)[0]


def algorithm2(
    model: PopularityModel, k_users: int, cache: float, *, coeffs: RateCoefficients | None = None
) -> CandidateSolution | None:
    """Best strict two-group candidate with a partly cached tail, or None."""
    return _search(model, k_users, cache, coeffs, two_group=True)[0]


def algorithm3(
    model: PopularityModel, k_users: int, cache: float, *, coeffs: RateCoefficients | None = None
) -> CandidateSolution | None:
    """Best three-group candidate, or None when the n_1 range (see ``_search``) is empty."""
    return _search(model, k_users, cache, coeffs, three_group=True)[0]


def algorithm4(
    model: PopularityModel, k_users: int, cache: float, *, coeffs: RateCoefficients | None = None
) -> CandidateSolution:
    """Global optimum: the set-rule winner over all three families, found from the LP dual.

    With u_{n,l} = C(K,l) (a_{n,l} - a_{n+1,l}) and a_{N+1,l} = 0, a
    placement meeting the partition and cache equalities is a convex
    combination of the dual's points (n l / K, G_{n,l} / C(K,l) - S_n) and
    (0, g_{1,0}), with weights u_{n,l} and a_{1,0}.  So for any
    (lambda_1, mu), its rate minus the dual value D is
    a_{1,0} slack_0 + sum u_{n,l} slack_{n,l}.  A two- or three-group
    candidate weighs two points only, P = (n_o, l_1) and Q = (n_eff, l_o)
    (l_1 = l_o in case 2.i): it is ``_two_point``'s lever-rule mix, with
    w_Q = (x_P - M) / (x_P - x_Q).  Both weights exceed STRICT_TOL, so M
    lies strictly between x_P and x_Q (x_P = x_Q is the singular tuple
    the mask drops).  So a candidate within delta of D has w_P slack_P,
    w_Q slack_Q <= delta, and slack <= 2 delta on its point of weight
    >= 1/2.

    Hence the search evaluates the zero-tail family whole and the tuples
    ``_pairs`` keeps: a tight point (slack <= tol, the scaled TIGHT_TOL)
    and a partner across M of weighted slack <= tol.  When the winner
    found has 4 (rate - D + TIE_TOL) <= tol, each candidate in the set
    rule's window is within tol / 4 of D and passes both tests with a
    margin of tol / 2 or more for the rounding of rates, slacks and
    weights, orders of magnitude smaller.  So all of them were evaluated
    and the winner is the full search's, bit for bit; otherwise the full
    search runs.  Either way the winner carries the dual as ``dual`` and
    ``algorithm1``'s winning rate, from the same zero-tail pass, as
    ``alg1_rate``.
    """
    coeffs = _checked_coefficients(model, k_users, cache, coeffs)
    dual = solve_dual(coeffs, cache)
    tol = TIGHT_TOL * max(1.0, abs(dual.lambda_1) + abs(dual.mu) * cache)
    families = {"zero_tail": True, "two_group": True, "three_group": True}
    best, zero_rate = _search(model, k_users, cache, coeffs, tight=(dual, tol), **families)
    if 4.0 * (best.rate - dual.value + TIE_TOL) > tol:
        best, zero_rate = _search(model, k_users, cache, coeffs, **families)
    return replace(best, dual=dual, alg1_rate=zero_rate)
