"""Brute-force reference computations kept independent of the library paths."""

import bisect
import itertools
import math
from dataclasses import replace

import numpy as np
from hypothesis import strategies as st

from codedcache.bounds import BoundReport, BoundScheme, _fixed_threshold, _report
from codedcache.delivery import (
    DeliveryTranscript,
    MonteCarloResult,
    PlacementRealization,
    _philox,
    sample_demands,
)
from codedcache.errors import DecodeError, InvalidParameterError
from codedcache.placement import PlacementMatrix, average_rate, partition_weights, rate_coefficients
from codedcache.popularity import make_custom, make_step, make_zipf, order_stats
from codedcache.solver import (
    _SLICE,
    TIE_TOL,
    TIGHT_TOL,
    Dual,
    _candidate,
    _heads,
    _near_minimum,
    _priced,
    _search,
    _winner,
    solve_dual,
)


def order_stats_exhaustive(probs, k_users: int) -> np.ndarray:
    """Pr[Y_m = n] by enumerating all N^K demand vectors and sorting each."""
    n = len(probs)
    table = np.zeros((k_users, n))
    for demand in itertools.product(range(n), repeat=k_users):
        weight = math.prod(probs[i] for i in demand)
        for m, idx in enumerate(sorted(demand)):
            table[m, idx] += weight
    return table


def delivery_rate_exhaustive(a: np.ndarray, probs) -> float:
    """Expected sum over nonempty subsets of the largest missing subfile.

    Direct evaluation of the delivery cost definition over every demand
    vector; no order statistics, no rate-coefficient shortcut.
    """
    n, width = a.shape
    k = width - 1
    total = 0.0
    for demand in itertools.product(range(n), repeat=k):
        weight = math.prod(probs[i] for i in demand)
        rate = 0.0
        for mask in range(1, 1 << k):
            level = mask.bit_count() - 1
            rate += max(a[demand[u], level] for u in range(k) if mask >> u & 1)
        total += weight * rate
    return total


def sample_demands_searchsorted(model, k_users: int, count: int, seed: int) -> np.ndarray:
    """``sample_demands`` by one binary search per draw over the cumulative popularity.

    The same Philox draws u map to 1 + #{n : cum_n <= u}, with no bucket table.
    """
    cum = np.cumsum(model.probs)
    cum[-1] = 1.0
    uniforms = _philox(seed).random((count, k_users))
    return np.searchsorted(cum, uniforms, side="right").astype(np.int64) + 1


def monte_carlo_rate_subsets(placement, model, trials: int, seed: int) -> MonteCarloResult:
    """``monte_carlo_rate`` by walking all 2^K - 1 user subsets of every trial.

    Same demand stream, same statistics; each subset adds the largest
    subfile size its members miss, straight from the delivery definition.
    """
    if trials < 1:
        raise InvalidParameterError("trials must be >= 1")
    if model.n_files != placement.n_files:
        raise InvalidParameterError("model and placement disagree on the file count")
    k = placement.k_users
    demands0 = sample_demands(model, k, trials, seed) - 1
    rates = np.zeros(trials)
    for mask in range(1, 1 << k):
        level = mask.bit_count() - 1
        members = [k0 for k0 in range(k) if mask & (1 << k0)]
        largest = placement.a[demands0[:, members[0]], level]
        for k0 in members[1:]:
            np.maximum(largest, placement.a[demands0[:, k0], level], out=largest)
        rates += largest
    mean = float(rates.mean())
    stderr = float(rates.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return MonteCarloResult(mean, stderr, trials, seed)


def all_masks(k: int) -> list[int]:
    """Every user-subset bitmask, size ascending then mask ascending."""
    return sorted(range(1 << k), key=lambda s: (s.bit_count(), s))


def realize_all_masks(placement, library) -> PlacementRealization:
    """``realize`` by visiting every mask of every file; valid sizes assumed."""
    sizes = np.rint(placement.a * library.file_size_bits).astype(np.int64)
    subfiles = {}
    for idx, data in enumerate(library.contents):
        offset = 0
        for mask in all_masks(placement.k_users):
            size = int(sizes[idx, mask.bit_count()])
            if size:
                field = int.from_bytes(data[offset // 8:(offset + size + 7) // 8], "little")
                subfiles[(idx, mask)] = (field >> offset % 8) & ((1 << size) - 1)
                offset += size
    return PlacementRealization(placement, library, sizes, subfiles)


def serve_all_masks(realization, demand) -> DeliveryTranscript:
    """``serve`` by visiting every nonempty mask and every user bit."""
    k = realization.k_users
    demand = tuple(int(d) for d in demand)
    messages = {}
    total = 0
    for mask in range(1, 1 << k):
        level = mask.bit_count() - 1
        length = 0
        payload = 0
        for k0 in range(k):
            bit = 1 << k0
            if mask & bit:
                file_idx = demand[k0] - 1
                length = max(length, int(realization.sizes[file_idx, level]))
                payload ^= realization.subfile(file_idx, mask & ~bit)
        if length:
            messages[mask] = (length, payload)
            total += length
    return DeliveryTranscript(demand, messages, total)


def cached_bits(realization, user: int) -> int:
    """Total bits user k keeps: the subfiles whose mask holds the user's bit."""
    bit = 1 << (user - 1)
    return sum(
        int(realization.sizes[n, mask.bit_count()])
        for (n, mask) in realization.subfiles
        if mask & bit
    )


def per_user_cache_ok(realization, cache_size: float) -> bool:
    """Every user's cached bits stay within M * F."""
    budget = cache_size * realization.file_size_bits
    return all(
        cached_bits(realization, user) <= budget + 1e-6 * realization.file_size_bits
        for user in range(1, realization.k_users + 1)
    )


def decode_all_masks(realization, transcript, user: int) -> bytes:
    """``decode`` by visiting every mask; raises DecodeError unless bit-exact."""
    k = realization.k_users
    bit = 1 << (user - 1)
    demand = transcript.demand
    file_idx = demand[user - 1] - 1
    result = offset = 0
    for mask in all_masks(k):
        size = int(realization.sizes[file_idx, mask.bit_count()])
        if size == 0:
            continue
        if mask & bit:
            piece = realization.subfile(file_idx, mask)
        else:
            coded_mask = mask | bit
            entry = transcript.messages.get(coded_mask)
            if entry is None:
                raise DecodeError(f"message for subset {coded_mask:#x} missing")
            piece = entry[1]
            for j in range(k):
                jbit = 1 << j
                if coded_mask & jbit and j != user - 1:
                    piece ^= realization.subfile(demand[j] - 1, coded_mask & ~jbit)
            piece &= (1 << size) - 1
        result |= piece << offset
        offset += size
    f_bits = realization.file_size_bits
    nbytes = (f_bits + 7) // 8
    if offset != f_bits or result.to_bytes(nbytes, "little") != realization.library.contents[file_idx]:
        raise DecodeError(f"user {user} reconstructed file {file_idx + 1} incorrectly")
    return result.to_bytes(nbytes, "little")


@st.composite
def popularity_instances(draw, max_n: int = 30, max_k: int = 10):
    """(model, K, M) with Zipf, two-level step, uniform or Dirichlet popularity.

    M is 0, N, a breakpoint n l / K of the rate curve, or any value in [0, N].
    """
    n, k = draw(st.integers(1, max_n)), draw(st.integers(1, max_k))
    kind = draw(st.sampled_from(["zipf", "step", "uniform", "dirichlet"]))
    if kind == "zipf":
        model = make_zipf(n, draw(st.floats(0.0, 2.5)))
    elif kind == "uniform" or n == 1:
        model = make_custom([f"1/{n}"] * n)
    elif kind == "step":
        head, weight = draw(st.integers(1, n - 1)), draw(st.integers(2, 6))
        total = head * weight + n - head
        model = make_step([(f"{weight}/{total}", head), (f"1/{total}", n - head)])
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        weights = rng.dirichlet(np.full(n, draw(st.sampled_from([0.3, 1.0, 5.0])))) + 1e-9
        model = make_custom(list(weights / weights.sum()))
    m = draw(st.one_of(
        st.just(0.0), st.just(float(n)),
        st.tuples(st.integers(1, n), st.integers(0, k)).map(lambda t: t[0] * t[1] / k),
        st.floats(0.0, float(n)),
    ))
    return model, k, m


def random_popularity(rng, n: int) -> list[float]:
    weights = np.sort(rng.random(n))[::-1] + 0.05
    return list(weights / weights.sum())


def random_popularity_first_placement(rng, n: int, k: int):
    """Exact-rational popularity-first placement on a 1/D grid.

    Rows are built bottom (least popular) up, adding only nonnegative
    increments to the cached entries, so the ordering holds by
    construction and every entry is an integer multiple of 1/D.
    """
    d = math.lcm(*[math.comb(k, l) for l in range(1, k + 1)]) * 2
    cost_of = [math.comb(k, l) for l in range(k + 1)]
    rows = []
    below = np.zeros(k + 1, dtype=int)
    for _ in range(n):
        row = below.copy()
        cost = int(sum(cost_of[l] * row[l] for l in range(1, k + 1)))
        for l in rng.permutation(np.arange(1, k + 1)):
            room = (d - cost) // cost_of[l]
            if room > 0:
                add = int(rng.integers(0, room // 2 + 1))
                row[l] += add
                cost += cost_of[l] * add
        row[0] = d - cost
        rows.append(row)
        below = row
    a = np.array(rows[::-1], dtype=float) / d
    return a, d


def analyze_groups_rows(placement, tol: float):
    """(group_count, boundaries, group_labels) of ``analyze_groups``, one row pair at a time.

    Rows differ where some level share C(K, l) a_{n,l} differs by more than tol.
    """
    counts = [math.comb(placement.k_users, l) for l in range(placement.k_users + 1)]
    labels = [1]
    boundaries = []
    for n in range(1, placement.n_files):
        rows = zip(counts, placement.a[n], placement.a[n - 1])
        if any(abs(c * x - c * y) > tol for c, x, y in rows):
            boundaries.append(n)
            labels.append(labels[-1] + 1)
        else:
            labels.append(labels[-1])
    return labels[-1], tuple(boundaries), tuple(labels)


def subpacketization_rows(placement, tol: float) -> tuple[int, ...]:
    """``subpacketization``'s per-file subfile counts, one row at a time, from level shares."""
    counts = [math.comb(placement.k_users, l) for l in range(placement.k_users + 1)]
    return tuple(sum(c for c, x in zip(counts, row) if c * x > tol) for row in placement.a)


# ---------------------------------------------------------------------------
# Scalar candidate search: every (n_o, n_1, l_o, l_1) tuple in plain loops,
# each feasible one materialized and priced with ``average_rate``.

SEARCH_TIE_TOL = 1e-12
SEARCH_STRICT_TOL = 1e-12
_ABSENT = 10**9
#: Nominal group count of each case; the order breaks ties on an equal key.
_CASE_GROUPS = {
    "one_group": 1,
    "two_group_zero_tail": 2,
    "two_group_case2i": 2,
    "two_group_case2ii": 2,
    "three_group_case1": 3,
    "three_group_case2": 3,
}


def _symmetric_row(n_eff, k, m):
    v = k * m / n_eff
    lo = min(math.floor(v), k)
    row = [0.0] * (k + 1)
    row[lo] = (1.0 + lo - v) / math.comb(k, lo)
    if lo < k and v > lo:
        row[lo + 1] = (v - lo) / math.comb(k, lo + 1)
    return lo, row


def _case2i_rows(n_eff, k, m, n_o, l_o):
    km = k * m
    if not math.floor(km / n_eff) + 1 <= l_o <= min(k, math.ceil(km / n_o) - 1):
        return None
    ratio = km / (l_o * n_eff)
    share = n_o / n_eff
    frac = (ratio - share) / (1.0 - share)
    if not SEARCH_STRICT_TOL < frac < 1.0 - SEARCH_STRICT_TOL:
        return None
    row1 = [0.0] * (k + 1)
    row1[l_o] = 1.0 / math.comb(k, l_o)
    row2 = [0.0] * (k + 1)
    row2[l_o] = frac / math.comb(k, l_o)
    row2[0] = (1.0 - ratio) / (1.0 - share)
    return row1, row2


def _case2ii_rows(n_eff, k, m, n_o, l_o, l_1):
    km = k * m
    c1 = l_o > km / n_eff and l_1 < km / n_o
    c2 = l_o < km / n_eff and l_1 > km / n_o
    if l_1 == l_o or not (c1 or c2):
        return None
    q = l_1 * n_o / (l_o * n_eff)
    denom = 1.0 - q
    if abs(denom) < SEARCH_STRICT_TOL:
        return None
    ratio = km / (l_o * n_eff)
    share_lo = (ratio - q) / denom  # the level shares C(K,l) a of the two sizes
    a_0 = (1.0 - ratio) / denom
    if min(share_lo, a_0) <= SEARCH_STRICT_TOL:
        return None
    a_lo = share_lo / math.comb(k, l_o)
    row1 = [0.0] * (k + 1)
    row1[l_o] = a_lo
    row1[l_1] = a_0 / math.comb(k, l_1)
    row2 = [0.0] * (k + 1)
    row2[l_o] = a_lo
    row2[0] = a_0
    return row1, row2


def _group_candidates(n, k, m, family):
    """(case, n_o, n_1, l_o, l_1, rows by file) of every feasible tuple."""
    server = [1.0] + [0.0] * k
    if family in (None, "zero_tail"):
        for n_o in range(1, n + 1):
            if m <= n_o:
                lo, row = _symmetric_row(n_o, k, m)
                case = "one_group" if n_o == n else "two_group_zero_tail"
                yield case, n_o, None, lo, None, [row] * n_o + [server] * (n - n_o)
    n_effs = []
    if family in (None, "two_group"):
        n_effs.append(n)
    if family in (None, "three_group"):
        n_effs.extend(range(max(2, math.floor(m) + 1), n))
    for n_eff in n_effs:
        n_1 = None if n_eff == n else n_eff
        if n_1 is None:
            case_i, case_ii = "two_group_case2i", "two_group_case2ii"
        else:
            case_i, case_ii = "three_group_case1", "three_group_case2"
        for n_o in range(1, n_eff):
            for l_o in range(1, k + 1):
                shapes = [(case_i, None, _case2i_rows(n_eff, k, m, n_o, l_o))]
                shapes += [(case_ii, l_1, _case2ii_rows(n_eff, k, m, n_o, l_o, l_1))
                           for l_1 in range(1, k + 1)]
                for case, l_1, rows in shapes:
                    if rows is not None:
                        row1, row2 = rows
                        by_file = [row1] * n_o + [row2] * (n_eff - n_o) + [server] * (n - n_eff)
                        yield case, n_o, n_1, l_o, l_1, by_file


def candidate_search_exhaustive(model, k, m, family=None):
    """Set-rule winner over every feasible closed-form tuple, or None.

    ``family`` restricts the search to "zero_tail", "two_group" or
    "three_group"; None searches all three.  Returns
    (case, (n_o, n_1, l_o, l_1), rate).  The winner is the smallest key
    (nominal groups, n_o, n_1, l_o, l_1, case order), absent entries last,
    among all candidates with rate <= min + SEARCH_TIE_TOL.
    """
    n = model.n_files
    coeffs = rate_coefficients(model, order_stats(model, k))
    cases = list(_CASE_GROUPS)
    priced = []
    for case, n_o, n_1, l_o, l_1, by_file in _group_candidates(n, k, m, family):
        rate = average_rate(PlacementMatrix(n, k, np.array(by_file)), coeffs)
        key = (_CASE_GROUPS[case], n_o, _ABSENT if n_1 is None else n_1, l_o,
               _ABSENT if l_1 is None else l_1, cases.index(case))
        priced.append((rate, key, case, (n_o, n_1, l_o, l_1)))
    if not priced:
        return None
    low = min(entry[0] for entry in priced)
    rate, _, case, tup = min((e for e in priced if e[0] <= low + SEARCH_TIE_TOL),
                             key=lambda e: e[1])
    return case, tup, rate


# ---------------------------------------------------------------------------
# The dual by its whole lower envelope, and the exhaustive bound by every
# threshold: the loops the library replaced with pivots and branch and bound.


def solve_dual_envelope(coeffs, cache: float) -> Dual:
    """``solve_dual`` by sweeping the lower envelope of all N K + 1 lines in slope order.

    The sweep keeps the lowest intercept per slope, builds the envelope in
    slope order, and stops at the breakpoint where the envelope's slope
    passes M: the objective rises with mu along pieces of slope below M
    and falls after.
    """
    g = coeffs.g
    rest = np.concatenate(([0.0], np.cumsum(g[1:, 0])))
    n, k = coeffs.n_files, coeffs.k_users
    intercepts = np.cumsum(g[:, 1:], axis=0) / partition_weights(k)[1:] - rest[:, None]
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


def bound_exhaustive_thresholds(model, k_users: int, cache: float) -> BoundReport:
    """``bound_exhaustive`` by evaluating every threshold below the fixed one, first on ties."""
    p_fixed = _fixed_threshold(k_users, cache)
    start = int((model.probs >= p_fixed).sum()) + 1
    best = None
    for n in range(start, model.n_files + 1):
        report = _report(
            BoundScheme.EXHAUSTIVE_PRIOR, model, k_users, cache, float(model.probs[n - 1])
        )
        if best is None or report.value > best.value:
            best = report
    if best is None:  # no file sits below the fixed threshold
        return BoundReport(BoundScheme.EXHAUSTIVE_PRIOR, p_fixed, model.n_files, 0, 0.0, True)
    return best


# ---------------------------------------------------------------------------
# algorithm4 with the one-sided tight-line search: every two- and three-group
# tuple with one point on a tight dual line, however large its partner's slack.


def _ranges(starts, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each entry's i, and the ranges starts[i], starts[i] + 1, .. of counts[i] entries joined."""
    owner = np.repeat(np.arange(len(counts)), counts)
    return owner, np.arange(len(owner)) - (np.cumsum(counts) - counts - starts)[owner]


def _tight_blocks(n: int, k: int, effs: list[int], t_n: np.ndarray, t_l: np.ndarray) -> list[tuple]:
    """Blocks of the two- and three-group tuples that weigh a tight point (t_n, t_l), as flat arrays.

    A tuple (n_o, n_eff, l_o, l_1) weighs two points, (n_eff, l_o) and
    (n_o, l_1).  A tight point as the n_eff point pairs with every point
    of an n_o below it (``below`` of them), as the n_o point with every
    point of an n_eff in ``effs`` above it (``later``, from ``effs[after]``).
    Blocks hold at most _SLICE tuples.
    """
    is_eff = np.zeros(n + 1, dtype=bool)
    is_eff[effs] = True
    effs = np.array(effs, dtype=np.int64)
    below = (t_n - 1) * is_eff[t_n]
    after = np.searchsorted(effs, t_n, side="right")
    later = len(effs) - after
    eff_of, point = _ranges(0, below * k)  # point (n_o, l_1) = divmod(point, K) + 1
    head_of, at = _ranges(after * k, later * k)  # (n_eff, l_o) = (effs[at // K], at % K + 1)
    block = (
        np.concatenate((point // k + 1, t_n[head_of])),
        np.concatenate((t_n[eff_of], effs[at // k])),
        np.concatenate((t_l[eff_of], at % k + 1)),
        np.concatenate((point % k + 1, t_l[head_of])),
    )
    return [tuple(entry[at : at + _SLICE] for entry in block) for at in range(0, len(block[0]), _SLICE)]


def algorithm4_tight_lines(model, k: int, m: float, coeffs):
    """``algorithm4`` searching every tuple with one point on a tight dual line.

    Same dual, tolerance, premise check and full-search fallback; the
    zero-tail family is searched whole.
    """
    dual = solve_dual(coeffs, m)
    tol = TIGHT_TOL * max(1.0, abs(dual.lambda_1) + abs(dual.mu) * m)
    n = model.n_files
    pref = np.zeros((n + 1, k + 1))
    np.cumsum(coeffs.g, axis=0, out=pref[1:])
    effs = list(range(max(2, math.floor(m) + 1), n)) + [n]
    tight_n, tight_l = np.nonzero(dual.slack <= tol)
    with np.errstate(divide="ignore", invalid="ignore"):
        found = _near_minimum(n, [], *_priced(pref, k, m, *_heads(k, m, np.arange(1, n + 1))))
        zero_rate = _winner(found)[0]
        for block in _tight_blocks(n, k, effs, tight_n + 1, tight_l + 1):
            found += _near_minimum(n, found, *_priced(pref, k, m, *block))
    best = _candidate(n, k, *_winner(found))
    if 4.0 * (best.rate - dual.value + TIE_TOL) > tol:
        best, zero_rate = _search(model, k, m, coeffs, zero_tail=True, two_group=True,
                                  three_group=True)
    return replace(best, dual=dual, alg1_rate=zero_rate)
