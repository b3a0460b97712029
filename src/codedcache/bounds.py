"""Genie-based lower bounds on the average delivery rate.

All schemes share one bound form: pick a popularity threshold p', count
the N_{p'} files at least that popular, merge the remaining tail into
N^m virtual files (greedy accumulation until each batch's popularity
exceeds p'), and evaluate K * p' * (N_{p'} + N^m - M) / 11.  The schemes
differ only in how p' is chosen:

  * two_group_prior:   p' = 1 / (K * max{3, M});
  * exhaustive_prior:  best p' = p_n over the files below that threshold,
                       by branch and bound: every counted batch has mass
                       > p', so N^m <= tail mass / p' caps each threshold;
  * proposed:          p' = p_{n_o} with n_o the optimal first-group size.

Negative values are reported as 0 with ``clamped`` set; a clamped bound
is trivially true, never an error.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .popularity import PopularityModel
from .solver import algorithm4


class BoundScheme(str, enum.Enum):
    GENERIC = "generic"
    TWO_GROUP_PRIOR = "two_group_prior"
    EXHAUSTIVE_PRIOR = "exhaustive_prior"
    PROPOSED = "proposed"


@dataclass(frozen=True)
class BoundReport:
    scheme: BoundScheme
    p_threshold: float
    n_popular: int
    n_merged: int
    value: float
    clamped: bool = False

    def to_json_dict(self) -> dict:
        return {
            "scheme": self.scheme.value,
            "p_threshold": self.p_threshold,
            "n_popular": self.n_popular,
            "n_merged": self.n_merged,
            "value": self.value,
            "clamped": self.clamped,
        }

    def csv_row(self, n_files: int, k_users: int, cache: float) -> str:
        return (
            f"{self.scheme.value},{n_files},{k_users},{cache:.10g},"
            f"{self.p_threshold:.10g},{self.n_popular},{self.n_merged},"
            f"{self.value:.10g},{int(self.clamped)}"
        )


def popular_count(model: PopularityModel, p_threshold: float) -> int:
    """Number of files with popularity at least p'."""
    return int((model.probs >= p_threshold).sum())


def merge_count(model: PopularityModel, n_popular: int, p_threshold: float) -> int:
    """Virtual files formed by merging the tail beyond the N_{p'} popular ones.

    Walking down from file N_{p'}+1, consecutive files are accumulated
    into a virtual file until the batch popularity exceeds p'; a final
    batch that never exceeds p' does not count.
    """
    if not 0 <= n_popular <= model.n_files:
        raise InvalidParameterError(f"n_popular={n_popular} outside 0..{model.n_files}")
    if p_threshold <= 0.0:
        raise InvalidParameterError("popularity threshold must be positive")
    merged = 0
    batch = 0.0
    for p in model.probs[n_popular:]:
        batch += p
        if batch > p_threshold:
            merged += 1
            batch = 0.0
    return merged


def bound_value(
    k_users: int, p_threshold: float, n_popular: int, n_merged: int, cache: float
) -> tuple[float, bool]:
    """K * p' * (N_{p'} + N^m - M) / 11, clamped at 0 with a flag."""
    raw = k_users * p_threshold * (n_popular + n_merged - cache) / 11.0
    return (raw, False) if raw >= 0.0 else (0.0, True)


def _report(scheme, model, k_users, cache, p_threshold, n_popular=None) -> BoundReport:
    if n_popular is None:
        n_popular = popular_count(model, p_threshold)
    n_merged = merge_count(model, n_popular, p_threshold)
    value, clamped = bound_value(k_users, p_threshold, n_popular, n_merged, cache)
    return BoundReport(scheme, p_threshold, n_popular, n_merged, value, clamped)


def bound_generic(
    model: PopularityModel, k_users: int, cache: float, p_threshold: float
) -> BoundReport:
    """The basic threshold bound without file merging."""
    n_popular = popular_count(model, p_threshold)
    value, clamped = bound_value(k_users, p_threshold, n_popular, 0, cache)
    return BoundReport(BoundScheme.GENERIC, p_threshold, n_popular, 0, value, clamped)


def _fixed_threshold(k_users: int, cache: float) -> float:
    """p' = 1 / (K * max{3, M}) of the prior schemes."""
    if k_users < 1:
        raise InvalidParameterError("k_users must be >= 1")
    return 1.0 / (k_users * max(3.0, cache))


def bound_two_group(model: PopularityModel, k_users: int, cache: float) -> BoundReport:
    """Fixed-threshold scheme: p' = 1 / (K * max{3, M})."""
    p_threshold = _fixed_threshold(k_users, cache)
    return _report(BoundScheme.TWO_GROUP_PRIOR, model, k_users, cache, p_threshold)


def bound_exhaustive(model: PopularityModel, k_users: int, cache: float) -> BoundReport:
    """Best threshold among the files less popular than the fixed one; ties take the first file.

    A branch and bound: every counted merge batch has mass > p', so
    N^m <= tail / p' for the tail beyond the N_{p'} popular files, and
    K p' (N_{p'} + floor(tail / p') + 1 - M) / 11, clamped at 0, bounds the
    threshold's value from above (the + 1 absorbs the rounding of the float
    sums).  Thresholds are evaluated exactly in falling order of that
    bound, and the walk stops once no threshold left can beat the best.
    """
    p_fixed = _fixed_threshold(k_users, cache)
    probs = model.probs
    first = popular_count(model, p_fixed)
    if first == model.n_files:  # no file sits below the fixed threshold
        return BoundReport(BoundScheme.EXHAUSTIVE_PRIOR, p_fixed, model.n_files, 0, 0.0, True)
    thresholds = probs[first:]
    n_popular = np.searchsorted(-probs, -thresholds, side="right")  # probs >= p', as sorted
    tail = np.concatenate((np.cumsum(probs[::-1])[::-1], [0.0]))[n_popular]
    n_room = n_popular + np.floor(tail / thresholds) + 1  # N_{p'} + most batches + 1
    upper = np.maximum(k_users * thresholds * (n_room - cache) / 11.0, 0.0)
    best, best_at = None, 0
    for i in np.lexsort((np.arange(len(thresholds)), -upper)).tolist():
        if best is not None and (upper[i] < best.value or (upper[i] == best.value and i > best_at)):
            break  # bounds fall from here on, and an equal bound loses the tie to an earlier file
        report = _report(BoundScheme.EXHAUSTIVE_PRIOR, model, k_users, cache,
                         float(thresholds[i]), int(n_popular[i]))
        if best is None or (report.value, -i) > (best.value, -best_at):
            best, best_at = report, i
    return best


def bound_prior(model: PopularityModel, k_users: int, cache: float) -> BoundReport:
    """The better of the fixed-threshold and exhaustive prior schemes."""
    two_group = bound_two_group(model, k_users, cache)
    exhaustive = bound_exhaustive(model, k_users, cache)
    return exhaustive if exhaustive.value > two_group.value else two_group


def bound_proposed(
    model: PopularityModel, k_users: int, cache: float, n_o: int | None = None
) -> BoundReport:
    """Threshold at p_{n_o}, the optimal placement's first-group popularity.

    ``n_o`` defaults to the first-group size of the optimal placement
    (all N files when the optimum is one group).
    """
    if n_o is None:
        n_o = algorithm4(model, k_users, cache).first_group_size
    if not 1 <= n_o <= model.n_files:
        raise InvalidParameterError(f"n_o={n_o} outside 1..{model.n_files}")
    return _report(BoundScheme.PROPOSED, model, k_users, cache, float(model.probs[n_o - 1]), n_o)
