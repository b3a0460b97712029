"""File-popularity models and exact order statistics of random demands.

Files are labeled 1..N by non-increasing popularity.  ``order_stats``
computes the distribution of Y_m, the m-th smallest file index among K
i.i.d. demands, via the binomial-tail CDF identity

    Pr[Y_m <= n] = sum_{j=m}^{K} C(K,j) * P_n^j * (1-P_n)^(K-j),

with P_n the CDF of the popularity vector, then differences over n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import BinomialRangeError, InvalidDistributionError, InvalidParameterError

#: Absolute tolerance accepted on the sum of a user-supplied distribution.
SUM_TOL = 1e-9

#: Largest n of a supported C(n, r).  It keeps the int64 subfile counts
#: C(K, l) of ``placement.subpacketization`` and ``delivery.realize``, and
#: their sum over l, below sum_r C(62, r) = 2^62 < 2^63, so they cannot overflow.
MAX_BINOM_N = 62

# _BINOMIALS[i, r] = C(i, r), zero for r > i: the one place a binomial is computed.
_BINOMIALS = np.array(
    [[math.comb(i, r) for r in range(MAX_BINOM_N + 1)] for i in range(MAX_BINOM_N + 1)],
    dtype=np.int64,
)
_BINOMIALS.flags.writeable = False


def binomials(n: int) -> np.ndarray:
    """Read-only int64 table of C(i, r) for 0 <= i, r <= n, zero where r > i.

    Every binomial coefficient of the package is a row, a column or a
    slice of it, so ``MAX_BINOM_N`` is checked here alone.
    """
    if n < 0:
        raise InvalidParameterError(f"binomial coefficients need n >= 0, got n={n}")
    if n > MAX_BINOM_N:
        raise BinomialRangeError(f"C({n}, r) exceeds the supported exact range (n <= {MAX_BINOM_N})")
    return _BINOMIALS[: n + 1, : n + 1]


@dataclass(frozen=True)
class PopularityModel:
    """A sorted file-popularity distribution.

    ``probs[i]`` is the request probability of file i+1; entries are
    non-increasing, strictly positive, and sum to 1.  ``perm`` maps the
    internal (sorted) file order back to the caller's original order:
    ``probs[i] == original[perm[i]]``.
    """

    n_files: int
    probs: np.ndarray
    source: str = "custom"
    theta: float | None = None
    perm: tuple[int, ...] = field(default=())

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 1 or probs.size != self.n_files or self.n_files < 1:
            raise InvalidParameterError(
                f"need a length-{self.n_files} probability vector, got shape {probs.shape}"
            )
        if not np.all(np.isfinite(probs)) or np.any(probs <= 0.0):
            raise InvalidDistributionError("all file probabilities must be positive and finite")
        if abs(probs.sum() - 1.0) > 1e-12:
            raise InvalidDistributionError(
                f"probabilities must sum to 1 (off by {probs.sum() - 1.0:.3e})"
            )
        if np.any(np.diff(probs) > 0.0):
            raise InvalidDistributionError("probabilities must be sorted non-increasing")
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)
        if not self.perm:
            object.__setattr__(self, "perm", tuple(range(self.n_files)))
        elif sorted(self.perm) != list(range(self.n_files)):
            raise InvalidParameterError("perm must be a permutation of 0..N-1")

    def to_input_order(self, values: Sequence[float]) -> list[float]:
        """Rearrange a per-file vector from internal order to the caller's order."""
        if len(values) != self.n_files:
            raise InvalidParameterError("value vector length must equal the file count")
        out = [0.0] * self.n_files
        for internal, original in enumerate(self.perm):
            out[original] = values[internal]
        return out


def make_zipf(n_files: int, theta: float) -> PopularityModel:
    """Zipf popularity: p_n proportional to n^-theta, theta >= 0."""
    if n_files < 1:
        raise InvalidParameterError("n_files must be >= 1")
    theta = as_float(theta, "theta")
    if not math.isfinite(theta) or theta < 0.0:
        raise InvalidParameterError(f"theta must be a finite nonnegative real, got {theta!r}")
    ranks = np.arange(1, n_files + 1, dtype=float)
    weights = ranks ** (-theta)
    probs = weights / weights.sum()
    return PopularityModel(n_files, probs, source="zipf", theta=theta)


def as_int(value) -> int:
    """``int(value)``; a bool, a non-integral float such as 2.9, or anything
    ``int`` refuses is an InvalidParameterError (a ValueError)."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise InvalidParameterError(f"{value!r} is not an integer")
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise InvalidParameterError(f"{value!r} is not an integer") from exc


def as_float(value, name: str = "value") -> float:
    """A real from an int, a float, or a ``p/q`` or decimal string, which reads as
    ``float(text)`` rounds.  A bool, 1/0, a value beyond the float range or
    anything else that does not convert is an InvalidParameterError (a ValueError)."""
    if not isinstance(value, bool):
        try:
            return float(Fraction(value)) if isinstance(value, str) else float(value)
        except (TypeError, ValueError, ZeroDivisionError, OverflowError):
            pass
    raise InvalidParameterError(f"{name} {value!r} is not a number")


def make_custom(probs: Sequence) -> PopularityModel:
    """Popularity from an explicit probability list.

    Entries may arrive in any order; they are sorted non-increasing
    (stable, so equal probabilities keep their relative order) and the
    sorting permutation is retained.  The sum must be within ``SUM_TOL``
    of 1 and is rescaled exactly to 1.
    """
    values = [as_float(p, "probability") for p in probs]
    if not values:
        raise InvalidDistributionError("empty probability list")
    if any(not math.isfinite(v) or v <= 0.0 for v in values):
        raise InvalidDistributionError("all probabilities must be positive and finite")
    total = math.fsum(values)
    if abs(total - 1.0) > SUM_TOL:
        raise InvalidDistributionError(f"probabilities sum to {total!r}, not 1")
    order = sorted(range(len(values)), key=lambda i: -values[i])
    sorted_probs = np.array([values[i] for i in order], dtype=float) / total
    return PopularityModel(len(values), sorted_probs, source="custom", perm=tuple(order))


def make_step(levels: Sequence[tuple]) -> PopularityModel:
    """Popularity from (probability, count) steps, e.g. [(5/9, 1), (1/30, 10), ...]."""
    probs: list[float] = []
    for p, count in levels:
        try:
            count = as_int(count)
        except ValueError as exc:
            raise InvalidParameterError(f"level count {count!r} is not an integer") from exc
        if count < 1:
            raise InvalidParameterError("level counts must be >= 1")
        probs.extend([as_float(p, "probability")] * count)
    model = make_custom(probs)
    return PopularityModel(model.n_files, model.probs, source="step", perm=model.perm)


def _spec_field(spec: dict, name: str, *, array: bool = False):
    if not isinstance(spec, dict):
        raise InvalidParameterError(f"popularity spec {spec!r} is not a JSON object")
    if name not in spec:
        raise InvalidParameterError(f"popularity spec {spec!r} lacks {name!r}")
    if array and not isinstance(spec[name], list):
        raise InvalidParameterError(f"popularity spec field {name!r} must be a JSON array")
    return spec[name]


def from_spec(spec: dict, n_files: int | None = None) -> PopularityModel:
    """Build a model from the JSON popularity spec.

    Accepted forms:
      {"type": "zipf", "theta": 1.5}                      (needs n_files)
      {"type": "step", "levels": [{"p": "5/9", "count": 1}, ...]}
      {"type": "custom", "probs": [0.7, 0.3]}
    """
    kind = _spec_field(spec, "type")
    if kind == "zipf":
        if n_files is None:
            raise InvalidParameterError("zipf popularity needs the file count")
        return make_zipf(n_files, _spec_field(spec, "theta"))
    if kind == "step":
        model = make_step([
            (_spec_field(level, "p"), _spec_field(level, "count"))
            for level in _spec_field(spec, "levels", array=True)
        ])
    elif kind == "custom":
        model = make_custom(_spec_field(spec, "probs", array=True))
    else:
        raise InvalidParameterError(f"unknown popularity type {kind!r}")
    if n_files is not None and model.n_files != n_files:
        raise InvalidParameterError(
            f"popularity spec has {model.n_files} files but N={n_files} was requested"
        )
    return model


@dataclass(frozen=True)
class OrderStatTable:
    """Distribution of the demand order statistics.

    ``probs[m-1, n-1] = Pr[Y_m = n]`` where Y_m is the m-th smallest file
    index in the K-user demand vector.  Rows are probability vectors; the
    columns satisfy sum_m Pr[Y_m = n] = K * p_n.
    """

    k_users: int
    n_files: int
    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.shape != (self.k_users, self.n_files):
            raise InvalidParameterError(
                f"expected a {self.k_users}x{self.n_files} table, got {probs.shape}"
            )
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)

    def cdf(self) -> np.ndarray:
        """Pr[Y_m <= n], shape K x N."""
        return np.cumsum(self.probs, axis=1)


def order_stats(model: PopularityModel, k_users: int) -> OrderStatTable:
    """Exact distribution of Y_1..Y_K for K i.i.d. demands from ``model``."""
    if k_users < 1:
        raise InvalidParameterError("k_users must be >= 1")
    n, k = model.n_files, k_users
    cum = np.concatenate(([0.0], np.minimum(np.cumsum(model.probs), 1.0)))
    cum[-1] = 1.0  # guard against cumsum rounding at the top
    js = np.arange(k + 1)
    comb = binomials(k)[k].astype(float)
    # binom[i, j] = C(K, j) * cum_i^j * (1 - cum_i)^(K - j), rows i = 0..N
    binom = comb * np.power.outer(cum, js) * np.power.outer(1.0 - cum, js[::-1])
    # tail[i, m] = Pr[at least m of K demands have index <= i] = Pr[Y_m <= i]
    tail = binom[:, ::-1].cumsum(axis=1)[:, ::-1]
    table = (tail[1:, 1:] - tail[:-1, 1:]).T
    return OrderStatTable(k, n, np.maximum(table, 0.0))
