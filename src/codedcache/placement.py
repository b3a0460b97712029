"""Placement matrices, the rate functional, and file-group / subpacketization analysis.

A placement assigns each file n a vector a_n of length K+1: a_{n,l} is the
size (as a fraction of the file) of each subfile destined for user subsets
of size l, with l = 0 the server-only fraction.  Feasible placements
satisfy, per file, sum_l C(K,l) * a_{n,l} = 1, use at most M units of cache
per user (sum_n sum_{l>=1} C(K-1,l-1) * a_{n,l} <= M), are nonnegative, and
are popularity-first: a_{n,l} >= a_{n+1,l} for l >= 1.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BinomialRangeError,
    DimensionMismatchError,
    InvalidParameterError,
    PopularityFirstError,
)
from .popularity import OrderStatTable, PopularityModel, as_int

PARTITION_TOL = 1e-9
CACHE_TOL = 1e-9
NONNEG_TOL = 1e-12
POPFIRST_TOL = 1e-9
#: Threshold below which an a_{n,l} entry counts as zero in structure analysis.
ZERO_TOL = 1e-9

#: Largest n of a supported C(n, r).  It keeps the int64 subfile counts
#: C(K, l) of ``subpacketization`` and ``delivery.realize``, and their sum
#: over l, below sum_r C(62, r) = 2^62 < 2^63, so they cannot overflow.
MAX_BINOM_N = 62


def binom_ext(n: int, r: int) -> int:
    """Binomial coefficient extended to 0 outside 0 <= r <= n."""
    if n < 0:
        raise InvalidParameterError("binom_ext requires n >= 0")
    if n > MAX_BINOM_N:
        raise BinomialRangeError(f"C({n}, {r}) exceeds the supported exact range (n <= {MAX_BINOM_N})")
    if r < 0 or r > n:
        return 0
    return math.comb(n, r)


def partition_weights(k_users: int) -> np.ndarray:
    """b_l = C(K, l) for l = 0..K (per-file partition constraint)."""
    return np.array([binom_ext(k_users, l) for l in range(k_users + 1)], dtype=float)


def cache_weights(k_users: int) -> np.ndarray:
    """c_l = C(K-1, l-1) for l = 0..K, with c_0 = 0 (per-user cache usage)."""
    return np.array([binom_ext(k_users - 1, l - 1) for l in range(k_users + 1)], dtype=float)


@dataclass(frozen=True)
class PlacementMatrix:
    """N x (K+1) matrix of subfile-size fractions a_{n,l}."""

    n_files: int
    k_users: int
    a: np.ndarray

    def __post_init__(self):
        a = np.array(self.a, dtype=float)
        if a.shape != (self.n_files, self.k_users + 1):
            raise InvalidParameterError(
                f"placement must be {self.n_files}x{self.k_users + 1}, got {a.shape}"
            )
        if not np.all(np.isfinite(a)):
            raise InvalidParameterError("placement entries must be finite")
        a.flags.writeable = False
        object.__setattr__(self, "a", a)

    def partition_residuals(self) -> np.ndarray:
        """Per-file deviation of sum_l C(K,l) a_{n,l} from 1."""
        return self.a @ partition_weights(self.k_users) - 1.0

    def cache_used(self) -> float:
        """Cache units consumed per user by this placement."""
        return float((self.a @ cache_weights(self.k_users)).sum())

    def is_popularity_first(self, tol: float = POPFIRST_TOL) -> bool:
        return bool(np.all(np.diff(self.a[:, 1:], axis=0) <= tol))

    def violations(self, cache_size: float | None = None) -> list[str]:
        """Human-readable list of invariant violations (empty when valid)."""
        problems = []
        res = self.partition_residuals()
        worst = int(np.argmax(np.abs(res)))
        if abs(res[worst]) > PARTITION_TOL:
            problems.append(f"partition constraint off by {res[worst]:.3e} at file {worst + 1}")
        if float(self.a.min()) < -NONNEG_TOL:
            problems.append(f"negative entry {self.a.min():.3e}")
        if not self.is_popularity_first():
            problems.append("popularity-first ordering violated")
        if cache_size is not None:
            used = self.cache_used()
            if used > cache_size + CACHE_TOL:
                problems.append(f"cache overrun: {used!r} > M={cache_size!r}")
        return problems

    def check_valid(self, cache_size: float | None = None) -> None:
        problems = self.violations(cache_size)
        if problems:
            raise InvalidParameterError("; ".join(problems))

    def to_json_dict(self) -> dict:
        return {"N": self.n_files, "K": self.k_users, "a": self.a.tolist()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "PlacementMatrix":
        if not isinstance(data, dict) or not {"N", "K", "a"} <= data.keys():
            raise InvalidParameterError("placement JSON must be an object with keys N, K and a")
        try:
            n, k, a = as_int(data["N"]), as_int(data["K"]), np.array(data["a"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise InvalidParameterError(f"placement JSON has a bad value: {exc}") from exc
        return cls(n, k, a)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "PlacementMatrix":
        return cls.from_json_dict(json.loads(text))

    def to_csv(self) -> str:
        """One row per file, columns l = 0..K, 10 significant digits."""
        lines = [",".join(f"{v:.10g}" for v in row) for row in self.a]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "PlacementMatrix":
        rows = [
            [float(cell) for cell in line.split(",")]
            for line in text.strip().splitlines()
            if line.strip()
        ]
        a = np.array(rows, dtype=float)
        return cls(a.shape[0], a.shape[1] - 1, a)


@dataclass(frozen=True)
class RateCoefficients:
    """Weights of the average-rate functional.

    g_{n,l} = sum_{m=1}^{K} C(K-m, l) Pr[Y_m = n]; the l = 0 column reduces
    to K * p_n.  b and c are the partition and cache weight vectors.
    """

    n_files: int
    k_users: int
    g: np.ndarray
    b: np.ndarray
    c: np.ndarray


def rate_coefficients(model: PopularityModel, ystats: OrderStatTable) -> RateCoefficients:
    """Rate weights for ``model`` from its order-statistic table."""
    if ystats.n_files != model.n_files:
        raise DimensionMismatchError(
            f"order-stat table covers {ystats.n_files} files, model has {model.n_files}"
        )
    k = ystats.k_users
    # weight[m-1, l] = C(K-m, l); the l = 0 column is all ones, so the same
    # contraction yields g_{n,0} = sum_m Pr[Y_m = n] = K * p_n.
    weight = np.array(
        [[binom_ext(k - m, l) for l in range(k + 1)] for m in range(1, k + 1)], dtype=float
    )
    g = ystats.probs.T @ weight
    return RateCoefficients(model.n_files, k, g, partition_weights(k), cache_weights(k))


def average_rate(placement: PlacementMatrix, coeffs: RateCoefficients) -> float:
    """Expected delivery rate sum_{n,l} g_{n,l} a_{n,l} of a popularity-first placement."""
    if (placement.n_files, placement.k_users) != (coeffs.n_files, coeffs.k_users):
        raise DimensionMismatchError("placement and coefficients disagree on (N, K)")
    if not placement.is_popularity_first():
        raise PopularityFirstError(
            "rate formula requires a_{n,l} >= a_{n+1,l} for l >= 1"
        )
    return float(np.sum(coeffs.g * placement.a))


@dataclass(frozen=True)
class FileGroupReport:
    """Files grouped by identical placement rows (maximal runs)."""

    group_count: int
    boundaries: tuple[int, ...]  # last file index of each group except the final one
    group_labels: tuple[int, ...]  # 1-based group id per file


def analyze_groups(placement: PlacementMatrix, tol: float = ZERO_TOL) -> FileGroupReport:
    """Split files into groups of (elementwise) equal consecutive rows."""
    split = np.any(np.abs(np.diff(placement.a, axis=0)) > tol, axis=1)  # rows i and i + 1 differ
    labels = 1 + np.concatenate(([0], np.cumsum(split)))
    boundaries = np.flatnonzero(split) + 1
    return FileGroupReport(int(labels[-1]), tuple(boundaries.tolist()), tuple(labels.tolist()))


@dataclass(frozen=True)
class SubpacketizationReport:
    """Number of nonempty subfiles per file, with max and mean."""

    per_file: tuple[int, ...]
    max_level: int
    avg_level: float


def subpacketization(placement: PlacementMatrix, tol: float = ZERO_TOL) -> SubpacketizationReport:
    """L_n = sum over l with a_{n,l} > tol of C(K, l)."""
    k = placement.k_users
    counts = np.array([binom_ext(k, l) for l in range(k + 1)], dtype=np.int64)
    per_file = tuple(((placement.a > tol).astype(np.int64) @ counts).tolist())
    return SubpacketizationReport(per_file, max(per_file), sum(per_file) / len(per_file))


def worst_case_subpacketization_bound(k_users: int) -> tuple[int, float]:
    """Worst-case max subpacketization: exact binomial value and its Stirling form."""
    if k_users < 1:
        raise InvalidParameterError("k_users must be >= 1")
    exact = binom_ext(k_users, k_users // 2) + binom_ext(k_users, k_users // 2 + 1)
    stirling = math.sqrt(8.0 / math.pi) * math.exp(1.0 / (12.0 * k_users)) * 2.0**k_users / math.sqrt(k_users)
    return exact, stirling
