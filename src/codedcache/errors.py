"""Exception types shared across the package."""


class CodedCacheError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameterError(CodedCacheError, ValueError):
    """A scalar argument is outside its admissible range."""


class InvalidDistributionError(CodedCacheError, ValueError):
    """A popularity vector is not a valid probability distribution."""


class DimensionMismatchError(CodedCacheError, ValueError):
    """Two objects that must share (N, K) dimensions do not."""


class PopularityFirstError(CodedCacheError, ValueError):
    """A placement violates the popularity-first ordering required by the
    closed-form rate expression."""


class BinomialRangeError(CodedCacheError, OverflowError):
    """Binomial coefficient outside the exact-integer range supported here."""


class InfeasibleCaseError(CodedCacheError):
    """A candidate (n_o, n_1, l_o, l_1) tuple does not yield a valid placement."""


class InvalidFileSizeError(CodedCacheError, ValueError):
    """The chosen file size does not make every subfile size integral.

    Carries ``minimal_size`` (bits), the smallest size that would work.
    """

    def __init__(self, message: str, minimal_size: int | None = None):
        super().__init__(message)
        self.minimal_size = minimal_size


class DecodeError(CodedCacheError):
    """A user failed to reconstruct its requested file bit-exactly."""


class SolverStalledError(CodedCacheError):
    """The LP solver exceeded its iteration cap."""
