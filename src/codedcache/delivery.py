"""Bit-exact realization of placement and coded delivery.

Files are bit strings handled as Python integers with LSB-first packing:
bit i of a file is ``(data[i // 8] >> (i % 8)) & 1`` of its byte form.
Each file is sliced left-to-right into one subfile per user subset, in the
fixed global order "subset size ascending, then bitmask ascending" (bit
k-1 of a mask stands for user k).  Delivery XORs, per nonempty subset S,
the subfiles its members miss; shorter operands are implicitly zero-padded
at the tail, so a message is as long as its largest operand.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DecodeError, InvalidFileSizeError, InvalidParameterError
from .placement import ZERO_TOL, PlacementMatrix
from .popularity import PopularityModel, binomials


def _int_to_bytes(x: int, nbits: int) -> bytes:
    return x.to_bytes((nbits + 7) // 8, "little")


def _bytes_to_int(data: bytes, nbits: int) -> int:
    if len(data) != (nbits + 7) // 8:
        raise InvalidParameterError(f"expected {(nbits + 7) // 8} bytes for {nbits} bits")
    x = int.from_bytes(data, "little")
    if x >> nbits:
        raise InvalidParameterError("bits beyond the declared size must be zero")
    return x


@functools.cache
def _subsets(k_users: int) -> tuple[tuple[tuple[int, ...], tuple[tuple[int, ...], ...]], ...]:
    """Per subset size l: the l-user masks ascending, and each mask's member bits.

    Member tuples share one list of ``1 << j`` ints, so the K=12 table
    stays around half a megabyte.
    """
    bits = [1 << j for j in range(k_users)]
    levels = [([], []) for _ in range(k_users + 1)]
    for mask in range(1 << k_users):
        masks, members = levels[mask.bit_count()]
        masks.append(mask)
        members.append(tuple(b for b in bits if mask & b))
    return tuple((tuple(masks), tuple(members)) for masks, members in levels)


@dataclass(frozen=True)
class FileLibrary:
    """N concrete files of exactly ``file_size_bits`` bits each."""

    file_size_bits: int
    contents: tuple[bytes, ...]

    def __post_init__(self):
        if self.file_size_bits < 1:
            raise InvalidParameterError("file size must be at least one bit")
        for data in self.contents:
            _bytes_to_int(data, self.file_size_bits)

    @property
    def n_files(self) -> int:
        return len(self.contents)


def _philox(seed: int) -> np.random.Generator:
    """The counter-based generator keyed by ``seed``, an integer in [0, 2^128)."""
    if not 0 <= seed < 1 << 128:
        raise InvalidParameterError(f"seed must be in [0, 2^128), got {seed}")
    return np.random.Generator(np.random.Philox(key=seed))


def random_library(n_files: int, file_size_bits: int, seed: int) -> FileLibrary:
    """Reproducible random file contents."""
    rng = _philox(seed)
    nbytes = (file_size_bits + 7) // 8
    files = []
    for _ in range(n_files):
        raw = bytearray(rng.integers(0, 256, size=nbytes, dtype=np.uint64).astype(np.uint8).tobytes())
        spare = 8 * nbytes - file_size_bits
        if spare:
            raw[-1] &= 0xFF >> spare
        files.append(bytes(raw))
    return FileLibrary(file_size_bits, tuple(files))


def minimal_file_size(placement: PlacementMatrix) -> int:
    """Smallest file size (bits) making every subfile size integral.

    Solver outputs are rationals in floating point; each entry whose level
    share C(K,l) a_{n,l} exceeds ``ZERO_TOL`` is recovered as an exact
    fraction and the LCM of denominators is taken.
    """
    denominator = 1
    for value in placement.a[placement.level_shares() > ZERO_TOL].tolist():
        frac = Fraction(value).limit_denominator(10**9)
        if abs(float(frac) - value) > 1e-12:
            raise InvalidFileSizeError(f"placement entry {value!r} is not recognizably rational")
        denominator = math.lcm(denominator, frac.denominator)
    return denominator


@dataclass(frozen=True)
class PlacementRealization:
    """Concrete subfiles of every file plus the per-user cache contents."""

    placement: PlacementMatrix
    library: FileLibrary
    sizes: np.ndarray  # sizes[n, l] = bits per subfile of file n+1 at subset size l
    subfiles: dict  # (file index 0-based, subset mask) -> bit string as int

    @property
    def k_users(self) -> int:
        return self.placement.k_users

    @property
    def file_size_bits(self) -> int:
        return self.library.file_size_bits

    def subfile(self, file_index0: int, mask: int) -> int:
        return self.subfiles.get((file_index0, mask), 0)


def realize(placement: PlacementMatrix, library: FileLibrary) -> PlacementRealization:
    """Slice every file into its subfiles and fill the user caches."""
    n, k = placement.n_files, placement.k_users
    if library.n_files != n:
        raise InvalidParameterError(f"library has {library.n_files} files, placement {n}")
    f_bits = library.file_size_bits
    scaled = placement.a * f_bits
    sizes = np.rint(scaled).astype(np.int64)
    if np.max(np.abs(scaled - sizes)) > 1e-6 or np.any(sizes @ binomials(k)[k] != f_bits):
        minimal = minimal_file_size(placement)
        raise InvalidFileSizeError(f"subfile sizes are not integral or do not add up at "
                                   f"F={f_bits}; use a multiple of {minimal} bits", minimal)

    table = _subsets(k)
    subfiles: dict[tuple[int, int], int] = {}
    for idx, (data, row) in enumerate(zip(library.contents, sizes.tolist())):
        offset = 0
        for (masks, _), size in zip(table, row):
            if not size:
                continue
            low = (1 << size) - 1
            for mask in masks:  # read only the bytes the subfile spans: O(F) per file
                field = int.from_bytes(data[offset // 8:(offset + size + 7) // 8], "little")
                subfiles[(idx, mask)] = (field >> offset % 8) & low
                offset += size
    return PlacementRealization(placement, library, sizes, subfiles)


@dataclass(frozen=True)
class DeliveryTranscript:
    """Coded messages for one demand: subset mask -> (bits, payload)."""

    demand: tuple[int, ...]
    messages: dict  # mask -> (length_bits, payload int)
    total_bits: int

    def dump(self) -> str:
        """One line per message: "mask,length-bits,hex-payload"."""
        lines = [
            f"{mask},{length},{_int_to_bytes(payload, length).hex()}"
            for mask, (length, payload) in sorted(self.messages.items())
        ]
        return "\n".join(lines) + ("\n" if lines else "")


def _check_demand(demand, n: int, k: int) -> tuple[int, ...]:
    demand = tuple(int(d) for d in demand)
    if len(demand) != k or any(not 1 <= d <= n for d in demand):
        raise InvalidParameterError(f"demand must be {k} file indices in 1..{n}")
    return demand


def serve(realization: PlacementRealization, demand) -> DeliveryTranscript:
    """Multicast one coded message per user subset that needs one.

    The message for S XORs, per member k, the subfile of d_k cached by
    S minus k; subset sizes where no requested file has subfiles are skipped.
    """
    k = realization.k_users
    demand = _check_demand(demand, realization.placement.n_files, k)
    rows = realization.sizes.tolist()
    file_of = {1 << j: d - 1 for j, d in enumerate(demand)}
    get = realization.subfiles.get
    messages = {}
    total = 0
    for level, (masks, members) in enumerate(_subsets(k)[1:]):
        length_of = {b: rows[f][level] for b, f in file_of.items()}
        if not any(length_of.values()):
            continue
        for mask, bits in zip(masks, members):
            length = max([length_of[b] for b in bits])
            if length:
                payload = 0
                for b in bits:
                    payload ^= get((file_of[b], mask ^ b), 0)
                messages[mask] = (length, payload)
                total += length
    return DeliveryTranscript(demand, messages, total)


def decode(realization: PlacementRealization, transcript: DeliveryTranscript, user: int) -> bytes:
    """Reconstruct user k's requested file from its cache plus the transcript.

    Raises DecodeError unless the result is bit-exact.
    """
    k = realization.k_users
    if not 1 <= user <= k:
        raise InvalidParameterError(f"user must be in 1..{k}")
    bit = 1 << (user - 1)
    file_of = {1 << j: d - 1 for j, d in enumerate(transcript.demand)}
    file_idx = file_of[bit]
    get = realization.subfiles.get
    messages = transcript.messages

    fields = []  # (piece, bits) in file order
    for (masks, members), size in zip(_subsets(k), realization.sizes[file_idx].tolist()):
        if not size:
            continue
        low = (1 << size) - 1
        for mask, bits in zip(masks, members):
            if mask & bit:
                piece = get((file_idx, mask), 0)  # cached locally
            else:
                coded_mask = mask | bit
                entry = messages.get(coded_mask)
                if entry is None:
                    raise DecodeError(f"message for subset {coded_mask:#x} missing")
                piece = entry[1]
                for b in bits:  # the other members' subfiles, cached by this user
                    piece ^= get((file_of[b], coded_mask ^ b), 0)
                piece &= low  # strip tail padding
            fields.append((piece, size))
    while len(fields) > 1:  # join neighbours pairwise: O(F) per pass, log2 passes
        fields += [(0, 0)] * (len(fields) % 2)
        fields = [(lo | hi << n, n + m) for (lo, n), (hi, m) in zip(fields[::2], fields[1::2])]
    result, offset = fields[0]

    f_bits = realization.file_size_bits
    expected = _bytes_to_int(realization.library.contents[file_idx], f_bits)
    if offset != f_bits or result != expected:
        raise DecodeError(f"user {user} reconstructed file {file_idx + 1} incorrectly")
    return _int_to_bytes(result, f_bits)


def sample_demands(model: PopularityModel, k_users: int, count: int, seed: int) -> np.ndarray:
    """count x K matrix of 1-based demands, i.i.d. from ``model``.

    Row t consumes the Philox stream keyed by ``seed`` at counter offsets
    t*K .. t*K + K - 1, so trials are independently recomputable.
    """
    if count < 0:
        raise InvalidParameterError(f"demand count must be >= 0, got {count}")
    cum = np.cumsum(model.probs)
    cum[-1] = 1.0
    rng = _philox(seed)
    uniforms = rng.random((count, k_users))
    return np.searchsorted(cum, uniforms, side="right").astype(np.int64) + 1


@dataclass(frozen=True)
class MonteCarloResult:
    mean_rate: float
    std_error: float
    trials: int
    seed: int

    def to_json_dict(self) -> dict:
        return {
            "mean": self.mean_rate,
            "stderr": self.std_error,
            "trials": self.trials,
            "seed": self.seed,
        }


def monte_carlo_rate(
    placement: PlacementMatrix, model: PopularityModel, trials: int, seed: int
) -> MonteCarloResult:
    """Estimate the average rate by sampling demands.

    Per-trial rates are computed in the size domain (fractions of the file
    size), which equals total delivered bits / F for any valid realization.
    A subset of l+1 users costs the largest a[d_u, l] among its members.
    Sorted ascending, the j-th smallest of the K values is that largest in
    exactly C(j, l) of the (l+1)-subsets, so level l costs one sort and one
    dot product per trial.
    """
    if trials < 1:
        raise InvalidParameterError("trials must be >= 1")
    if model.n_files != placement.n_files:
        raise InvalidParameterError("model and placement disagree on the file count")
    k = placement.k_users
    demands0 = sample_demands(model, k, trials, seed) - 1
    rates = np.zeros(trials)
    for level in range(k):
        values = placement.a[demands0, level]
        values.sort(axis=1)
        rates += values @ binomials(k)[:k, level].astype(float)
    mean = float(rates.mean())
    stderr = float(rates.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return MonteCarloResult(mean, stderr, trials, seed)
