"""Seeded instances, operations, output checks and traced replays of the
benchmark workloads.

Every workload is a closed loop of one kind of operation:

* ``sweep-mid``: one ``codedcache sweep`` grid point, bound by the
  candidate search;
* ``verify-guard``: one ``codedcache verify`` run just under the LP
  oracle's 200-variable guard, bound by the dense simplex;
* ``simulate-k12``: the README library path at K = 12, bound by the
  2^K subset loops of the delivery layer.

Instance parameters (K, N, M, popularity kind) follow a randomly shifted
low-discrepancy sequence, so the cost mix of a run barely depends on the
seed while each instance is still random. The seed is the only source of
randomness.

The benchmark reaches the package only through ``codedcache.cli.main``
and the names ``codedcache`` exports.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import math
import random
from dataclasses import dataclass

import codedcache as cc
from codedcache import cli

#: The defaults of ``codedcache verify`` (Monte Carlo trials, decode
#: demands, LP gap tolerance) that the verify replay reproduces.
VERIFY_TRIALS = 20_000
VERIFY_DEMANDS = 20
VERIFY_GAP_TOL = 1e-8

@dataclass(frozen=True)
class Shape:
    """Ranges one workload draws its instances from."""

    k_values: tuple[int, ...]
    n_range: object  # K -> (lowest N, highest N)
    m_decimals: int
    round_size: int  # instances between set-up probes; a run ends on a round
    rounds: int  # rounds in an instance list; a run cycles through it
    trials: int = 0  # Monte Carlo trials (simulate-k12)
    demands: int = 0  # served demands, each decoded by every user (simulate-k12)


@dataclass(frozen=True)
class Instance:
    index: int
    n: int
    k: int
    m_text: str
    spec: dict  # popularity spec in the CLI's JSON form
    seed: int
    model: cc.PopularityModel

    @property
    def m(self) -> float:
        return float(self.m_text)

    def popularity_argv(self) -> list[str]:
        if self.spec["type"] == "zipf":
            return ["--zipf", repr(self.spec["theta"])]
        return ["--step", ",".join(f"{lv['p']}x{lv['count']}" for lv in self.spec["levels"])]

    def record(self) -> dict:
        return {
            "index": self.index, "N": self.n, "K": self.k, "M": self.m_text,
            "popularity": self.spec, "seed": self.seed,
        }


def _kronecker(rng: random.Random, dims: int):
    """Randomly shifted R_d sequence (Roberts): every prefix of its points
    covers [0, 1)^dims evenly, so a run's instance mix barely depends on
    where the time limit cuts it or on the seed, while each point on its
    own is uniform."""
    phi = 2.0
    for _ in range(64):  # phi solves x^(dims+1) = x + 1
        phi = (1.0 + phi) ** (1.0 / (dims + 1))
    alpha = [phi ** -(i + 1) for i in range(dims)]
    shift = [rng.random() for _ in range(dims)]
    for j in itertools.count(1):
        yield [(s + j * a) % 1.0 for s, a in zip(shift, alpha)]


def _popularity(rng: random.Random, kind: str, n: int) -> dict:
    """Zipf with theta in [0.6, 1.4], or three levels with many equal files."""
    if kind == "zipf":
        return {"type": "zipf", "theta": round(rng.uniform(0.6, 1.4), 3)}
    c1 = rng.randint(1, max(1, n // 5))
    c2 = rng.randint(1, max(1, (n - c1) // 2))
    counts = (c1, c2, n - c1 - c2)
    w3 = 1
    w2 = w3 * rng.randint(2, 5)
    w1 = w2 * rng.randint(2, 5)
    total = sum(c * w for c, w in zip(counts, (w1, w2, w3)))
    return {
        "type": "step",
        "levels": [{"p": f"{w}/{total}", "count": c} for c, w in zip(counts, (w1, w2, w3))],
    }


def build_instances(workload: str, seed: int, tiny: bool) -> list[list[Instance]]:
    """The seeded instance list of a workload in rounds, popularity models included."""
    shape = (TINY if tiny else SHAPES)[workload]
    rng = random.Random(f"{workload}/{seed}")
    points = _kronecker(rng, 4)
    step = 10.0 ** -shape.m_decimals
    rounds = []
    for r in range(shape.rounds):
        instances = []
        for _ in range(shape.round_size):
            k_u, n_u, m_u, kind_u = next(points)
            k = shape.k_values[int(k_u * len(shape.k_values))]
            lo, hi = shape.n_range(k)
            n = lo + int(n_u * (hi - lo + 1))
            m = max(round(m_u * n / 2, shape.m_decimals), step)  # M in (0, N/2]
            spec = _popularity(rng, "zipf" if kind_u < 0.5 else "step", n)
            instances.append(
                Instance(
                    r * shape.round_size + len(instances), n, k, f"{m:.{shape.m_decimals}f}",
                    spec, rng.randrange(1, 2**31), cc.popularity_from_spec(spec, n),
                )
            )
        rounds.append(instances)
    return rounds


def run_cli(argv: list[str]) -> tuple[int, str]:
    """cli.main with stdout and stderr captured; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def direct(name, fn, *args, **kwargs):
    """The untraced form of a replay's ``call``."""
    return fn(*args, **kwargs)


def candidate_count(n: int, k: int) -> int:
    """Size of the (n_o, n_1, l_o, l_1) tuple space before feasibility.

    Zero-tail: n_o in 1..N. Two-group: n_o in 1..N-1 times (l_o, l_1) in
    K x K (l_1 = l_o is case 2.i). Three-group: as two-group on the first
    n_1 files, for n_1 in 2..N-1.
    """
    return n + k * k * (n * (n - 1) // 2)


@dataclass
class Checked:
    """An operation's output check: problems found, a digest line, work counts."""

    problems: list
    digest: str
    counts: dict


class SweepMid:
    """One ``codedcache sweep`` grid point, checked from the CSV it writes."""

    def __init__(self, scratch_csv):
        self.csv_path = scratch_csv

    def execute(self, inst: Instance, call=None):
        return run_cli([
            "sweep", *inst.popularity_argv(), "--N", str(inst.n), "--K", str(inst.k),
            "--M", inst.m_text, "--out", str(self.csv_path),
        ])

    def check(self, inst: Instance, outcome) -> Checked:
        code, _ = outcome
        counts = {"solver.candidates": candidate_count(inst.n, inst.k)}
        if code != 0:
            return Checked([f"exit code {code}"], "", counts)
        text = self.csv_path.read_text()
        rows = list(csv.DictReader(io.StringIO(text)))
        if len(rows) != 1:
            return Checked([f"{len(rows)} CSV rows, expected 1"], text, counts)
        row = {key: float(value) for key, value in rows[0].items()}
        problems = []
        best = row["optimal_rate"]
        if best > min(row["one_group_rate"], row["alg1_rate"]) + 1e-9:
            problems.append("optimal_rate above a baseline")
        problems += [
            f"{col} above optimal_rate" for col in row if col.startswith("lb_") and row[col] > best + 1e-9
        ]
        if abs(row["M"] - inst.m) > 1e-9 * max(1.0, inst.m):
            problems.append("M column differs from the requested M")
        return Checked(problems, text.splitlines()[1], counts)

    def replay(self, inst: Instance, call):
        """The library calls of one sweep grid point; returns its CSV row."""
        n, k, m = inst.n, inst.k, inst.m
        model = call("popularity.from_spec", cc.popularity_from_spec, inst.spec, n)
        stats = call("popularity.order_stats", cc.order_stats, model, k)
        coeffs = call("placement.rate_coefficients", cc.rate_coefficients, model, stats)
        optimal = call("solver.algorithm4", cc.algorithm4, model, k, m, coeffs=coeffs)
        one_group = call("solver.one_group_placement", cc.one_group_placement, n, k, m)
        baseline = call("placement.average_rate", cc.average_rate, one_group, coeffs)
        zero_tail = call("solver.algorithm1", cc.algorithm1, model, k, m, coeffs=coeffs)
        two_group = call("bounds.bound_two_group", cc.bound_two_group, model, k, m)
        exhaustive = call("bounds.bound_exhaustive", cc.bound_exhaustive, model, k, m)
        proposed = call(
            "bounds.bound_proposed", cc.bound_proposed, model, k, m, optimal.first_group_size
        )
        cells = (m, optimal.rate, baseline, zero_tail.rate, two_group.value,
                 exhaustive.value, proposed.value)
        return ",".join(f"{v:.10g}" for v in cells)

    def check_replay(self, inst: Instance, checked: Checked, replayed) -> Checked:
        problems = [] if replayed == checked.digest else ["replayed row differs from the CLI row"]
        return Checked(problems, checked.digest, checked.counts)


class VerifyGuard:
    """One ``codedcache verify`` run, checked from its PASS/FAIL report."""

    def execute(self, inst: Instance, call=None):
        return run_cli([
            "verify", *inst.popularity_argv(), "--N", str(inst.n), "--K", str(inst.k),
            "--M", inst.m_text, "--seed", str(inst.seed),
        ])

    def check(self, inst: Instance, outcome) -> Checked:
        code, out = outcome
        problems = [] if code == 0 else [f"exit code {code}"]
        problems += [line for line in out.splitlines() if line.startswith("FAIL")]
        if not out.endswith("verify: 1 instance(s), 0 failed check(s)\n"):
            problems.append("missing the verify summary line")
        counts = {
            "solver.candidates": candidate_count(inst.n, inst.k),
            "lp_oracle.n_vars": inst.n * (inst.k + 1),
            "delivery.mc_trials": VERIFY_TRIALS,
        }
        return Checked(problems, out, counts)

    def replay(self, inst: Instance, call):
        """The library calls of one verify run: certify, Monte Carlo, decode."""
        n, k, m, seed = inst.n, inst.k, inst.m, inst.seed
        model = call("popularity.from_spec", cc.popularity_from_spec, inst.spec, n)
        stats = call("popularity.order_stats", cc.order_stats, model, k)
        coeffs = call("placement.rate_coefficients", cc.rate_coefficients, model, stats)
        candidate = call("solver.algorithm4", cc.algorithm4, model, k, m, coeffs=coeffs)
        lp = call("lp_oracle.build_p2", cc.build_p2, model, k, m, coeffs)
        solution = call("lp_oracle.solve", cc.solve_lp, lp)
        lp_matrix = call(
            "placement.PlacementMatrix", cc.PlacementMatrix, n, k, solution.values.reshape(n, k + 1)
        )
        call("placement.worst_case_subpacketization_bound",
             cc.worst_case_subpacketization_bound, k)
        call("placement.analyze_groups", cc.analyze_groups, candidate.placement)
        call("placement.analyze_groups", cc.analyze_groups, lp_matrix, tol=1e-7)
        call("placement.subpacketization", cc.subpacketization, candidate.placement)
        mc = call("delivery.monte_carlo_rate", cc.monte_carlo_rate,
                  candidate.placement, model, VERIFY_TRIALS, seed)
        f_bits = call("delivery.minimal_file_size", cc.minimal_file_size, candidate.placement)
        library = call("delivery.random_library", cc.random_library, n, f_bits, seed)
        real = call("delivery.realize", cc.realize, candidate.placement, library)
        demands = call("delivery.sample_demands", cc.sample_demands, model, k, VERIFY_DEMANDS,
                       seed + 1)
        for row in demands:
            transcript = call("delivery.serve", cc.serve, real, row)
            for user in range(1, k + 1):
                call("delivery.decode", cc.decode, real, transcript, user)
        return solution, candidate, mc, f_bits

    def check_replay(self, inst: Instance, checked: Checked, replayed) -> Checked:
        solution, candidate, mc, f_bits = replayed
        gap = abs(candidate.rate - solution.objective_value)
        problems = []
        if solution.status != "optimal" or not gap <= VERIFY_GAP_TOL:
            problems.append(f"replayed LP: status {solution.status}, gap {gap:.3e}")
        if f"mc={mc.mean_rate:.6g} " not in checked.digest:
            problems.append("replayed Monte Carlo mean differs from the CLI's")
        if f", F={f_bits} bits" not in checked.digest:
            problems.append("replayed file size differs from the CLI's")
        counts = dict(checked.counts)
        counts["lp_oracle.gap"] = gap
        counts["delivery.file_bits"] = f_bits
        counts["delivery.decoded_bits"] = f_bits * inst.k * VERIFY_DEMANDS
        return Checked(checked.problems + problems, checked.digest, counts)


@dataclass
class Simulation:
    best: cc.CandidateSolution
    coeffs: cc.RateCoefficients
    library: cc.FileLibrary
    mc: cc.MonteCarloResult
    served: list  # (demand row, transcript bits, decoded file per user)


class SimulateK12:
    """The README library path; ``execute`` and ``replay`` are the same calls."""

    def __init__(self, shape: Shape):
        self.trials = shape.trials
        self.demands = shape.demands

    def execute(self, inst: Instance, call=direct) -> Simulation:
        n, k, m, seed, model = inst.n, inst.k, inst.m, inst.seed, inst.model
        stats = call("popularity.order_stats", cc.order_stats, model, k)
        coeffs = call("placement.rate_coefficients", cc.rate_coefficients, model, stats)
        best = call("solver.algorithm4", cc.algorithm4, model, k, m, coeffs=coeffs)
        f_bits = call("delivery.minimal_file_size", cc.minimal_file_size, best.placement)
        library = call("delivery.random_library", cc.random_library, n, f_bits, seed)
        real = call("delivery.realize", cc.realize, best.placement, library)
        mc = call("delivery.monte_carlo_rate", cc.monte_carlo_rate,
                  best.placement, model, self.trials, seed)
        served = []
        demands = call("delivery.sample_demands", cc.sample_demands, model, k, self.demands,
                       seed + 1)
        for row in demands:
            transcript = call("delivery.serve", cc.serve, real, row)
            files = [call("delivery.decode", cc.decode, real, transcript, user)
                     for user in range(1, k + 1)]
            served.append((row, transcript.total_bits, files))
        return Simulation(best, coeffs, library, mc, served)

    replay = execute

    def check(self, inst: Instance, sim: Simulation) -> Checked:
        k, m = inst.k, inst.m
        problems = list(sim.best.placement.violations(m))
        if abs(cc.average_rate(sim.best.placement, sim.coeffs) - sim.best.rate) > 1e-9:
            problems.append("average_rate differs from the reported rate")
        if abs(sim.mc.mean_rate - sim.best.rate) > 5.0 * sim.mc.std_error + 1e-9 * k:
            problems.append("Monte Carlo mean outside 5 standard errors")
        for row, _, files in sim.served:
            for user, data in enumerate(files):
                if data != sim.library.contents[row[user] - 1]:
                    problems.append(f"user {user + 1} decoded the wrong bytes")
        f_bits = sim.library.file_size_bits
        digest = ",".join(
            [f"{sim.best.rate:.10g}", f"{sim.mc.mean_rate:.10g}", f"{sim.mc.std_error:.10g}",
             str(f_bits)] + [str(bits) for _, bits, _ in sim.served]
        )
        counts = {
            "solver.candidates": candidate_count(inst.n, k),
            "delivery.mc_trials": self.trials,
            "delivery.file_bits": f_bits,
            "delivery.decoded_bits": f_bits * k * len(sim.served),
        }
        return Checked(problems, digest, counts)

    def check_replay(self, inst: Instance, checked: Checked, replayed) -> Checked:
        again = self.check(inst, replayed)
        if again.digest != checked.digest:
            again.problems.append("replayed outputs differ from the untraced run")
        return again


def _guard_sizes(k: int) -> tuple[int, int]:
    """N with N * (K + 1) in [150, 200]: just under the LP oracle guard."""
    return math.ceil(150 / (k + 1)), 200 // (k + 1)


def _sweep_sizes(k: int) -> tuple[int, int]:
    """N with N * K in [400, 560]: the search size of a run stays steady."""
    return max(40, math.ceil(400 / k)), min(80, 560 // k)


SHAPES = {
    "sweep-mid": Shape((8, 9, 10, 11, 12), _sweep_sizes, 3, 5, 24),
    "verify-guard": Shape((5, 6, 7, 8), _guard_sizes, 2, 8, 24),
    "simulate-k12": Shape((12,), lambda k: (6, 16), 2, 3, 24, trials=5000, demands=2),
}
TINY = {
    "sweep-mid": Shape((3, 4), lambda k: (8, 12), 3, 4, 3),
    "verify-guard": Shape((2, 3), lambda k: (4, 8), 2, 4, 3),
    "simulate-k12": Shape((5,), lambda k: (3, 6), 2, 6, 2, trials=500, demands=2),
}
WORKLOADS = tuple(SHAPES)


def make_workload(name: str, tiny: bool, scratch_csv):
    shape = (TINY if tiny else SHAPES)[name]
    if name == "sweep-mid":
        return SweepMid(scratch_csv)
    if name == "verify-guard":
        return VerifyGuard()
    return SimulateK12(shape)


def family_pass(instances: list[Instance], call) -> None:
    """Time each candidate-search family on its own, outside the operations."""
    for inst in instances:
        coeffs = cc.rate_coefficients(inst.model, cc.order_stats(inst.model, inst.k))
        for label, fn in (("zero_tail", cc.algorithm1), ("two_group", cc.algorithm2),
                          ("three_group", cc.algorithm3)):
            call(f"solver.family.{label}", fn, inst.model, inst.k, inst.m, coeffs=coeffs)

