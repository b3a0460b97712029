"""codedcache benchmark: one workload in one process, a closed loop with one client.

    python3 perfbench/run.py --workload sweep-mid --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace 1``
is the traced run: it runs each operation untraced, then replays it call by
call with a span around every call into the package, and reports the
per-layer metrics. ``--tiny`` runs a few tiny instances and ignores
``--seconds`` (the self-test uses it).

Every operation's output is checked; a failed check counts as a failed
operation. The human-readable report goes to stdout and a results file
(environment, instance list, per-operation records, digest) to
``perfbench/results/``. The last line of stdout is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported, here and in every child
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS = BENCH_DIR / "results"
#: Fresh-interpreter set-ups per run, one before each round while they
#: last (the rest after the loop), so a short burst of load on the machine
#: cannot hit them all; setup_s is their median.
SETUP_PROBES = 7
#: Instances the traced run's extra family pass times.
FAMILY_PASS_INSTANCES = 8

END_TO_END_UNITS = {
    "setup_s": "s", "ops_per_s": "ops/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Mean self time per operation in ms, summed over the listed span names.
SELF_TIME = {
    "popularity.order_stats.self_ms": ["popularity.order_stats"],
    "placement.rate_coefficients.self_ms": ["placement.rate_coefficients"],
    "placement.average_rate.self_ms": ["placement.average_rate"],
    "placement.structure.self_ms": ["placement.analyze_groups", "placement.subpacketization"],
    "solver.algorithm4.self_ms": ["solver.algorithm4"],
    "solver.algorithm1.self_ms": ["solver.algorithm1"],
    "bounds.bound_two_group.self_ms": ["bounds.bound_two_group"],
    "bounds.bound_exhaustive.self_ms": ["bounds.bound_exhaustive"],
    "bounds.bound_proposed.self_ms": ["bounds.bound_proposed"],
    "lp_oracle.build_p2.self_ms": ["lp_oracle.build_p2"],
    "lp_oracle.solve.self_ms": ["lp_oracle.solve"],
    "delivery.monte_carlo_rate.self_ms": ["delivery.monte_carlo_rate"],
    "delivery.sample_demands.self_ms": ["delivery.sample_demands"],
    "delivery.minimal_file_size.self_ms": ["delivery.minimal_file_size"],
    "delivery.random_library.self_ms": ["delivery.random_library"],
    "delivery.realize.self_ms": ["delivery.realize"],
    "delivery.serve.self_ms": ["delivery.serve"],
    "delivery.decode.self_ms": ["delivery.decode"],
}
#: Mean time per instance of each search family in the extra family pass.
FAMILIES = {
    "solver.family.zero_tail_ms": "solver.family.zero_tail",
    "solver.family.two_group_ms": "solver.family.two_group",
    "solver.family.three_group_ms": "solver.family.three_group",
}
#: Mean per operation of a count from the operation's check; "computed"
#: counts follow from the inputs alone.
COUNTS = {
    "solver.candidates": ("count", "computed"),
    "lp_oracle.n_vars": ("count", "computed"),
    "delivery.mc_trials": ("count", "computed"),
    "delivery.file_bits": ("bits", "minimal_file_size output"),
    "delivery.decoded_bits": ("bits", "computed: file_bits x users x demands"),
}
#: Ratio -> (unit, span whose self time is divided, count it is divided by).
RATIOS = {
    "solver.ns_per_candidate": ("ns", "solver.algorithm4", "solver.candidates"),
    "delivery.mc_ns_per_trial": ("ns", "delivery.monte_carlo_rate", "delivery.mc_trials"),
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="a few tiny instances (self-test)")
    return parser.parse_args(argv)


def import_package():
    """Import codedcache from this checkout's src/, and nothing else."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import codedcache
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import codedcache from {src}: {exc}")
    if not Path(codedcache.__file__).resolve().is_relative_to(src):
        sys.exit(f"perfbench: codedcache was imported from {codedcache.__file__}, not {src}")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(args) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "seed": args.seed,
        "commit": git_commit(),
    }


def setup_time(args) -> float:
    """Set-up seconds of one fresh interpreter."""
    command = [sys.executable, str(BENCH_DIR / "setup_probe.py"), args.workload,
               str(args.seed), "1" if args.tiny else "0"]
    done = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def closed_loop(rounds, seconds: float, tiny: bool):
    """Whole rounds, cycling, until the time is up; a tiny run makes one pass."""
    start = time.perf_counter()
    for instances in rounds if tiny else itertools.cycle(rounds):
        if not tiny and time.perf_counter() - start >= seconds:
            return
        yield instances


def attempt(workload, inst, call):
    """Run and check one operation; returns (latency s, output, Checked)."""
    from workloads import Checked

    start = time.perf_counter()
    try:
        outcome = workload.execute(inst, call)
    except Exception:  # a raising operation is a failed operation
        return time.perf_counter() - start, None, Checked([traceback.format_exc(limit=4)], "", {})
    latency = time.perf_counter() - start
    try:
        return latency, outcome, workload.check(inst, outcome)
    except Exception:
        return latency, outcome, Checked([traceback.format_exc(limit=4)], "", {})


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile with
    at least ten samples beyond it; the maximum when there are fewer."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def op_record(inst, latency, checked) -> dict:
    return {
        "instance": inst.index,
        "latency_s": latency,
        "problems": checked.problems,
        "output_sha256": hashlib.sha256(checked.digest.encode()).hexdigest(),
        "counts": checked.counts,
    }


def timed_run(args, workload, rounds):
    from workloads import direct

    setups, ops = [], []
    for instances in closed_loop(rounds, args.seconds, args.tiny):
        if len(setups) < SETUP_PROBES:
            setups.append(setup_time(args))
        for inst in instances:
            latency, _, checked = attempt(workload, inst, direct)
            ops.append(op_record(inst, latency, checked))
    setups += [setup_time(args) for _ in range(SETUP_PROBES - len(setups))]
    latencies = [op["latency_s"] for op in ops]
    failed = sum(1 for op in ops if op["problems"])
    tail_s, tail_pct, beyond = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": (len(ops) - failed) / sum(latencies),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_tail_ms": 1e3 * tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh interpreters",
        "ops_per_s": f"{len(ops) - failed} completed / {sum(latencies):.3f} s of operations",
        "op_p50_ms": f"n={len(ops)}",
        "op_tail_ms": f"p{tail_pct:.1f}, {beyond} samples beyond it, n={len(ops)}",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    report = {name: {"value": value, "unit": END_TO_END_UNITS[name], "note": notes[name]}
              for name, value in metrics.items()}
    report["fail_ratio"] = {"value": failed / len(ops), "unit": "ratio",
                            "note": f"{failed} failed / {len(ops)} attempted"}
    return ops, report, {"setup_s_samples": setups}


def traced_run(args, workload, rounds):
    from spans import Tracer
    from workloads import Checked, direct, family_pass

    tracer = Tracer()
    ops, seen = [], {}
    loop = (inst for instances in closed_loop(rounds, args.seconds, args.tiny) for inst in instances)
    for seq, inst in enumerate(loop):
        latency, _, checked = attempt(workload, inst, direct)
        tracer.op = seq
        span = tracer.begin("op")
        try:
            replayed = workload.replay(inst, tracer.call)
        except Exception:
            replayed = None
            checked = Checked(checked.problems + [traceback.format_exc(limit=4)], checked.digest,
                              checked.counts)
        finally:
            tracer.end(span)
        if replayed is not None and not checked.problems:
            checked = workload.check_replay(inst, checked, replayed)
        ops.append(op_record(inst, latency, checked))
        seen.setdefault(inst.index, inst)
    tracer.op = "family"
    family_pass(list(seen.values())[:FAMILY_PASS_INSTANCES], tracer.call)

    report = layer_metrics(tracer, ops, min(len(seen), FAMILY_PASS_INSTANCES))
    spans_path = RESULTS / f"{result_stem(args)}.spans.jsonl"
    tracer.write(spans_path)
    return ops, report, {"spans": str(spans_path.relative_to(ROOT)),
                         "predictions": predictions(args.workload, tracer)}


def layer_metrics(tracer, ops, family_instances: int) -> dict:
    n_ops = len(ops)
    self_ms = defaultdict(float)
    op_ms, library_ms = {}, defaultdict(float)
    for name, op, ns in tracer.self_ns():
        if op == "family" or name == "op":
            continue
        self_ms[name] += ns / 1e6
        library_ms[op] += ns / 1e6
    family_ms = defaultdict(float)
    for _, name, op, _, start, end in tracer.spans:
        if name == "op":
            op_ms[op] = (end - start) / 1e6
        elif op == "family":
            family_ms[name] += (end - start) / 1e6
    totals = defaultdict(float)
    for op in ops:
        for name, value in op["counts"].items():
            totals[name] += value

    report = {}
    for metric, names in SELF_TIME.items():
        report[metric] = {"value": sum(self_ms[n] for n in names) / n_ops, "unit": "ms",
                          "note": "mean self time per operation"}
    for metric, name in FAMILIES.items():
        report[metric] = {"value": family_ms[name] / max(family_instances, 1), "unit": "ms",
                          "note": f"mean over {family_instances} instances, outside operations"}
    for metric, (unit, label) in COUNTS.items():
        report[metric] = {"value": totals[metric] / n_ops, "unit": unit,
                          "note": f"mean per operation ({label})"}
    for metric, (unit, span_name, base) in RATIOS.items():
        value = 1e6 * self_ms[span_name] / totals[base] if totals[base] else 0.0
        report[metric] = {"value": value, "unit": unit,
                          "note": f"base: {base} = {totals[base]:.0f} over the run"}
    gaps = [op["counts"].get("lp_oracle.gap", 0.0) for op in ops]
    report["lp_oracle.gap_max"] = {"value": max(gaps), "unit": "files",
                                   "note": "max |LP optimum - closed-form rate|"}
    untraced = statistics.median(op["latency_s"] * 1e3 for op in ops)
    replayed = statistics.median(library_ms[seq] for seq in range(n_ops))
    report["cli.self_ms"] = {"value": untraced - replayed, "unit": "ms",
                             "note": f"median untraced {untraced:.3f} ms - median replayed "
                                     f"library time {replayed:.3f} ms"}
    untraced_total = sum(op["latency_s"] * 1e3 for op in ops)
    report["trace.overhead_ratio"] = {
        "value": sum(op_ms.values()) / untraced_total, "unit": "ratio",
        "note": f"base: {untraced_total:.1f} ms untraced over {n_ops} operations"}
    return report


def predictions(workload: str, tracer) -> dict:
    """Check the dominant layer the benchmark's design predicts for the workload."""
    totals = defaultdict(int)
    for name, op, ns in tracer.self_ns():
        if op != "family" and name != "op":
            totals[name] += ns
    if workload == "sweep-mid":
        op_time = sum(end - start for _, name, _, _, start, end in tracer.spans if name == "op")
        share = sum(v for n, v in totals.items() if n.startswith("solver.")) / op_time
        return {"claim": "solver self time >= 90% of replayed operation time",
                "value": share, "holds": share >= 0.9}
    expected = {"verify-guard": "lp_oracle.solve",
                "simulate-k12": "delivery.monte_carlo_rate"}[workload]
    leader = max(totals, key=totals.get)
    return {"claim": f"{expected} has the largest self time summed over the run",
            "value": leader, "holds": leader == expected}


def result_stem(args) -> str:
    return f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-tiny" if args.tiny else "")


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; one of {workloads.WORKLOADS}")
    RESULTS.mkdir(exist_ok=True)
    scratch_csv = RESULTS / f"sweep-{os.getpid()}.csv"
    rounds = workloads.build_instances(args.workload, args.seed, args.tiny)
    instances = [inst for instances in rounds for inst in instances]
    workload = workloads.make_workload(args.workload, args.tiny, scratch_csv)
    try:
        run = traced_run if args.trace else timed_run
        ops, report, extra = run(args, workload, rounds)
    finally:
        scratch_csv.unlink(missing_ok=True)

    failed = sum(1 for op in ops if op["problems"])
    digest = hashlib.sha256("\n".join(op["output_sha256"] for op in ops).encode()).hexdigest()
    ran = sorted({op["instance"] for op in ops})
    env = environment(args)
    results_path = RESULTS / f"{result_stem(args)}.json"
    results_path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "environment": env,
        "instances": [instances[i].record() for i in ran],
        "operations": ops, "output_digest": digest, "metrics": report, **extra,
    }, indent=1) + "\n")

    print(f"environment: {json.dumps(env)}")
    print(f"{args.workload}: {len(ops)} operations on {len(ran)} instances, {failed} failed")
    for op in ops:
        for problem in op["problems"]:
            print(f"FAILED instance {op['instance']}: {problem}")
    for name, item in report.items():
        print(f"  {name:38s} {item['value']:.6g} {item['unit']}  ({item['note']})")
    if "predictions" in extra:
        print(f"prediction: {json.dumps(extra['predictions'])}")
    print(f"output digest (sha256 over {len(ops)} operations in order): {digest}")
    print(f"results: {results_path.relative_to(ROOT)}")
    metrics = {name: {"value": item["value"], "unit": item["unit"]}
               for name, item in report.items() if name != "fail_ratio"}
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
