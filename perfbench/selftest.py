"""Self-test of the benchmark: a tiny run of every workload, in seconds.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it checks that the untraced run emits
exactly the end-to-end metrics and the traced run exactly the per-layer
metrics, each with its unit; that no operation fails (fail_ratio is 0);
and that two runs on one seed give the same output digest. It also checks
that the benchmark refuses to run, without printing a result, beside a
copy of itself that has no package to measure. Exits non-zero on the
first failed check.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run(trace: int, workload: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(done: subprocess.CompletedProcess, label: str) -> dict:
    if done.returncode != 0:
        sys.exit(f"{label}: exit code {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check(condition: bool, message: str) -> None:
    if not condition:
        sys.exit(f"FAIL {message}")
    print(f"ok   {message}")


def digest_line(done: subprocess.CompletedProcess) -> str:
    return next(line for line in done.stdout.splitlines() if line.startswith("output digest"))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        first = run(0, workload)
        for trace in (0, 1):
            done = first if trace == 0 else run(1, workload)
            label = f"{workload} --trace {trace}"
            result = result_of(done, label)
            units = {name: item["unit"] for name, item in result["metrics"].items()}
            check(units == expected[trace], f"{label}: every metric emitted with its unit")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                  f"{label}: {result['attempted']} operations, none failed")
        stem = f"{workload}-seed7-trace0-tiny.json"
        saved = json.loads((BENCH_DIR / "results" / stem).read_text())
        check(saved["metrics"]["fail_ratio"]["value"] == 0, f"{workload}: fail_ratio is 0")
        check(digest_line(run(0, workload)) == digest_line(first),
              f"{workload}: two runs on one seed give one output digest")

    bare = BENCH_DIR / "results" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("results"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = run(0, spec["workloads"][0]["name"], cwd=bare)
    shutil.rmtree(bare)
    check(done.returncode != 0 and '"metrics"' not in done.stdout,
          "without the package the benchmark fails and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
