"""Batch command-line front end.

Subcommands:
  solve    optimal placement for one (N, K, M, popularity) instance
  sweep    rate and bound curves over a cache-size grid (CSV)
  subpkt   subpacketization of the optimal placement over a grid (CSV)
  verify   LP-dual certification + Monte Carlo + bit-exact decode checks

A setting is a flag or the config key of the flag's name (the flag wins);
``_setting`` reads both through one converter.  Numbers may be ``p/q``
fractions in either; a malformed one is a configuration error.

Exit codes: 0 success, 2 configuration error, 4 verification failure.
K ranges over 1..62: the subfile counts C(K, l) are int64.  The LP dual
has two free variables, so certification has no size limit, but
``verify``'s bit-exact decode builds the table of all 2^K user subsets.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import popularity
from .bounds import bound_exhaustive, bound_proposed, bound_two_group
from .errors import CodedCacheError, InvalidParameterError
from .lp_oracle import verify_instance
from .placement import (
    PlacementMatrix,
    average_rate,
    rate_coefficients,
    subpacketization,
    worst_case_subpacketization_bound,
)
from .popularity import order_stats
from .solver import algorithm4, one_group_placement

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VERIFY = 4

SWEEP_HEADER = (
    "M,optimal_rate,one_group_rate,alg1_rate,lb_two_group_prior,lb_exhaustive_prior,lb_proposed"
)
SUBPKT_HEADER = "M,L_max,L_avg,worst_case_bound"


def _parse_grid(text) -> list[float]:
    """Inclusive lo:hi:step grid."""
    parts = text.split(":") if isinstance(text, str) else []
    if len(parts) != 3:
        raise ValueError("expected lo:hi:step")
    lo, hi, step = map(popularity.as_float, parts)
    if step <= 0 or hi < lo:
        raise ValueError("need step > 0 and hi >= lo")
    count = int(round((hi - lo) / step))
    grid = [lo + i * step for i in range(count + 1)]
    return [m for m in grid if m <= hi + 1e-9]


def _path(value) -> str:
    if not isinstance(value, str):
        raise ValueError("expected a path string")
    return value


def _format(value) -> str:
    if value not in ("json", "csv"):
        raise ValueError("expected json or csv")
    return value


def _popularity_spec(args, config: dict) -> dict:
    """Resolve the popularity source from flags, falling back to the config."""
    if sum(flag is not None for flag in (args.zipf, args.probs, args.step)) > 1:
        raise InvalidParameterError("give only one of --zipf / --probs / --step")
    if args.zipf is not None:
        return {"type": "zipf", "theta": args.zipf}
    if args.probs is not None:
        return {"type": "custom", "probs": args.probs.split(",")}
    if args.step is not None:  # such as 5/9x1,1/30x10,1/90x10
        levels = (chunk.partition("x") for chunk in args.step.split(","))
        return {"type": "step", "levels": [{"p": p, "count": c} for p, _, c in levels]}
    if "popularity" in config:
        return config["popularity"]
    raise InvalidParameterError("no popularity given (use --zipf, --probs, --step, or a config)")


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise InvalidParameterError("config file must hold a JSON object")
    return data


def _setting(args, config: dict, name: str, convert=popularity.as_int, default=None, *,
             required=False, minimum=None):
    """The flag's string, else the config's JSON value, else ``default``, through ``convert``;
    a ValueError from it, a value below ``minimum`` or a missing required one -> config error."""
    value = getattr(args, name, None)
    if value is None:
        value = config.get(name, default)
    if value is None:
        if required:
            raise InvalidParameterError(f"missing required setting {name}")
        return None
    try:
        result = convert(value)
        if minimum is not None and result < minimum:
            raise ValueError(f"must be >= {minimum}")
    except ValueError as exc:
        raise InvalidParameterError(f"setting {name}={value!r} is invalid: {exc}") from exc
    return result


def _build_model(args, config: dict) -> popularity.PopularityModel:
    return popularity.from_spec(_popularity_spec(args, config), _setting(args, config, "N"))


def _out_paths(out: str | None) -> tuple[Path | None, Path | None]:
    """--out stem -> (json path, csv path); explicit suffix selects one."""
    if out is None:
        return None, None
    path = Path(out)
    if path.suffix == ".json":
        return path, None
    if path.suffix == ".csv":
        return None, path
    return path.with_suffix(".json"), path.with_suffix(".csv")


def _solution_json(candidate, model) -> str:
    payload = candidate.to_json_dict()
    if list(model.perm) != list(range(model.n_files)):
        payload["input_permutation"] = list(model.perm)
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def cmd_solve(args) -> int:
    config = _load_config(args.config)
    model = _build_model(args, config)
    k = _setting(args, config, "K", required=True)
    m = _setting(args, config, "M", popularity.as_float, required=True)
    candidate = algorithm4(model, k, m)
    candidate.placement.check_valid(m)

    json_text = _solution_json(candidate, model)
    csv_text = candidate.placement.to_csv()
    json_path, csv_path = _out_paths(_setting(args, config, "out", _path))
    fmt = _setting(args, config, "format", _format, "json")
    if json_path or csv_path:
        if json_path:
            json_path.write_text(json_text)
        if csv_path:
            csv_path.write_text(csv_text)
    else:
        sys.stdout.write(csv_text if fmt == "csv" else json_text)

    tuple_txt = ", ".join(
        f"{name}={value}"
        for name, value in (("n_o", candidate.n_o), ("n_1", candidate.n_1),
                            ("l_o", candidate.l_o), ("l_1", candidate.l_1))
        if value is not None
    )
    print(
        f"case={candidate.case_id.value} groups={candidate.groups} "
        f"rate={candidate.rate:.10g} ({tuple_txt})",
        file=sys.stderr,
    )
    return EXIT_OK


def _sweep_row(model, k: int, coeffs, m: float) -> str:
    optimal = algorithm4(model, k, m, coeffs=coeffs)
    baseline = average_rate(one_group_placement(model.n_files, k, m), coeffs)
    two_group = bound_two_group(model, k, m)
    exhaustive = bound_exhaustive(model, k, m)
    proposed = bound_proposed(model, k, m, optimal.first_group_size)
    cells = (
        m, optimal.rate, baseline, optimal.alg1_rate,
        two_group.value, exhaustive.value, proposed.value,
    )
    return ",".join(f"{v:.10g}" for v in cells)


def _grid_from(args, config) -> list[float]:
    grid = _setting(args, config, "M_grid", _parse_grid)
    if grid is not None:
        return grid
    m = _setting(args, config, "M", popularity.as_float)
    if m is None:
        raise InvalidParameterError("need --M or --M-grid")
    return [m]


def _emit_csv(header: str, rows: list[str], out: str | None) -> None:
    text = "\n".join([header, *rows]) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def cmd_sweep(args) -> int:
    config = _load_config(args.config)
    model = _build_model(args, config)
    k = _setting(args, config, "K", required=True)
    grid = _grid_from(args, config)
    row = functools.partial(_sweep_row, model, k, rate_coefficients(model, order_stats(model, k)))
    jobs = _setting(args, config, "jobs", default=1, minimum=1)
    if jobs > 1:
        # imported here, not at module load, where it would slow every start
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(row, grid))
    else:
        rows = [row(m) for m in grid]
    _emit_csv(SWEEP_HEADER, rows, _setting(args, config, "out", _path))
    return EXIT_OK


def cmd_subpkt(args) -> int:
    config = _load_config(args.config)
    model = _build_model(args, config)
    k = _setting(args, config, "K", required=True)
    coeffs = rate_coefficients(model, order_stats(model, k))
    bound, _ = worst_case_subpacketization_bound(k)
    rows = []
    for m in _grid_from(args, config):
        candidate = algorithm4(model, k, m, coeffs=coeffs)
        report = subpacketization(candidate.placement)
        rows.append(f"{m:.10g},{report.max_level},{report.avg_level:.10g},{bound}")
    _emit_csv(SUBPKT_HEADER, rows, _setting(args, config, "out", _path))
    return EXIT_OK


def _check_placement_file(path: str, args, config) -> int:
    data = json.loads(Path(path).read_text())
    if isinstance(data, dict) and isinstance(data.get("placement"), dict):
        data = data["placement"]  # a solution file written by ``solve --out``
    matrix = PlacementMatrix.from_json_dict(data)
    problems = matrix.violations(_setting(args, config, "M", popularity.as_float))
    if problems:
        for problem in problems:
            print(f"FAIL placement_invariants {problem}")
        return EXIT_VERIFY
    print("PASS placement_invariants")
    return EXIT_OK


def cmd_verify(args) -> int:
    config = _load_config(args.config)
    placement = _setting(args, config, "placement", _path)
    if placement is not None:
        return _check_placement_file(placement, args, config)

    seed = _setting(args, config, "seed", default=20240, minimum=0)  # also seeds --batch
    trials = _setting(args, config, "trials", default=20000)
    demands = _setting(args, config, "demands", default=20)
    batch = _setting(args, config, "batch", minimum=1)
    instances = []
    if batch is None:
        model = _build_model(args, config)
        k = _setting(args, config, "K", required=True)
        m = _setting(args, config, "M", popularity.as_float)
        if m is None:
            raise InvalidParameterError("verify needs --M (or --batch / --placement)")
        instances.append((model, k, m))
    else:
        rng = np.random.default_rng(seed)
        for _ in range(batch):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(1, 6))
            weights = np.sort(rng.random(n))[::-1] + 0.05
            model = popularity.make_custom(list(weights / weights.sum()))
            m = float(rng.choice(np.arange(0.5, n + 0.001, 0.5)))
            instances.append((model, k, m))

    failures = 0
    for index, (model, k, m) in enumerate(instances):
        label = f"[{index}] N={model.n_files} K={k} M={m:g}"
        checks = verify_instance(model, k, m, trials=trials, seed=seed + index, demands=demands)
        for check in checks:
            if not check.ok or batch is None:
                print(f"{'PASS' if check.ok else 'FAIL'} {label} {check.name} {check.detail}".rstrip())
            failures += 0 if check.ok else 1
        if batch is not None and all(check.ok for check in checks):
            print(f"PASS {label}")
    print(f"verify: {len(instances)} instance(s), {failures} failed check(s)")
    return EXIT_OK if failures == 0 else EXIT_VERIFY


def _add_instance_flags(parser: argparse.ArgumentParser) -> None:
    """Flags every subcommand reads: the instance, its popularity and a config."""
    parser.add_argument("--N", help="number of files")
    parser.add_argument("--K", help="number of users")
    parser.add_argument("--M", help="cache size per user (real, may be a fraction)")
    parser.add_argument("--zipf", help="Zipf exponent theta")
    parser.add_argument("--probs", help="comma-separated popularity values (fractions allowed)")
    parser.add_argument("--step", help="step popularity PROBxCOUNT[,PROBxCOUNT...]")
    parser.add_argument("--config", help="JSON config file (same keys as the flags)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing keeps no state in it.

    It passes no ``type=`` or ``choices=``, so every value reaches ``_setting`` as a string.
    """
    parser = argparse.ArgumentParser(
        prog="codedcache",
        description="Optimal cache placement for coded caching under nonuniform popularity",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="optimal placement for one instance")
    _add_instance_flags(p_solve)
    p_solve.add_argument("--out", help="output path (stem or .json/.csv)")
    p_solve.add_argument("--format", metavar="{json,csv}", help="stdout format (default json)")
    p_solve.set_defaults(func=cmd_solve)

    p_sweep = sub.add_parser("sweep", help="rate and bound curves over a cache grid")
    _add_instance_flags(p_sweep)
    p_sweep.add_argument("--M-grid", help="cache grid lo:hi:step")
    p_sweep.add_argument("--out", help="output CSV path")
    p_sweep.add_argument("--jobs", help="parallel worker processes (default 1)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_subpkt = sub.add_parser("subpkt", help="subpacketization over a cache grid")
    _add_instance_flags(p_subpkt)
    p_subpkt.add_argument("--M-grid", help="cache grid lo:hi:step")
    p_subpkt.add_argument("--out", help="output CSV path")
    p_subpkt.set_defaults(func=cmd_subpkt)

    p_verify = sub.add_parser("verify", help="certification and simulation checks")
    _add_instance_flags(p_verify)
    p_verify.add_argument("--seed", help="base RNG seed (default 20240)")
    p_verify.add_argument("--trials", help="Monte Carlo trials (default 20000)")
    p_verify.add_argument("--batch", help="number of seeded random instances")
    p_verify.add_argument("--demands", help="decode-test demands per instance (default 20)")
    p_verify.add_argument("--placement", help="check a placement JSON file against the invariants")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CodedCacheError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
