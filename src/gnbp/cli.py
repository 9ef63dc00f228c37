"""Batch command-line surface: estimation runs, sampler simulations,
self-validation checks, and the repeated-subsample simulation study.

Commands write machine-readable outputs (JSON reports, CSV draw and
structure tables).  Exit codes: 0 success, 1 validation failure, 2 input
error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from .core_math import build_stirling_table
from .data_io import (
    FrequencyCounts,
    bundled_datasets,
    parse_frequency_counts,
    subsample_without_replacement,
    to_assignments,
    to_cluster_sizes,
)
from .distributions import (
    ClusterSizes,
    Params,
    gnb_log_pmf,
    kappa,
    log_weighted_stirling_sum,
    sample_cluster_structure,
)
from .diversity import (
    prob_distinct_pair,
    simpson_sample_estimate,
    summarize,
)
from .inference import ChainConfig, run_chain, run_chains
from .partitions import (
    Assignments,
    addition_rule_residual,
    build_log_r_table,
    cluster_count_pmf,
    enumerate_set_partitions,
    gcrsf_log_eppf,
    sequential_sample,
    sequential_step_probs,
)

EXIT_OK = 0
EXIT_VALIDATION_FAILURE = 1
EXIT_INPUT_ERROR = 2

DEFAULT_TABLE1_TARGET = 0.9993


class InputError(ValueError):
    """Bad user input: missing file, malformed data, invalid parameters."""


def _check_seed(seed: int) -> None:
    if not 0 <= seed < 2**64:
        raise InputError(f"--seed must lie in [0, 2**64), got {seed}")


# ---------------------------------------------------------------------------
# estimate


def _load_counts(args) -> tuple[str, FrequencyCounts]:
    if args.dataset:
        data = bundled_datasets()
        if args.dataset not in data:
            raise InputError(
                f"unknown dataset {args.dataset!r}; available: {', '.join(sorted(data))}"
            )
        return args.dataset, data[args.dataset]
    path = Path(args.input)
    if not path.is_file():
        raise InputError(f"input file not found: {path}")
    try:
        return str(path), parse_frequency_counts(path.read_text())
    except (ValueError, json.JSONDecodeError) as exc:
        raise InputError(f"could not parse {path}: {exc}") from exc


def _chain_config(args) -> ChainConfig:
    init_flags = (args.init_gamma0, args.init_a, args.init_p)
    if any(v is not None for v in init_flags) and not all(v is not None for v in init_flags):
        raise InputError("--init-gamma0/--init-a/--init-p must be given together")
    try:
        init = None if init_flags[0] is None else Params(*init_flags)
        return ChainConfig(
            iterations=args.iterations,
            burn_in=args.burn_in,
            thin=args.thin,
            seed=args.seed,
            e0=args.e0,
            f0=args.f0,
            a_mode=args.a_mode,
            a_grid_step=args.a_grid_step,
            p_grid_step=args.p_grid_step,
            init=init,
        )
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _write_draws_csv(path: Path, draws) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "gamma0", "a", "p", "s_theta", "log_ecpf"])
        for d in draws:
            writer.writerow(
                [
                    d.iteration,
                    repr(d.params.gamma0),
                    repr(d.params.a),
                    repr(d.params.p),
                    repr(d.s_theta),
                    repr(d.log_ecpf),
                ]
            )


def cmd_estimate(args) -> int:
    t0 = time.perf_counter()
    name, fc = _load_counts(args)
    sizes = to_cluster_sizes(fc)
    chain_cfg = _chain_config(args)
    try:
        draws = run_chain(sizes, chain_cfg)
    except ValueError as exc:
        raise InputError(str(exc)) from exc

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    draws_path = out_dir / "draws.csv"
    _write_draws_csv(draws_path, draws)

    posterior = {
        "gamma0": dataclasses.asdict(summarize(d.params.gamma0 for d in draws)),
        "a": dataclasses.asdict(summarize(d.params.a for d in draws)),
        "p": dataclasses.asdict(summarize(d.params.p for d in draws)),
        "s_theta": dataclasses.asdict(summarize(d.s_theta for d in draws)),
    }
    report = {
        "input": {
            "source": name,
            "n": sizes.n,
            "l": sizes.l,
            "simpson_sample_estimate": (
                simpson_sample_estimate(sizes) if sizes.n >= 2 else None
            ),
        },
        "config": {
            "chain": {
                k: v
                for k, v in dataclasses.asdict(chain_cfg).items()
                if k != "init"
            },
        },
        "seed": chain_cfg.seed,
        "draw_count": len(draws),
        # The diversity index no longer truncates a series, so this is
        # always 0; it stays because perfbench/workloads.py reads it.
        "truncation_shortfalls": 0,
        "draws_csv": str(draws_path),
        "posterior": posterior,
        "wall_seconds": time.perf_counter() - t0,
    }
    report_path = out_dir / "report.json"
    report_path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    print(f"wrote {report_path} and {draws_path} ({len(draws)} draws)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate


# Draws per sequential_sample call are capped so that a call's uniforms
# stay at or below 2**19 doubles (4 MB), whatever --count is.
_GIVEN_N_BLOCK_CELLS = 2**19
# The full R table that --given-n needs holds n (n - 1) / 2 doubles; this
# caps it at 1 GiB, i.e. n <= 16,384.
_GIVEN_N_MAX_TABLE_CELLS = 2**27
# A marginal draw has Poisson(gamma0 kappa) clusters, each a Python-level
# size draw; this caps the expected count per draw.
_MAX_EXPECTED_CLUSTERS = 2**20


def _given_n_rows(n, count, params, rtable, rng):
    """Output rows for ``count`` partitions of [n], sampled in blocks of
    consecutive draws; the random stream is that of one call for all."""
    block = max(1, _GIVEN_N_BLOCK_CELLS // n)
    for start in range(0, count, block):
        labels = sequential_sample(n, params, rtable, rng, min(block, count - start))
        for idx, z in enumerate(labels, start):
            sizes = np.bincount(z)[1:].tolist()
            yield idx, n, len(sizes), " ".join(map(str, sizes))


def cmd_simulate(args) -> int:
    try:
        params = Params(args.gamma0, args.a, args.p)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    if args.count < 0:
        raise InputError("--count must be nonnegative")
    _check_seed(args.seed)
    rng = np.random.default_rng(args.seed)

    if args.given_n is not None:
        if args.given_n < 1:
            raise InputError("--given-n must be positive")
        cells = args.given_n * (args.given_n - 1) // 2
        if cells > _GIVEN_N_MAX_TABLE_CELLS:
            raise InputError(
                f"--given-n {args.given_n} needs an R table of {cells} cells, "
                f"more than the {_GIVEN_N_MAX_TABLE_CELLS} (1 GiB) allowed"
            )
        rtable = build_log_r_table(args.given_n, params, mode="full")
        rows = _given_n_rows(args.given_n, args.count, params, rtable, rng)
    else:
        rate = params.gamma0 * kappa(params)
        if not rate <= _MAX_EXPECTED_CLUSTERS:
            raise InputError(
                f"gamma0 * kappa = {rate:.6g} expected clusters per draw, "
                f"more than the {_MAX_EXPECTED_CLUSTERS} allowed"
            )
        draws = (sample_cluster_structure(params, rng) for _ in range(args.count))
        rows = (
            (idx, s.n, s.l, " ".join(map(str, s.sizes))) for idx, s in enumerate(draws)
        )

    out = sys.stdout if args.out is None else Path(args.out).open("w", newline="")
    try:
        writer = csv.writer(out)
        writer.writerow(["draw", "n", "l", "sizes"])
        writer.writerows(rows)
    finally:
        if out is not sys.stdout:
            out.close()
    return EXIT_OK


# ---------------------------------------------------------------------------
# validate


def _check(name, residual, tol):
    ok = residual <= tol
    return {"name": name, "residual": residual, "tol": tol, "ok": ok}


def run_validation_checks(level: str = "quick", seed: int = 0) -> list[dict]:
    """Normalization, identity, zero-discount reduction, and two-sampler
    checks; each returns a residual compared against a tolerance."""
    rng = np.random.default_rng(seed)
    checks: list[dict] = []
    draws = 100_000 if level == "full" else 20_000
    theta_grid = [
        Params(0.5, -1.0, 0.3),
        Params(2.0, 0.5, 0.3),
        Params(1.0, 0.5, 0.7),
        Params(1.0, 0.0, 0.5),
    ]

    # Partition-law normalization over exhaustive set partitions.
    for params in theta_grid:
        table = build_stirling_table(4, params.a)
        total = sum(
            math.exp(
                gcrsf_log_eppf(Assignments(z).cluster_sizes(), params, table)
            )
            for z in enumerate_set_partitions(4)
        )
        checks.append(
            _check(
                f"eppf-normalization[n=4, {params.gamma0},{params.a},{params.p}]",
                abs(total - 1.0),
                1e-8,
            )
        )

    # Weighted Stirling sum equals gamma0 p^-a R(1,1).
    for n in (50, 500):
        params = Params(2.0, 0.5, 0.3)
        table = build_stirling_table(n, params.a)
        rt = build_log_r_table(n, params, mode="frontier", i_min=1)
        lhs = log_weighted_stirling_sum(n, params, table)
        rhs = math.log(params.gamma0) - params.a * math.log(params.p) + rt.entry(1, 1)
        checks.append(_check(f"stirling-r-identity[n={n}]", abs(lhs - rhs), 1e-8))

    # Zero-discount reductions to the Chinese restaurant process.
    params0 = Params(1.5, 0.0, 0.4)
    n = 10
    rt = build_log_r_table(n, params0, mode="full")
    counts = [3, 2, 1]
    i = sum(counts)
    probs = sequential_step_probs(counts, n, params0, rt)
    crp = np.append(
        np.asarray(counts, dtype=float) / (i + params0.gamma0),
        params0.gamma0 / (i + params0.gamma0),
    )
    checks.append(
        _check("crp-reduction-step-probs", float(np.max(np.abs(probs - crp))), 1e-12)
    )
    rt2 = build_log_r_table(100, params0, mode="frontier", i_min=2)
    pd = prob_distinct_pair(100, params0, rt2)
    checks.append(
        _check(
            "crp-reduction-pair-distinct",
            abs(pd - params0.gamma0 / (1.0 + params0.gamma0)),
            1e-12,
        )
    )
    table0 = build_stirling_table(50, 0.0)
    worst = 0.0
    for m in range(0, 51):
        nb = (
            math.lgamma(m + params0.gamma0)
            - math.lgamma(params0.gamma0)
            - math.lgamma(m + 1)
            + m * math.log(params0.p)
            + params0.gamma0 * math.log1p(-params0.p)
        )
        worst = max(worst, abs(gnb_log_pmf(m, params0, table0) - nb))
    checks.append(_check("nb-reduction-log-pmf", worst, 1e-10))

    # Addition-rule audit: exact consistency at a = 0, violation otherwise.
    table_half = build_stirling_table(10, 0.5)
    res0 = addition_rule_residual(ClusterSizes((1, 1)), 10, params0, table0)
    checks.append(_check("addition-rule-zero-discount", abs(res0), 1e-10))
    res_half = addition_rule_residual(
        ClusterSizes((1, 1)), 10, Params(1.0, 0.5, 0.5), table_half
    )
    checks.append(
        _check("addition-rule-size-dependence", 1e-3 - abs(res_half), 0.0)
    )

    # Two-sampler agreement against exact laws.
    params = Params(1.0, 0.5, 0.5)
    n = 8
    table = build_stirling_table(n, params.a)
    rt = build_log_r_table(n, params, mode="full")
    exact_l = cluster_count_pmf(n, params, table)
    labels = sequential_sample(n, params, rt, rng, draws)
    freq = np.bincount(labels.max(axis=1), minlength=n + 1) / draws
    checks.append(
        _check(
            "sequential-vs-exact-cluster-count",
            0.5 * float(np.sum(np.abs(freq - exact_l))),
            0.03 if level == "quick" else 0.02,
        )
    )

    table_big = build_stirling_table(60, params.a)
    tail = 60
    exact_n = np.array(
        [math.exp(gnb_log_pmf(m, params, table_big)) for m in range(tail + 1)]
    )
    emp: dict[int, int] = {}
    for _ in range(draws):
        total_n = sample_cluster_structure(params, rng).n
        emp[total_n] = emp.get(total_n, 0) + 1
    tv = 0.5 * (1.0 - float(np.sum(exact_n)))
    for m in range(tail + 1):
        tv += 0.5 * abs(emp.get(m, 0) / draws - exact_n[m])
    tv += 0.5 * sum(c / draws for m, c in emp.items() if m > tail)
    checks.append(
        _check(
            "compound-poisson-vs-exact-pmf", tv, 0.03 if level == "quick" else 0.02
        )
    )
    return checks


def cmd_validate(args) -> int:
    _check_seed(args.seed)
    checks = run_validation_checks(level=args.level, seed=args.seed)
    failed = 0
    for c in checks:
        status = "PASS" if c["ok"] else "FAIL"
        print(f"{status} {c['name']}: residual={c['residual']:.3e} tol={c['tol']:.3e}")
        if not c["ok"]:
            failed += 1
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_VALIDATION_FAILURE


# ---------------------------------------------------------------------------
# reproduce-table1


def _derived_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1, dtype=np.uint64)[0])


@functools.lru_cache(maxsize=1)
def _table1_population(fc_entries: tuple[tuple[int, int], ...]) -> Assignments:
    # one expansion per process, shared by every replicate; Assignments is
    # immutable, so sharing it is safe
    return to_assignments(FrequencyCounts(fc_entries))


def _table1_rows(
    fc_entries: tuple[tuple[int, int], ...],
    size: int,
    configs: tuple[ChainConfig, ...],
    target: float,
    replicates: range,
) -> list[dict]:
    """Per-replicate rows, replicate-major, for a contiguous range of
    replicates.  Each replicate's subsample is drawn once; each mode's
    chains then run as one lockstep block."""
    population = _table1_population(fc_entries)
    seed = configs[0].seed
    subsamples = [
        subsample_without_replacement(
            population, size, np.random.default_rng(np.random.SeedSequence([seed, rep]))
        ).cluster_sizes()
        for rep in replicates
    ]
    chains_by_mode = [
        run_chains(
            subsamples,
            [dataclasses.replace(config, seed=_derived_seed(seed, rep, mode_idx))
             for rep in replicates],
        )
        for mode_idx, config in enumerate(configs)
    ]
    rows = []
    for k, (rep, sizes) in enumerate(zip(replicates, subsamples)):
        for config, chains in zip(configs, chains_by_mode):
            summ = summarize(d.s_theta for d in chains[k])
            rows.append(
                {
                    "replicate": rep,
                    "mode": config.a_mode,
                    "n": sizes.n,
                    "l": sizes.l,
                    "mean": summ.mean,
                    "median": summ.median,
                    "lo50": summ.lo50,
                    "hi50": summ.hi50,
                    "lo95": summ.lo95,
                    "hi95": summ.hi95,
                    "mean_bias": abs(summ.mean - target),
                    "median_bias": abs(summ.median - target),
                    "cover50": int(summ.covers50(target)),
                    "cover95": int(summ.covers95(target)),
                }
            )
    return rows


def run_table1_study(
    replicates: int = 20,
    size: int = 50,
    modes: tuple[str, ...] = ("fixed=-1", "free"),
    seed: int = 0,
    iterations: int = 2000,
    burn_in: int = 1000,
    thin: int = 5,
    a_grid_step: float = 1e-3,
    p_grid_step: float = 5e-3,
    target: float = DEFAULT_TABLE1_TARGET,
    workers: int = 1,
) -> tuple[list[dict], list[dict]]:
    """Repeated-subsample study of the posterior diversity estimator.

    For each replicate, a subsample of the bundled EST population is
    drawn (shared across modes), one chain per discount mode is run, and
    the posterior diversity summaries are compared against the target
    value.  Returns (per-replicate rows, per-mode aggregate rows).
    Each chain has its own stream derived from (seed, replicate, mode
    index); the chains of one mode run as one lockstep block, and with
    ``workers`` > 1 contiguous ranges of replicates run in separate
    processes, which leaves every row unchanged.  Every argument is
    checked before any chain runs; a bad one, or a chain that reaches a
    degenerate state, raises InputError, a ValueError.
    """
    fc = bundled_datasets()["est-tomato"]
    try:
        if replicates < 1:
            raise ValueError("replicates must be positive")
        if workers < 1:
            raise ValueError("workers must be positive")
        if not 1 <= size <= fc.n:
            raise ValueError(f"size must lie in [1, {fc.n}], got {size}")
        if not modes:
            raise ValueError("modes must name at least one discount mode")
        if not 0.0 <= target <= 1.0:
            raise ValueError(f"target must lie in [0, 1], got {target}")
        config = ChainConfig(
            iterations=iterations,
            burn_in=burn_in,
            thin=thin,
            seed=seed,
            a_grid_step=a_grid_step,
            p_grid_step=p_grid_step,
        )
        configs = [dataclasses.replace(config, a_mode=mode) for mode in modes]
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    rows_for = functools.partial(_table1_rows, fc.entries, size, tuple(configs), target)
    chunks = min(workers, replicates)
    bounds = [replicates * k // chunks for k in range(chunks + 1)]
    try:
        if chunks > 1:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=chunks) as pool:
                parts = pool.map(rows_for, map(range, bounds, bounds[1:]))
                detail = [row for part in parts for row in part]
        else:
            detail = rows_for(range(replicates))
    except ValueError as exc:
        raise InputError(str(exc)) from exc

    aggregate = []
    for mode in modes:
        rows = [r for r in detail if r["mode"] == mode]
        aggregate.append(
            {
                "mode": mode,
                "replicates": len(rows),
                "mean_bias": float(np.mean([r["mean_bias"] for r in rows])),
                "median_bias": float(np.mean([r["median_bias"] for r in rows])),
                "coverage50": float(np.mean([r["cover50"] for r in rows])),
                "coverage95": float(np.mean([r["cover95"] for r in rows])),
            }
        )
    return detail, aggregate


def _write_dict_csv(path: Path, rows: list[dict]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def cmd_reproduce_table1(args) -> int:
    modes = tuple(tok.strip() for tok in args.modes.split(",") if tok.strip())
    detail, aggregate = run_table1_study(
        replicates=args.replicates,
        size=args.size,
        modes=modes,
        seed=args.seed,
        iterations=args.iterations,
        burn_in=args.burn_in,
        thin=args.thin,
        a_grid_step=args.a_grid_step,
        p_grid_step=args.p_grid_step,
        target=args.target,
        workers=args.workers,
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_dict_csv(out_dir / "table1.csv", aggregate)
    _write_dict_csv(out_dir / "table1_replicates.csv", detail)
    for row in aggregate:
        print(
            f"{row['mode']}: mean_bias={row['mean_bias']:.5f} "
            f"median_bias={row['median_bias']:.5f} "
            f"cov50={row['coverage50']:.0%} cov95={row['coverage95']:.0%}"
        )
    print(f"wrote {out_dir / 'table1.csv'} and {out_dir / 'table1_replicates.csv'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gnbp",
        description=(
            "Generalized negative binomial process species models: "
            "diversity estimation, simulation, and self-validation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="run MCMC on frequency-count data")
    src = est.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="path to a CSV or JSON frequency-count file")
    src.add_argument("--dataset", help="name of a bundled dataset")
    est.add_argument("--seed", type=int, default=0)
    est.add_argument("--iterations", type=int, default=2000)
    est.add_argument("--burn-in", type=int, default=1000)
    est.add_argument("--thin", type=int, default=1)
    est.add_argument("--e0", type=float, default=0.01)
    est.add_argument("--f0", type=float, default=0.01)
    est.add_argument(
        "--a-mode",
        default="free",
        help="discount restriction: free, nonneg, neg, or fixed=V",
    )
    est.add_argument("--a-grid-step", type=float, default=1e-4)
    est.add_argument("--p-grid-step", type=float, default=1e-3)
    est.add_argument("--init-gamma0", type=float, default=None)
    est.add_argument("--init-a", type=float, default=None)
    est.add_argument("--init-p", type=float, default=None)
    est.add_argument("--out", default=".", help="output directory")
    est.set_defaults(func=cmd_estimate)

    sim = sub.add_parser("simulate", help="sample cluster structures")
    sim.add_argument("--gamma0", type=float, required=True)
    sim.add_argument("--a", type=float, required=True)
    sim.add_argument("--p", type=float, required=True)
    sim.add_argument("--count", type=int, default=1)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument(
        "--given-n",
        type=int,
        default=None,
        help="condition on this sample size (sequential sampler)",
    )
    sim.add_argument("--out", default=None, help="CSV file (default stdout)")
    sim.set_defaults(func=cmd_simulate)

    val = sub.add_parser("validate", help="run built-in consistency checks")
    val.add_argument("--level", choices=["quick", "full"], default="quick")
    val.add_argument("--seed", type=int, default=0)
    val.set_defaults(func=cmd_validate)

    tab = sub.add_parser(
        "reproduce-table1",
        help="repeated-subsample study of the posterior diversity estimator",
    )
    tab.add_argument("--replicates", type=int, default=20)
    tab.add_argument("--size", type=int, default=50)
    tab.add_argument("--modes", default="fixed=-1,free")
    tab.add_argument("--seed", type=int, default=0)
    tab.add_argument("--iterations", type=int, default=2000)
    tab.add_argument("--burn-in", type=int, default=1000)
    tab.add_argument("--thin", type=int, default=5)
    tab.add_argument("--a-grid-step", type=float, default=1e-3)
    tab.add_argument("--p-grid-step", type=float, default=5e-3)
    tab.add_argument("--target", type=float, default=DEFAULT_TABLE1_TARGET)
    tab.add_argument("--workers", type=int, default=1)
    tab.add_argument("--out", default=".", help="output directory")
    tab.set_defaults(func=cmd_reproduce_table1)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
