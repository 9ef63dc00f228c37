"""Benchmark of the gnbp command line: end-to-end metrics with tracing
off, per-layer metrics from a separate traced run.

    python3 perfbench/run.py --workload est-tomato --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
its ``src`` directory.  Prints one JSON object as the last line of
standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are wall_s (mean wall time of one command
over the run's rounds), setup_s (median time for a fresh interpreter to
import gnbp.cli, timed before and after the worker) and peak_rss_mb (peak resident set of the process that
ran the commands).  With --trace 1 they are the per-layer metrics listed
in BENCHMARK.json.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_out"
# Set-up is timed this many times before the worker runs and as many
# times after, so the median spans the run rather than one moment of the
# host's drifting speed.
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 30.0
WORKER_TIMEOUT_S = 150.0


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def time_setup(env: dict[str, str]) -> list[float]:
    """Seconds from starting a fresh interpreter until gnbp.cli is
    imported (and the interpreter has exited), SETUP_REPEATS times."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import gnbp.cli"],
            cwd=ROOT, env=env, check=True, timeout=SETUP_TIMEOUT_S,
        )
        times.append(time.perf_counter() - t0)
    return times


def run_worker(args, env: dict[str, str], out: Path) -> dict:
    log_path = out / "worker.log"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out", str(out), "--src", str(SRC),
        "--spans", str(SCRATCH / f"spans-{args.workload}.npz"),
    ]
    with log_path.open("w") as log:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
            timeout=WORKER_TIMEOUT_S,
        )
    if proc.returncode != 0:
        sys.stderr.write(log_path.read_text()[-4000:])
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads((out / "worker.json").read_text())


def per_layer(worker: dict, checks: list) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, each averaged over the traced commands."""
    layers = worker["layers"]
    rounds = worker["rounds"]
    n = len(rounds)

    def total(name: str) -> float:
        return layers.get(f"{name}.total_s", 0.0) / n

    def calls(name: str) -> float:
        return layers.get(f"{name}.calls", 0) / n

    durations = np.asarray(layers["simpson_theta_durations"]) * 1e3
    p50, p95 = np.percentile(durations, [50, 95]) if durations.size else (0.0, 0.0)
    ess = worker["chain_ess"]
    data_io_self = sum(v for k, v in layers.items() if k.startswith("data_io.") and k.endswith(".self_s"))
    overhead = statistics.median(r["traced_wall_s"] - r["wall_s"] for r in rounds)
    return {
        "diversity.simpson_theta_s": (total("diversity.simpson_theta"), "s"),
        "diversity.simpson_theta_calls": (calls("diversity.simpson_theta"), "count"),
        "diversity.simpson_theta_p50_ms": (float(p50), "ms"),
        "diversity.simpson_theta_p95_ms": (float(p95), "ms"),
        "diversity.truncation_shortfalls": (sum(c.shortfalls for c in checks) / n, "count"),
        "core_math.stirling_rows": (layers.get("core_math.stirling_rows", 0) / n, "count"),
        "core_math.stirling_s": (
            total("core_math.build_stirling_table") + total("core_math.LogStirlingTable.ensure"), "s"
        ),
        "inference.update_a_s": (total("inference.update_a"), "s"),
        "inference.update_p_s": (total("inference.update_p"), "s"),
        "inference.update_gamma0_s": (total("inference.update_gamma0"), "s"),
        "inference.run_chain_self_s": (layers.get("inference.run_chain.self_s", 0.0) / n, "s"),
        "inference.iterations": (calls("inference.update_gamma0"), "count"),
        "inference.s_theta_ess": (float(np.mean(ess)) if ess else 0.0, "count"),
        "distributions.sample_cluster_structure_s": (total("distributions.sample_cluster_structure"), "s"),
        "distributions.tnb_draws": (layers.get("distributions.tnb_draws", 0) / n, "count"),
        "partitions.r_table_s": (total("partitions.build_log_r_table"), "s"),
        "partitions.r_table_cells": (layers.get("partitions.r_table_cells", 0) / n, "count"),
        "partitions.sequential_sample_s": (total("partitions.sequential_sample"), "s"),
        "partitions.sequential_sample_calls": (calls("partitions.sequential_sample"), "count"),
        "partitions.ecpf_log_s": (total("partitions.ecpf_log"), "s"),
        "data_io.self_s": (data_io_self / n, "s"),
        "cli.self_s": (layers.get("cli.main.self_s", 0.0) / n, "s"),
        "trace.overhead_s": (overhead, "s"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not (SRC / "gnbp" / "cli.py").is_file():
        print(f"error: no gnbp sources under {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    env = _env()
    SCRATCH.mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    try:
        setup = [] if args.trace else time_setup(env)
        worker = run_worker(args, env, out)
        if not args.trace:
            setup += time_setup(env)

        # Every command the worker ran is checked, the traced repeats too.
        attempted = failed = 0
        problems: list[str] = []
        wrong: list[str] = []
        checks = []
        oracle_cache: dict = {}
        for r in worker["rounds"]:
            runs = [(r["rc"], r["out"])]
            if args.trace:
                runs.append((r["traced_rc"], r["traced_out"]))
            for rc, out_dir in runs:
                attempted += workload.ops
                if rc != 0:
                    failed += workload.ops
                    problems.append(f"seed {r['seed']}: exit code {rc}")
                    continue
                res = workload.check(Path(out_dir), oracle_cache)
                failed += res.failed
                problems.extend(f"seed {r['seed']}: {p}" for p in res.problems)
                wrong.extend(f"seed {r['seed']}: {p}" for p in res.wrong)
                if out_dir == r.get("traced_out"):
                    checks.append(res)
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out, ignore_errors=True)

    for p in (wrong + problems)[:20]:
        print(f"check: {p}", file=sys.stderr)
    if args.trace:
        metrics = per_layer(worker, checks)
    else:
        metrics = {
            "wall_s": (statistics.fmean(r["wall_s"] for r in worker["rounds"]), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (worker["peak_rss_mb"], "MB"),
        }
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    walls = " ".join(f"{r['wall_s']:.3f}" for r in worker["rounds"])
    print(f"{args.workload}: {len(worker['rounds'])} rounds, wall_s {walls}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
