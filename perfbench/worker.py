"""Runs one workload's command in rounds inside a single process, through
the public entry point ``gnbp.cli.main``.

Started by ``run.py`` with the package's ``src`` directory on
PYTHONPATH.  Writes ``worker.json`` into --out: per round the seed
passed to the program, its exit code and wall time, and the process's
peak resident set.  With --trace 1 each round's command runs twice,
untraced and then traced, and the per-layer totals of the traced runs
are added; the spans themselves go to --spans.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from ess import effective_sample_size
from tracing import Tracer
from workloads import WORKLOADS, derived_seed


def _timed(cli, workload, seed: int, out: Path) -> tuple[int, float]:
    out.mkdir(parents=True)
    argv = workload.argv(seed, out)
    t0 = time.perf_counter()
    try:
        rc = cli.main(argv)
    except Exception:  # a crash is a failed command, not a failed benchmark
        traceback.print_exc()
        rc = -1
    return rc, time.perf_counter() - t0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spans", type=Path, required=True)
    parser.add_argument("--src", type=Path, required=True)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    import gnbp.cli as cli

    if Path(cli.__file__).resolve().parent.parent != args.src.resolve():
        print(f"gnbp was imported from {cli.__file__}, not from {args.src}", file=sys.stderr)
        return 2

    tracer = Tracer() if args.trace else None
    rounds = []
    begin = time.perf_counter()
    while True:
        k = len(rounds)
        seed = derived_seed(args.seed, k)
        out = args.out / f"round{k}"
        rc, wall = _timed(cli, workload, seed, out)
        record = {"seed": seed, "out": str(out), "rc": rc, "wall_s": wall}
        if tracer is not None:
            tracer.round = k
            tracer.install()
            try:
                traced_out = out.with_name(out.name + "-traced")
                rc, wall = _timed(cli, workload, seed, traced_out)
            finally:
                tracer.uninstall()
            record.update(traced_out=str(traced_out), traced_rc=rc, traced_wall_s=wall)
        rounds.append(record)
        # Start another round only if it should end within the run length.
        elapsed = time.perf_counter() - begin
        if elapsed + elapsed / len(rounds) > args.seconds:
            break

    result = {
        "rounds": rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_totals()
        result["chain_ess"] = [effective_sample_size(c) for c in tracer.chains]
        tracer.save(args.spans)
    (args.out / "worker.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
