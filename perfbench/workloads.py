"""The four benchmark workloads: the command each one runs, how many
operations a command attempts, and the checks applied to its outputs.

A workload's command is repeated in rounds; round k of a run with
benchmark seed s passes the program the seed derived from (s, k), so the
same benchmark seed always gives the same inputs.  Every
check compares the program's output with an independent computation in
``oracle.py`` or with a property the output must have, never with a
stored copy of an earlier output.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle

# Relative to 1 - S_theta.  The program's Monte Carlo diversity path has
# a standard deviation of about 0.6% of 1 - S_theta on est-tomato.  Where
# the program sums an exact series capped at n_cap, the check adds the
# most that leaving out n > n_cap can change the index (see
# oracle.truncation_allowance): on tcr-diabetic the cap binds on about
# one draw in five and moves s_theta by up to 6% of 1 - S_theta.
S_THETA_TOL = 0.05
N_CAP = 2000  # the estimate command's default --n-cap
LOG_ECPF_TOL = 1e-9
EST_SAMPLE_SIMPSON = 0.99931
EST_MEAN_TOL = 5e-3
TABLE1_TARGET = 0.9993  # the program's default reproduce-table1 target
TABLE1_FREE_BIAS_MAX = 5e-3
SIMULATE_Z_MAX = 5.0

# Bundled frequency counts {size: number of clusters}, restated here so
# the checks do not read them from the program.
DATASETS = {
    "est-tomato": dict(
        zip(
            list(range(1, 15)) + [16, 23, 27],
            [1434, 253, 71, 33, 11, 6, 2, 3, 1, 2, 2, 1, 1, 1, 2, 1, 1],
        )
    ),
    "tcr-treg-diabetic-1": {1: 8, 2: 1, 3: 2, 5: 1, 36: 1, 40: 1},
}


def derived_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


@dataclass
class CheckResult:
    """Outcome of checking one command's outputs."""

    failed: int = 0
    problems: list[str] = field(default_factory=list)  # one per failed operation
    wrong: list[str] = field(default_factory=list)  # failed whole-output checks
    shortfalls: int = 0


@dataclass(frozen=True)
class Estimate:
    """``gnbp estimate`` on a bundled dataset; an operation is one
    retained posterior draw."""

    name: str
    dataset: str
    iterations: int
    burn_in: int
    thin: int
    check_mean: bool
    capped_series: bool

    @property
    def ops(self) -> int:
        return (self.iterations - self.burn_in) // self.thin

    def argv(self, seed: int, out: Path) -> list[str]:
        return [
            "estimate", "--dataset", self.dataset, "--seed", str(seed),
            "--iterations", str(self.iterations), "--burn-in", str(self.burn_in),
            "--thin", str(self.thin), "--out", str(out),
        ]

    def check(self, out: Path, oracle_cache: dict) -> CheckResult:
        res = CheckResult()
        try:
            with (out / "draws.csv").open(newline="") as fh:
                rows = list(csv.DictReader(fh))
            report = json.loads((out / "report.json").read_text())
        except (OSError, ValueError) as exc:
            res.failed = self.ops
            res.problems.append(f"outputs unreadable: {exc}")
            return res
        counts = DATASETS[self.dataset]
        s_values = []
        for row in rows:
            gamma0, a, p = float(row["gamma0"]), float(row["a"]), float(row["p"])
            s_prog = float(row["s_theta"]) if row["s_theta"] else math.nan
            key = (gamma0, a, p)
            if key not in oracle_cache:
                oracle_cache[key] = (
                    oracle.simpson_theta_quad(gamma0, a, p),
                    oracle.truncation_allowance(gamma0, a, p, N_CAP) if self.capped_series else 0.0,
                    oracle.log_ecpf(counts, gamma0, a, p),
                )
            s_ref, allowance, ecpf_ref = oracle_cache[key]
            ecpf_prog = float(row["log_ecpf"])
            ok = abs(s_prog - s_ref) <= S_THETA_TOL * (1.0 - s_ref) + allowance and abs(
                ecpf_prog - ecpf_ref
            ) <= LOG_ECPF_TOL * max(1.0, abs(ecpf_ref))
            if not ok:
                res.failed += 1
                res.problems.append(
                    f"iter {row['iter']}: s_theta {s_prog!r} vs {s_ref!r}, "
                    f"log_ecpf {ecpf_prog!r} vs {ecpf_ref!r}"
                )
            s_values.append(s_prog)
        res.failed += max(0, self.ops - len(rows))
        if len(rows) != self.ops:
            res.problems.append(f"{len(rows)} draws, expected {self.ops}")
        res.shortfalls = int(report["truncation_shortfalls"])
        if self.check_mean and s_values:
            mean = float(np.mean(s_values))
            if not abs(mean - EST_SAMPLE_SIMPSON) <= EST_MEAN_TOL:
                res.wrong.append(f"posterior mean s_theta {mean} not near {EST_SAMPLE_SIMPSON}")
        return res


@dataclass(frozen=True)
class Table1:
    """``gnbp reproduce-table1`` at desk scale; an operation is one
    (replicate, mode) chain."""

    name: str
    replicates: int
    iterations: int
    burn_in: int
    thin: int
    modes: tuple[str, ...] = ("fixed=-1", "free")
    size: int = 50

    @property
    def ops(self) -> int:
        return self.replicates * len(self.modes)

    def argv(self, seed: int, out: Path) -> list[str]:
        return [
            "reproduce-table1", "--replicates", str(self.replicates),
            "--size", str(self.size), "--modes", ",".join(self.modes),
            "--seed", str(seed), "--iterations", str(self.iterations),
            "--burn-in", str(self.burn_in), "--thin", str(self.thin),
            "--workers", "1", "--out", str(out),
        ]

    def check(self, out: Path, oracle_cache: dict) -> CheckResult:
        res = CheckResult()
        try:
            with (out / "table1_replicates.csv").open(newline="") as fh:
                rows = list(csv.DictReader(fh))
        except OSError as exc:
            res.failed = self.ops
            res.problems.append(f"outputs unreadable: {exc}")
            return res
        bias: dict[str, list[float]] = {m: [] for m in self.modes}
        for row in rows:
            q = [float(row[k]) for k in ("lo95", "lo50", "median", "hi50", "hi95")]
            mean = float(row["mean"])
            ok = (
                row["mode"] in bias
                and int(row["n"]) == self.size
                and all(lo <= hi for lo, hi in zip(q, q[1:]))
                and all(0.0 < v < 1.0 for v in q + [mean])
            )
            if not ok:
                res.failed += 1
                res.problems.append(f"replicate {row['replicate']} {row['mode']}: {q}")
                continue
            bias[row["mode"]].append(abs(mean - TABLE1_TARGET))
        res.failed += max(0, self.ops - len(rows))
        if len(rows) != self.ops:
            res.problems.append(f"{len(rows)} chains, expected {self.ops}")
        if bias["free"] and bias["fixed=-1"]:
            free, fixed = float(np.mean(bias["free"])), float(np.mean(bias["fixed=-1"]))
            if not (free <= TABLE1_FREE_BIAS_MAX and free < fixed):
                res.wrong.append(f"mean bias free {free} vs fixed=-1 {fixed}")
        return res


@dataclass(frozen=True)
class SimulateGivenN:
    """``gnbp simulate --given-n N``; an operation is one partition."""

    name: str
    gamma0: float
    a: float
    p: float
    n: int
    count: int

    @property
    def ops(self) -> int:
        return self.count

    def argv(self, seed: int, out: Path) -> list[str]:
        return [
            "simulate", "--gamma0", repr(self.gamma0), "--a", repr(self.a),
            "--p", repr(self.p), "--given-n", str(self.n), "--count", str(self.count),
            "--seed", str(seed), "--out", str(out / "structures.csv"),
        ]

    def check(self, out: Path, oracle_cache: dict) -> CheckResult:
        res = CheckResult()
        try:
            with (out / "structures.csv").open(newline="") as fh:
                rows = list(csv.DictReader(fh))
        except OSError as exc:
            res.failed = self.ops
            res.problems.append(f"outputs unreadable: {exc}")
            return res
        ls = []
        for row in rows:
            sizes = [int(s) for s in row["sizes"].split()]
            ok = (
                int(row["n"]) == self.n == sum(sizes)
                and int(row["l"]) == len(sizes)
                and all(s >= 1 for s in sizes)
            )
            if not ok:
                res.failed += 1
                res.problems.append(f"draw {row['draw']}: n={row['n']} l={row['l']}")
                continue
            ls.append(len(sizes))
        res.failed += max(0, self.ops - len(rows))
        if len(rows) != self.ops:
            res.problems.append(f"{len(rows)} partitions, expected {self.ops}")
        if ls:
            key = ("moments", self.n)
            if key not in oracle_cache:
                oracle_cache[key] = oracle.cluster_count_moments(self.n, self.gamma0, self.a, self.p)
            mean, var = oracle_cache[key]
            z = (float(np.mean(ls)) - mean) / math.sqrt(var / len(ls))
            if not abs(z) <= SIMULATE_Z_MAX:
                res.wrong.append(f"mean cluster count {np.mean(ls)} vs E[L|n]={mean} (z={z:.1f})")
        return res


# Chains are shortened from the commands' defaults (2000 iterations,
# half of them burn-in) to 100 iterations with the same burn-in share,
# so that one command takes a few seconds and a run averages over many
# chains: the cost of a diversity evaluation varies several-fold from
# draw to draw.  tcr-diabetic keeps every second draw where the README
# example keeps every draw; its consecutive draws cost alike, and the
# thinning lets a run see more independent ones.
WORKLOADS = {
    w.name: w
    for w in (
        # est-tomato's posterior has gNB mean near 2500, where the program
        # takes its Monte Carlo path, which has no cap.
        Estimate("est-tomato", "est-tomato", 100, 50, 5, check_mean=True, capped_series=False),
        Estimate("tcr-diabetic", "tcr-treg-diabetic-1", 100, 50, 2, check_mean=False,
                 capped_series=True),
        Table1("table1-desk", replicates=20, iterations=100, burn_in=50, thin=5),
        SimulateGivenN("simulate-given-n", 2.0, 0.5, 0.5, n=2000, count=250),
    )
}
