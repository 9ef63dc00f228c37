"""Exchangeable random partitions under the generalized negative
binomial process.

The joint law of a sample size and its partition factorizes over cluster
sizes (the exchangeable cluster probability function).  Conditioning on
the sample size yields a partition law that, unlike the Chinese
restaurant process, depends on how many elements will eventually be
observed.  Sampling from it uses either a one-step Gibbs prediction rule
or an exact sequential rule driven by a triangular table R(i, j) of
partial normalizers computed by a two-term backward recursion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .core_math import LogStirlingTable
from .distributions import (
    ClusterSizes,
    Params,
    kappa,
    log_size_product,
    log_weighted_stirling_sum,
)

# Enumeration of set partitions is meant for oracle-style checks only;
# Bell(10) = 115975 is the largest count we ever want to materialize.
_ENUMERATION_CAP = 10


def canonicalize_labels(labels: Sequence[int]) -> tuple[int, ...]:
    """Relabel a cluster-membership sequence in order of first appearance."""
    mapping: dict[int, int] = {}
    out = []
    for z in labels:
        k = mapping.get(z)
        if k is None:
            k = len(mapping) + 1
            mapping[z] = k
        out.append(k)
    return tuple(out)


@dataclass(frozen=True)
class Assignments:
    """Cluster labels z_1..z_n in order-of-appearance canonical form:
    z_1 = 1 and z_{i+1} <= 1 + max(z_1..z_i)."""

    labels: tuple[int, ...]

    def __post_init__(self):
        labels = tuple(int(z) for z in self.labels)
        object.__setattr__(self, "labels", labels)
        seen = 0
        for i, z in enumerate(labels):
            if z < 1 or z > seen + 1:
                raise ValueError(
                    f"labels are not in order-of-appearance canonical form "
                    f"(position {i}, label {z})"
                )
            seen = max(seen, z)

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def num_clusters(self) -> int:
        return max(self.labels) if self.labels else 0

    def cluster_sizes(self) -> ClusterSizes:
        """Block sizes in label (appearance) order."""
        counts = np.bincount(self.labels, minlength=self.num_clusters + 1)[1:]
        return ClusterSizes(tuple(int(c) for c in counts))

    def prefix(self, i: int) -> "Assignments":
        """First i labels; a canonical prefix of a canonical sequence."""
        if not 0 <= i <= self.n:
            raise ValueError(f"prefix length {i} out of range for n={self.n}")
        return Assignments(self.labels[:i])


def as_blocks(z: Assignments) -> tuple[frozenset[int], ...]:
    """The set partition induced by z, as frozensets of 0-based positions."""
    blocks: list[set[int]] = [set() for _ in range(z.num_clusters)]
    for i, lab in enumerate(z.labels):
        blocks[lab - 1].add(i)
    return tuple(frozenset(b) for b in blocks)


def enumerate_set_partitions(n: int) -> Iterator[tuple[int, ...]]:
    """Yield every set partition of [n] as a canonical label tuple
    (restricted growth string).  Capped at n = 10; this exists for
    exhaustive-check purposes, not production sampling."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > _ENUMERATION_CAP:
        raise ValueError(
            f"set-partition enumeration is capped at n <= {_ENUMERATION_CAP}"
        )
    if n == 0:
        yield ()
        return

    labels = [1] * n

    def rec(i: int, max_label: int):
        if i == n:
            yield tuple(labels)
            return
        for k in range(1, max_label + 2):
            labels[i] = k
            yield from rec(i + 1, max(max_label, k))

    yield from rec(1, 1)


def ecpf_log(sizes: ClusterSizes, params: Params) -> float:
    """Log joint probability of a canonical label sequence with the given
    block sizes together with its sample size n:

        (1/n!) e^{-gamma0 kappa} gamma0^l p^{n - a l}
            prod_k Gamma(n_k - a) / Gamma(1 - a)

    A function of the size multiset only, by exchangeability.
    """
    n, l = sizes.n, sizes.l
    return (
        -math.lgamma(n + 1)
        - params.gamma0 * kappa(params)
        + l * math.log(params.gamma0)
        + (n - params.a * l) * math.log(params.p)
        + log_size_product(sizes, params.a)
    )


def gcrsf_log_eppf(
    sizes: ClusterSizes, params: Params, stirling: LogStirlingTable
) -> float:
    """Log probability of one set partition with the given block sizes,
    conditioned on the sample size n (the generalized Chinese restaurant
    sampling formula)."""
    l = sizes.l
    return (
        l * (math.log(params.gamma0) - params.a * math.log(params.p))
        + log_size_product(sizes, params.a)
        - log_weighted_stirling_sum(sizes.n, params, stirling)
    )


@dataclass(frozen=True)
class LogRTable:
    """Triangular table of log R(i, j) for a fixed sample size n and
    parameter triple, satisfying the backward recursion

        R(i, j) = (i - a j) R(i+1, j) + gamma0 p^{-a} R(i+1, j+1)

    with boundary R(n, j) = 1.  ``rows`` maps i -> array of log R(i, j)
    for j = 1..i; row n is implicit (identically zero in log scale).
    """

    n: int
    params: Params
    rows: dict[int, np.ndarray] = field(repr=False)

    def has_row(self, i: int) -> bool:
        return i == self.n or i in self.rows

    def entry(self, i: int, j: int) -> float:
        """log R(i, j)."""
        if not 1 <= j <= i <= self.n:
            raise ValueError(f"invalid table index (i={i}, j={j}) for n={self.n}")
        if i == self.n:
            return 0.0
        row = self.rows.get(i)
        if row is None:
            raise ValueError(f"row i={i} was not retained when the table was built")
        return float(row[j - 1])


def build_log_r_table(
    n: int, params: Params, mode: str = "full", i_min: int = 1
) -> LogRTable:
    """Compute log R(i, j) rows from i = n down to 1.

    mode="full" retains every row (O(n^2) memory, required by the
    sequential sampler).  mode="frontier" runs the same recursion in
    O(n) working memory and retains only rows i <= i_min, which is all
    the pair-distinctness and subset-marginal formulas need.
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    if mode not in ("full", "frontier"):
        raise ValueError(f"mode must be 'full' or 'frontier', got {mode!r}")
    if not 1 <= i_min <= n:
        raise ValueError(f"i_min must lie in [1, n], got {i_min}")
    a = params.a
    log_new = math.log(params.gamma0) - a * math.log(params.p)
    rows: dict[int, np.ndarray] = {}
    nxt = np.zeros(n)
    keep_all = mode == "full"
    for i in range(n - 1, 0, -1):
        j = np.arange(1, i + 1, dtype=float)
        coef = i - a * j
        # a < 1 and j <= i guarantee positivity; assert rather than trust.
        assert coef[-1] > 0.0
        row = np.logaddexp(np.log(coef) + nxt[:i], log_new + nxt[1 : i + 1])
        if keep_all or i <= i_min:
            rows[i] = row
        nxt = row
    return LogRTable(n=n, params=params, rows=rows)


def _check_table(rtable: LogRTable, n: int, params: Params) -> None:
    if rtable.n != n or rtable.params != params:
        raise ValueError(
            "R table was built for a different sample size or parameter triple"
        )


def sequential_step_probs(
    counts: Sequence[int], n: int, params: Params, rtable: LogRTable
) -> np.ndarray:
    """Allocation probabilities for the next element given the current
    occupied-cluster counts, in a sample of eventual size n.

    Entry k < l is the probability of joining cluster k + 1,
    (n_k - a) R(i+1, l) / R(i, l); the last entry is the new-cluster
    probability gamma0 p^{-a} R(i+1, l+1) / R(i, l).  The vector sums to
    one by the recursion that defines R.
    """
    counts = np.asarray(counts, dtype=float)
    i = int(round(float(np.sum(counts))))
    l = len(counts)
    if i >= n:
        raise ValueError("all elements already allocated")
    _check_table(rtable, n, params)
    base = rtable.entry(i, l)
    r_keep = math.exp(rtable.entry(i + 1, l) - base)
    r_new = math.exp(rtable.entry(i + 1, l + 1) - base)
    new_mass = params.gamma0 * params.p ** (-params.a) * r_new
    return np.append((counts - params.a) * r_keep, new_mass)


def sequential_sample(
    n: int, params: Params, rtable: LogRTable, rng: np.random.Generator, size: int
) -> np.ndarray:
    """``size`` exact draws of a partition of [n] from the size-conditioned
    law by sequential allocation; requires a full table for this
    (n, params).

    Returns int32 canonical labels of shape (size, n), one draw per row.
    The draws advance in lockstep through elements i = 1..n-1.  At step i
    a draw with l clusters and counts n_k takes
    r_keep = exp(log R(i+1, l) - log R(i, l)), forms the running sums of
    (n_k - a) r_keep over its clusters k = 1..l, and joins the first
    cluster whose running sum exceeds its uniform u; when none does it
    opens cluster l + 1, whose mass is the remainder.  The uniforms are
    one ``rng.random((size, n - 1))`` block, so draw d uses row d, and
    the stream equals ``size`` consecutive single draws.  r_keep comes
    from ``math.exp``, not from numpy's vectorized exp, which can differ
    from it in the last bit; so every comparison is the one a per-draw
    loop makes, and the draws match it bit for bit.
    """
    _check_table(rtable, n, params)
    for i in range(1, n):
        if not rtable.has_row(i):
            raise ValueError("sequential sampling needs every row; build mode='full'")
    if size < 0:
        raise ValueError(f"size must be nonnegative, got {size}")
    a = params.a
    uniforms = rng.random((size, n - 1))
    labels = np.ones((size, n), dtype=np.int32)
    if size == 0:
        return labels
    # Row k of counts and weights is cluster k + 1 of every draw, so a
    # step reads only the first max(l) rows and the zero rows beyond stay
    # untouched.  weights holds n_k - a on opened clusters, 0 elsewhere.
    counts = np.zeros((n, size), dtype=np.int32)
    counts[0] = 1
    weights = np.zeros((n, size))
    weights[0] = 1 - a
    l = np.ones(size, dtype=np.intp)
    draw = np.arange(size)
    cur = rtable.rows.get(1)
    for i in range(1, n):
        nxt = rtable.rows[i + 1] if i + 1 < n else np.zeros(n)
        lo, hi = int(l.min()), int(l.max())
        log_ratio = (nxt[lo - 1 : hi] - cur[lo - 1 : hi]).tolist()
        r_keep = np.array([math.exp(d) for d in log_ratio])[l - lo]
        cum = np.cumsum(weights[:hi] * r_keep, axis=0)
        hit = uniforms[:, i - 1] < cum
        first = hit.argmax(axis=0)
        joined = hit[first, draw]
        chosen = np.where(joined, first, l)
        counts[chosen, draw] += 1
        weights[chosen, draw] = counts[chosen, draw] - a
        l += ~joined
        labels[:, i] = chosen + 1
        cur = nxt
    return labels


def gibbs_sweep(
    z: Assignments, params: Params, rng: np.random.Generator
) -> Assignments:
    """One full Gibbs sweep over all elements using the one-step rule:
    an occupied cluster gets weight n_k - a (counts excluding the element
    being moved), a new cluster gets gamma0 p^{-a}.  Labels are
    re-canonicalized once at the end of the sweep; the weights depend
    only on counts, so intermediate label gaps are harmless.  The
    invariant law is the size-conditioned partition distribution.
    """
    a = params.a
    new_mass = params.gamma0 * params.p ** (-a)
    labels = list(z.labels)
    counts: dict[int, int] = {}
    for lab in labels:
        counts[lab] = counts.get(lab, 0) + 1
    next_label = max(counts) + 1 if counts else 1
    for idx in range(len(labels)):
        old = labels[idx]
        counts[old] -= 1
        if counts[old] == 0:
            del counts[old]
        active = list(counts.items())
        total = sum(c - a for _, c in active) + new_mass
        u = rng.random() * total
        acc = 0.0
        chosen = None
        for lab, c in active:
            acc += c - a
            if u < acc:
                chosen = lab
                break
        if chosen is None:
            chosen = next_label
            next_label += 1
        labels[idx] = chosen
        counts[chosen] = counts.get(chosen, 0) + 1
    return Assignments(canonicalize_labels(labels))


def cluster_count_pmf(
    n: int, params: Params, stirling: LogStirlingTable
) -> np.ndarray:
    """Exact PMF of the number of clusters in a sample of size n,
    returned as a vector over l = 0..n (zero at l = 0 for n >= 1):

        p_L(l | n) = gamma0^l p^{-a l} S_a(n, l) / sum_m gamma0^m p^{-a m} S_a(n, m)
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    row = stirling.row(n)
    if stirling.a != params.a:
        raise ValueError("Stirling table discount does not match params")
    l = np.arange(n + 1, dtype=float)
    w = l * (math.log(params.gamma0) - params.a * math.log(params.p)) + row
    w -= log_weighted_stirling_sum(n, params, stirling)
    return np.exp(w)


def subset_marginal_log(
    z_prefix: Assignments,
    n: int,
    params: Params,
    stirling: LogStirlingTable,
    rtable: LogRTable,
) -> float:
    """Log marginal probability of the first i labels when the sample has
    size n >= i:

        R(i, l_i) gamma0^{l_i} p^{-a l_i}
            prod_k Gamma(n_k,i - a) / Gamma(1 - a)
            / sum_m gamma0^m p^{-a m} S_a(n, m)

    Unless a = 0, this genuinely depends on n: the partition family is a
    cluster structure, not a partition structure.
    """
    i = z_prefix.n
    if i < 1 or i > n:
        raise ValueError(f"prefix length {i} must lie in [1, n={n}]")
    _check_table(rtable, n, params)
    sizes = z_prefix.cluster_sizes()
    l = sizes.l
    return (
        rtable.entry(i, l)
        + l * (math.log(params.gamma0) - params.a * math.log(params.p))
        + log_size_product(sizes, params.a)
        - log_weighted_stirling_sum(n, params, stirling)
    )


def subset_cluster_count_pmf(
    i: int,
    n: int,
    params: Params,
    stirling: LogStirlingTable,
    rtable: LogRTable,
) -> np.ndarray:
    """PMF of the number of clusters among the first i of n elements,
    as a vector over l = 0..i:

        p(l | i, n) = gamma0^l p^{-a l} S_a(i, l) R(i, l) / sum_m ... S_a(n, m)

    The vector sums to one through the Stirling/R identity rather than by
    explicit renormalization, so the sum doubles as a consistency check.
    """
    if not 1 <= i <= n:
        raise ValueError(f"i must lie in [1, n={n}], got {i}")
    _check_table(rtable, n, params)
    log_unit = math.log(params.gamma0) - params.a * math.log(params.p)
    log_den = log_weighted_stirling_sum(n, params, stirling)
    out = np.zeros(i + 1)
    for l in range(1, i + 1):
        out[l] = math.exp(
            l * log_unit + stirling.entry(i, l) + rtable.entry(i, l) - log_den
        )
    return out


def addition_rule_residual(
    sizes: ClusterSizes, n: int, params: Params, stirling: LogStirlingTable
) -> float:
    """Audit of sampling consistency for a partition of [m] inside a
    sample of size n > m: the sum of the probabilities of its l + 1
    one-element extensions (evaluated under sample size n) minus its own
    probability evaluated under sample size m.

    Zero for every (m, n) exactly when the family satisfies the addition
    rule, which here happens only at a = 0.
    """
    m, l = sizes.n, sizes.l
    if not m < n:
        raise ValueError(f"need m < n, got m={m}, n={n}")
    a = params.a
    log_unit = math.log(params.gamma0) - a * math.log(params.p)
    log_prod = log_size_product(sizes, a)
    rtable = build_log_r_table(n, params, mode="frontier", i_min=m + 1)
    log_den_n = log_weighted_stirling_sum(n, params, stirling)
    log_den_m = log_weighted_stirling_sum(m, params, stirling)

    base = l * log_unit + log_prod - log_den_m
    extended = 0.0
    r_same = rtable.entry(m + 1, l)
    for s in sizes.sizes:
        extended += math.exp(
            r_same + l * log_unit + log_prod + math.log(s - a) - log_den_n
        )
    extended += math.exp(
        rtable.entry(m + 1, l + 1) + (l + 1) * log_unit + log_prod - log_den_n
    )
    return extended - math.exp(base)
