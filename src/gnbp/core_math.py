"""Log-space scalar kernels shared by every other module.

All cluster-structure likelihoods in this package are built from gamma
ratios and generalized Stirling numbers of the first kind, whose raw
values overflow double precision near n = 170 while the datasets of
interest reach n = 2586.  Everything here therefore lives in log space.
"""

from __future__ import annotations

import math

import numpy as np

NEG_INF = float("-inf")

# log_gamma shifts its argument up by this much before the Stirling series.
_LOG_GAMMA_SHIFT = 8
# B_2k / (2k (2k - 1)) for k = 1..7, the Stirling series coefficients.
_STIRLING_SERIES = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def log_sum_exp(values) -> float:
    """log(sum(exp(values))) via max shifting.

    Accepts any sequence of reals, possibly containing -inf entries.
    Returns -inf for an empty sequence or when every entry is -inf.
    """
    return log_sum_exp_rows(np.asarray(values, dtype=float).reshape(1, -1))[0]


def log_sum_exp_rows(matrix: np.ndarray) -> list[float]:
    """:func:`log_sum_exp` of each row of a 2-D array, as a list.

    A row's maximum m is shifted out and the logarithm taken with
    math.log, m + log(sum(exp(row - m))); a row whose maximum is infinite
    gives that maximum.
    """
    if matrix.shape[1] == 0:
        return [NEG_INF] * matrix.shape[0]
    peak = matrix.max(axis=1)
    with np.errstate(invalid="ignore"):
        mass = np.exp(matrix - peak[:, None]).sum(axis=1)
    return [
        m if math.isinf(m) else m + math.log(s)
        for m, s in zip(peak.tolist(), mass.tolist())
    ]


def log_gamma(x) -> np.ndarray:
    """log Gamma(x) elementwise over an array, for 0 < x < 1e38.

    The recurrence Gamma(x) = Gamma(x + 8) / (x (x + 1) ... (x + 7))
    moves the argument to z = x + 8 >= 8, where the Stirling series
    (z - 1/2) log z - z + log(2 pi) / 2 + sum_k B_2k / (2k (2k - 1) z^(2k - 1))
    truncated after k = 7 leaves a remainder below 1e-15.  The absolute
    error is at most 1e-14 * max(1, |log Gamma(x)|); above 1e38 the shift
    product overflows.  Scalars use :func:`math.lgamma`.
    """
    x = np.asarray(x, dtype=float)
    shift = x.copy()
    for k in range(1, _LOG_GAMMA_SHIFT):
        shift *= x + k
    z = x + _LOG_GAMMA_SHIFT
    w = 1.0 / (z * z)
    series = np.full_like(z, _STIRLING_SERIES[-1])
    for c in _STIRLING_SERIES[-2::-1]:
        series = series * w + c
    return (z - 0.5) * np.log(z) - z + _HALF_LOG_2PI + series / z - np.log(shift)


def log_gamma_ratio(n: int, a: float) -> float:
    """log(Gamma(n - a) / Gamma(1 - a)) for integer n >= 1 and a < 1, as
    lgamma(n - a) - lgamma(1 - a).

    Both arguments are at least 1 - a > 0, so both terms are finite and
    the ratio never passes through a pole; n = 1 gives exactly 0.
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    if a >= 1.0:
        raise ValueError(f"discount must satisfy a < 1, got {a}")
    return math.lgamma(n - a) - math.lgamma(1.0 - a)


class LogStirlingTable:
    """Triangular table of log S_a(n, l), generalized Stirling numbers
    of the first kind with discount a < 1.

    Row n holds entries for l = 0..n; S_a(0, 0) = 1 by convention and
    S_a(n, 0) = 0 for n >= 1.  Rows are filled by the two-term recursion

        S_a(n + 1, l) = (n - a l) S_a(n, l) + S_a(n, l - 1)

    with S_a(n, 1) = Gamma(n - a) / Gamma(1 - a) and S_a(n, n) = 1
    falling out of the boundary handling.  Since a < 1 and l <= n, the
    coefficient n - a l is always positive and the recursion is a pure
    sum of positive terms, so it is evaluated with two-term log-add-exp.

    The table can be extended in place via :meth:`ensure`; extension is
    not thread safe, but a fully built table is immutable in practice
    and safe to read from many threads.
    """

    def __init__(self, max_n: int, a: float):
        if max_n < 0:
            raise ValueError(f"max_n must be nonnegative, got {max_n}")
        if a >= 1.0:
            raise ValueError(f"discount must satisfy a < 1, got {a}")
        self.a = float(a)
        self._rows: list[np.ndarray] = [np.zeros(1)]
        self._grow(max_n)

    @property
    def max_n(self) -> int:
        return len(self._rows) - 1

    def ensure(self, n: int) -> None:
        """Extend the table so that row n exists (no-op if it does)."""
        if n > self.max_n:
            self._grow(n)

    def _grow(self, new_max: int) -> None:
        a = self.a
        for n in range(self.max_n, new_max):
            prev = self._rows[n]
            nxt = np.empty(n + 2)
            nxt[0] = NEG_INF
            if n >= 1:
                l = np.arange(1, n + 1, dtype=float)
                stay = np.log(n - a * l) + prev[1:]
                nxt[1 : n + 1] = np.logaddexp(stay, prev[:n])
            nxt[n + 1] = prev[n]
            self._rows.append(nxt)

    def row(self, n: int) -> np.ndarray:
        """Log row for sample size n, indexed by l = 0..n.  Do not mutate."""
        self.ensure(n)
        return self._rows[n]

    def entry(self, n: int, l: int) -> float:
        """log S_a(n, l)."""
        if n < 0 or l < 0 or l > n:
            raise ValueError(f"invalid Stirling index (n={n}, l={l})")
        self.ensure(n)
        return float(self._rows[n][l])


def build_stirling_table(max_n: int, a: float) -> LogStirlingTable:
    """Build log S_a(n, l) rows for all n up to max_n."""
    if max_n < 1:
        raise ValueError(f"max_n must be a positive integer, got {max_n}")
    return LogStirlingTable(max_n, a)
