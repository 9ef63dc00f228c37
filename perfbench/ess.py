"""Effective sample size of a Markov chain by Geyer's initial monotone
sequence estimator (Geyer, Statistical Science 7, 1992)."""

from __future__ import annotations

import numpy as np


def effective_sample_size(x) -> float:
    """n / tau, where tau = -1 + 2 sum_m Gamma_m and Gamma_m is the sum of
    the lag-2m and lag-(2m+1) autocorrelations.  The sum stops before the
    first nonpositive Gamma_m, and each Gamma_m is capped at its
    predecessor so that the sequence is monotone.  On short chains the
    sampled autocorrelations can make tau small or even negative, so tau
    is held at 1 / log10(n) or more, as Stan does; the estimate then
    never exceeds n log10(n).  A constant chain returns n."""
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < 2:
        return float(n)
    x = x - x.mean()
    var = float(np.dot(x, x)) / n
    if var == 0.0:
        return float(n)
    size = 1 << (2 * n - 1).bit_length()
    spec = np.fft.rfft(x, size)
    rho = np.fft.irfft(spec * np.conj(spec), size)[:n] / (n * var)
    tau = -1.0
    prev = np.inf
    for m in range(n // 2):
        pair = rho[2 * m] + rho[2 * m + 1]
        if pair <= 0.0:
            break
        prev = min(prev, pair)
        tau += 2.0 * prev
    return n / max(tau, 1.0 / np.log10(n))
