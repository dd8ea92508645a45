"""One-sample Kolmogorov-Smirnov test: the oracle the law checks compare draws against.

The library runs only the two-sample test (the self-similarity check); the
tests check each generator branch and criterion against a closed-form or
scipy CDF with this routine.  It refuses empty and NaN samples and
unsupported significance levels as the library's test does, from its own
table of the asymptotic coefficients.
"""
import math

import numpy as np

from levylink.noise_stats import EmptySample, KsReport

COEFF = {0.05: 1.358, 0.01: 1.628}


def empirical_ks_one_sample(xs, cdf, significance=0.01):
    """One-sample KS test of ``xs`` against the continuous CDF ``cdf``.

    For the sorted sample x_1 <= ... <= x_n the statistic is the larger of
    D+ = max(i/n - F(x_i)) and D- = max(F(x_i) - (i-1)/n); the critical
    value is c(significance) / sqrt(n).
    """
    if significance not in COEFF:
        raise ValueError(f"significance={significance!r} not supported; choose from {sorted(COEFF)}")
    xs = np.sort(np.asarray(xs, dtype=float))
    n = xs.size
    if n == 0:
        raise EmptySample("one-sample KS needs a nonempty sample")
    if np.isnan(xs).any():
        raise ValueError("one-sample KS needs a sample without NaN")
    f = np.asarray(cdf(xs), dtype=float)
    grid = np.arange(1, n + 1) / n
    stat = float(max(np.max(grid - f), np.max(f - (grid - 1.0 / n))))
    crit = COEFF[significance] / math.sqrt(n)
    return KsReport(statistic=stat, critical_value=crit, passed=stat < crit, significance=significance)
