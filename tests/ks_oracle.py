"""One-sample Kolmogorov-Smirnov test: the oracle the law checks compare draws against.

The library runs only the two-sample test (the self-similarity check); the
tests check each generator branch and criterion against a closed-form or
scipy CDF with this routine.  It refuses empty and NaN samples and
unsupported significance levels as the library's test does.
"""
import math

import numpy as np

from levylink.noise_stats import KsReport, _ks_coefficient, _sample


def empirical_ks_one_sample(xs, cdf, significance=0.01):
    """One-sample KS test of ``xs`` against the continuous CDF ``cdf``.

    For the sorted sample x_1 <= ... <= x_n the statistic is the larger of
    D+ = max(i/n - F(x_i)) and D- = max(F(x_i) - (i-1)/n); the critical
    value is c(significance) / sqrt(n).
    """
    coeff = _ks_coefficient(significance)
    xs = np.sort(_sample(xs, "one-sample KS"))
    n = xs.size
    f = np.asarray(cdf(xs), dtype=float)
    grid = np.arange(1, n + 1) / n
    stat = float(max(np.max(grid - f), np.max(f - (grid - 1.0 / n))))
    crit = coeff / math.sqrt(n)
    return KsReport(statistic=stat, critical_value=crit, passed=stat < crit, significance=significance)
