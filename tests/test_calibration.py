"""How often the self-similarity check rejects, and what its statistic is.

Under the scaling law the check's two samples share one law, so over many
seeds it may reject about ``significance`` of the time (less, since the
asymptotic critical value is conservative at small sizes).  Each count is
bounded by a binomial tail summed in log space with ``math.lgamma``, at a
level so small that a correct check with fixed seeds never meets it.  A
stretch with the wrong exponent, c**(1/alpha'), must be rejected at least
at a stated rate.  The statistic itself is checked against scipy's exact
two-sample test, which rounds it to the nearest multiple of 1/lcm(n, m).
"""
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from levylink import noise_stats
from levylink.noise_stats import empirical_ks_two_sample, self_similarity_check
from levylink.stable_rng import StableParams, sample_n
from levylink.streams import RngStream

# The chance, under the stated rate, that a count falls past its limit.
LEVEL = 1e-6


def log_binomial_pmf(n, k, p):
    return (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
            + k * math.log(p) + (n - k) * math.log1p(-p))


def upper_limit(n, p, level=LEVEL):
    """The smallest k with P(X > k) <= ``level`` for X ~ Binomial(n, p)."""
    above = 0.0  # P(X > k), summed from the smallest terms up
    for k in range(n, -1, -1):
        at_least = above + math.exp(log_binomial_pmf(n, k, p))
        if at_least > level:
            return k
        above = at_least
    return 0


def lower_limit(n, p, level=LEVEL):
    """The largest k with P(X < k) <= ``level`` for X ~ Binomial(n, p)."""
    return n - upper_limit(n, 1.0 - p, level)


def exact_upper_limit(n, p, level=LEVEL):
    """``upper_limit`` in exact integers: with p = a/d, P(X = k) d**n is an integer."""
    a, d = p.as_integer_ratio()
    bound, above = Fraction(level) * d**n, 0
    for k in range(n, -1, -1):
        at_least = above + math.comb(n, k) * a**k * (d - a) ** (n - k)
        if at_least > bound:
            return k
        above = at_least
    return 0


# Small cases, and the three limits the counts below are held to.
@pytest.mark.parametrize("n, p", [(1, 0.05), (7, 0.05), (7, 0.9), (50, 0.01), (50, 0.5),
                                  (300, 0.05), (300, 0.01), (200, 1.0 - 0.9)])
def test_log_space_limit_equals_the_exact_one(n, p):
    assert upper_limit(n, p) == exact_upper_limit(n, p)


def rejections(seeds, significance, **check):
    return sum(not self_similarity_check(stream=RngStream(seed), significance=significance,
                                         **check).passed
               for seed in seeds)


@pytest.mark.parametrize("significance", [0.05, 0.01])
def test_rejections_under_the_scaling_law_stay_within_the_binomial_tail(significance):
    seeds = range(300)
    count = rejections(seeds, significance, alpha=1.5, c=2.0, t=1.0, n_paths=50, n_steps=16)
    assert count <= upper_limit(len(seeds), significance), count


def test_a_wrong_stretch_exponent_is_rejected_at_its_stated_rate(monkeypatch):
    # alpha = 1.5 and c = 8 call for a stretch of 8**(2/3) = 4; 8**(1/0.75) = 16
    # is four times that.  With 50 paths the 5% check rejects it at a rate of
    # at least 0.9 (191 of these 200 seeds did).
    wrong_alpha, real_power = 0.75, noise_stats._power
    monkeypatch.setattr(
        noise_stats, "_power",
        lambda x, alpha, name: real_power(x, wrong_alpha if name == "c" else alpha, name),
    )
    seeds = range(200)
    count = rejections(seeds, 0.05, alpha=1.5, c=8.0, t=1.0, n_paths=50, n_steps=16)
    assert count >= lower_limit(len(seeds), 0.9), count


def ks_samples():
    """Sample pairs of unequal and equal sizes, with ties, and stable draws."""
    for seed in range(30):
        rng = np.random.default_rng(seed)
        n, m = rng.integers(1, 60, size=2)
        yield np.round(rng.standard_cauchy(n), 1), np.round(1.5 * rng.standard_cauchy(m), 1)
    for n in (6, 25, 60):
        law = StableParams(alpha=1.2, beta=0.3)
        yield sample_n(law, RngStream(54, n), n), sample_n(law, RngStream(55, n), n)


@pytest.mark.parametrize("xs, ys", list(ks_samples()))
def test_ks_statistic_agrees_with_scipys_exact_test(xs, ys):
    # Ours rounds i/n and j/m, each below 1 or exactly 1, and their difference;
    # scipy rounds the exact h/lcm(n, m).  So the two lie within one ulp of
    # the CDF values, ulp(0.5), plus one ulp of the statistic.
    ours = empirical_ks_two_sample(xs, ys).statistic
    theirs = stats.ks_2samp(xs, ys, method="exact").statistic
    assert abs(ours - theirs) <= math.ulp(0.5) + math.ulp(theirs), (ours.hex(), theirs.hex())
