"""Stable noise increments and the statistical machinery around them.

The driving noise of the simulators is synthesized from its scaling law: an
increment over a step of length dt is distributed as dt**(1/alpha) times a
standard symmetric stable variate, scaled by the noise amplitude.  The same
module carries the two-sample Kolmogorov-Smirnov test and the
self-similarity check built on it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .stable_rng import StableParams, _in_blocks, sample_n
from .stable_rng import non_negative_real, positive_count, positive_real
from .streams import RngStream

__all__ = [
    "KsReport",
    "EmptySample",
    "increments",
    "empirical_ks_two_sample",
    "self_similarity_check",
]

# Asymptotic Kolmogorov-Smirnov coefficients by significance level.
_KS_COEFF = {0.05: 1.358, 0.01: 1.628}


class EmptySample(ValueError):
    """A statistical routine received an empty sample."""


@dataclass(frozen=True)
class KsReport:
    """Outcome of a Kolmogorov-Smirnov test at a fixed significance level."""

    statistic: float
    critical_value: float
    passed: bool
    significance: float


def _ks_coefficient(significance: float) -> float:
    try:
        return _KS_COEFF[significance]
    except KeyError:
        raise ValueError(
            f"significance={significance!r} not supported; choose from {sorted(_KS_COEFF)}"
        ) from None


def increments(
    law: StableParams, scale: float, dt: float, stream: RngStream, n: int
) -> np.ndarray:
    """``n`` independent noise increments over steps of length ``dt``.

    Each increment is scale * dt**(1/alpha) * S with S drawn from ``law``
    (checked when built; ``scale``, ``dt`` and ``n`` before any draw).  Zero
    scale gives exact zeros and consumes no draws.  A dt whose dt**(1/alpha)
    overflows float64 is refused with ``ValueError`` at any scale; one whose
    dt**(1/alpha) underflows to 0 gives NaN at infinite draws.
    """
    non_negative_real(scale, "scale")
    factor = scale * _power(dt, law.alpha, "dt")
    if scale == 0.0:
        return np.zeros(positive_count(n, "n"))
    draws = sample_n(law, stream, n)
    # In place, the bits of factor * draws.  Heavy tails overflow legitimately,
    # and a factor that underflows to 0 makes an infinite draw NaN (0 * inf).
    with np.errstate(over="ignore", invalid="ignore"):
        draws *= factor
    return draws


def _power(base: float, alpha: float, name: str) -> float:
    """``base ** (1/alpha)``; ``ValueError`` unless base is a positive real whose power fits."""
    positive_real(base, name)
    try:
        return base ** (1.0 / alpha)
    except OverflowError:
        raise ValueError(
            f"{name}**(1/alpha) overflows float64 for {name}={base!r}, alpha={alpha!r}"
        ) from None


def _sample(xs: Sequence[float], what: str) -> np.ndarray:
    """``xs`` as a float array; refuse it when empty or holding a NaN.

    Infinities stay: they are ordered, and heavy-tailed sums can overflow.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.size == 0:
        raise EmptySample(f"{what} needs a nonempty sample")
    if np.isnan(xs).any():
        raise ValueError(f"{what} needs a sample without NaN")
    return xs


def empirical_ks_two_sample(
    xs: Sequence[float], ys: Sequence[float], significance: float = 0.01
) -> KsReport:
    """Two-sample KS test with the asymptotic critical value.

    The statistic is the supremum distance between the two empirical CDFs,
    attained at one of the pooled sample points; the critical value is
    c(significance) * sqrt((n + m) / (n * m)).  Equal sizes under 6 (at 0.01)
    or 4 (at 0.05) make it at least 1, so the verdict is always ``passed``.

    Each sample is sorted once, and both CDFs are evaluated at the two
    sorted samples concatenated: the pooled points in an order
    ``searchsorted`` walks quickly.  Each CDF value is the same count over
    the same size, and the maximum runs over the same points, so the
    statistic has the bits of evaluating both right-continuous empirical
    CDFs at the unsorted pooled sample.
    """
    coeff = _ks_coefficient(significance)
    xs = np.sort(_sample(xs, "two-sample KS"))
    ys = np.sort(_sample(ys, "two-sample KS"))
    pooled = np.concatenate([xs, ys])
    fx = np.searchsorted(xs, pooled, side="right") / xs.size
    fy = np.searchsorted(ys, pooled, side="right") / ys.size
    stat = float(np.max(np.abs(fx - fy)))
    crit = coeff * math.sqrt((xs.size + ys.size) / (xs.size * ys.size))
    return KsReport(statistic=stat, critical_value=crit, passed=stat < crit, significance=significance)


def self_similarity_check(
    alpha: float,
    c: float,
    t: float,
    n_paths: int,
    n_steps: int,
    stream: RngStream,
    significance: float = 0.01,
) -> KsReport:
    """KS comparison of noise at time c*t against the rescaled noise at time t.

    Simulates ``n_paths`` endpoints of the pure noise path at time c*t, each
    as a sum of ``n_steps`` increments, and ``n_paths`` endpoints at time t
    rescaled by c**(1/alpha).  Under the scaling law the two samples share
    one distribution, so the test passes with probability
    1 - significance.  Every argument and both step lengths are checked
    before anything is drawn, and ``n_paths`` too small for the test to fail
    (under 6 at significance 0.01, under 4 at 0.05) is refused.  Paths are
    drawn and summed in blocks, as the ``stable_rng`` module docstring states.
    """
    law = StableParams(alpha=alpha)  # checks alpha first
    stretch = _power(c, alpha, "c")
    positive_real(t, "t")
    n_paths = positive_count(n_paths, "n_paths")
    n_steps = positive_count(n_steps, "n_steps")
    if not math.isfinite(c * t):
        raise ValueError(f"c*t overflows float64 for c={c!r}, t={t!r}")
    steps = (c * t / n_steps, t / n_steps)
    for dt in steps:
        _power(dt, alpha, "dt")
    coeff = _ks_coefficient(significance)
    least = math.floor(2.0 * coeff * coeff) + 1  # the smallest n with coeff*sqrt(2/n) < 1
    if n_paths < least:
        raise ValueError(f"n_paths={n_paths} cannot fail a KS check at significance "
                         f"{significance!r}; use n_paths >= {least}")

    def endpoints(dt: float) -> np.ndarray:
        def block(k: int) -> np.ndarray:
            steps = increments(law, 1.0, dt, stream, k * n_steps)
            return steps.reshape(k, n_steps).sum(axis=1)

        return _in_blocks(n_paths, block, n_steps)

    # Heavy tails may overflow the sums and the rescale; inf - inf is NaN,
    # which the KS refuses.
    with np.errstate(over="ignore", invalid="ignore"):
        stretched, rescaled = map(endpoints, steps)
        rescaled *= stretch
    return empirical_ks_two_sample(stretched, rescaled, significance)
