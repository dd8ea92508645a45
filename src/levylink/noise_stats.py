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

from .stable_rng import _BLOCK, StableParams, _in_blocks, sample_n
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
    (checked when built; ``scale``, ``dt`` and ``n`` are checked here).  Zero
    scale gives exact zeros and consumes no draws.  A dt whose dt**(1/alpha)
    overflows float64 is refused with ``ValueError`` before anything is
    drawn; one whose dt**(1/alpha) underflows to 0 gives NaN at infinite draws.
    """
    non_negative_real(scale, "scale")
    positive_real(dt, "dt")
    n = positive_count(n, "n")
    if scale == 0.0:
        return np.zeros(n)
    factor = scale * _power(dt, law.alpha, "dt")
    draws = sample_n(law, stream, n)
    # In place, the bits of factor * draws.  Heavy tails overflow legitimately,
    # and a factor that underflows to 0 makes an infinite draw NaN (0 * inf).
    with np.errstate(over="ignore", invalid="ignore"):
        draws *= factor
    return draws


def _power(base: float, alpha: float, name: str) -> float:
    """``base ** (1/alpha)``; ``ValueError`` naming both when it overflows float64."""
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
    c(significance) * sqrt((n + m) / (n * m)).

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
    1 - significance.  Every argument is checked before anything is drawn.
    Paths are drawn and summed in blocks, as the ``stable_rng`` module
    docstring states.
    """
    law = StableParams(alpha=alpha)  # checks alpha first
    positive_real(c, "c")
    positive_real(t, "t")
    n_paths = positive_count(n_paths, "n_paths")
    n_steps = positive_count(n_steps, "n_steps")
    if not math.isfinite(c * t):
        raise ValueError(f"c*t overflows float64 for c={c!r}, t={t!r}")
    stretch = _power(c, alpha, "c")
    _ks_coefficient(significance)

    paths_per_block = max(1, _BLOCK // n_steps)

    def endpoints(horizon: float) -> np.ndarray:
        def block(k: int) -> np.ndarray:
            steps = increments(law, 1.0, horizon / n_steps, stream, k * n_steps)
            return steps.reshape(k, n_steps).sum(axis=1)

        return _in_blocks(n_paths, paths_per_block, block)

    # Heavy tails may overflow the sums and the rescale; inf - inf is NaN,
    # which the KS refuses.
    with np.errstate(over="ignore", invalid="ignore"):
        stretched = endpoints(c * t)
        rescaled = endpoints(t)
        rescaled *= stretch
    return empirical_ks_two_sample(stretched, rescaled, significance)
