"""Stable noise increments and the statistical machinery around them.

The driving noise of the simulators is synthesized from its scaling law: an
increment over a step of length dt is distributed as dt**(1/alpha) times a
standard symmetric stable variate, scaled by the noise amplitude.  The same
module carries the empirical-CDF / Kolmogorov-Smirnov tooling used to check
distributional claims, including the self-similarity check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .stable_rng import StableParams, positive_count, sample_n, validate
from .streams import RngStream

__all__ = [
    "NoiseSpec",
    "KsReport",
    "EmptySample",
    "increments",
    "empirical_cdf",
    "empirical_ks_two_sample",
    "empirical_ks_one_sample",
    "self_similarity_check",
]

# Asymptotic Kolmogorov-Smirnov coefficients by significance level.
_KS_COEFF = {0.05: 1.358, 0.01: 1.628}


class EmptySample(ValueError):
    """A statistical routine received an empty sample."""


@dataclass(frozen=True)
class NoiseSpec:
    """Driving-noise description: stability index and amplitude.

    The amplitude multiplies every increment; the jump skewness is fixed at
    zero throughout (symmetric noise).
    """

    alpha: float
    scale: float = 1.0

    def __post_init__(self):
        validate(StableParams(alpha=self.alpha))
        if not (math.isfinite(self.scale) and self.scale >= 0.0):
            raise ValueError(f"scale={self.scale!r} must be a finite non-negative real")


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


def increments(spec: NoiseSpec, dt: float, stream: RngStream, n: int) -> np.ndarray:
    """``n`` independent noise increments over steps of length ``dt``.

    Each increment is scale * dt**(1/alpha) * S with S standard symmetric
    stable.  Zero amplitude short-circuits to exact zeros and consumes no
    draws from the stream.  A dt whose dt**(1/alpha) overflows float64 is
    refused with ``ValueError`` before anything is drawn; one whose
    dt**(1/alpha) underflows to zero gives NaN for each infinite draw.
    """
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt={dt!r} must be a positive real")
    n = positive_count(n, "n")
    if spec.scale == 0.0:
        return np.zeros(n)
    factor = spec.scale * _power(dt, spec.alpha, "dt")
    draws = sample_n(StableParams(alpha=spec.alpha), stream, n)
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


def empirical_cdf(xs: Sequence[float], points: Sequence[float]) -> np.ndarray:
    """Right-continuous empirical CDF of ``xs`` evaluated at ``points``."""
    xs = np.sort(_sample(xs, "empirical CDF"))
    return np.searchsorted(xs, np.asarray(points, dtype=float), side="right") / xs.size


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
    statistic has the bits of evaluating :func:`empirical_cdf` at the
    unsorted pooled sample.
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


def empirical_ks_one_sample(
    xs: Sequence[float], cdf: Callable[[np.ndarray], np.ndarray], significance: float = 0.01
) -> KsReport:
    """One-sample KS test of ``xs`` against the continuous CDF ``cdf``."""
    coeff = _ks_coefficient(significance)
    xs = np.sort(_sample(xs, "one-sample KS"))
    n = xs.size
    f = np.asarray(cdf(xs), dtype=float)
    grid = np.arange(1, n + 1) / n
    stat = float(max(np.max(grid - f), np.max(f - (grid - 1.0 / n))))
    crit = coeff / math.sqrt(n)
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
    1 - significance.
    """
    validate(StableParams(alpha=alpha))
    if not (math.isfinite(c) and c > 0.0):
        raise ValueError(f"c={c!r} must be a positive real")
    if not (math.isfinite(t) and t > 0.0):
        raise ValueError(f"t={t!r} must be a positive real")
    n_paths = positive_count(n_paths, "n_paths")
    n_steps = positive_count(n_steps, "n_steps")
    if not math.isfinite(c * t):
        raise ValueError(f"c*t overflows float64 for c={c!r}, t={t!r}")
    stretch = _power(c, alpha, "c")
    spec = NoiseSpec(alpha=alpha, scale=1.0)

    def endpoints(horizon: float) -> np.ndarray:
        dt = horizon / n_steps
        steps = increments(spec, dt, stream, n_paths * n_steps)
        return steps.reshape(n_paths, n_steps).sum(axis=1)

    # Heavy tails may overflow the sums and the rescale; inf - inf is NaN,
    # which the KS refuses.
    with np.errstate(over="ignore", invalid="ignore"):
        stretched = endpoints(c * t)
        rescaled = endpoints(t)
        rescaled *= stretch
    return empirical_ks_two_sample(stretched, rescaled, significance)
