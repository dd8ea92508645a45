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

from .stable_rng import StableParams, sample_n, validate
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
    draws from the stream.
    """
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt={dt!r} must be a positive real")
    if spec.scale == 0.0:
        if n < 1:
            raise ValueError(f"n={n} must be a positive integer")
        return np.zeros(n)
    draws = sample_n(StableParams(alpha=spec.alpha), stream, n)
    return (spec.scale * dt ** (1.0 / spec.alpha)) * draws


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
    """
    coeff = _ks_coefficient(significance)
    xs = _sample(xs, "two-sample KS")
    ys = _sample(ys, "two-sample KS")
    pooled = np.concatenate([xs, ys])
    fx = empirical_cdf(xs, pooled)
    fy = empirical_cdf(ys, pooled)
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
    if n_paths < 1 or n_steps < 1:
        raise ValueError("n_paths and n_steps must be positive integers")
    spec = NoiseSpec(alpha=alpha, scale=1.0)

    def endpoints(horizon: float) -> np.ndarray:
        dt = horizon / n_steps
        steps = increments(spec, dt, stream, n_paths * n_steps)
        return steps.reshape(n_paths, n_steps).sum(axis=1)

    stretched = endpoints(c * t)
    rescaled = c ** (1.0 / alpha) * endpoints(t)
    return empirical_ks_two_sample(stretched, rescaled, significance)
