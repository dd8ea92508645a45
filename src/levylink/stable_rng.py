"""Alpha-stable random variate generation.

One variate is produced by transforming one or two underlying draws into a
standard stable variate and then applying the scale/location shift.  Branch
structure, in dispatch order (exact floating-point equality, no snapping):

==========  =========================  ============  ==========================
branch      condition                  consumes      transform
==========  =========================  ============  ==========================
gaussian    alpha == 2                 one normal    sqrt(2) * N
cauchy      alpha == 1 and beta == 0   one uniform   tan(pi/2 * (2U - 1))
levy        alpha == 0.5, |beta| == 1  one normal    beta / N**2
symmetric   beta == 0                  two uniforms  CMS formula, skew-free
skewed      alpha != 1                 two uniforms  CMS formula with skew
unit-index  alpha == 1, beta != 0      two uniforms  logarithmic formula
==========  =========================  ============  ==========================

The two-uniform branches build the CMS angle V = pi/2 * (2*U1 - 1) and the
exponential clock W = -log(U2), consuming U1 before U2, so a flat batch of
2n uniforms maps to variates as (u[0], u[1]) -> x[0], (u[2], u[3]) -> x[1]
and so on.  Uniforms come from ``RngStream.uniforms`` and live strictly
inside (0, 1).

Shift rule: x = gamma * r + delta, except alpha == 1 where the location
additionally picks up (2/pi) * beta * gamma * log(gamma).

The kernels are module-level functions of the raw uniforms so tests can
force specific internal draws.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .streams import RngStream

__all__ = [
    "StableParams",
    "ParameterError",
    "validate",
    "sample_n",
    "cauchy_kernel",
    "symmetric_kernel",
    "skewed_kernel",
    "unit_index_kernel",
]

_SQRT2 = math.sqrt(2.0)
_HALF_PI = 0.5 * math.pi


@dataclass(frozen=True)
class StableParams:
    """Stable-law parameters: stability index, skewness, scale, location."""

    alpha: float
    beta: float = 0.0
    gamma: float = 1.0
    delta: float = 0.0


class ParameterError(ValueError):
    """A stable-law parameter lies outside its allowed range."""

    def __init__(self, field: str, value, allowed: str):
        self.field = field
        self.value = value
        self.allowed = allowed
        super().__init__(f"{field}={value!r} must lie in {allowed}")


def validate(params: StableParams) -> None:
    """Raise :class:`ParameterError` unless all parameter invariants hold."""
    if not (math.isfinite(params.alpha) and 0.0 < params.alpha <= 2.0):
        raise ParameterError("alpha", params.alpha, "the interval (0, 2]")
    if not (math.isfinite(params.beta) and -1.0 <= params.beta <= 1.0):
        raise ParameterError("beta", params.beta, "the interval [-1, 1]")
    if not (math.isfinite(params.gamma) and params.gamma >= 0.0):
        raise ParameterError("gamma", params.gamma, "the interval [0, inf)")
    if not math.isfinite(params.delta):
        raise ParameterError("delta", params.delta, "the finite reals")


def _angle(u):
    """CMS angle V = pi/2 * (2u - 1), uniform on (-pi/2, pi/2)."""
    return _HALF_PI * (2.0 * u - 1.0)


def cauchy_kernel(u):
    """Standard Cauchy variate from one uniform (alpha=1, beta=0 branch)."""
    return np.tan(_angle(u))


def symmetric_kernel(alpha, u1, u2):
    """Standard symmetric stable variate from two uniforms (beta=0 branch)."""
    v = _angle(u1)
    w = -np.log(u2)
    return (
        np.sin(alpha * v)
        / np.cos(v) ** (1.0 / alpha)
        * (np.cos(v * (1.0 - alpha)) / w) ** ((1.0 - alpha) / alpha)
    )


def skewed_kernel(alpha, beta, u1, u2):
    """Standard skewed stable variate from two uniforms (alpha != 1 branch)."""
    v = _angle(u1)
    w = -np.log(u2)
    const = beta * math.tan(_HALF_PI * alpha)
    shift = math.atan(const)
    scale = (1.0 + const * const) ** (1.0 / (2.0 * alpha))
    return (
        scale
        * np.sin(alpha * v + shift)
        / np.cos(v) ** (1.0 / alpha)
        * (np.cos((1.0 - alpha) * v - shift) / w) ** ((1.0 - alpha) / alpha)
    )


def unit_index_kernel(beta, u1, u2):
    """Standard stable variate for alpha = 1 with skew, from two uniforms."""
    v = _angle(u1)
    w = -np.log(u2)
    shifted = _HALF_PI + beta * v
    return (shifted * np.tan(v) - beta * np.log(_HALF_PI * w * np.cos(v) / shifted)) / _HALF_PI


def _shift(r, params: StableParams):
    """Apply the scale/location rule to standard variates ``r``."""
    if params.alpha != 1.0:
        return params.gamma * r + params.delta
    loc = params.delta
    if params.beta != 0.0 and params.gamma > 0.0:
        # gamma * log(gamma) -> 0 as gamma -> 0, so gamma == 0 adds nothing.
        loc = (2.0 / math.pi) * params.beta * params.gamma * math.log(params.gamma) + params.delta
    return params.gamma * r + loc


def sample_n(params: StableParams, stream: RngStream, n: int) -> np.ndarray:
    """Draw ``n`` independent stable variates from ``stream``.

    Element ``i`` equals the i-th value of ``n`` repeated one-variate calls
    on the same stream; batching does not change the draw schedule.
    """
    validate(params)
    if n < 1:
        raise ValueError(f"n={n} must be a positive integer")
    a, b = params.alpha, params.beta
    # Stable tails legitimately overflow float64; propagate IEEE infs.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if a == 2.0:
            r = _SQRT2 * stream.normals(n)
        elif a == 1.0 and b == 0.0:
            r = cauchy_kernel(stream.uniforms(n))
        elif a == 0.5 and abs(b) == 1.0:
            r = b / stream.normals(n) ** 2
        else:
            u = stream.uniforms(2 * n)
            u1, u2 = u[0::2], u[1::2]
            if b == 0.0:
                r = symmetric_kernel(a, u1, u2)
            elif a != 1.0:
                r = skewed_kernel(a, b, u1, u2)
            else:
                r = unit_index_kernel(b, u1, u2)
        return _shift(r, params)
