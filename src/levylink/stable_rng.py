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
CMS         alpha != 1                 two uniforms  CMS formula (beta == 0 too)
unit-index  alpha == 1, beta != 0      two uniforms  logarithmic formula
==========  =========================  ============  ==========================

The two-uniform branches build the CMS angle V = pi/2 * (2*U1 - 1) and the
exponential clock W = -log(U2), consuming U1 before U2, so a flat batch of
2n uniforms maps to variates as (u[0], u[1]) -> x[0], (u[2], u[3]) -> x[1]
and so on.  Uniforms come from ``RngStream.uniforms`` and live strictly
inside (0, 1).  At beta == 0 the CMS shift is -0.0 and its scale 1, both
applied exactly, so skew-free draws have the bits of the skew-free formula.

Shift rule: x = gamma * r + delta, except alpha == 1 where the location
additionally picks up (2/pi) * beta * gamma * log(gamma).  A zero scale
maps every draw to the location, an infinite one included.

Near alpha -> 0 and alpha -> 1 the CMS product can meet 0 * inf, inf / inf
or a rounded-negative cosine and give NaN.  The CMS branch re-evaluates just
those lanes with :func:`log_space_kernel`, so every other draw keeps the
bits of the product form.

Draw blocks: ``_in_blocks`` runs a large draw in blocks of at most
``_BLOCK`` = 2**14 variates, each drawn, transformed and written into one
result, so temporaries stay in cache and memory is bounded by the block,
not by the request.  ``sample_n`` blocks the variates of every branch, and
``noise_stats.self_similarity_check`` blocks whole paths of increments (one
path per block when a path is longer).  Blocks end on whole items and each
step is elementwise or per path, so the bits and the draw schedule are
those of one pass over the whole request.

``StableParams`` checks its fields when built and raises ``ParameterError``
(a ``ValueError``); ``sample_n`` trusts the parameters it is given.

The kernels are module-level functions of the raw uniforms so tests can
force specific internal draws.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .streams import RngStream

__all__ = [
    "StableParams",
    "ParameterError",
    "sample_n",
    "cauchy_kernel",
    "skewed_kernel",
    "unit_index_kernel",
    "log_space_kernel",
]

_SQRT2 = math.sqrt(2.0)
_HALF_PI = 0.5 * math.pi
# Items per draw block; the module docstring states the block rule.
_BLOCK = 1 << 14


@dataclass(frozen=True)
class StableParams:
    """Stable-law parameters (stability index, skewness, scale, location), checked."""

    alpha: float
    beta: float = 0.0
    gamma: float = 1.0
    delta: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and 0.0 < self.alpha <= 2.0):
            raise ParameterError("alpha", self.alpha, "the interval (0, 2]")
        if not (math.isfinite(self.beta) and -1.0 <= self.beta <= 1.0):
            raise ParameterError("beta", self.beta, "the interval [-1, 1]")
        if not (math.isfinite(self.gamma) and self.gamma >= 0.0):
            raise ParameterError("gamma", self.gamma, "the interval [0, inf)")
        if not math.isfinite(self.delta):
            raise ParameterError("delta", self.delta, "the finite reals")


class ParameterError(ValueError):
    """A stable-law parameter lies outside its allowed range."""

    def __init__(self, field: str, value, allowed: str):
        self.field = field
        super().__init__(f"{field}={value!r} must lie in {allowed}")


def positive_count(value, name: str) -> int:
    """``value`` as an int of at least 1; ``TypeError`` unless it is an integer."""
    try:
        # operator.index refuses floats, which int() would truncate.
        count = operator.index(value)
    except TypeError:
        raise TypeError(f"{name}={value!r} must be an integer") from None
    if count < 1:
        raise ValueError(f"{name}={count} must be a positive integer")
    return count


def positive_real(value, name: str) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is finite and above 0."""
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name}={value!r} must be a positive real")


def non_negative_real(value, name: str) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is finite and at least 0."""
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"{name}={value!r} must be a non-negative real")


def finite_real(value, name: str) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is finite."""
    if not math.isfinite(value):
        raise ValueError(f"{name}={value!r} must be finite")


def _angle(u):
    """CMS angle V = pi/2 * (2u - 1), uniform on (-pi/2, pi/2)."""
    return _HALF_PI * (2.0 * u - 1.0)


def cauchy_kernel(u):
    """Standard Cauchy variate from one uniform (alpha=1, beta=0 branch)."""
    return np.tan(_angle(u))


def skewed_kernel(alpha, beta, u1, u2):
    """Standard stable variate from two uniforms by the CMS formula (alpha != 1)."""
    v = _angle(u1)
    w = -np.log(u2)
    const = beta * math.tan(_HALF_PI * alpha)
    # -0.0, not +0.0, at beta == 0: alpha * v + -0.0 keeps an underflowed -0.0.
    shift = math.atan(const) if beta else -0.0
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


def log_space_kernel(alpha, beta, u1, u2):
    """The variate of :func:`skewed_kernel` for alpha != 1, evaluated in log space.

    With c = beta * tan(pi/2 * alpha), the identity
    cos(x - atan(c)) = (cos(x) + c * sin(x)) / sqrt(1 + c**2) cancels the
    scale factor, so the variate is

        (sin(alpha*V) + c*cos(alpha*V)) / cos(V)**(1/alpha)
            * ((cos((1-alpha)*V) + c*sin((1-alpha)*V)) / W)**((1-alpha)/alpha).

    Its magnitude is summed as logarithms with the 1/alpha factor applied
    once, to a sum that stays finite, so no 0 * inf or inf - inf arises.
    An exact zero numerator gives a zero variate.  It agrees with the
    product form to rounding where both are finite, and is slower.
    """
    v = _angle(u1)
    w = -np.log(u2)
    const = beta * math.tan(_HALF_PI * alpha)
    top = np.sin(alpha * v) + const * np.cos(alpha * v)
    x = (1.0 - alpha) * v
    base = np.cos(x) + const * np.sin(x)
    log_size = np.log(np.abs(top)) + (
        (1.0 - alpha) * (np.log(base) - np.log(w)) - np.log(np.cos(v))
    ) / alpha
    return np.where(top == 0.0, top, np.copysign(np.exp(log_size), top))


def _shift(r, params: StableParams):
    """Apply the scale/location rule to standard variates ``r``, in place."""
    loc = params.delta
    if params.alpha == 1.0 and params.beta != 0.0 and params.gamma > 0.0:
        # gamma * log(gamma) -> 0 as gamma -> 0, so gamma == 0 adds nothing.
        loc = (2.0 / math.pi) * params.beta * params.gamma * math.log(params.gamma) + params.delta
    r *= params.gamma
    if params.gamma == 0.0:
        r[np.isnan(r)] = 0.0  # 0 * inf: the degenerate law sits at loc
    r += loc
    return r


def _in_blocks(n: int, draw, width: int = 1) -> np.ndarray:
    """``draw(k)`` over ``n`` items of ``width`` variates, blocked as the module docstring says."""
    size = max(1, _BLOCK // width)
    out = np.empty(n)
    for start in range(0, n, size):
        out[start:start + size] = draw(min(size, n - start))
    return out


def _standard(a: float, b: float, stream: RngStream, n: int) -> np.ndarray:
    """``n`` standard variates of the branch ``(a, b)`` selects, as a fresh array."""
    if a == 2.0:
        return _SQRT2 * stream.normals(n)
    if a == 1.0 and b == 0.0:
        return cauchy_kernel(stream.uniforms(n))
    if a == 0.5 and abs(b) == 1.0:
        return b / np.square(stream.normals(n))
    u = stream.uniforms(2 * n)
    u1, u2 = u[0::2], u[1::2]
    if a == 1.0:
        return unit_index_kernel(b, u1, u2)
    r = skewed_kernel(a, b, u1, u2)
    lanes = np.isnan(r)
    if lanes.any():
        r[lanes] = log_space_kernel(a, b, u1[lanes], u2[lanes])
    return r


def sample_n(params: StableParams, stream: RngStream, n: int) -> np.ndarray:
    """Draw ``n`` independent stable variates from ``stream``.

    Element ``i`` equals the i-th value of ``n`` repeated one-variate calls
    on the same stream; batching does not change the draw schedule.  No
    draw is NaN for valid ``params`` (alpha near 0 or 1 included); tails
    may overflow to +-inf.  The result is a fresh array, drawn in blocks
    as the module docstring states.
    """
    n = positive_count(n, "n")
    a, b = params.alpha, params.beta
    # Stable tails legitimately overflow float64; propagate IEEE infs.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return _shift(_in_blocks(n, lambda k: _standard(a, b, stream, k)), params)
