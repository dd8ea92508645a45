"""Euler simulation of stable-noise SDEs.

Two models share one explicit Euler-Maruyama scheme with left-point
coefficient evaluation, each run as one recurrence over its drawn noise:

  OU    X[k+1] = (1 - lam * dt) * X[k] + mu * dL[k]
  GLM   X[k+1] = X[k] * (1 + lam * dt + mu * dB[k] + mu * dL[k])

where dB[k] = sqrt(dt) * N[k] and dL[k] = dt**(1/alpha) * S[k] for standard
normal N and standard symmetric stable S.  One volatility knob mu scales
both the Brownian and the jump term of the GLM.  The OU recurrence is folded
left over its shocks; the GLM path is the running product of x0 and its
per-step factors.  Both keep the float operations of a scalar step loop in
its order, so a path is bit-identical to stepping it one value at a time.

Each ``ModelSpec`` builds the law of S once, for all its paths.  Noise is
drawn up front per path: OU consumes n jump increments; GLM consumes n
Brownian normals first, then n unit-scale jump increments (none when jumps
are suppressed).  Heavy tails make float overflow a legitimate outcome:
non-finite values are propagated unclamped and flagged on the trajectory.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .noise_stats import increments
from .stable_rng import StableParams, finite_real, non_negative_real, positive_count, positive_real
from .streams import RngStream

__all__ = [
    "ModelKind",
    "ModelSpec",
    "GridSpec",
    "Trajectory",
    "simulate",
]


class ModelKind(enum.Enum):
    OU = "ou"
    GLM = "glm"


@dataclass(frozen=True)
class ModelSpec:
    """Which SDE to run and its coefficients, checked once when built.

    ``kind`` is a ``ModelKind`` or its value.  ``lam`` is the OU mean-reversion
    rate or the GLM drift, ``mu`` the one volatility knob, ``alpha`` the
    noise's stability index (``noise`` holds its law) and ``x0`` the initial
    value.  ``with_jumps=False`` drops the GLM jumps; OU refuses it.
    """

    kind: ModelKind
    lam: float
    mu: float
    alpha: float
    x0: float
    with_jumps: bool = True
    noise: StableParams = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "kind", ModelKind(self.kind))
        if self.kind is ModelKind.OU and not self.with_jumps:
            raise ValueError("with_jumps=False needs kind=glm: the OU model has only jump noise")
        positive_real(self.lam, "lam")
        non_negative_real(self.mu, "mu")
        object.__setattr__(self, "noise", StableParams(alpha=self.alpha))  # checks alpha
        finite_real(self.x0, "x0")


@dataclass(frozen=True)
class GridSpec:
    """Uniform time grid on [0, t_end] with n_steps steps."""

    t_end: float
    n_steps: int

    def __post_init__(self):
        positive_real(self.t_end, "t_end")
        positive_count(self.n_steps, "n_steps")

    @property
    def dt(self) -> float:
        return self.t_end / self.n_steps

    @cached_property
    def times(self) -> np.ndarray:
        """The n_steps + 1 grid times: one read-only array shared by every path."""
        times = np.linspace(0.0, self.t_end, self.n_steps + 1)
        times.flags.writeable = False
        return times


@dataclass(frozen=True)
class Trajectory:
    """One simulated sample path on a uniform grid.

    ``overflowed`` marks any non-finite value along the path.
    ``factor_breach_step`` records the first step index k, if any, whose GLM
    multiplicative factor was <= -1 (the transition X[k] -> X[k+1]); it is
    None for OU paths and for paths whose factors all stayed above -1.
    """

    times: np.ndarray
    values: np.ndarray
    overflowed: bool
    factor_breach_step: int | None


def simulate(model: ModelSpec, grid: GridSpec, stream: RngStream) -> Trajectory:
    """Run the explicit Euler scheme for ``model`` on ``grid``.

    Reproducible: identical (model, grid, stream key) give a bit-identical
    trajectory within one build.  Paths are independent across distinct
    stream ids.  No parameter is checked here: ``model`` and ``grid`` were.
    """
    n = grid.n_steps
    dt = grid.dt
    lam_dt = model.lam * dt
    x0 = float(model.x0)
    breach = None

    if model.kind is ModelKind.OU:
        shocks = increments(model.noise, model.mu, dt, stream, n).tolist()
        keep, x = 1.0 - lam_dt, x0
        steps = [x0]
        steps += [x := keep * x + s for s in shocks]
        values = np.fromiter(steps, float, n + 1)
    else:
        brownian = (model.mu * math.sqrt(dt)) * stream.normals(n)
        # Overflow and inf * 0 are legitimate outcomes here, flagged below.
        with np.errstate(over="ignore", invalid="ignore"):
            jumps = 0.0
            if model.with_jumps:
                jumps = model.mu * increments(model.noise, 1.0, dt, stream, n)
            factors = (1.0 + lam_dt) + brownian + jumps
            values = np.multiply.accumulate(np.concatenate(([x0], factors)))
            breaches = np.flatnonzero(factors <= -1.0)
        if breaches.size:
            breach = int(breaches[0])

    return Trajectory(
        times=grid.times,
        values=values,
        overflowed=not bool(np.isfinite(values).all()),
        factor_breach_step=breach,
    )
