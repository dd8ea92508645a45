"""First-jump records and the fitted linear link among (lambda, mu, alpha).

Pipeline: simulate a trajectory per parameter triple, record the time and
process value of its first jump, fit a degree-1 interpolant through five
such records in the four variables (lambda, mu, alpha, t), then substitute
the sample means of t and x to collapse the fit into one linear relation
among the three model parameters.

A "jump" is an increment larger than ``threshold_factor`` times the median
absolute increment of the path, a scale-free criterion (rescaling the whole
path leaves the detection unchanged).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import multinterp
from .sde_sim import GridSpec, ModelKind, Trajectory, _plan
from .stable_rng import StableParams, finite_real, positive_real
from .streams import RngStream

__all__ = [
    "SampleRow",
    "LinkEquation",
    "CollectResult",
    "detect_first_jump",
    "fit_link",
    "collect_rows",
]

LINK_VARIABLES = ("lambda", "mu", "alpha", "t")


@dataclass(frozen=True)
class SampleRow:
    """One first-jump record: parameters, jump time, process value."""

    lam: float
    mu: float
    alpha: float
    t: float
    x: float

    def __post_init__(self):
        for name in ("lam", "mu", "alpha", "t", "x"):
            finite_real(getattr(self, name), name)
        StableParams(alpha=self.alpha)  # refuses an alpha outside (0, 2]
        if self.t < 0.0:
            raise ValueError(f"t={self.t!r} must be non-negative")


@dataclass(frozen=True)
class LinkEquation:
    """Degree-1 fit and its averaged link form.

    ``coefficients`` are (b1..b5) for (lambda, mu, alpha, t, constant);
    ``rhs`` is x_bar - b5 - b4 * t_bar, giving the link
    b1*lambda + b2*mu + b3*alpha = rhs.
    """

    coefficients: tuple[float, float, float, float, float]
    t_bar: float
    x_bar: float
    rhs: float

    def equation_text(self) -> str:
        b1, b2, b3, _, _ = self.coefficients
        terms = " + ".join(f"({b:.6g})*{v}" for b, v in zip((b1, b2, b3), LINK_VARIABLES))
        return f"{terms} = {self.rhs:.6g}"


@dataclass(frozen=True)
class CollectResult:
    """Rows collected from simulations plus the triples that showed no jump."""

    rows: list[SampleRow]
    excluded: list[tuple[float, float, float]]


def _median(sample: np.ndarray) -> float:
    """``np.median`` of a NaN-free sample from a partial sort, 0.0 when empty.

    An even count averages the two middle values as ``(lo + hi) / 2`` in
    Python floats, the operations ``np.median`` performs, so the bits
    agree; a sum that overflows gives inf, as there, but without a warning.
    """
    half, odd = divmod(sample.size, 2)
    if odd:
        return float(np.partition(sample, half)[half])
    if not half:
        return 0.0
    lo, hi = np.partition(sample, (half - 1, half))[half - 1 : half + 1].tolist()
    return (lo + hi) / 2


def detect_first_jump(traj: Trajectory, threshold_factor: float = 10.0):
    """Earliest (time, value) whose increment qualifies as a jump, else None.

    Grid point k >= 1 qualifies when |X[k] - X[k-1]| exceeds
    ``threshold_factor`` times the median absolute increment of the whole
    path (median over finite increments; an infinite increment therefore
    always qualifies).  If the median is zero the threshold degenerates and
    any strictly positive increment counts.
    """
    positive_real(threshold_factor, "threshold_factor")
    values = np.asarray(traj.values, dtype=float)
    if values.size < 2:
        raise ValueError("trajectory needs at least two points")
    # inf - inf inside an overflowed path is an expected NaN, and a finite
    # step past the float range an expected inf, not errors.
    with np.errstate(over="ignore", invalid="ignore"):
        diffs = np.abs(np.diff(values))
    median = _median(diffs[np.isfinite(diffs)])
    threshold = threshold_factor * median
    hits = np.flatnonzero(diffs > threshold)
    if hits.size == 0:
        return None
    k = int(hits[0]) + 1
    return float(traj.times[k]), float(values[k])


def fit_link(rows: Sequence[SampleRow]) -> LinkEquation:
    """Fit the degree-1 link through exactly five first-jump records."""
    if len(rows) != 5:
        raise ValueError(f"link fit needs exactly 5 rows, got {len(rows)}")
    nodes = [(r.lam, r.mu, r.alpha, r.t) for r in rows]
    interp = multinterp.fit(nodes, [r.x for r in rows], n=1, m=4)
    b5, b1, b2, b3, b4 = interp.coefficients.tolist()  # graded: 1, lambda, mu, alpha, t

    t_bar = float(np.mean([r.t for r in rows]))
    x_bar = float(np.mean([r.x for r in rows]))
    rhs = x_bar - b5 - b4 * t_bar
    return LinkEquation(coefficients=(b1, b2, b3, b4, b5), t_bar=t_bar, x_bar=x_bar, rhs=rhs)


def collect_rows(
    param_grid: Iterable[tuple[float, float, float]],
    model_kind: ModelKind | str,
    grid: GridSpec,
    threshold_factor: float,
    stream: RngStream,
) -> CollectResult:
    """One SampleRow per (lambda, mu, alpha) triple whose path shows a jump.

    Every path starts at x0 = 1.0.  Every triple, its step scale
    dt**(1/alpha) and ``threshold_factor`` are checked before the first
    path is simulated; triple i simulates on the substream ``stream_id + i``.
    Triples with no qualifying jump, and the rare paths whose first jump
    lands on a non-finite value, go to the exclusion list instead.
    """
    triples = list(param_grid)
    if not triples:
        raise ValueError("parameter grid must be nonempty")
    plan = _plan(triples, model_kind, grid, stream, paths=1, x0=1.0, with_jumps=True)
    positive_real(threshold_factor, "threshold_factor")
    rows: list[SampleRow] = []
    excluded: list[tuple[float, float, float]] = []
    for (lam, mu, alpha), (traj,) in zip(triples, plan):
        hit = detect_first_jump(traj, threshold_factor)
        if hit is None or not math.isfinite(hit[1]):
            excluded.append((lam, mu, alpha))
        else:
            rows.append(SampleRow(lam=lam, mu=mu, alpha=alpha, t=hit[0], x=hit[1]))
    return CollectResult(rows=rows, excluded=excluded)
