"""The first-jump scan: a pure-Python reference for ``link_fit.detect_first_jump``.

An explicit loop over the absolute increments, with the median taken from
a sorted list of the finite ones, so it shares no numpy call with the
detector it checks.
"""
import math


def scan_for_first_jump(traj, threshold_factor):
    """(time, value) after the first increment above ``threshold_factor`` times the median, or None."""
    diffs = [abs(float(traj.values[k + 1]) - float(traj.values[k]))
             for k in range(len(traj.values) - 1)]
    finite = sorted(d for d in diffs if math.isfinite(d))
    if finite:
        mid = len(finite) // 2
        median = finite[mid] if len(finite) % 2 else 0.5 * (finite[mid - 1] + finite[mid])
    else:
        median = 0.0
    threshold = threshold_factor * median if median > 0.0 else 0.0
    for k, d in enumerate(diffs):
        if d > threshold:
            return float(traj.times[k + 1]), float(traj.values[k + 1])
    return None
