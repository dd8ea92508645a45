"""The skew-free CMS formula, as the library wrote it before the CMS kernel took beta = 0 over.

``skewed_kernel(alpha, 0.0, u1, u2)`` must give these bits: at beta = 0
its shift is -0.0 and its scale 1, so the extra addition and product are
exact, signed zeros included.  The tests use this copy as the reference for every skew-free draw.
"""
import math

import numpy as np


def symmetric_kernel(alpha, u1, u2):
    """Standard symmetric stable variate from two uniforms (beta = 0)."""
    v = 0.5 * math.pi * (2.0 * u1 - 1.0)
    w = -np.log(u2)
    return (
        np.sin(alpha * v)
        / np.cos(v) ** (1.0 / alpha)
        * (np.cos(v * (1.0 - alpha)) / w) ** ((1.0 - alpha) / alpha)
    )
