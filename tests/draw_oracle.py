"""``sample_n`` and the self-similarity endpoints, each drawn in one pass and scaled out of place.

The library draws in blocks and scales and shifts in place; these
references draw each request at once and build a new array at every step,
so the library's results must have the same bytes and leave the stream at
the same point.  Skew-free draws take the formula of ``symmetric_oracle``,
NaN lanes of the CMS product are repaired in log space, and the scale and
location follow the rule the ``stable_rng`` module docstring states,
written out here rather than taken from the library.
"""
import math

import numpy as np

from levylink.stable_rng import StableParams, cauchy_kernel, log_space_kernel, skewed_kernel, unit_index_kernel

from symmetric_oracle import symmetric_kernel


def sample_n(params, stream, n):
    """The ``n`` variates ``stable_rng.sample_n(params, stream, n)`` must give."""
    a, b, gamma = params.alpha, params.beta, params.gamma
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if a == 2.0:
            r = math.sqrt(2.0) * stream.normals(n)
        elif a == 1.0 and b == 0.0:
            r = cauchy_kernel(stream.uniforms(n))
        elif a == 0.5 and abs(b) == 1.0:
            r = b / stream.normals(n) ** 2
        else:
            u = stream.uniforms(2 * n)
            u1, u2 = u[0::2], u[1::2]
            if a == 1.0:
                r = unit_index_kernel(b, u1, u2)
            else:
                r = symmetric_kernel(a, u1, u2) if b == 0.0 else skewed_kernel(a, b, u1, u2)
                lanes = np.isnan(r)
                r[lanes] = log_space_kernel(a, b, u1[lanes], u2[lanes])
        # Alpha = 1 with skew moves the location by (2/pi) beta gamma log(gamma),
        # which tends to 0 with gamma; a zero scale puts 0 * inf at the location.
        loc = params.delta
        if a == 1.0 and b != 0.0 and gamma > 0.0:
            loc = (2.0 / math.pi) * b * gamma * math.log(gamma) + loc
        scaled = gamma * r
        if gamma == 0.0:
            scaled = np.where(np.isnan(scaled), 0.0, scaled)
        return scaled + loc


def endpoints(alpha, c, t, n_paths, n_steps, stream):
    """The stretched and rescaled endpoint samples ``self_similarity_check`` compares."""
    law = StableParams(alpha)

    def sums(horizon):
        steps = (horizon / n_steps) ** (1.0 / alpha) * sample_n(law, stream, n_paths * n_steps)
        return steps.reshape(n_paths, n_steps).sum(axis=1)

    with np.errstate(over="ignore", invalid="ignore"):
        stretched = sums(c * t)
        return stretched, c ** (1.0 / alpha) * sums(t)
