"""Simulated paths against the exact law of the Euler scheme, not against pinned bytes.

With a = 1 - lam*dt, the OU Euler endpoint after n steps is

    X_n = a**n * x0 + mu * dt**(1/alpha) * sum_k a**(n-1-k) * S_k,

a sum of independent standard symmetric stable S_k, so it is symmetric
alpha-stable with location a**n * x0 and scale
mu * dt**(1/alpha) * (sum_{j<n} |a|**(alpha*j))**(1/alpha).  The GLM path
without jumps is x0 times a product of independent factors
1 + lam*dt + mu*sqrt(dt)*N, whose moments are exact.

These checks hold across a versioned change of the draw schedule, where the
golden digests would move.  Seeds were fixed before any outcome was seen; a
failure is a finding about the simulator or the reference law.
"""
import math

import numpy as np
from scipy import stats

from levylink.sde_sim import GridSpec, ModelKind, ModelSpec, simulate
from levylink.streams import RngStream

from ks_oracle import empirical_ks_one_sample

LAM, MU, X0 = 1.5, 0.7, 1.0
GRID = GridSpec(t_end=1.0, n_steps=16)


def endpoints(model, n_paths, seed):
    """``values[-1]`` of ``n_paths`` paths, path i on stream ``(seed, i)``."""
    return np.array([simulate(model, GRID, RngStream(seed, i)).values[-1] for i in range(n_paths)])


def ou_endpoint_law(alpha):
    """(location, scale) of the symmetric stable OU endpoint on ``GRID``."""
    n, dt = GRID.n_steps, GRID.dt
    a = 1.0 - LAM * dt
    weights = sum(abs(a) ** (alpha * j) for j in range(n))
    return a**n * X0, MU * dt ** (1.0 / alpha) * weights ** (1.0 / alpha)


def ou_endpoints(alpha, n_paths, seed):
    model = ModelSpec(kind=ModelKind.OU, lam=LAM, mu=MU, alpha=alpha, x0=X0)
    return endpoints(model, n_paths, seed)


def test_ou_endpoint_at_alpha_one_is_cauchy():
    loc, scale = ou_endpoint_law(1.0)
    xs = ou_endpoints(1.0, 20_000, seed=101)
    report = empirical_ks_one_sample(xs, lambda x: stats.cauchy.cdf(x, loc, scale))
    assert report.passed, report


def test_ou_endpoint_at_alpha_two_is_gaussian():
    # The standard stable law at alpha = 2 is N(0, 2): scale s has sd sqrt(2) * s.
    loc, scale = ou_endpoint_law(2.0)
    xs = ou_endpoints(2.0, 20_000, seed=102)
    report = empirical_ks_one_sample(xs, lambda x: stats.norm.cdf(x, loc, math.sqrt(2.0) * scale))
    assert report.passed, report


def test_ou_endpoint_at_alpha_three_halves_matches_scipy_levy_stable():
    # At beta = 0 scipy's S0 and S1 parameterisations coincide.
    loc, scale = ou_endpoint_law(1.5)
    xs = ou_endpoints(1.5, 2_000, seed=103)
    report = empirical_ks_one_sample(xs, lambda x: stats.levy_stable.cdf(x, 1.5, 0.0, loc, scale))
    assert report.passed, report


def test_glm_without_jumps_has_the_exact_first_and_second_moments():
    n, dt, n_paths = GRID.n_steps, GRID.dt, 10_000
    model = ModelSpec(kind=ModelKind.GLM, lam=LAM, mu=MU, alpha=1.5, x0=X0, with_jumps=False)
    xs = endpoints(model, n_paths, seed=104)
    m, s2 = 1.0 + LAM * dt, MU * MU * dt
    # E[f**k] of one factor f = m + sqrt(s2) * N, for k = 1, 2, 4.
    mean = X0 * m**n
    second = X0**2 * (m * m + s2) ** n
    fourth = X0**4 * (m**4 + 6.0 * m * m * s2 + 3.0 * s2 * s2) ** n
    # Four standard errors of each exact moment, from the exact variances.
    assert abs(xs.mean() - mean) < 4.0 * math.sqrt((second - mean**2) / n_paths)
    assert abs((xs * xs).mean() - second) < 4.0 * math.sqrt((fourth - second**2) / n_paths)
