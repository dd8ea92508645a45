"""Euler simulation of the two jump models and their flags."""
import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levylink import sde_sim
from levylink.noise_stats import increments
from levylink.sde_sim import (
    GridSpec,
    ModelKind,
    ModelSpec,
    Trajectory,
    simulate,
)
from levylink.stable_rng import StableParams
from levylink.streams import RngStream


def ou_model(lam=1.0, mu=1.0, alpha=1.5, x0=1.0):
    return ModelSpec(kind=ModelKind.OU, lam=lam, mu=mu, alpha=alpha, x0=x0)


def glm_model(lam=1.0, mu=1.0, alpha=1.5, x0=1.0, with_jumps=True):
    return ModelSpec(kind=ModelKind.GLM, lam=lam, mu=mu, alpha=alpha, x0=x0,
                     with_jumps=with_jumps)


def _euler_reference(model, grid, stream):
    """The scalar Euler step loop, one Python float operation at a time.

    ``simulate`` must reproduce it bit for bit: same draws, same operations
    in the same order.
    """
    n = grid.n_steps
    dt = grid.dt
    lam_dt = model.lam * dt
    out = [0.0] * (n + 1)
    out[0] = x = float(model.x0)
    breach = None

    if model.kind is ModelKind.OU:
        shocks = increments(StableParams(model.alpha), model.mu, dt, stream, n).tolist()
        keep = 1.0 - lam_dt
        for k in range(n):
            x = keep * x + shocks[k]
            out[k + 1] = x
    else:
        brownian = (model.mu * math.sqrt(dt)) * stream.normals(n)
        if model.with_jumps:
            jumps = model.mu * increments(StableParams(model.alpha), 1.0, dt, stream, n)
        else:
            jumps = np.zeros(n)
        bw = brownian.tolist()
        jw = jumps.tolist()
        base = 1.0 + lam_dt
        for k in range(n):
            factor = base + bw[k] + jw[k]
            if breach is None and factor <= -1.0:
                breach = k
            x = factor * x
            out[k + 1] = x

    values = np.asarray(out)
    return values, not bool(np.isfinite(values).all()), breach


# ------------------------------------------------------------------ validation

def test_model_spec_validation():
    with pytest.raises(ValueError):
        ou_model(lam=0.0)
    with pytest.raises(ValueError):
        ou_model(lam=-1.0)
    with pytest.raises(ValueError):
        ou_model(mu=-0.5)
    with pytest.raises(ValueError):
        ou_model(alpha=2.5)
    with pytest.raises(ValueError):
        ou_model(x0=math.inf)
    with pytest.raises(ValueError, match="bogus"):
        ModelSpec(kind="bogus", lam=1.0, mu=1.0, alpha=1.5, x0=1.0)
    # The jumps are the OU model's only noise; there is nothing to suppress.
    with pytest.raises(ValueError, match="with_jumps=False"):
        ModelSpec(kind=ModelKind.OU, lam=1.0, mu=1.0, alpha=1.5, x0=1.0, with_jumps=False)


def test_model_spec_takes_the_kind_by_value():
    model = ModelSpec(kind="ou", lam=1.0, mu=1.0, alpha=1.5, x0=1.0)
    assert model.kind is ModelKind.OU and model == ou_model()
    assert model.noise == StableParams(alpha=1.5)
    assert repr(model) == (
        "ModelSpec(kind=<ModelKind.OU: 'ou'>, lam=1.0, mu=1.0, alpha=1.5, x0=1.0, with_jumps=True)"
    )
    grid = GridSpec(t_end=1.0, n_steps=32)
    want = simulate(ou_model(), grid, RngStream(48))
    assert simulate(model, grid, RngStream(48)).values.tobytes() == want.values.tobytes()


def test_simulate_builds_no_stable_law_per_path(monkeypatch):
    model = glm_model()
    ou = ou_model()
    built = []
    checks = StableParams.__post_init__

    def counting(self):
        built.append(self.alpha)
        checks(self)

    monkeypatch.setattr(StableParams, "__post_init__", counting)
    grid = GridSpec(t_end=1.0, n_steps=16)
    for i in range(8):
        simulate(model if i % 2 else ou, grid, RngStream(49, i))
    assert built == []
    ou_model()
    assert built == [1.5]


def test_grid_spec_validation_and_times():
    with pytest.raises(ValueError):
        GridSpec(t_end=0.0, n_steps=4)
    with pytest.raises(ValueError):
        GridSpec(t_end=1.0, n_steps=0)
    grid = GridSpec(t_end=2.0, n_steps=4)
    assert grid.dt == 0.5
    assert np.allclose(grid.times, [0.0, 0.5, 1.0, 1.5, 2.0], rtol=0, atol=0)


def test_grid_spec_refuses_non_integer_steps():
    with pytest.raises(TypeError):
        GridSpec(t_end=1.0, n_steps=2.5)
    with pytest.raises(TypeError):
        GridSpec(t_end=1.0, n_steps=4.0)
    assert GridSpec(t_end=1.0, n_steps=np.int64(4)).times.size == 5


def test_every_path_of_a_grid_shares_one_read_only_times_array():
    grid = GridSpec(t_end=1.0, n_steps=8)
    paths = [simulate(m, grid, RngStream(53, i)) for i, m in enumerate([ou_model(), glm_model()] * 2)]
    assert all(p.times is grid.times for p in paths)
    assert grid.times.tobytes() == np.linspace(0.0, 1.0, 9).tobytes()
    with pytest.raises(ValueError):
        paths[0].times[1] = 5.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        grid.times = np.zeros(9)
    assert GridSpec(t_end=1.0, n_steps=8).times is not grid.times


def test_trajectory_shape_and_initial_value():
    grid = GridSpec(t_end=1.0, n_steps=16)
    traj = simulate(ou_model(x0=2.5), grid, RngStream(50))
    assert traj.values.shape == (17,)
    assert traj.times.shape == (17,)
    assert traj.values[0] == 2.5
    assert traj.times[0] == 0.0 and traj.times[-1] == 1.0
    assert traj.factor_breach_step is None


# ------------------------------------------------------------ noise-free limits

def test_ou_noise_free_reaches_exponential_decay():
    grid = GridSpec(t_end=1.0, n_steps=2**14)
    traj = simulate(ou_model(lam=1.0, mu=0.0), grid, RngStream(51))
    assert abs(traj.values[-1] - math.exp(-1.0)) < 1e-3


def test_glm_noise_free_reaches_exponential_growth():
    grid = GridSpec(t_end=1.0, n_steps=2**14)
    traj = simulate(glm_model(lam=0.5, mu=0.0, x0=2.0), grid, RngStream(52))
    want = 2.0 * math.exp(0.5)
    assert abs(traj.values[-1] - want) / want < 2e-3


def test_ou_noise_free_recursion_is_exact():
    grid = GridSpec(t_end=1.0, n_steps=64)
    traj = simulate(ou_model(lam=2.0, mu=0.0, x0=3.0), grid, RngStream(53))
    keep = 1.0 - 2.0 * grid.dt
    expect = 3.0 * keep ** np.arange(65)
    assert np.allclose(traj.values, expect, rtol=1e-12, atol=0)


@pytest.mark.parametrize("kind", [ModelKind.OU, ModelKind.GLM])
def test_noise_free_euler_error_halves_with_dt(kind):
    lam, x0 = 1.0, 1.0
    exact = math.exp(-lam) if kind is ModelKind.OU else math.exp(lam)

    def endpoint_error(n_steps):
        grid = GridSpec(t_end=1.0, n_steps=n_steps)
        model = ModelSpec(kind=kind, lam=lam, mu=0.0, alpha=1.5, x0=x0)
        return abs(simulate(model, grid, RngStream(54)).values[-1] - exact)

    ratio = endpoint_error(1024) / endpoint_error(2048)
    assert 1.8 <= ratio <= 2.2, ratio


# ------------------------------------------------------------------ with noise

def test_ou_pure_noise_limit_accumulates_increments():
    # Negligible reversion: X(t) - x0 must equal the running noise sum.
    grid = GridSpec(t_end=1.0, n_steps=256)
    traj = simulate(ou_model(lam=1e-12, mu=1.0, alpha=1.7), grid, RngStream(55))
    shocks = increments(StableParams(1.7), 1.0, grid.dt, RngStream(55), 256)
    accumulated = np.concatenate([[0.0], np.cumsum(shocks)])
    scale = np.max(np.abs(accumulated)) + 1.0
    assert np.max(np.abs((traj.values - 1.0) - accumulated)) / scale < 1e-9


def test_ou_replays_its_recursion_from_a_twin_stream():
    grid = GridSpec(t_end=2.0, n_steps=128)
    traj = simulate(ou_model(lam=0.4, mu=0.9, alpha=1.2, x0=-1.0), grid, RngStream(56, 2))
    shocks = increments(StableParams(1.2), 0.9, grid.dt, RngStream(56, 2), 128)
    x = -1.0
    keep = 1.0 - 0.4 * grid.dt
    for k in range(128):
        x = keep * x + shocks[k]
        assert traj.values[k + 1] == x


def test_glm_replays_its_recursion_from_a_twin_stream():
    grid = GridSpec(t_end=1.0, n_steps=64)
    traj = simulate(glm_model(lam=0.3, mu=0.8, alpha=1.6, x0=2.0), grid, RngStream(57))
    twin = RngStream(57)
    brownian = (0.8 * math.sqrt(grid.dt)) * twin.normals(64)
    jumps = 0.8 * increments(StableParams(1.6), 1.0, grid.dt, twin, 64)
    x = 2.0
    for k in range(64):
        x = x * (1.0 + 0.3 * grid.dt + brownian[k] + jumps[k])
        assert traj.values[k + 1] == x


def test_glm_without_jumps_draws_no_jump_noise():
    grid = GridSpec(t_end=1.0, n_steps=32)
    traj = simulate(glm_model(mu=0.5, with_jumps=False), grid, RngStream(58))
    twin = RngStream(58)
    brownian = (0.5 * math.sqrt(grid.dt)) * twin.normals(32)
    x = 1.0
    for k in range(32):
        x = x * (1.0 + grid.dt + brownian[k])
        assert traj.values[k + 1] == x


def test_glm_brownian_only_monte_carlo_mean():
    # Geometric Brownian motion: E[X(1)] = x0 * exp(lam).
    model = glm_model(lam=0.1, mu=0.2, alpha=2.0, with_jumps=False)
    grid = GridSpec(t_end=1.0, n_steps=128)
    ends = np.array([simulate(model, grid, RngStream(710, p)).values[-1] for p in range(2000)])
    target = math.exp(0.1)
    se = ends.std(ddof=1) / math.sqrt(ends.size)
    assert abs(ends.mean() - target) < 3.0 * se


def test_volatility_scales_linearly_in_mu():
    # Doubling mu doubles every deviation from the deterministic part,
    # increment for increment, on twin streams.
    grid = GridSpec(t_end=1.0, n_steps=64)
    one = simulate(ou_model(lam=0.5, mu=1.0, alpha=1.1), grid, RngStream(59)).values
    two = simulate(ou_model(lam=0.5, mu=2.0, alpha=1.1), grid, RngStream(59)).values
    det = simulate(ou_model(lam=0.5, mu=0.0, alpha=1.1), grid, RngStream(59)).values
    dev = np.max(np.abs((two - det) - 2.0 * (one - det)))
    assert dev <= 1e-9 * (1.0 + np.max(np.abs(two)))


def test_tail_heaviness_decreases_with_alpha():
    # Extreme increments shrink as the stability index rises.
    q = []
    for alpha in (0.5, 1.0, 1.5, 1.9):
        inc = increments(StableParams(alpha), 1.0, 1.0, RngStream(631, int(alpha * 10)), 10_000)
        q.append(float(np.quantile(np.abs(inc), 0.999)))
    assert all(a >= b for a, b in zip(q, q[1:])), q


# ------------------------------------------------------------------- flagging

def test_glm_records_first_factor_breach():
    grid = GridSpec(t_end=1.0, n_steps=64)
    model = glm_model(lam=1.0, mu=5.0, alpha=1.2)
    traj = simulate(model, grid, RngStream(700, 1))
    k = traj.factor_breach_step
    assert k is not None
    # Reconstruct the factor at the recorded step and confirm the breach.
    twin = RngStream(700, 1)
    brownian = (5.0 * math.sqrt(grid.dt)) * twin.normals(64)
    jumps = 5.0 * increments(StableParams(1.2), 1.0, grid.dt, twin, 64)
    factors = 1.0 + 1.0 * grid.dt + brownian + jumps
    assert factors[k] <= -1.0
    assert np.all(factors[:k] > -1.0)


def test_overflow_is_flagged_and_propagated():
    # Deterministic blow-up: the growth factor alone overflows float64.
    grid = GridSpec(t_end=1.0, n_steps=32)
    traj = simulate(glm_model(lam=1e12, mu=0.0), grid, RngStream(60))
    assert traj.overflowed
    assert np.isinf(traj.values[-1])

    traj = simulate(ou_model(lam=1e12, mu=0.0), grid, RngStream(61))
    assert traj.overflowed
    assert not np.isfinite(traj.values[-1]) or np.isinf(traj.values[-1])


def force_increments(monkeypatch, draws):
    """Make ``simulate`` take ``draws`` as its stable increments, whatever the law."""
    monkeypatch.setattr(
        sde_sim, "increments", lambda law, scale, dt, stream, n: np.array(draws, dtype=float)
    )


class ZeroNormals:
    """A stream stub whose Brownian draws are all zero."""

    def normals(self, n):
        return np.zeros(n)


def test_a_glm_factor_of_exactly_minus_one_is_a_breach(monkeypatch):
    # dt = 0.5, so the factors are 1.5 + [0, -2.5, 0] = [1.5, -1.0, 1.5], exactly.
    force_increments(monkeypatch, [0.0, -2.5, 0.0])
    traj = simulate(glm_model(lam=1.0, mu=1.0), GridSpec(t_end=1.5, n_steps=3), ZeroNormals())
    assert traj.values.tolist() == [1.0, 1.5, -1.5, -2.25]
    assert traj.factor_breach_step == 1


def test_a_path_that_turns_nan_without_an_inf_is_flagged(monkeypatch):
    force_increments(monkeypatch, [0.0, math.nan, 0.0])
    traj = simulate(ou_model(), GridSpec(t_end=1.0, n_steps=3), RngStream(62))
    assert np.isnan(traj.values[2:]).all() and not np.isinf(traj.values).any()
    assert traj.overflowed


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(list(ModelKind)),
    lam=st.one_of(st.just(1e12), st.floats(0.0, 1e12, exclude_min=True)),
    mu=st.one_of(st.just(0.0), st.floats(0.0, 20.0)),
    alpha=st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats(0.05, 2.0)),
    x0=st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3)),
    with_jumps=st.booleans(),
    t_end=st.floats(1e-3, 10.0),
    n_steps=st.integers(1, 300),
    stream_id=st.integers(0, 2**16),
)
def test_simulate_matches_scalar_euler_loop(kind, lam, mu, alpha, x0, with_jumps,
                                            t_end, n_steps, stream_id):
    with_jumps = with_jumps or kind is ModelKind.OU  # OU has no Brownian-only run
    model = ModelSpec(kind=kind, lam=lam, mu=mu, alpha=alpha, x0=x0, with_jumps=with_jumps)
    grid = GridSpec(t_end=t_end, n_steps=n_steps)
    with np.errstate(all="ignore"):
        values, overflowed, breach = _euler_reference(model, grid, RngStream(90, stream_id))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = simulate(model, grid, RngStream(90, stream_id))
    assert traj.values.tobytes() == values.tobytes()
    assert traj.overflowed == overflowed
    assert traj.factor_breach_step == breach


def test_simulation_is_deterministic():
    grid = GridSpec(t_end=1.0, n_steps=100)
    model = glm_model(lam=0.7, mu=1.3, alpha=0.9)
    a = simulate(model, grid, RngStream(62, 5))
    b = simulate(model, grid, RngStream(62, 5))
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.times, b.times)

