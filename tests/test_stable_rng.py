"""Stable variate generator: validation, branch kernels, shift rules, distribution."""
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import levy_stable

from levylink.noise_stats import empirical_ks_two_sample
from levylink.stable_rng import (
    ParameterError,
    StableParams,
    cauchy_kernel,
    log_space_kernel,
    sample_n,
    skewed_kernel,
    unit_index_kernel,
)
from levylink.streams import RngStream

from ks_oracle import empirical_ks_one_sample
from symmetric_oracle import symmetric_kernel


def cauchy_cdf(x):
    return 0.5 + np.arctan(np.asarray(x, dtype=float)) / np.pi


def chi2_1dof_cdf(y):
    # P(N^2 <= y) for standard normal N.
    y = np.asarray(y, dtype=float)
    out = np.zeros_like(y)
    pos = y > 0
    out[pos] = np.array([math.erf(math.sqrt(v / 2.0)) for v in y[pos]])
    return out


# ---------------------------------------------------------------- validation

def test_validate_rejects_alpha_above_two():
    with pytest.raises(ParameterError) as err:
        StableParams(alpha=2.5)
    assert err.value.field == "alpha"
    assert "(0, 2]" in str(err.value)


def test_validate_rejects_beta_outside_band():
    with pytest.raises(ParameterError) as err:
        StableParams(alpha=1.0, beta=-1.5)
    assert err.value.field == "beta"


def test_validate_rejects_negative_gamma_and_nonfinite_delta():
    with pytest.raises(ParameterError) as err:
        StableParams(alpha=1.0, gamma=-0.1)
    assert err.value.field == "gamma"
    with pytest.raises(ParameterError) as err:
        StableParams(alpha=1.0, delta=math.inf)
    assert err.value.field == "delta"


def test_validate_accepts_boundary_values():
    StableParams(alpha=2.0, beta=0.0, gamma=1.0, delta=0.0)
    StableParams(alpha=0.0000001, beta=1.0, gamma=0.0, delta=-3.0)
    StableParams(alpha=1.0, beta=-1.0)


def reference_check(alpha, beta, gamma, delta):
    """The four parameter checks as a separate ``validate`` function once wrote them.

    Returns the (field, message) of the first failing check, or None.
    """
    if not (math.isfinite(alpha) and 0.0 < alpha <= 2.0):
        return "alpha", f"alpha={alpha!r} must lie in the interval (0, 2]"
    if not (math.isfinite(beta) and -1.0 <= beta <= 1.0):
        return "beta", f"beta={beta!r} must lie in the interval [-1, 1]"
    if not (math.isfinite(gamma) and gamma >= 0.0):
        return "gamma", f"gamma={gamma!r} must lie in the interval [0, inf)"
    if not math.isfinite(delta):
        return "delta", f"delta={delta!r} must lie in the finite reals"
    return None


# NaN, +-inf, +-0, subnormals, the interval ends and their nextafter neighbours.
_EDGES = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308]
_ENDS = [0.0, 1.0, -1.0, 2.0]
EDGE_REALS = st.sampled_from(
    _EDGES + _ENDS + [math.nextafter(v, d) for v in _ENDS for d in (-math.inf, math.inf)]
) | st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


@settings(max_examples=2000, deadline=None)
@given(alpha=EDGE_REALS, beta=EDGE_REALS, gamma=EDGE_REALS, delta=EDGE_REALS)
def test_stable_params_refuses_exactly_what_the_reference_refuses(alpha, beta, gamma, delta):
    expected = reference_check(alpha, beta, gamma, delta)
    if expected is None:
        StableParams(alpha=alpha, beta=beta, gamma=gamma, delta=delta)
        return
    with pytest.raises(ParameterError) as err:
        StableParams(alpha=alpha, beta=beta, gamma=gamma, delta=delta)
    assert (err.value.field, str(err.value)) == expected


def test_sample_n_rejects_nonpositive_count():
    with pytest.raises(ValueError):
        sample_n(StableParams(alpha=1.5), RngStream(1), 0)


@pytest.mark.parametrize("n", [2.0, 2.5, "3", None])
def test_sample_n_refuses_a_non_integer_count(n):
    with pytest.raises(TypeError, match="n="):
        sample_n(StableParams(alpha=1.5), RngStream(1), n)


def test_sample_n_accepts_a_numpy_integer_count():
    assert sample_n(StableParams(alpha=1.5), RngStream(1), np.int64(5)).shape == (5,)


def test_sample_rejects_invalid_params():
    with pytest.raises(ParameterError):
        sample_n(StableParams(alpha=0.0), RngStream(1), 1)


# ------------------------------------------------------------ forced kernels

def test_skewed_kernel_vanishes_at_central_angle_at_zero_beta():
    # u1 = 0.5 puts the angle V at 0, where sin(alpha * V) = 0.
    assert skewed_kernel(1.5, 0.0, 0.5, 0.37) == 0.0
    assert skewed_kernel(0.7, 0.0, 0.5, 0.91) == 0.0


def test_cauchy_kernel_median_is_zero():
    assert cauchy_kernel(0.5) == pytest.approx(0.0, abs=1e-15)


def test_cauchy_kernel_quartiles():
    assert cauchy_kernel(0.75) == pytest.approx(1.0, rel=1e-12)
    assert cauchy_kernel(0.25) == pytest.approx(-1.0, rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    alpha=st.one_of(
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        st.floats(1.0, 2.0, exclude_min=True, exclude_max=True),
    ),
    seed=st.integers(0, 2**32 - 1),
)
@example(alpha=5e-324, seed=0)
@example(alpha=1e-310, seed=0)
def test_skewed_kernel_reduces_to_symmetric_at_zero_beta(alpha, seed):
    # The bits of the skew-free formula, signed zeros included, on both sides
    # of alpha = 1, at edge uniforms and at V just below 0, where alpha * V
    # underflows to -0.0 for a subnormal alpha and the variate is -0.0.
    u = RngStream(seed).uniforms(512)
    centre = 0.5 - np.arange(1.0, 4.0) * 2.0**-53
    u1 = np.concatenate([u[0::2], EDGE_U1, centre])
    u2 = np.concatenate([u[1::2], EDGE_U2, np.full(centre.size, 0.01)])
    with np.errstate(all="ignore"):
        got, want = skewed_kernel(alpha, 0.0, u1, u2), symmetric_kernel(alpha, u1, u2)
    assert got.tobytes() == want.tobytes()


# ----------------------------------------------------------- dispatch + shift

def test_gaussian_branch_is_sqrt2_times_normal():
    draws = sample_n(StableParams(alpha=2.0), RngStream(5), 8)
    normals = RngStream(5).normals(8)
    assert np.array_equal(draws, math.sqrt(2.0) * normals)


def test_cauchy_branch_consumes_one_uniform_each():
    draws = sample_n(StableParams(alpha=1.0, beta=0.0), RngStream(6), 8)
    u = RngStream(6).uniforms(8)
    assert np.array_equal(draws, np.tan(math.pi / 2.0 * (2.0 * u - 1.0)))


def test_levy_branch_is_beta_over_normal_squared():
    for beta in (1.0, -1.0):
        draws = sample_n(StableParams(alpha=0.5, beta=beta), RngStream(7), 8)
        normals = RngStream(7).normals(8)
        assert np.array_equal(draws, beta / normals**2)


def test_two_uniform_branches_consume_interleaved_pairs():
    draws = sample_n(StableParams(alpha=1.5, beta=0.0), RngStream(8), 6)
    u = RngStream(8).uniforms(12)
    assert np.array_equal(draws, symmetric_kernel(1.5, u[0::2], u[1::2]))

    draws = sample_n(StableParams(alpha=0.8, beta=0.4), RngStream(9), 6)
    u = RngStream(9).uniforms(12)
    assert np.array_equal(draws, skewed_kernel(0.8, 0.4, u[0::2], u[1::2]))

    draws = sample_n(StableParams(alpha=1.0, beta=-0.6), RngStream(10), 6)
    u = RngStream(10).uniforms(12)
    assert np.array_equal(draws, unit_index_kernel(-0.6, u[0::2], u[1::2]))


def test_shift_rule_away_from_unit_index():
    raw = sample_n(StableParams(alpha=1.5), RngStream(11), 16)
    shifted = sample_n(StableParams(alpha=1.5, gamma=2.0, delta=3.0), RngStream(11), 16)
    assert np.allclose(shifted, 2.0 * raw + 3.0, rtol=0, atol=0)


def test_shift_rule_at_unit_index_adds_log_term():
    # The alpha = 1 location picks up (2/pi) * beta * gamma * log(gamma).
    stream = RngStream(12)
    u = stream.uniforms(2)
    raw = unit_index_kernel(0.5, u[0], u[1])
    got = float(sample_n(StableParams(alpha=1.0, beta=0.5, gamma=2.0, delta=0.0), RngStream(12), 1)[0])
    want = 2.0 * raw + (2.0 / math.pi) * 0.5 * 2.0 * math.log(2.0)
    assert got == pytest.approx(want, rel=1e-14)


def test_shift_rule_at_unit_index_below_unit_scale():
    # Below gamma = 1 the log term is negative; it still applies, and delta adds on.
    u = RngStream(12).uniforms(2)
    raw = unit_index_kernel(0.5, u[0], u[1])
    got = float(sample_n(StableParams(alpha=1.0, beta=0.5, gamma=0.5, delta=-1.5), RngStream(12), 1)[0])
    want = 0.5 * raw + (2.0 / math.pi) * 0.5 * 0.5 * math.log(0.5) - 1.5
    assert got == pytest.approx(want, rel=1e-14)


def test_shift_rule_at_unit_index_zero_scale_collapses_to_delta():
    # gamma * log(gamma) -> 0 as gamma -> 0, so gamma = 0 must not produce NaN.
    got = float(sample_n(StableParams(alpha=1.0, beta=0.9, gamma=0.0, delta=1.25), RngStream(13), 1)[0])
    assert got == 1.25


def test_sample_repeated_matches_batch():
    params = StableParams(alpha=1.3, beta=0.2, gamma=1.5, delta=-0.5)
    batch = sample_n(params, RngStream(14), 10)
    stream = RngStream(14)
    singles = np.array([float(sample_n(params, stream, 1)[0]) for _ in range(10)])
    assert np.array_equal(batch, singles)

    params = StableParams(alpha=2.0, delta=4.0)
    batch = sample_n(params, RngStream(15), 10)
    stream = RngStream(15)
    singles = np.array([float(sample_n(params, stream, 1)[0]) for _ in range(10)])
    assert np.array_equal(batch, singles)


def test_determinism_across_stream_reconstruction():
    params = StableParams(alpha=0.9, beta=-0.3)
    a = sample_n(params, RngStream(21, 3), 1000)
    b = sample_n(params, RngStream(21, 3), 1000)
    assert np.array_equal(a, b)
    c = sample_n(params, RngStream(21, 4), 1000)
    assert not np.array_equal(a, c)


# ------------------------------------------------------- in-place scale chain

def out_of_place_sample_n(params, stream, n):
    """``sample_n`` with every scale and shift building a new array.

    The reference for the in-place chain: the same kernels and the same
    scalar-times-array and array-plus-scalar operations, out of place.
    """
    a, b = params.alpha, params.beta
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if a == 2.0:
            r = math.sqrt(2.0) * stream.normals(n)
        elif a == 1.0 and b == 0.0:
            r = cauchy_kernel(stream.uniforms(n))
        elif a == 0.5 and abs(b) == 1.0:
            r = b / stream.normals(n) ** 2
        else:
            u = stream.uniforms(2 * n)
            if b == 0.0:
                r = symmetric_kernel(a, u[0::2], u[1::2])
            elif a != 1.0:
                r = skewed_kernel(a, b, u[0::2], u[1::2])
            else:
                r = unit_index_kernel(b, u[0::2], u[1::2])
        if a != 1.0:
            return params.gamma * r + params.delta
        loc = params.delta
        if b != 0.0 and params.gamma > 0.0:
            loc = (2.0 / math.pi) * b * params.gamma * math.log(params.gamma) + params.delta
        return params.gamma * r + loc


# One (alpha, beta) per branch; alpha = 1 with beta != 0 adds the log(gamma) term.
BRANCHES = [
    (2.0, 0.0), (1.0, 0.0), (0.5, 1.0), (0.5, -1.0), (1.3, 0.0), (0.7, 0.4), (1.0, -0.6), (1.0, 0.9),
]


@pytest.mark.parametrize("alpha,beta", BRANCHES)
@pytest.mark.parametrize("gamma", [0.0, 1.0, 1e300])
@pytest.mark.parametrize("delta", [-1.75, 2.5])
def test_in_place_chain_has_the_bits_of_the_out_of_place_one(alpha, beta, gamma, delta):
    params = StableParams(alpha, beta, gamma, delta)
    want = out_of_place_sample_n(params, RngStream(70), 500)
    assert not np.isnan(want).any()
    assert sample_n(params, RngStream(70), 500).tobytes() == want.tobytes()


@pytest.mark.parametrize("alpha,beta", BRANCHES)
def test_sample_n_returns_a_fresh_buffer(alpha, beta):
    params = StableParams(alpha, beta, 2.0, 1.0)
    stream = RngStream(71)
    a, b = sample_n(params, stream, 64), sample_n(params, stream, 64)
    assert not np.shares_memory(a, b)
    c = sample_n(params, RngStream(71), 64)
    assert np.array_equal(a, c) and not np.shares_memory(a, c)


# ------------------------------------------- numerics near alpha -> 0 and 1

ONE_UP, ONE_DOWN = math.nextafter(1.0, math.inf), math.nextafter(1.0, -math.inf)

# Uniforms at both ends of their range, next to them and at the centre.
_EDGE = [2.0**-53, 2.0**-52, 1e-10, 0.25, 0.5, 0.75, 1.0 - 1e-10, 1.0 - 2.0**-52, 1.0 - 2.0**-53]
EDGE_U1, EDGE_U2 = (g.ravel() for g in np.meshgrid(_EDGE, _EDGE))


@pytest.mark.parametrize(
    "alpha,beta",
    [(0.001, 0.0), (0.001, 0.5), (1e-300, -0.3), (5e-324, 0.0), (5e-324, 1.0)],
)
def test_sample_n_draws_no_nan_as_alpha_goes_to_zero(alpha, beta):
    # The product form gave NaN for about a fifth of these draws at alpha = 0.001.
    draws = sample_n(StableParams(alpha, beta), RngStream(3), 100_000)
    assert not np.isnan(draws).any()


@pytest.mark.parametrize("alpha", [ONE_UP, ONE_DOWN])
@pytest.mark.parametrize("beta", [-1.0, -0.5, 0.5, 1.0])
def test_sample_n_draws_are_finite_next_to_alpha_one(alpha, beta):
    # S1 is discontinuous at alpha = 1 with skew: draws near 1e15, finite.
    draws = sample_n(StableParams(alpha, beta), RngStream(3), 100_000)
    assert np.isfinite(draws).all()


def test_only_the_nan_lanes_leave_the_product_form():
    n, alpha = 20_000, 0.001
    u = RngStream(3).uniforms(2 * n)
    with np.errstate(all="ignore"):
        product = symmetric_kernel(alpha, u[0::2], u[1::2])
        log_form = log_space_kernel(alpha, 0.0, u[0::2], u[1::2])
    nan = np.isnan(product)
    assert nan.any() and not np.isnan(log_form).any()
    want = 1.0 * np.where(nan, log_form, product) + 0.0
    assert sample_n(StableParams(alpha), RngStream(3), n).tobytes() == want.tobytes()


@pytest.mark.parametrize("alpha", [5e-324, 1e-300, 1e-5, 0.001, 0.3, 0.5, ONE_DOWN, ONE_UP, 1.5, 1.99])
@pytest.mark.parametrize("beta", [-1.0, -0.5, 0.0, 0.5, 1.0])
def test_log_space_kernel_gives_no_nan_at_edge_uniforms(alpha, beta):
    with np.errstate(all="ignore"):
        assert not np.isnan(log_space_kernel(alpha, beta, EDGE_U1, EDGE_U2)).any()


@pytest.mark.parametrize("beta", [-1.0, -0.5, 0.5, 1.0])
def test_unit_index_kernel_gives_no_nan_at_edge_uniforms(beta):
    with np.errstate(all="ignore"):
        assert not np.isnan(unit_index_kernel(beta, EDGE_U1, EDGE_U2)).any()


def test_log_space_kernel_vanishes_at_central_angle():
    # u1 = 0.5 puts V at 0; a zero numerator is a zero variate, not exp(-inf + inf).
    with np.errstate(divide="ignore"):
        assert log_space_kernel(1e-300, 0.0, np.array([0.5]), np.array([0.1]))[0] == 0.0


@pytest.mark.parametrize("alpha", [0.3, 0.7, 1.3, 1.7])
@pytest.mark.parametrize("beta", [-0.5, 0.0, 0.5])
def test_log_space_kernel_agrees_with_the_product_form(alpha, beta):
    u = RngStream(72).uniforms(4000)
    u1, u2 = u[0::2], u[1::2]
    product = skewed_kernel(alpha, beta, u1, u2)
    plain = (np.abs(product) > 1e-100) & (np.abs(product) < 1e100)
    assert plain.sum() > 1900
    got = log_space_kernel(alpha, beta, u1, u2)
    assert np.allclose(got[plain], product[plain], rtol=1e-9, atol=0)


def test_zero_scale_maps_infinite_draws_to_the_location():
    draws = sample_n(StableParams(0.001, 0.3), RngStream(73), 10_000)
    assert np.isinf(draws).any()
    zero = sample_n(StableParams(0.001, 0.3, gamma=0.0, delta=1.25), RngStream(73), 10_000)
    assert np.all(zero == 1.25)


# ------------------------------------------------------------- distribution

@pytest.mark.parametrize("seed,stream_id", [(1.7, 0), (1.0, 0), (1, 2.0), ("1", 0)])
def test_stream_refuses_non_integer_keys(seed, stream_id):
    with pytest.raises(TypeError):
        RngStream(seed, stream_id)


@pytest.mark.parametrize("seed,stream_id", [(-1, 0), (0, -1)])
def test_stream_refuses_negative_keys_at_construction(seed, stream_id):
    # RngStream's own check, not numpy's SeedSequence refusal, which reads otherwise.
    with pytest.raises(ValueError, match="^seed and stream_id must be non-negative$"):
        RngStream(seed, stream_id)


def test_stream_repr_and_key():
    stream = RngStream(7, 3)
    assert repr(stream) == "RngStream(seed=7, stream_id=3)"
    assert (stream.seed, stream.stream_id) == (7, 3)
    assert repr(stream.substream(4)) == "RngStream(seed=7, stream_id=7)"


def test_substream_of_undrawn_base_keeps_the_seed_schedule():
    # The (seed, stream_id) schedule: PCG64 from SeedSequence([seed, id]).
    def eager(seed, stream_id):
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, stream_id])))

    base = RngStream(11, 5)
    for i in (0, 1, 9):
        sub, ref = base.substream(i), eager(11, 5 + i)
        want_u = np.maximum(ref.random(6), 2.0 ** -53)
        want_n = ref.standard_normal(6)
        assert sub.uniforms(6).tobytes() == want_u.tobytes()
        assert sub.normals(6).tobytes() == want_n.tobytes()
    assert base.normals(3).tobytes() == eager(11, 5).standard_normal(3).tobytes()


def test_uniforms_clamp_an_exact_zero_to_the_smallest_53_bit_value(monkeypatch):
    stream = RngStream(1)
    monkeypatch.setattr(stream, "_gen", SimpleNamespace(random=np.zeros))
    assert stream.uniforms(3).tolist() == [2.0 ** -53] * 3


def test_stream_accepts_numpy_integer_keys():
    stream = RngStream(np.int64(3), np.uint8(2))
    key = (stream.seed, stream.stream_id)
    assert key == (3, 2) and all(type(k) is int for k in key)
    assert np.array_equal(stream.uniforms(4), RngStream(3, 2).uniforms(4))


def test_gaussian_branch_moments():
    draws = sample_n(StableParams(alpha=2.0), RngStream(105), 100_000)
    assert abs(float(draws.mean())) < 0.05
    assert 1.94 <= float(draws.var(ddof=1)) <= 2.06


def test_cauchy_branch_against_analytic_cdf():
    draws = sample_n(StableParams(alpha=1.0, beta=0.0), RngStream(101), 10_000)
    report = empirical_ks_one_sample(draws, cauchy_cdf, significance=0.01)
    assert report.passed, report


def test_levy_branch_reciprocal_is_chi_square():
    draws = sample_n(StableParams(alpha=0.5, beta=1.0), RngStream(103), 10_000)
    assert np.all(draws > 0)
    report = empirical_ks_one_sample(1.0 / draws, chi2_1dof_cdf, significance=0.01)
    assert report.passed, report


def test_unit_index_branch_agrees_with_cauchy_at_zero_skew():
    # Dispatch sends (alpha=1, beta=0) down the one-uniform arctangent branch;
    # the logarithmic branch must produce the same law when forced with beta=0.
    xs = sample_n(StableParams(alpha=1.0, beta=0.0), RngStream(601), 10_000)
    u = RngStream(602).uniforms(20_000)
    ys = unit_index_kernel(0.0, u[0::2], u[1::2])
    report = empirical_ks_two_sample(xs, ys, significance=0.01)
    assert report.passed, report


@pytest.mark.parametrize("alpha", [0.6, 1.0, 1.3, 1.7, 2.0])
def test_convolution_stability(alpha):
    # (X1 + X2) * 2**(-1/alpha) must match a fresh draw in distribution.
    stream = RngStream(310)
    x1 = sample_n(StableParams(alpha=alpha), stream, 10_000)
    x2 = sample_n(StableParams(alpha=alpha), stream, 10_000)
    fresh = sample_n(StableParams(alpha=alpha), stream, 10_000)
    report = empirical_ks_two_sample((x1 + x2) * 2.0 ** (-1.0 / alpha), fresh, significance=0.01)
    assert report.passed, (alpha, report)


def test_skewed_branch_against_scipy():
    draws = sample_n(StableParams(alpha=1.3, beta=0.7), RngStream(808), 1500)
    report = empirical_ks_one_sample(draws, lambda x: levy_stable.cdf(x, 1.3, 0.7), significance=0.01)
    assert report.passed, report


def test_unit_index_branch_against_scipy():
    draws = sample_n(StableParams(alpha=1.0, beta=0.5), RngStream(809), 1500)
    report = empirical_ks_one_sample(draws, lambda x: levy_stable.cdf(x, 1.0, 0.5), significance=0.01)
    assert report.passed, report
